"""Golden CLI bytes: a fixed list of requests run through ``cli.main`` in
process, with stdout, stderr and the exit code compared against
``tests/data/cli_golden.json``.

The data pins what the CLI prints, so a change that should keep every byte
is checked by this test.  After a deliberate output change, rewrite the
data with ``python tests/test_cli_golden.py`` and review the diff.
"""

import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

DATA = Path(__file__).with_name("data") / "cli_golden.json"

_VERIFY = ["verify", "--check", "all", "--t-max", "3", "--order", "12"]
REQUESTS = [
    *[_VERIFY + fmt + bad for fmt in ([], ["--format", "json"])
      for bad in ([], ["--inject-mismatch"])],
    *[["table", "--kind", kind, "--t", "3", "--n-max", "12", "--source", "both",
       "--format", fmt]
      for kind in ("pbar", "g", "p_bounded", "p_exact", "d", "overline_total")
      for fmt in ("csv", "json")],
    *[["coeff", "--gf", gf, "--t", "3", "--n", str(n)]
      for gf in ("bk", "abr", "th1", "th2") for n in (0, 1, 5, 12)],
    *[["coeff", "--gf", "oqbinom", "--M", str(m), "--N", str(n), "--n", str(e)]
      for m, n in ((3, 2), (4, 4)) for e in (0, 3, 7)],
    # Single-source tables, the t-free kinds with and without --t, and every
    # exit-2 path of table and coeff that argparse itself accepts.
    *[["table", "--kind", kind, "--t", "2", "--n-max", "9", "--source", src,
       "--format", fmt]
      for kind in ("pbar", "p_exact") for src in ("formula", "oracle")
      for fmt in ("csv", "json")],
    *[["table", "--kind", kind, *t, "--n-max", "9", "--format", fmt]
      for kind in ("d", "overline_total") for t in ([], ["--t", "4"])
      for fmt in ("csv", "json")],
    ["table", "--kind", "pbar", "--t", "2", "--n-max", "0"],
    ["table", "--kind", "g", "--n-max", "5"],
    ["table", "--kind", "p_bounded", "--t", "-1", "--n-max", "5"],
    ["table", "--kind", "g", "--t", "0", "--n-max", "5"],
    ["coeff", "--gf", "th1", "--n", "4"],
    ["coeff", "--gf", "abr", "--t", "1", "--n", "4"],
    ["coeff", "--gf", "bk", "--t", "2", "--n", "-1"],
    ["coeff", "--gf", "oqbinom", "--M", "3", "--n", "2"],
    ["coeff", "--gf", "oqbinom", "--M", "-1", "--N", "2", "--n", "2"],
    *[["coeff", "--gf", "overline_total", "--n", str(n)] for n in (0, 1, 12)],
]


def run(argv):
    """Run the CLI in process; returns (exit code, stdout, stderr)."""
    from overq.cli import main

    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _golden():
    return {tuple(r["argv"]): r for r in json.loads(DATA.read_text())}


def test_golden_data_covers_every_request():
    assert sorted(_golden()) == sorted(map(tuple, REQUESTS))


@pytest.mark.parametrize("argv", REQUESTS, ids=" ".join)
def test_cli_prints_the_golden_bytes(argv):
    want = _golden()[tuple(argv)]
    assert run(argv) == (want["exit"], want["stdout"], want["stderr"])


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    records = []
    for argv in REQUESTS:
        code, out, err = run(argv)
        records.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
    DATA.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} requests to {DATA}")
