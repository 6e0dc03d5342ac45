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
