"""Golden CLI bytes: a fixed list of requests run through ``cli.main`` in
process, with stdout, stderr and the exit code compared against
``tests/data/cli_golden.json``.

The data pins what the CLI prints, so a change that should keep every byte
is checked by this test.  After a deliberate output change, rewrite the
data with ``python tests/test_cli_golden.py`` and review the diff.

A subset also runs through the real entry point, ``python -m overq``, whose
``cli.run()`` ends the process with ``os._exit``: the same bytes must reach
the pipes, and the paths that keep the normal exit (a broken pipe, a
profiler, a debugger) must end as the interpreter ends them.
"""

import json
import os
import subprocess
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
    # A request argparse itself rejects, with a usage line short enough
    # not to wrap at any terminal width.
    [],
    *[["coeff", "--gf", "overline_total", "--n", str(n)] for n in (0, 1, 12)],
    # The deep paths: the check suite at its defaults (t <= 8, order 60),
    # a spread walk to n = 92, where the copies of the largest part
    # counted in bulk reach far past the tables above, and the
    # overpartition totals to n = 48, read from a walk at spread bound 47.
    *[["verify", "--check", "all", "--format", "json", *bad]
      for bad in ([], ["--inject-mismatch"])],
    ["table", "--kind", "g", "--t", "5", "--n-max", "92", "--source", "both"],
    ["table", "--kind", "overline_total", "--n-max", "48", "--source", "both"],
]


def run(argv):
    """Run the CLI in process; returns (exit code, stdout, stderr)."""
    from overq.cli import main

    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _golden():
    return {tuple(r["argv"]): r for r in json.loads(DATA.read_text())}


def test_golden_data_covers_every_request():
    assert sorted(_golden()) == sorted(map(tuple, REQUESTS))


@pytest.mark.parametrize("argv", REQUESTS, ids=" ".join)
def test_cli_prints_the_golden_bytes(argv):
    want = _golden()[tuple(argv)]
    assert run(argv) == (want["exit"], want["stdout"], want["stderr"])


# -- the real entry point --------------------------------------------------------

# Children import overq from this checkout's src/, and their standard
# streams are block-buffered, as they are for a user's pipes: output that
# is not flushed before ``os._exit`` would be lost.
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
}
_PBAR = ["table", "--kind", "pbar", "--t", "3", "--n-max", "12", "--source", "both",
         "--format"]
ENTRY_REQUESTS = [
    ["verify", "--check", "all", "--format", "json"],
    ["verify", "--check", "all", "--format", "json", "--inject-mismatch"],
    _PBAR + ["csv"],
    _PBAR + ["json"],
    ["table", "--kind", "g", "--n-max", "5"],
    [],
]


def run_process(argv, prefix=(), env=CHILD_ENV, stdout=subprocess.PIPE):
    """Run ``python [prefix] -m overq argv`` in a fresh process."""
    return subprocess.run(
        [sys.executable, *prefix, "-m", "overq", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize("argv", ENTRY_REQUESTS, ids=" ".join)
def test_entry_point_prints_the_golden_bytes(argv):
    want = _golden()[tuple(argv)]
    done = run_process(argv)
    assert (done.returncode, done.stdout, done.stderr) == (
        want["exit"], want["stdout"], want["stderr"])


@pytest.mark.parametrize("unbuffered, code, first", [
    (False, 120, "Exception ignored in: "),  # the final flush fails
    (True, 1, "Traceback "),  # print itself raises inside main()
], ids=["buffered", "unbuffered"])
def test_entry_point_on_a_broken_stdout_pipe(unbuffered, code, first):
    env = {**CHILD_ENV, "PYTHONUNBUFFERED": "1"} if unbuffered else CHILD_ENV
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_process(["coeff", "--gf", "bk", "--t", "3", "--n", "5"],
                           env=env, stdout=write_end)
    finally:
        os.close(write_end)
    lines = done.stderr.splitlines()
    assert done.returncode == code
    # Python 3.13 names the failed final flush: "Exception ignored on
    # flushing sys.stdout:".
    assert lines[0].startswith(first) or (
        not unbuffered and sys.version_info >= (3, 13)
        and lines[0] == "Exception ignored on flushing sys.stdout:")
    assert lines[-1] == "BrokenPipeError: [Errno 32] Broken pipe"


def test_entry_point_under_cprofile_prints_its_stats():
    done = run_process(["coeff", "--gf", "bk", "--t", "3", "--n", "5"],
                       prefix=("-m", "cProfile"))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("7\n")
    assert "function calls" in done.stdout and "Ordered by" in done.stdout


def test_entry_point_under_pdb_returns_to_the_debugger():
    # With no breakpoint, pdb's continue drops its tracer; the program's
    # exit must still reach pdb, which reports it and restarts.
    done = subprocess.run(
        [sys.executable, "-m", "pdb", "-m", "overq",
         "coeff", "--gf", "bk", "--t", "3", "--n", "5"],
        input="continue\nquit\n", capture_output=True, text=True,
        env=CHILD_ENV, timeout=60,
    )
    assert done.returncode == 0
    assert "7\nThe program exited via sys.exit(). Exit status: 0\n" in done.stdout


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    records = []
    for argv in REQUESTS:
        code, out, err = run(argv)
        records.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
    DATA.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} requests to {DATA}")
