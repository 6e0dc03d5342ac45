"""Quick self-test of the benchmark, in a few seconds:

    python3 perfbench/selftest.py

* every workload, and the negative control, runs at tiny sizes, untraced
  and traced, with no failed request and exactly the metrics that
  BENCHMARK.json names;
* the per-layer counts repeat exactly between two traced runs, and the walk
  count is one per oracle-backed check;
* deliberately wrong outputs are caught by every kind of check;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import tracer
import workloads


def _cli(req: workloads.Request) -> str:
    proc = subprocess.run([sys.executable, "-m", "overq", *req.argv],
                          env=run.child_env(), capture_output=True, text=True)
    return proc.stdout


def _bump_last(text: str, step: int) -> str:
    """Add step to the last integer in text."""
    head, _, tail = text.rstrip().rpartition("\n")
    digits = "".join(ch for ch in tail if ch.isdigit())
    return (head + "\n" if head else "") + tail.replace(digits, str(int(digits) + step))


def check_runs(bench: dict) -> None:
    e2e = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    if per_layer != {m for m, _ in tracer.PER_LAYER}:
        raise AssertionError("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    if {w["name"] for w in bench["workloads"]} != set(workloads.WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    counts = {}
    for name in workloads.WORKLOADS:
        for trace in (False, True, True):
            result = run.run(name, seed=7, seconds=0, trace=trace, tiny=True)["result"]
            if not result["correct"] or result["failed"]:
                raise AssertionError(f"{name} trace={trace}: {result}")
            if set(result["metrics"]) != (per_layer if trace else e2e):
                raise AssertionError(f"{name} trace={trace}: metric names differ")
            if trace:
                units = dict(tracer.PER_LAYER)
                now = {m: v["value"] for m, v in result["metrics"].items()
                       if units[m] != "s"}
                if counts.setdefault(name, now) != now:
                    raise AssertionError(f"{name}: counts differ between traced runs")
    # Tiny verify-suite: t <= 3, so th1 3 + th2 4 + bk 3 + abr 2 walks.
    if counts["verify-suite"]["kernels.window_diff_counts.calls"] != 12:
        raise AssertionError("verify-suite: expected 12 oracle walks")
    if counts["series-deep"]["kernels.window_diff_counts.calls"] != 0:
        raise AssertionError("series-deep: expected no oracle walks")


def check_wrong_values_caught() -> None:
    verify = workloads.verify_request("th2", 2, 12)
    out = _cli(verify)
    if verify.check(0, out) is not None:
        raise AssertionError("verify: a correct output was rejected")
    if verify.check(0, out.replace('"pass"', '"fail"', 1)) is None:
        raise AssertionError("verify: a failing report was not caught")
    if verify.check(1, out) is None:
        raise AssertionError("verify: exit 1 was not caught")
    control = workloads.negative_control()
    if control.check(0, _cli(workloads.verify_request("th1", 2, 20))) is None:
        raise AssertionError("negative control: a passing th1 was not caught")
    for kind, t, fmt in (("pbar", 2, "csv"), ("d", None, "json"), ("p_exact", 2, "csv")):
        table = workloads.table_request(kind, t, 12, fmt)
        out = _cli(table)
        if table.check(0, out) is not None:
            raise AssertionError(f"table {kind}: a correct output was rejected")
        # Change one row consistently in both columns, so match stays true.
        lines = out.splitlines()
        if fmt == "csv":
            n, f, o, m = lines[-1].split(",")
            lines[-1] = ",".join((n, str(int(f) + 4), str(int(o) + 4), m))
        else:
            doc = json.loads(out)
            doc["rows"][-1]["formula"] += 4
            doc["rows"][-1]["oracle"] += 4
            lines = [json.dumps(doc)]
        if table.check(0, "\n".join(lines)) is None:
            raise AssertionError(f"table {kind}: a wrong value was not caught")
    for gf, t, n in (("th2", 3, 40), ("th1", 3, 40), ("overline_total", None, 30)):
        coeff = workloads.coeff_request(gf, t, n)
        out = _cli(coeff)
        if coeff.check(0, out) is not None:
            raise AssertionError(f"coeff {gf}: a correct output was rejected")
        if coeff.check(0, _bump_last(out, 4)) is None:
            raise AssertionError(f"coeff {gf}: a wrong value was not caught")


def check_bare_directory() -> None:
    bare = run.RESULTS / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-suite",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError("a directory without the program did not fail cleanly")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_runs(bench)
    check_wrong_values_caught()
    check_bare_directory()
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
