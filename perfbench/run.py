"""Benchmark of the overq CLI, end to end and, with --trace 1, layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: the requests of a workload's round run one
after another, each in a fresh ``python3 -m overq`` process (with --trace 1,
a fresh perfbench/tracer.py process), timed from spawn to exit.  Rounds
repeat while the next one is expected to end within --seconds; at least one
round runs.  Between rounds a batch of set-up samples times a fresh
interpreter running ``import overq.cli``.  Every output is checked against
reference.py; a request with a wrong exit code or output counts as failed.
An untimed request (verify-suite's negative control) is checked in every
round but measured in none, so that every round attempts the same requests.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics (end-to-end with --trace 0, per-layer with
--trace 1).  The full record of the run goes to perfbench-results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench-results"
SETUP_BATCH = 8  # set-up samples after each round, and before the first
REQUEST_TIMEOUT_S = 150.0


class Child(NamedTuple):
    """A finished child process: exit code, wall time, peak RSS and output."""

    rc: int
    wall_s: float
    peak_rss_kib: int
    out: bytes


def spawn(argv: Sequence[str], env: Dict[str, str], capture: bool = True) -> Child:
    """Run argv to its end; time it from spawn to exit and read its rusage."""
    with tempfile.TemporaryFile(dir=RESULTS) as out, \
            open(os.devnull, "wb") as devnull:
        sink = out if capture else devnull
        actions = [(os.POSIX_SPAWN_DUP2, sink.fileno(), 1)]
        if capture:
            actions.append((os.POSIX_SPAWN_DUP2, devnull.fileno(), 2))
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], list(argv), env, file_actions=actions)
        reaped = False
        try:
            fd = os.pidfd_open(pid)
            try:
                ready, _, _ = select.select([fd], [], [], REQUEST_TIMEOUT_S)
            finally:
                os.close(fd)
            if not ready:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            reaped = True
        finally:
            if not reaped:  # interrupted: leave no child behind
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        wall = time.perf_counter() - t0
        out.seek(0)
        data = out.read() if capture else b""
    return Child(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss, data)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it; "unknown"
    in a copy that is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_file = git / ref_name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def probe(env: Dict[str, str]) -> str:
    """Untimed first import, which also compiles the bytecode; returns the
    kernel backend after checking that overq comes from this checkout."""
    code = (f"import compileall; compileall.compile_dir({str(ROOT / 'src')!r}, quiet=1); "
            "import overq, overq.cli, overq.kernels; "
            "print(overq.kernels.BACKEND); print(overq.__file__)")
    child = spawn([sys.executable, "-c", code], env)
    lines = child.out.decode().split()
    if child.rc != 0 or len(lines) != 2:
        raise SystemExit(f"error: cannot import overq from {ROOT / 'src'}")
    if not Path(lines[1]).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: overq was imported from {lines[1]}, not this checkout")
    return lines[0]


def setup_samples(env: Dict[str, str], count: int) -> List[float]:
    argv = [sys.executable, "-c", "import overq.cli"]
    return [spawn(argv, env, capture=False).wall_s for _ in range(count)]


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    """One benchmark run; returns the full record, including the result line."""
    src = ROOT / "src" / "overq" / "cli.py"
    if not src.is_file():
        raise SystemExit(f"error: {src} is missing; run from a checkout of overq")
    RESULTS.mkdir(exist_ok=True)
    env = child_env()
    backend = probe(env)
    requests = workloads.build(workload, seed, tiny)
    for req in requests:
        req.reference()
    spans_dir = RESULTS / f"spans-{workload}-seed{seed}"
    if trace:
        spans_dir.mkdir(exist_ok=True)

    attempted = failed = 0
    errors: List[str] = []

    def judge(req: workloads.Request, child: Child) -> bool:
        nonlocal attempted, failed
        attempted += 1
        try:
            fault = req.check(child.rc, child.out.decode())
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            fault = f"unreadable output: {exc!r}"
        if fault:
            failed += 1
            errors.append(f"{' '.join(req.argv)}: {fault}")
        return not fault

    batch = 2 if tiny else SETUP_BATCH
    setup = setup_samples(env, batch)
    rounds: List[List[dict]] = []
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        records = []
        for i, req in enumerate(requests):
            traced = trace and req.timed
            if traced:
                spans = spans_dir / f"q{i:02d}.json"
                spans.unlink(missing_ok=True)
                argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"),
                        str(spans), "--", *req.argv]
            else:
                argv = [sys.executable, "-m", "overq", *req.argv]
            child = spawn(argv, env)
            ok = judge(req, child)
            if not req.timed:
                continue
            record = {"argv": list(req.argv), "ok": ok, "wall_s": child.wall_s,
                      "peak_rss_kib": child.peak_rss_kib, "output_bytes": len(child.out)}
            if traced:
                # A request killed at its time limit leaves no spans.
                doc = json.loads(spans.read_text()) if spans.exists() else {"names": [], "spans": []}
                record["layers"] = tracer.summarize(doc, len(child.out))
            records.append(record)
        rounds.append(records)
        round_s = time.perf_counter() - t_round
        setup += setup_samples(env, batch)
        if time.perf_counter() - start + round_s > seconds:
            break

    metrics = layer_metrics(rounds) if trace else end_to_end(rounds, setup)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "backend": backend,
        "round_s": [sum(r["wall_s"] for r in rd) for rd in rounds],
        "setup_samples_s": setup, "errors": errors, "rounds": rounds,
        "result": result,
    }
    name = f"{workload}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1))
    return record


def end_to_end(rounds: List[List[dict]], setup: List[float]) -> Dict[str, dict]:
    walls = [r["wall_s"] for rd in rounds for r in rd]
    return {
        "run_s": {"value": statistics.median(sum(r["wall_s"] for r in rd) for rd in rounds),
                  "unit": "s"},
        "request_p50_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mib": {"value": max(r["peak_rss_kib"] for rd in rounds for r in rd) / 1024,
                         "unit": "MiB"},
    }


def layer_metrics(rounds: List[List[dict]]) -> Dict[str, dict]:
    """Per round, sum each layer metric over the requests (max for the
    largest coefficient); report the lower median over rounds, so that a
    count stays a count of one round."""
    out = {}
    for metric, unit in tracer.PER_LAYER:
        combine = max if metric == "series.max_coeff_bits" else sum
        per_round = [combine(r["layers"][metric] for r in rd) for rd in rounds]
        out[metric] = {"value": statistics.median_low(per_round), "unit": unit}
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that spawn() kills its child on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in record["errors"]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
