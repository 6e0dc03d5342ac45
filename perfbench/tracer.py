"""Run one overq CLI request with a span around every call into each layer.

    python3 perfbench/tracer.py SPANS_FILE -- overq-arguments...

The wrappers are installed from outside, where each caller looks the name
up, so no file of the program changes: identities, qfunctions and the CLI
import series, qfunctions, enumeration and identities functions by name,
while series, enumeration and qfunctions reach the kernels through the
``kernels`` module.  Each span records its name, start, end, parent, the
time its child spans cover, whether it is the outermost open span of its
metric group, and a work count for the calls that have one.  The spans are
kept in memory and written to SPANS_FILE as JSON when the request ends;
``summarize`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from fractions import Fraction
from typing import Dict, List

from reference import walk_partitions

# Function name -> metric group, per layer.  PATCHES below says where each
# function is looked up.  Order matters: identities' verify_chu is wrapped
# again, as the chu check, on top of the qfunctions wrapper.
KERNELS = {
    "convolve": "kernels.convolve",
    "invert_unit": "kernels.invert_unit",
    "mul_one_minus": "kernels.one_minus",
    "div_one_minus": "kernels.one_minus",
    "window_diff_counts": "kernels.window_diff_counts",
    "all_partition_weighted_counts": "kernels.all_partition_weighted_counts",
}
SERIES = {
    "add": "series.add",
    "mul": "series.mul",
    "invert": "series.invert",
    "mul_one_minus": "series.one_minus",
    "div_one_minus": "series.one_minus",
    "equal_to_order": "series.equal_to_order",
}
SERIES_METHODS = {"scale": "series.scale", "times_monomial": "series.times_monomial"}
QFUNCTIONS = {
    "phi": "qfunctions.phi",
    "over_qbinom_sum": "qfunctions.over_qbinom_sum",
    "pochhammer_inf": "qfunctions.pochhammer_inf",
    "verify_chu": "qfunctions.verify_chu",
}
ENUMERATION = {
    "oracle_series": "enumeration.oracle_series",
    "count_opbar_total": "enumeration.count_opbar_total",
}
CHECKS = {
    "th1": "check_th1",
    "th2": "check_th2",
    "bk": "check_bk",
    "abr": "check_abr",
    "oqbinom": "check_oqbinom_pbar",
    "relation": "check_pbar_g_relation",
    "cases": "check_three_cases",
    "proofchain": "proof_chain_theorem1",
    "chu": "verify_chu",
    "corollary": "check_corollary",
}
IDENTITIES = {
    **{f: "identities.gf" for f in (
        "gf_G", "gf_pbar", "gf_bk", "gf_abr", "gf_overline_total",
        "gf_p_exact_low", "lambert_divisor",
    )},
    "gf_pbar_direct": "identities.direct",
    "gf_g_direct": "identities.direct",
    "run_checks": "identities.run_checks",
    **{fn: f"identities.check.{family}" for family, fn in CHECKS.items()},
}


def _pairs(la: int, lb: int, n: int) -> int:
    """Multiply-adds of a truncated product: pairs i < la, j < lb, i + j < n."""
    a = min(la, n)
    if a <= 0 or lb <= 0:
        return 0
    full = max(0, min(a, n - lb + 1))  # rows i where every j < lb fits
    return full * lb + (a - full) * n - (a - 1 + full) * (a - full) // 2


def _coeff_stats(series) -> List[int]:
    fractions = 0
    bits = 0
    for c in series.coeffs:
        if type(c) is Fraction:
            fractions += 1
            b = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
        else:
            b = abs(c).bit_length()
        if b > bits:
            bits = b
    return [fractions, bits]


WORK = {
    "kernels.convolve": lambda args, out: [_pairs(len(args[0]), len(args[1]), args[2])],
    "kernels.window_diff_counts": lambda args, out: [args[0], args[1]],
    "kernels.all_partition_weighted_counts": lambda args, out: [args[0]],
}


class Recorder:
    """Spans in call order, each [name, start, end, parent, child_s, outer, work]."""

    def __init__(self):
        self.names: List[str] = []
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._open: Dict[str, int] = {}

    def wrap(self, name: str, group: str, fn, work=None):
        spans, stack, open_groups = self.spans, self._stack, self._open
        clock = time.perf_counter
        name_id = len(self.names)
        self.names.append(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            depth = open_groups.get(group, 0)
            open_groups[group] = depth + 1
            rec = [name_id, 0.0, 0.0, parent, 0.0, depth == 0, None]
            stack.append(len(spans))
            spans.append(rec)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                open_groups[group] = depth
                rec[1] = t0
                rec[2] = t1
            if work is not None:
                rec[6] = work(args, out)
            if parent >= 0:
                # Work counting is tracing overhead: charge it to this span's
                # covered interval, not to the parent's self time.
                spans[parent][4] += clock() - t0
            return out

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"names": self.names, "spans": self.spans}, f)


# (layer, table, where the functions live, every place callers look them up)
PATCHES = (
    ("kernels", KERNELS, "kernels", ("kernels",)),
    ("series", SERIES, "series", ("series", "qfunctions", "identities", "cli")),
    ("series", SERIES_METHODS, "series.QSeries", ("series.QSeries",)),
    ("qfunctions", QFUNCTIONS, "qfunctions", ("qfunctions", "identities", "cli")),
    ("enumeration", ENUMERATION, "enumeration", ("enumeration", "identities", "cli")),
    ("identities", IDENTITIES, "identities", ("identities", "cli")),
)


def _resolve(path: str):
    module, _, attr = path.partition(".")
    obj = importlib.import_module(f"overq.{module}")
    return getattr(obj, attr) if attr else obj


def install(rec: Recorder):
    """Wrap every traced function where its callers look it up; return the
    wrapped CLI entry point."""
    from overq.series import QSeries

    def series_work(args, out):
        return _coeff_stats(out) if isinstance(out, QSeries) else None

    work = dict(WORK)
    work.update((group, series_work) for group in (*SERIES.values(), *SERIES_METHODS.values()))
    for layer, table, home, users in PATCHES:
        home, users = _resolve(home), [_resolve(u) for u in users]
        for fn, group in table.items():
            original = getattr(home, fn)
            wrapped = rec.wrap(f"{layer}.{fn}", group, original, work.get(group))
            for user in users:
                if getattr(user, fn, None) is original:
                    setattr(user, fn, wrapped)
    return rec.wrap("cli.main", "cli.main", _resolve("cli").main)


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_FILE -- overq-arguments...", file=sys.stderr)
        return 2
    rec = Recorder()
    entry = install(rec)
    try:
        return entry(argv[2:])
    finally:
        sys.stdout.flush()
        rec.dump(argv[0])


# -- per-layer metrics from the spans --------------------------------------------

LAYERS = ("kernels", "series", "qfunctions", "enumeration", "identities", "cli")

# Metric names say how each value is made: "<group>.calls" counts the spans
# of a group, "<group>.s" sums the durations of its outermost spans, and
# "<layer>.self_s" sums span durations minus the time their children cover.
# The others are work counts gathered by summarize().
PER_LAYER = [
    ("kernels.window_diff_counts.calls", "count"),
    ("kernels.window_diff_counts.s", "s"),
    ("kernels.window_diff_counts.partitions", "count"),
    ("kernels.all_partition_weighted_counts.s", "s"),
    ("kernels.all_partition_weighted_counts.partitions", "count"),
    ("kernels.convolve.calls", "count"),
    ("kernels.convolve.s", "s"),
    ("kernels.convolve.mults", "count"),
    ("kernels.invert_unit.s", "s"),
    ("kernels.one_minus.calls", "count"),
    ("kernels.one_minus.s", "s"),
    ("kernels.self_s", "s"),
    ("series.ops", "count"),
    ("series.mul.s", "s"),
    ("series.add.s", "s"),
    ("series.invert.s", "s"),
    ("series.one_minus.s", "s"),
    ("series.equal_to_order.s", "s"),
    ("series.fraction_coeffs", "count"),
    ("series.max_coeff_bits", "bits"),
    ("series.self_s", "s"),
    ("qfunctions.phi.s", "s"),
    ("qfunctions.over_qbinom_sum.s", "s"),
    ("qfunctions.pochhammer_inf.s", "s"),
    ("qfunctions.verify_chu.s", "s"),
    ("qfunctions.self_s", "s"),
    ("enumeration.oracle_series.calls", "count"),
    ("enumeration.oracle_series.s", "s"),
    ("enumeration.count_opbar_total.s", "s"),
    ("enumeration.self_s", "s"),
    ("identities.gf.s", "s"),
    ("identities.direct.s", "s"),
    *[(f"identities.check.{family}.s", "s") for family in CHECKS],
    ("identities.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
]


GROUP_OF = {"cli.main": "cli.main"}
GROUP_OF.update((f"{layer}.{fn}", group)
                for layer, table, _, _ in PATCHES for fn, group in table.items())


def summarize(doc: dict, output_bytes: int) -> Dict[str, float]:
    """Per-layer metrics of one traced request, from its spans."""
    calls: Dict[str, int] = {}
    inclusive: Dict[str, float] = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    work = {"kernels.window_diff_counts.partitions": 0,
            "kernels.all_partition_weighted_counts.partitions": 0,
            "kernels.convolve.mults": 0, "series.ops": 0,
            "series.fraction_coeffs": 0, "series.max_coeff_bits": 0,
            "cli.output_bytes": output_bytes}
    groups = [GROUP_OF[name] for name in doc["names"]]
    layers = [name.split(".", 1)[0] for name in doc["names"]]
    for name_id, t0, t1, _parent, child_s, outer, counts in doc["spans"]:
        group, layer = groups[name_id], layers[name_id]
        calls[group] = calls.get(group, 0) + 1
        if outer:
            inclusive[group] = inclusive.get(group, 0.0) + (t1 - t0)
        self_s[layer] += (t1 - t0) - child_s
        if layer == "series":
            work["series.ops"] += 1
            if counts is not None:
                work["series.fraction_coeffs"] += counts[0]
                work["series.max_coeff_bits"] = max(work["series.max_coeff_bits"], counts[1])
        elif group == "kernels.convolve":
            work["kernels.convolve.mults"] += counts[0]
        elif group == "kernels.window_diff_counts":
            work[group + ".partitions"] += walk_partitions(counts[0], counts[1])
        elif group == "kernels.all_partition_weighted_counts":
            work[group + ".partitions"] += walk_partitions(counts[0], None)
    out: Dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        if metric.endswith(".self_s"):
            out[metric] = self_s[metric[: -len(".self_s")]]
        elif metric.endswith(".calls"):
            out[metric] = calls.get(metric[: -len(".calls")], 0)
        elif metric.endswith(".s"):
            out[metric] = inclusive.get(metric[: -len(".s")], 0.0)
        else:
            out[metric] = work[metric]
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
