"""The three workloads: seeded lists of overq CLI requests, each with a check
of its output against reference.py, which computes apart from overq.

A workload is one round of requests; a run repeats the same round.  The
seed picks the inputs inside ranges chosen so that every seed costs about
the same, which keeps run-to-run spread down:

* verify-suite: the whole three-way check at its defaults, one request,
  after an untimed negative control that must fail.
* table-sweep: every (kind, t) with t <= 6 once, ``--source both``; the
  seed picks n-max, the output format and the order.  n-max stays inside
  one 32-row walk bucket per slot ([65, 96] for t <= 5, [40, 64] for t = 6
  and overline_total), so each slot walks the same size on every seed.
* series-deep: the six check families with no oracle at order 120, plus
  three large exact coefficients whose n the seed moves by at most 1%.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import reference as ref

# Lowest admissible t of each check family (termination index n for chu).
CHECK_MIN_T = {
    "th1": 1, "th2": 0, "bk": 1, "abr": 2, "oqbinom": 0,
    "relation": 1, "cases": 1, "proofchain": 1, "chu": 0, "corollary": 0,
}
NO_ORACLE_FAMILIES = ("proofchain", "cases", "oqbinom", "relation", "chu", "corollary")
WALK_KINDS = {"pbar": 0, "g": 1, "p_bounded": 1, "p_exact": 0}  # kind -> lowest t
BRUTE_ROWS = 20  # table rows also checked by listing every partition

Check = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Request:
    argv: Tuple[str, ...]
    check: Check
    reference: Callable[[], object] = lambda: None  # fills the reference cache
    timed: bool = True  # an untimed request is checked but not measured


# -- checks ------------------------------------------------------------------------


def _verify_reports(out: str, order: int) -> List[dict]:
    doc = json.loads(out)
    if doc["order"] != order:
        raise ValueError(f"report order {doc['order']} != {order}")
    return doc["checks"]


def _report_t(report: dict) -> int:
    params = report["params"]
    return params["n"] if report["name"] == "chu" else params["t"]


def verify_request(family: str, t_max: int, order: int) -> Request:
    """`overq verify` for one family or "all"; every report must pass, and
    there must be one per admissible t."""
    families = tuple(CHECK_MIN_T) if family == "all" else (family,)
    argv = ("verify", "--check", family, "--t-max", str(t_max),
            "--order", str(order), "--format", "json")
    expected = sorted((f, t) for f in families for t in range(CHECK_MIN_T[f], t_max + 1))

    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}, expected 0"
        reports = _verify_reports(out, order)
        got = sorted((r["name"], _report_t(r)) for r in reports)
        if got != expected:
            return f"{len(got)} reports, expected {len(expected)}: {got[:3]}..."
        bad = [r for r in reports if r["status"] != "pass" or r["first_mismatch"]]
        if bad:
            return f"{len(bad)} reports do not pass, first {bad[0]['name']}"
        return None

    return Request(argv, check)


def negative_control() -> Request:
    """A corrupted th1 closed form must be caught: exit 1, every th1 report
    failing with two different coefficients."""
    argv = ("verify", "--check", "th1", "--t-max", "2", "--order", "20",
            "--inject-mismatch", "--format", "json")

    def check(rc: int, out: str) -> Optional[str]:
        if rc != 1:
            return f"injected mismatch gave exit {rc}, expected 1"
        reports = _verify_reports(out, 20)
        if len(reports) != 2 or any(
            r["name"] != "th1" or r["status"] != "fail"
            or r["first_mismatch"]["lhs"] == r["first_mismatch"]["rhs"]
            for r in reports
        ):
            return "injected mismatch was not reported as two th1 failures"
        return None

    return Request(argv, check, timed=False)


def _table_rows(out: str, fmt: str) -> List[Tuple[int, str, str, str]]:
    if fmt == "csv":
        lines = out.splitlines()
        if lines[0] != "n,formula,oracle,match":
            raise ValueError(f"csv header {lines[0]!r}")
        return [tuple(line.split(",")) for line in lines[1:]]
    doc = json.loads(out)
    return [
        (r["n"], r["formula"], r["oracle"], "true" if r["match"] is True else r["match"])
        for r in doc["rows"]
    ]


def table_request(kind: str, t: Optional[int], n_max: int, fmt: str) -> Request:
    """`overq table --source both`: every row must match, and equal the
    reference column; the first rows also equal brute force, and pbar rows
    satisfy the corollary."""
    argv = ("table", "--kind", kind) + (("--t", str(t)) if t is not None else ())
    argv += ("--n-max", str(n_max), "--source", "both", "--format", fmt)

    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}, expected 0"
        rows = _table_rows(out, fmt)
        if [int(r[0]) for r in rows] != list(range(1, n_max + 1)):
            return f"rows are not n = 1..{n_max}"
        column = ref.table_column(kind, t, n_max)
        for (n, formula, oracle, match), want in zip(rows, column):
            n = int(n)
            if match != "true":
                return f"row n={n} has match={match}"
            if int(formula) != want or int(oracle) != want:
                return f"row n={n}: formula {formula}, oracle {oracle}, reference {want}"
            if n <= BRUTE_ROWS and want != ref.brute_count(kind, t, n):
                return f"row n={n}: reference {want} differs from brute force"
            if kind == "pbar" and (fault := ref.corollary_fault(n, int(formula))):
                return fault
        return None

    def reference():
        ref.table_column(kind, t, n_max)
        for n in range(1, min(n_max, BRUTE_ROWS) + 1):
            ref.brute_count(kind, t, n)

    return Request(argv, check, reference)


def coeff_request(gf: str, t: Optional[int], n: int) -> Request:
    """`overq coeff`: the value must equal the reference; th2 values must
    also satisfy the corollary."""
    argv = ("coeff", "--gf", gf) + (("--t", str(t)) if t is not None else ())
    argv += ("--n", str(n))

    def reference() -> int:
        if gf == "overline_total":
            return ref.overline_total_coeff(n)
        return ref.smallest_part_coeff("pbar" if gf == "th2" else "g", t, n)

    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}, expected 0"
        value = int(out.strip())
        want = reference()
        if value != want:
            return f"coeff {gf} t={t} n={n}: {value}, reference {want}"
        if gf == "th2":
            return ref.corollary_fault(n, value)
        return None

    return Request(argv, check, reference)


# -- the workloads ------------------------------------------------------------------


def verify_suite(rng: random.Random, tiny: bool) -> List[Request]:
    suite = verify_request("all", 3, 12) if tiny else verify_request("all", 8, 60)
    return [negative_control(), suite]


def table_sweep(rng: random.Random, tiny: bool) -> List[Request]:
    slots: List[Tuple[str, Optional[int], int]] = []
    for kind, lo in WALK_KINDS.items():
        for t in range(lo, (1 if tiny else 6) + 1):
            if tiny:
                n_max = rng.randint(8, 16)
            else:
                n_max = rng.randint(65, 96) if t <= 5 else rng.randint(40, 64)
            slots.append((kind, t, n_max))
    slots.append(("d", None, rng.randint(8, 16) if tiny else rng.randint(40, 100)))
    slots.append(("overline_total", None, rng.randint(8, 12) if tiny else rng.randint(40, 64)))
    rng.shuffle(slots)
    return [table_request(k, t, n, rng.choice(("csv", "json"))) for k, t, n in slots]


def series_deep(rng: random.Random, tiny: bool) -> List[Request]:
    t_max, order = (2, 12) if tiny else (8, 120)
    requests = [verify_request(f, t_max, order) for f in NO_ORACLE_FAMILIES]
    if tiny:
        coeffs = [("overline_total", None, rng.randint(30, 40)),
                  ("th2", 3, rng.randint(50, 60)), ("th1", 3, rng.randint(50, 60))]
    else:
        coeffs = [("overline_total", None, rng.randint(792, 808)),
                  ("th2", 12, rng.randint(1980, 2020)), ("th1", 12, rng.randint(1980, 2020))]
    return requests + [coeff_request(*c) for c in coeffs]


WORKLOADS = {
    "verify-suite": verify_suite,
    "table-sweep": table_sweep,
    "series-deep": series_deep,
}


def build(name: str, seed: int, tiny: bool = False) -> List[Request]:
    """The round of requests of a workload; the same seed gives the same round."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), tiny)
