"""Acceptance gate: the ten shipping criteria, one test and one printed
pass/fail line each.  Run with -s (or look at captured stdout) to read the
lines; every comparison is exact."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from overq.enumeration import (
    count_g,
    count_opbar_bounded,
    count_opbar_total,
    count_p_bounded_diff,
    count_p_exact_diff,
    divisor_count,
    oracle_series,
    over_qbinom_box_oracle,
)
from overq.identities import (
    check_corollary,
    check_oqbinom_pbar,
    check_pbar_g_relation,
    check_three_cases,
    gf_G,
    gf_abr,
    gf_bk,
    gf_overline_total,
    gf_p_exact_low,
    gf_pbar,
    gf_pbar_direct,
    lambert_divisor,
    proof_chain_theorem1,
)
from overq.qfunctions import (
    QMonomial,
    over_qbinom_ladder,
    over_qbinom_rec,
    over_qbinom_sum,
    pochhammer_inf,
    verify_chu,
)
from overq.series import (
    QSeries,
    add,
    coeff,
    div_one_minus,
    equal_to_order,
    from_terms,
    invert,
    mul,
    mul_one_minus,
    one,
)


# Child processes import overq from this checkout's src/, as the tests do.
SRC = str(Path(__file__).resolve().parent.parent / "src")
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
}


def _report(num, label, failures, elapsed=None, limit=None):
    ok = not failures and (limit is None or elapsed < limit)
    tag = "PASS" if ok else "FAIL"
    timing = ""
    if limit is not None:
        timing = f" [{elapsed:.2f}s, limit {limit:.0f}s]"
    print(f"criterion {num:2d} {tag}: {label}{timing}")
    assert ok, (failures[:5], elapsed)


def test_criterion_01_worked_constants():
    t0 = perf_counter()
    failures = []
    oracle = {
        "p(4)": count_p_bounded_diff(4, 3),
        "pbar(4)": count_opbar_total(4),
        "pbar_1(4)": count_opbar_bounded(4, 1),
        "g_1(4)": count_g(4, 1),
        "p_1(4)": count_p_bounded_diff(4, 1),
        "p(4,1)": count_p_exact_diff(4, 1),
        "pbar_0(4)": count_opbar_bounded(4, 0),
        "g_0(4)": count_g(4, 0),
    }
    formula = {
        "p(4)": coeff(invert(pochhammer_inf(QMonomial(1, 1), 5)), 4),
        "pbar(4)": coeff(gf_overline_total(5), 4),
        "pbar_1(4)": coeff(gf_pbar(1, 5), 4),
        "g_1(4)": coeff(gf_G(1, 5), 4),
        "p_1(4)": coeff(gf_bk(1, 5), 4),
        "p(4,1)": coeff(gf_p_exact_low(1, 5), 4),
        "pbar_0(4)": coeff(gf_pbar(0, 5), 4),
        "g_0(4)": coeff(lambert_divisor(5), 4),  # g_0(n) = d(n)
    }
    expected = {
        "p(4)": 5, "pbar(4)": 14, "pbar_1(4)": 10, "g_1(4)": 8,
        "p_1(4)": 4, "p(4,1)": 1, "pbar_0(4)": 6, "g_0(4)": 3,
    }
    for key, want in expected.items():
        if oracle[key] != want:
            failures.append(("oracle", key, oracle[key], want))
        if formula[key] != want:
            failures.append(("formula", key, formula[key], want))
    _report(1, "worked constants at n = 4, oracle and formula",
            failures, perf_counter() - t0, 1.0)


def test_criterion_02_half_weighted_closed_form():
    t0 = perf_counter()
    failures = []
    for t in range(1, 9):
        s = gf_G(t, 61)
        o = oracle_series("g_t", t, 60)
        ok, mismatch = equal_to_order(s, o, 60)
        if not ok:
            failures.append((t, mismatch))
    _report(2, "gf_G(t) = enumerated g_t(n), t in 1..8, n in 1..60",
            failures, perf_counter() - t0, 30.0)


def test_criterion_03_bounded_spread_closed_form():
    failures = []
    for t in range(0, 9):
        s = gf_pbar(t, 61)
        ok, mismatch = equal_to_order(s, oracle_series("pbar_t", t, 60), 60)
        if not ok:
            failures.append((t, "oracle", mismatch))
        ok, mismatch = equal_to_order(s, gf_pbar_direct(t, 61), 60)
        if not ok:
            failures.append((t, "direct", mismatch))
    _report(3, "gf_pbar(t) = enumerated and direct sums, t in 0..8, n in 1..60",
            failures)


def test_criterion_04_plain_partition_closed_forms():
    failures = []
    for t in range(1, 9):
        ok, mismatch = equal_to_order(
            gf_bk(t, 61), oracle_series("p_t", t, 60), 60
        )
        if not ok:
            failures.append(("bounded", t, mismatch))
    for t in range(2, 9):
        ok, mismatch = equal_to_order(
            gf_abr(t, 61), oracle_series("p_exact_t", t, 60), 60
        )
        if not ok:
            failures.append(("exact", t, mismatch))
    for n in range(1, 201):
        if count_p_exact_diff(n, 0) != divisor_count(n):
            failures.append(("p(n,0)", n))
        if count_p_exact_diff(n, 1) != n - divisor_count(n):
            failures.append(("p(n,1)", n))
    _report(4, "partition closed forms (bounded, exact, low-spread), n to 200",
            failures)


def test_criterion_05_over_qbinom_routes():
    t0 = perf_counter()
    failures = []
    for m in range(13):
        for n in range(13):
            a = over_qbinom_sum(m, n)
            if a != over_qbinom_rec(m, n):
                failures.append(("rec", m, n))
            if a != over_qbinom_ladder(m, n, m * n + 1):
                failures.append(("ladder", m, n))
            if a != over_qbinom_box_oracle(m, n):
                failures.append(("box", m, n))
            if a != over_qbinom_sum(n, m):
                failures.append(("sym", m, n))
    _report(5, "explicit sum = recurrence = held ladder = box walk, 0 <= M,N <= 12",
            failures, perf_counter() - t0, 10.0)


def test_criterion_06_proof_chain_and_terminating_sum():
    failures = []
    for t in range(1, 7):
        r = proof_chain_theorem1(t, 40)
        if not r.passed:
            failures.append(("chain", t, r.message))
    for n in range(0, 9):
        r = verify_chu(QMonomial(-1, 0), n, QMonomial(-1, 1), 41)
        if not r.passed:
            failures.append(("chu", n, r.message))
    _report(6, "five-step chain t in 1..6 and terminating sum n in 0..8, "
               "order 40", failures)


def test_criterion_07_relations():
    failures = []
    for t in range(1, 9):
        r = check_pbar_g_relation(t, 60)
        if not r.passed:
            failures.append(("relation", t, r.message))
    for t in range(0, 7):
        r = check_oqbinom_pbar(t, 40)
        if not r.passed:
            failures.append(("oqbinom", t, r.message))
    for t in range(1, 7):
        r = check_three_cases(t, 40)
        if not r.passed:
            failures.append(("cases", t, r.message))
    _report(7, "adjacent-bound relation, box expansion, three-case split",
            failures)


def test_criterion_08_parity_and_mod4():
    t0 = perf_counter()
    failures = []
    for t in range(0, 6):
        r = check_corollary(t, 200)
        if not r.passed:
            failures.append((t, r.status, r.message))
    _report(8, "evenness, mod-4 congruence, square test, t in 0..5, n to 200",
            failures, perf_counter() - t0, 10.0)


def test_criterion_09_series_engine_properties():
    failures = []
    rng = random.Random(0xacce97)

    def rand_series(invertible=False):
        lo = rng.randint(-3, 3)
        width = rng.randint(1, 8)
        cs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(width)]
        if invertible and not any(cs):
            cs[0] = Fraction(1)
        return QSeries(lo, lo + width, cs)

    cases = 0
    for _ in range(300):
        a, b, c = rand_series(), rand_series(), rand_series()
        if not (add(a, b) == add(b, a)
                and mul(a, b) == mul(b, a)
                and mul(mul(a, b), c) == mul(a, mul(b, c))
                and mul(a, add(b, c)) == add(mul(a, b), mul(a, c))):
            failures.append(("axioms", a, b, c))
        cases += 1
    for _ in range(200):
        a = rand_series(invertible=True)
        prod = mul(a, invert(a))
        unit = from_terms([(0, 1)] if prod.prec >= 1 else [], prod.prec)
        ok, mismatch = equal_to_order(prod, unit, prod.prec - 1)
        if not ok:
            failures.append(("roundtrip", a, mismatch))
        cases += 1
    if cases != 500:
        failures.append(("case count", cases))
    # precision contract: the same pipeline at higher prec truncates back
    for prec in (20, 33):
        wide = gf_pbar(3, prec + 14).truncate(prec)
        if wide != gf_pbar(3, prec):
            failures.append(("rederive", prec))
    lhs = mul_one_minus(div_one_minus(one(50), 1, 3), -1, 5).truncate(18)
    if lhs != mul_one_minus(div_one_minus(one(18), 1, 3), -1, 5):
        failures.append(("rederive helpers",))
    _report(9, "500 randomized ring/inversion cases and precision contract",
            failures)


def test_criterion_10_cli_verification_surface():
    failures = []
    base = [sys.executable, "-m", "overq", "verify", "--check", "all",
            "--format", "json"]
    out = subprocess.run(base, capture_output=True, text=True, env=CHILD_ENV)
    if out.returncode != 0:
        failures.append(("exit", out.returncode, out.stderr[-200:]))
    else:
        doc = json.loads(out.stdout)
        if list(doc) != ["order", "checks"] or doc["order"] != 60:
            failures.append(("schema top-level", list(doc)))
        for entry in doc["checks"]:
            if list(entry) != ["name", "params", "status", "first_mismatch",
                               "message"]:
                failures.append(("schema entry", entry.get("name")))
                break
            if entry["status"] != "pass" or entry["first_mismatch"] is not None:
                failures.append(("status", entry["name"], entry["params"]))
    corrupted = subprocess.run(
        base + ["--inject-mismatch"], capture_output=True, text=True, env=CHILD_ENV
    )
    if corrupted.returncode != 1:
        failures.append(("corrupted exit", corrupted.returncode))
    else:
        doc = json.loads(corrupted.stdout)
        bad = [e for e in doc["checks"] if e["status"] == "fail"]
        if not bad or any(e["first_mismatch"] is None for e in bad):
            failures.append(("corrupted mismatch missing",))
    _report(10, "full verification suite over the console entry point",
            failures)
