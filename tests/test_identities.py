"""Closed-form generating functions against direct sums, oracles, and each
other; the five-step chain behind the half-weighted closed form; the parity
and mod-4 consequences; the pass and fail report of every check family; and
the check runner's report plumbing."""

import json
import operator
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache, reduce
from math import isqrt

import pytest

from overq import enumeration, identities, kernels, qfunctions
from overq.enumeration import (
    count_g,
    divisor_count,
    oracle_series,
    over_qbinom_box_oracle,
)
from overq.identities import (
    _CHAIN_LABELS,
    ALL_CHECKS,
    CHECKS,
    _case_two_direct,
    _largest_part_sums,
    _ratio_minus_one,
    check_abr,
    check_bk,
    check_corollary,
    check_oqbinom_pbar,
    check_pbar_g_relation,
    check_th1,
    check_th2,
    check_three_cases,
    gf_G,
    gf_abr,
    gf_bk,
    gf_g_direct,
    gf_overline_total,
    gf_p_exact_low,
    gf_pbar,
    gf_pbar_direct,
    lambert_divisor,
    proof_chain_theorem1,
    run_checks,
)
from overq.qfunctions import phi, pochhammer_inf
from overq.series import (
    QMonomial,
    QSeries,
    add,
    coeff,
    div,
    div_one_minus,
    equal_to_order,
    monomial,
    mul,
    mul_one_minus,
    one,
    zero,
)


def ints(s, lo=1):
    return [int(coeff(s, e)) for e in range(lo, s.prec)]


# -- generating functions ----------------------------------------------------------


def test_lambert_series_is_the_divisor_series():
    s = lambert_divisor(40)
    assert s.lo == 1
    for n in range(1, 40):
        assert coeff(s, n) == divisor_count(n), n


def test_gf_bk_values():
    assert coeff(gf_bk(1, 6), 4) == 4
    assert ints(gf_bk(1, 6)) == [1, 2, 3, 4, 5]
    ok, mismatch = equal_to_order(gf_bk(3, 31), oracle_series("p_t", 3, 30), 30)
    assert ok, mismatch


def test_gf_abr_values():
    assert coeff(gf_abr(2, 8), 5) == 1
    ok, mismatch = equal_to_order(
        gf_abr(2, 31), oracle_series("p_exact_t", 2, 30), 30
    )
    assert ok, mismatch
    with pytest.raises(ValueError):
        gf_abr(1, 10)


def test_gf_abr_below_spread_t_makes_no_kernel_call(monkeypatch):
    # Spread t needs n >= t + 2, so below that the series is zero and is
    # made with no kernel call, however large t is.
    def no_kernel(*args):
        raise AssertionError("no kernel call expected")
    monkeypatch.setattr(kernels, "one_minus_chain", no_kernel)
    s = gf_abr(10**9, 5)
    assert (s.lo, s.prec, s.coeffs) == (5, 5, ())
    s = gf_abr(4, 6)
    assert (s.lo, s.prec, s.coeffs) == (3, 6, (0, 0, 0))


def test_gf_exact_low_spread_values():
    ok, _ = equal_to_order(gf_p_exact_low(0, 31),
                           oracle_series("p_exact_t", 0, 30), 30)
    assert ok
    ok, _ = equal_to_order(gf_p_exact_low(1, 31),
                           oracle_series("p_exact_t", 1, 30), 30)
    assert ok
    with pytest.raises(ValueError):
        gf_p_exact_low(2, 10)


def test_divisor_series_windows_are_valid_at_every_prec():
    # The window starts at 1 but never past prec: an empty window at prec
    # when prec < 1.  The validating constructor rejects any other shape.
    for prec in range(-3, 3):
        for s in (lambert_divisor(prec), gf_p_exact_low(0, prec),
                  gf_p_exact_low(1, prec)):
            assert QSeries(s.lo, s.prec, s.coeffs) == s, prec
            assert (s.lo, s.prec) == (min(1, prec), prec), prec


@pytest.mark.parametrize("prec", [-2, 0])
@pytest.mark.parametrize("build", [
    lambda prec: gf_G(3, prec), lambda prec: gf_pbar(0, prec),
    lambda prec: gf_pbar(3, prec), lambda prec: gf_bk(3, prec),
    lambda prec: gf_abr(3, prec), lambda prec: gf_p_exact_low(0, prec),
    lambda prec: gf_p_exact_low(1, prec), gf_overline_total, lambert_divisor,
    lambda prec: gf_pbar_direct(3, prec), lambda prec: gf_g_direct(3, prec),
    lambda prec: qfunctions.over_qbinom_sum(3, 4, prec),
    lambda prec: qfunctions.over_qbinom_ladder(3, 4, prec),
])
def test_every_series_is_the_empty_window_below_prec_one(build, prec):
    s = build(prec)
    assert (s.lo, s.prec, s.coeffs) == (min(0, prec), prec, ())
    assert s == zero(prec)


def test_gf_G_values():
    assert coeff(gf_G(1, 6), 4) == 8
    assert coeff(gf_G(2, 6), 4) == 12
    assert ints(gf_G(1, 6)) == [2, 4, 6, 8, 10]
    with pytest.raises(ValueError):
        gf_G(0, 10)


def test_gf_pbar_values():
    assert coeff(gf_pbar(0, 6), 4) == 6
    assert coeff(gf_pbar(1, 6), 4) == 10
    assert coeff(gf_pbar(1, 7), 5) == 16
    s = gf_pbar(1, 31)
    for n in range(1, 31):
        assert coeff(s, n) == 4 * n - 2 * divisor_count(n), n


# -- references: the uncapped closed-form builders, kept verbatim -------------------


def _times_ratio(s, lo, hi):
    """s * prod_{k=lo}^{hi} (1 + q^k)/(1 - q^k); s itself when hi < lo."""
    for k in range(lo, hi + 1):
        s = div_one_minus(mul_one_minus(s, -1, k), 1, k)
    return s


def reference_gf_G(t, prec):
    return div_one_minus(
        add(_times_ratio(one(prec), 1, t), one(prec).scale(-1)), 1, t
    )


def reference_gf_pbar(t, prec):
    acc = add(zero(prec), lambert_divisor(prec))
    minus_one = one(prec).scale(-1)
    ratio = one(prec)  # (-q;q)_n/(q;q)_n, extended by one factor per n
    for n in range(1, t + 1):
        ratio = _times_ratio(ratio, n, n)
        term = div_one_minus(add(ratio, minus_one), 1, n)
        acc = add(acc, term.scale(-1 if n % 2 else 1))
    return acc.scale(2 if t % 2 == 0 else -2)


def reference_gf_bk(t, prec):
    s = one(prec)
    for k in range(1, t + 1):
        s = div_one_minus(s, 1, k)
    s = add(s, one(prec).scale(-1))
    return div_one_minus(s, 1, t)


def _assert_same_int_series(new, ref, where):
    assert (new.lo, new.prec) == (ref.lo, ref.prec), where
    assert new.coeffs == ref.coeffs, where
    assert all(type(c) is int for c in new.coeffs), where


@pytest.mark.parametrize(
    "build, reference, t_min",
    [(gf_bk, reference_gf_bk, 1), (gf_G, reference_gf_G, 1),
     (gf_pbar, reference_gf_pbar, 0)],
)
def test_capped_builders_equal_the_uncapped_ones(build, reference, t_min):
    # The loops stop at prec - 1; gf_pbar adds its alternating tail in one
    # step.  Window, values and int types must all be as before.
    for prec in range(1, 15):
        for t in range(t_min, 31):
            _assert_same_int_series(build(t, prec), reference(t, prec), (t, prec))


# -- references: the rebuild-per-m direct sums and gf_abr, kept verbatim ------------


def _require_valuation(summand, m):
    if summand.valuation() != m:
        raise RuntimeError(
            f"summand m={m} has valuation {summand.valuation()}, expected {m}"
        )


def reference_gf_pbar_direct(t, prec):
    acc = zero(prec)
    for m in range(1, prec):
        s = _times_ratio(div_one_minus(monomial(2, m, prec), 1, m), m + 1, m + t)
        _require_valuation(s, m)
        acc = add(acc, s)
    return acc


def reference_gf_g_direct(t, prec):
    acc = zero(prec)
    for m in range(1, prec):
        s = _times_ratio(div_one_minus(monomial(2, m, prec), 1, m), m + 1, m + t - 1)
        s = div_one_minus(s, 1, m + t)
        _require_valuation(s, m)
        acc = add(acc, s)
    return acc


def reference_case_two_direct(t, prec):
    case2_direct = zero(prec)
    m = 1
    while 2 * m + t < prec:
        s = _times_ratio(div_one_minus(monomial(2, m, prec), 1, m), m + 1, m + t - 1)
        s = div_one_minus(s.times_monomial(1, m + t), 1, m + t)
        case2_direct = add(case2_direct, s)
        m += 1
    return case2_direct


def reference_gf_abr(t, prec):
    if prec <= t + 2:
        lo = min(t - 1, prec)
        return QSeries._make(lo, prec, [0] * (prec - lo))
    work = max(prec, t + 1)
    p1 = mul_one_minus(monomial(1, t - 1, work), 1, 1)
    p1 = div_one_minus(div_one_minus(p1, 1, t), 1, t - 1)
    p2 = p1.scale(-1)
    for k in range(1, t + 1):
        p2 = div_one_minus(p2, 1, k)
    p3 = div_one_minus(monomial(1, t, work), 1, t - 1)
    for k in range(1, t + 1):
        p3 = div_one_minus(p3, 1, k)
    return add(add(p1, p2), p3).truncate(prec)


# -- references: the part sums as they were on whole series, kept verbatim ---------
#
# Each summand was a QSeries and the sums were reduce(add, ...); the builders
# now run on int lists and add every summand into one list.


def series_smallest_part_terms(t, hi, prec):
    if prec <= 1:
        return
    s = _times_ratio(div_one_minus(monomial(2, 1, prec), 1, 1), 2, 1 + hi)
    for j in range(2 + hi, 2 + t):
        s = div_one_minus(s, 1, j)
    for m in range(1, prec):
        if m > 1:
            s = s.times_monomial(1, 1).truncate(prec)
            s = div_one_minus(mul_one_minus(s, 1, m - 1), 1, m + t)
            s = div_one_minus(mul_one_minus(s, -1, m + hi), -1, m)
        if s.valuation() != m:
            raise RuntimeError(
                f"summand m={m} has valuation {s.valuation()}, expected {m}"
            )
        yield s


def series_gf_pbar_direct(t, prec):
    return reduce(add, series_smallest_part_terms(t, t, prec), zero(prec))


def series_gf_g_direct(t, prec):
    return reduce(add, series_smallest_part_terms(t, t - 1, prec), zero(prec))


def series_case_two_direct(t, prec):
    acc = zero(prec)
    for m, g_m in enumerate(series_smallest_part_terms(t, t - 1, prec), 1):
        if 2 * m + t >= prec:
            break
        acc = add(acc, g_m.times_monomial(1, m + t))
    return acc


def series_largest_part_sum(poly, prec):
    return reduce(
        add,
        (div_one_minus(poly(r).times_monomial(1, r), 1, r) for r in range(1, prec)),
        zero(prec),
    )


@pytest.mark.parametrize(
    "build, reference, t_min",
    [(gf_pbar_direct, reference_gf_pbar_direct, 0),
     (gf_g_direct, reference_gf_g_direct, 1),
     (identities._case_two_direct, reference_case_two_direct, 1),
     (gf_pbar_direct, series_gf_pbar_direct, 0),
     (gf_g_direct, series_gf_g_direct, 1),
     (identities._case_two_direct, series_case_two_direct, 1)],
    ids=["pbar", "g", "case-two", "pbar-series", "g-series", "case-two-series"],
)
def test_smallest_part_sums_equal_the_rebuild_per_m_sums(build, reference, t_min):
    # The rebuild-per-m sums, and the whole-series sums the int-list ones
    # replace; every prec below 14 and a spread of larger ones up to 61 keep
    # the run short.
    for t in range(t_min, 9):
        for prec in [*range(14), *range(17, 62, 4)]:
            _assert_same_int_series(build(t, prec), reference(t, prec), (t, prec))
    # Past t = prec - 2 no summand changes: a far larger t gives the sums of
    # a t just past that.
    for prec in range(14):
        _assert_same_int_series(build(10**4, prec), reference(prec + 2, prec), prec)


# Each table with one row per spread bound, as (build(t, size), the last
# row its builder makes at that bound, which no larger bound changes).
_BOUND_TABLES = {
    "spread-walk": (enumeration._spread_statistics, lambda t, n: min(t, n)),
    "smallest-part": (identities._smallest_part_sums,
                      lambda t, prec: min(t, max(prec - 2, 1))),
    "largest-part-lag-0": (
        lambda t, prec: _largest_part_sums(t, prec, 0),
        lambda t, prec: min(t, max(prec - 1, 0))),
    "largest-part-lag-1": (
        lambda t, prec: _largest_part_sums(t, prec, 1),
        lambda t, prec: min(t, max(prec - 2, 0))),
}


@pytest.mark.parametrize("build, last", _BOUND_TABLES.values(), ids=_BOUND_TABLES)
def test_a_table_made_at_a_larger_bound_holds_every_smaller_bounds_rows(build, last):
    # A request scope makes each table at its t_max and reads row
    # min(t, last) for every t: that row equals the last row of the table
    # made at t.  Sizes from 0 reach past each builder's clamp at t = 15,
    # and the builder makes no row past it.
    for size in [*range(14), 20, 33]:
        big = build(15, size)
        assert len(big) == last(15, size) + 1, size
        for t in range(16):
            small = build(t, size)
            assert len(small) == last(t, size) + 1, (t, size)
            assert big[min(t, len(big) - 1)] == small[-1], (t, size)


# The reference for _largest_part_sums: the whole over-q-binomial ladder and
# its box read, which builds its ladder once per (p, t).


def reference_over_ladder(p, t):
    h = (p + 1) // 2
    row = [[1] + [0] * (p - 1 - j) for j in range(h)]
    rows = [row]
    for _ in range(min(t, p - 1)):
        above, row = row, [row[0]]
        for j in range(1, h):
            cur = row[j - 1][: p - j]
            cur[j:] = map(operator.add, map(operator.add, cur[j:], above[j]),
                          above[j - 1])
            row.append(cur)
        rows.append(row)
    return rows


_reference_ladder = lru_cache(maxsize=None)(reference_over_ladder)


def reference_over_qbinom_ints(m, n, prec):
    p = n + prec
    t = min(m, p - 1)
    row = _reference_ladder(p, t)[t]
    return row[min(n, len(row) - 1)][:prec]


@pytest.mark.parametrize("lag", [0, 1])
def test_largest_part_sums_equal_the_ladder_read_sums(lag):
    # Every row of a sweep against reduce(add, ...) over the ladder's box
    # reads: every prec below 15 for rows up to 17, which covers rows at
    # and past prec - 1, and a spread of larger prec for rows up to 8.  A
    # sweep for a smaller t is a prefix of the one for the largest.
    for prec in [*range(15), *range(17, 62, 4)]:
        t_max = 17 if prec < 15 else 8
        rows = _largest_part_sums(t_max, prec, lag)
        last = min(t_max, max(prec - lag - 1, 0))
        assert len(rows) == last + 1, prec
        for t in range(t_max + 1):
            ref = series_largest_part_sum(
                lambda r: QSeries(0, prec - r,
                                  reference_over_qbinom_ints(t, r - lag, prec - r)),
                prec)
            _assert_same_int_series(identities._window_series(rows[min(t, last)], prec),
                                    ref, (lag, t, prec))
            assert _largest_part_sums(t, prec, lag) == rows[: min(t, last) + 1]
    _reference_ladder.cache_clear()


def test_a_request_scope_makes_each_table_once_and_keeps_nothing(monkeypatch):
    made = []

    def build(*args):
        made.append(args)
        return args

    def rows(b, size):
        made.append((b, size))
        return [(i, size) for i in range(min(b, size) + 1)]

    def other(b, size):
        return rows(b, size)

    # Outside a scope nothing is kept, and a table is made at its read's t.
    assert kernels.shared(build, 3, 10, 1) == (3, 10, 1)
    assert kernels.shared(build, 3, 10, 1) == (3, 10, 1)
    assert kernels.row(rows, 3, 10) == (3, 10)
    assert kernels.row(rows, 3, 2) == (2, 2)
    assert made == [(3, 10, 1), (3, 10, 1), (3, 10), (3, 2)]
    made.clear()
    with kernels.RequestScope(5):
        # Inside one each key (builder and arguments) is made once.
        for args in [(5, 10, 1), (5, 10, 1), (5, 10, 0), (7, 10)]:
            assert kernels.shared(build, *args) == args, args
        assert made == [(5, 10, 1), (5, 10, 0), (7, 10)]
        made.clear()
        # A row read at any t <= t_max makes its table once, at t_max, and
        # reads row min(t, last); a larger t makes its own table.
        assert [kernels.row(rows, t, 10) for t in range(6)] == [
            (t, 10) for t in range(6)]
        assert [kernels.row(rows, t, 3) for t in range(6)] == [
            (min(t, 3), 3) for t in range(6)]
        assert made == [(5, 10), (5, 3)]
        assert kernels.row(rows, 7, 10) == (7, 10)
        assert kernels.row(rows, 7, 10) == (7, 10)
        assert made == [(5, 10), (5, 3), (7, 10)]
        made.clear()
        # Two builders with equal arguments are two tables.
        assert kernels.row(other, 2, 10) == (2, 10)
        assert kernels.row(rows, 2, 10) == (2, 10)
        assert made == [(5, 10)]
        with pytest.raises(RuntimeError):
            with kernels.RequestScope(1):
                pass
    assert kernels._scope is None
    made.clear()
    assert kernels.shared(build, 5, 10) == (5, 10)
    assert kernels.row(rows, 2, 10) == (2, 10)
    assert made == [(5, 10), (2, 10)]
    # The scope closes when a check raises, and the next request opens one.
    monkeypatch.setattr(identities, "check_bk", lambda t, order: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        run_checks("bk", 3, 12)
    assert kernels._scope is None
    assert all(r.passed for r in run_checks("th2", 2, 12))


def test_a_read_past_the_scopes_bound_equals_the_read_alone():
    # A read at t > t_max inside a scope makes its own table at t, after the
    # request's tables were made at t_max: every table reader gives what it
    # gives outside any scope.
    def reads(t, prec):
        sides = identities._case_sides(t, prec)
        report = check_oqbinom_pbar(t, prec - 1)
        return [
            *[(s.lo, s.prec, s.coeffs) for s in sides],
            (report.status, report.message, report.first_mismatch),
            *[(s.lo, s.prec, s.coeffs) for s in (
                gf_pbar_direct(t, prec), gf_g_direct(t, prec),
                _case_two_direct(t, prec), oracle_series("g_t", t, prec - 1))],
        ]

    for prec in (4, 21):
        with kernels.RequestScope(3):
            reads(2, prec)
            scoped = reads(7, prec)
        assert scoped == reads(7, prec), prec


@pytest.mark.parametrize("inject_mismatch", [False, True])
def test_scoped_reports_equal_each_check_alone(inject_mismatch):
    # Row t of a table made at the request's bound equals the table made at
    # t: every report of run_checks equals that check run outside any scope,
    # where each table is made at its own size.  Inside a scope a check at a
    # lower order reads the bound's walk and passes of its own prec.
    def seen(reports):
        return [(r.check.name, r.check.params, r.status, r.message, r.first_mismatch)
                for r in sorted(reports, key=lambda r: r.sort_key())]

    def alone(order):
        return [runner(t, order, inject_mismatch)
                for lo, runner in CHECKS.values() for t in range(lo, 7)]

    reports = run_checks("all", 6, 30, inject_mismatch=inject_mismatch)
    assert kernels._scope is None
    assert seen(reports) == seen(alone(30))
    with kernels.RequestScope(6):
        below = alone(19)
    assert seen(below) == seen(alone(19))
    assert any(r.first_mismatch for r in reports) == inject_mismatch


def test_gf_abr_equals_its_three_part_form():
    # gf_abr divides by (q;q)_t once; the reference divides p2 and p3 apart.
    for t in range(2, 14):
        for prec in range(-3, t + 8):
            _assert_same_int_series(gf_abr(t, prec), reference_gf_abr(t, prec),
                                    (t, prec))


def test_direct_sums_match_closed_forms():
    assert ints(gf_pbar_direct(0, 6)) == [2, 4, 4, 6, 4]
    assert coeff(gf_pbar_direct(1, 6), 4) == 10
    ok, _ = equal_to_order(gf_pbar_direct(3, 41), gf_pbar(3, 41), 40)
    assert ok
    assert coeff(gf_g_direct(1, 6), 4) == 8
    assert ints(gf_g_direct(1, 3)) == [2, 4]
    ok, _ = equal_to_order(gf_g_direct(2, 41), gf_G(2, 41), 40)
    assert ok
    with pytest.raises(ValueError, match="^gf_pbar_direct needs t >= 0, got -1$"):
        gf_pbar_direct(-1, 10)
    with pytest.raises(ValueError, match="^gf_g_direct needs t >= 1, got 0$"):
        gf_g_direct(0, 10)


def test_direct_sums_raise_on_a_misplaced_summand(monkeypatch):
    # Every summand list comes out of a one-minus chain: shifting each one
    # entry up moves S_1 to valuation 2.
    real = kernels.one_minus_chain
    monkeypatch.setattr(kernels, "one_minus_chain",
                        lambda c, factors: [0, *real(c, factors)[:-1]])
    for direct in (gf_pbar_direct, gf_g_direct):
        with pytest.raises(RuntimeError,
                           match="^summand m=1 has valuation 2, expected 1$"):
            direct(1, 6)


_BUILDERS = [
    # (name, builder(t, prec), oracle kind, spread bounds t)
    ("gf_G", gf_G, "g_t", range(1, 9)),
    ("gf_g_direct", gf_g_direct, "g_t", range(1, 9)),
    ("gf_pbar", gf_pbar, "pbar_t", range(0, 9)),
    ("gf_pbar_direct", gf_pbar_direct, "pbar_t", range(0, 9)),
    ("gf_bk", gf_bk, "p_t", range(1, 9)),
    ("gf_abr", gf_abr, "p_exact_t", range(2, 9)),
    ("gf_p_exact_low", gf_p_exact_low, "p_exact_t", range(0, 2)),
    ("gf_overline_total", lambda t, prec: gf_overline_total(prec),
     "opbar_total", [None]),
    ("lambert_divisor", lambda t, prec: lambert_divisor(prec), "d", [None]),
]


@pytest.mark.parametrize(
    "build, kind, ts", [b[1:] for b in _BUILDERS], ids=[b[0] for b in _BUILDERS]
)
def test_builders_give_int_series_equal_to_the_oracles(build, kind, ts):
    # Every closed form here has integer coefficients and no true division,
    # so the series layer must keep them plain ints end to end.
    order = 60
    for t in ts:
        s = build(t, order + 1)
        assert all(type(c) is int for c in s.coeffs), t
        want = oracle_series(kind, t, order)
        assert [coeff(s, n) for n in range(1, order + 1)] == list(want.coeffs), t


def test_gf_overline_total_values():
    s = gf_overline_total(26)
    assert coeff(s, 0) == 1
    assert coeff(s, 4) == 14
    from overq.enumeration import count_opbar_total
    for n in range(1, 26):
        assert coeff(s, n) == count_opbar_total(n), n


def test_closed_form_algebraic_identity():
    # gf_G(t) (1 - q^t) + 1 = (-q;q)_t / (q;q)_t
    from overq.series import div_one_minus

    for t in range(1, 9):
        lhs = add(mul_one_minus(gf_G(t, 41), 1, t), one(41))
        rhs = one(41)
        for k in range(1, t + 1):
            rhs = mul_one_minus(rhs, -1, k)
            rhs = div_one_minus(rhs, 1, k)
        ok, mismatch = equal_to_order(lhs, rhs, 40)
        assert ok, (t, mismatch)


def test_coefficients_even_integral_and_monotone_in_t():
    series = {t: gf_pbar(t, 41) for t in range(0, 6)}
    for t, s in series.items():
        for n in range(1, 41):
            c = coeff(s, n)
            assert c.denominator == 1 and c >= 0 and c.numerator % 2 == 0, (t, n)
            if t > 0:
                assert c >= coeff(series[t - 1], n), (t, n)


def test_case_one_coefficient_counts_parts_up_to_t():
    # overpartitions of 3 with all parts <= 2: 2+1 four ways, 1+1+1 two ways
    assert coeff(over_qbinom_box_oracle(2, 8), 3) == 6
    # the same count appears inside the three-case split at t=2 via
    # gf_pbar(2) - case(2) - case(3); the split itself is checked below


# -- identity checks ---------------------------------------------------------------


def test_theorem_checks_pass():
    assert check_th1(1, 30).passed
    assert check_th2(0, 30).passed
    assert check_bk(4, 40).passed
    assert check_abr(3, 30).passed


def test_relation_check_and_its_smallest_instance():
    assert check_pbar_g_relation(1, 40).passed
    assert check_pbar_g_relation(8, 60).passed
    # 10 + 6 = 2 * 8 at n = 4
    assert coeff(gf_pbar(1, 5), 4) + coeff(gf_pbar(0, 5), 4) \
        == 2 * coeff(gf_G(1, 5), 4)


def test_box_polynomial_expansion_check():
    assert check_oqbinom_pbar(0, 30).passed
    assert check_oqbinom_pbar(2, 30).passed


def test_three_case_split_check():
    assert check_three_cases(1, 30).passed
    assert check_three_cases(2, 30).passed


# -- box reads: the column sweep against the explicit sum --------------------------


@pytest.mark.parametrize("order", [60, 120])
def test_every_swept_box_equals_the_explicit_sum(monkeypatch, order):
    # The only checks that read boxes are oqbinom and cases, so these two
    # families sweep every box that `verify --check all --t-max 8` reads.
    seen = {}
    real = qfunctions.over_qbinom_columns

    def spy(t, p):
        for j, col in enumerate(real(t, p)):
            for i, c in enumerate(col):
                seen[i, j, p - j] = tuple(c)
            yield col

    monkeypatch.setattr(qfunctions, "over_qbinom_columns", spy)
    for family in ("oqbinom", "cases"):
        assert all(r.passed for r in run_checks(family, 8, order))
    prec = order + 1
    assert set(seen) == {(i, j, p - j) for p in (prec - 1, prec)
                         for i in range(9) for j in range(p)}
    for (m, n, width), box in seen.items():
        assert box == qfunctions.over_qbinom_sum(m, n, width).coeffs, (m, n, width)


def test_verify_all_sweeps_once_per_family_and_no_explicit_sum(monkeypatch, capsys):
    from overq import cli

    builds = _count_builds(monkeypatch, "_largest_part_sums")
    sweeps, sums = [], []
    real_columns, real_sum = qfunctions.over_qbinom_columns, qfunctions.over_qbinom_sum
    monkeypatch.setattr(qfunctions, "over_qbinom_columns",
                        lambda t, p: sweeps.append((t, p)) or real_columns(t, p))
    for module in (qfunctions, cli):
        monkeypatch.setattr(module, "over_qbinom_sum",
                            lambda *args: sums.append(args) or real_sum(*args))
    assert cli.main(["verify", "--check", "all"]) == 0
    assert "0 fail, 0 error" in capsys.readouterr().out
    # cases (lag 0) runs before oqbinom (lag 1); each sweep is made at the
    # request's bound, so it serves every t of its family.
    assert builds["_largest_part_sums"] == [(8, 61, 0), (8, 61, 1)]
    assert sweeps == [(8, 61), (8, 60)]
    assert sums == []
    assert kernels._scope is None


def test_oqbinom_checks_hold_only_one_column_at_a_time():
    # The bound lies between the sweep's peak, near 0.2 MiB, and the
    # 3.85 MiB of a table of every box of the request.  The first call
    # imports and warms everything the measured one uses.
    run_checks("oqbinom", 2, 20)
    tracemalloc.start()
    try:
        reports = run_checks("oqbinom", 12, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    assert peak < 1.5 * 2**20, peak
    # No module of overq holds a table once its calls return: the only
    # mutable globals are the dispatch tables, and no scope is left open.
    from overq import cli  # noqa: F401 (every module is then imported)

    oracle_series("opbar_total", None, 20)
    count_g(9, 2)
    modules = [m for name, m in sys.modules.items()
               if name == "overq" or name.startswith("overq.")]
    tables = sorted(f"{m.__name__}.{name}" for m in modules
                    for name, v in vars(m).items() if not name.startswith("__")
                    and isinstance(v, (list, dict, set, kernels.RequestScope)))
    assert tables == ["overq.cli._COEFF_FORMS", "overq.cli._KINDS",
                      "overq.identities.CHECKS"]
    assert kernels._scope is None


def test_quotients_solve_directly_with_no_inverse(monkeypatch, capsys):
    # (-q;q)_oo/(q;q)_oo divides by a series with constant term 1, so it is
    # solved for directly: no reciprocal and no product.  No check of
    # `verify --check all` inverts or multiplies two series either: the
    # proof chain's steps are factor chains on their phi series.
    from overq import cli

    calls = []
    for name in ("convolve", "invert_unit"):
        real = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda *args, _name=name, _real=real: (
            calls.append(_name) or _real(*args)))
    total = gf_overline_total(801)
    assert calls == []
    assert (total.lo, total.prec) == (0, 801)
    assert total.coeffs[:6] == (1, 2, 4, 8, 14, 24)
    assert cli.main(["verify", "--check", "all"]) == 0
    assert "0 fail, 0 error" in capsys.readouterr().out
    assert calls == []


def test_corrupt_hook_reports_first_mismatch():
    report = check_th1(2, 20, _corrupt=True)
    assert report.status == "fail"
    assert report.first_mismatch is not None
    assert report.first_mismatch.exponent == 2
    assert not report.passed


# -- the doubled proof-chain and three-case series against their Fraction halves ----
#
# The bodies below are the step series the two checks compared before they
# compared doubled int series, kept verbatim as references.  _times_ratio
# is the uncapped reference above, equal to the builder's in window, values
# and types.

_HALF = Fraction(1, 2)


def reference_chain_steps(t, order):
    prec = order + 1
    # (i): B_m = G_m/2, the gf_g_direct summands halved.
    steps = [gf_g_direct(t, prec).scale(_HALF)]

    # The prefactor q(-q;q)_t/((1+q)(q;q)_{t+1}) of (ii) and (iii).
    pref = _times_ratio(monomial(1, 1, prec), 1, t)
    pref = div_one_minus(div_one_minus(pref, 1, t + 1), -1, 1)

    # (ii)
    q = QMonomial(1, 1)
    phi2 = phi(
        (q, q, QMonomial(-1, t + 1)),
        (QMonomial(-1, 2), QMonomial(1, t + 2)),
        q,
        prec,
    )
    steps.append(mul(pref, phi2))

    # (iii)
    phi3 = phi(
        (q, QMonomial(-1, 1), QMonomial(1, 1 - t)),
        (QMonomial(-1, 2), QMonomial(1, 2)),
        QMonomial(1, t + 1),
        prec,
    )
    num = mul(
        pochhammer_inf(QMonomial(1, t + 1), prec), pochhammer_inf(QMonomial(1, 2), prec)
    )
    den = mul(
        pochhammer_inf(QMonomial(1, t + 2), prec), pochhammer_inf(q, prec)
    )
    steps.append(mul(mul(pref, div(num, den)), phi3))

    # (iv)
    phi4 = phi(
        (QMonomial(-1, 0), QMonomial(1, -t)),
        (QMonomial(-1, 1),),
        QMonomial(1, t + 1),
        prec,
    )
    f = div_one_minus(_times_ratio(one(prec), 1, t), 1, t)
    steps.append(mul(f, add(phi4, one(prec).scale(-1))).scale(Fraction(-1, 2)))

    # (v)
    steps.append(gf_G(t, prec).scale(_HALF))
    return steps


def reference_case_sides(t, order):
    prec = order + 1
    full = gf_pbar(t, prec)
    case1 = _ratio_minus_one(t, prec)
    case2 = add(full, gf_pbar(t - 1, prec).scale(-1)).scale(_HALF)
    rows = _largest_part_sums(t, prec, 0)
    last = len(rows) - 1
    case3 = identities._window_series(
        list(map(operator.sub, rows[min(t, last)], rows[min(t - 1, last)])), prec)
    return (case2, _case_two_direct(t, prec), add(add(case1, case2), case3), full)


def assert_twice(new, half, what):
    """new is 2 * half on the same window, as an int series."""
    assert (new.lo, new.prec) == (half.lo, half.prec), what
    assert new.coeffs == tuple(2 * c for c in half.coeffs), what
    assert all(type(c) is int for c in new.coeffs), what


@pytest.mark.parametrize("order", [1, 2, 3, 5, 17, 60, 120])
def test_chain_steps_and_case_sides_are_twice_their_fraction_halves(order):
    for t in range(1, 11):
        for i, (new, half) in enumerate(zip(identities._chain_steps(t, order),
                                            reference_chain_steps(t, order))):
            assert_twice(new, half, (t, order, _CHAIN_LABELS[i]))
            # The halves were Fractions exactly where the report halves back
            # to a Fraction.
            assert {type(c) for c in half.coeffs} <= (
                {Fraction} if identities._CHAIN_FRACS[i] else {int}), (t, order, i)
        for i, (new, half) in enumerate(zip(identities._case_sides(t, order + 1),
                                            reference_case_sides(t, order))):
            assert_twice(new, half, (t, order, "cases", i))


def _first_mismatch(pairs, order):
    for lhs, rhs in pairs:
        equal, mismatch = equal_to_order(lhs, rhs, order)
        if not equal:
            return mismatch
    return None


def _same_mismatch(got, want):
    assert got == want
    assert list(map(type, got)) == list(map(type, want))


def _perturb_step(step):
    """A wrapper for _chain_steps that multiplies step 1-5 by (1 + q)."""
    def wrap(real):
        def perturbed(t, order):
            steps = real(t, order)
            steps[step - 1] = mul_one_minus(steps[step - 1], -1, 1)
            return steps
        return perturbed
    return wrap


@pytest.mark.parametrize("step", [1, 2, 3, 4, 5])
def test_a_chain_mismatch_is_halved_back_to_the_value_and_type_of_the_halves(
    monkeypatch, step
):
    t, order = 3, 14
    steps = reference_chain_steps(t, order)
    steps[step - 1] = mul_one_minus(steps[step - 1], -1, 1)
    want = _first_mismatch(zip(steps, steps[1:]), order)
    monkeypatch.setattr(identities, "_chain_steps",
                        _perturb_step(step)(identities._chain_steps))
    got = proof_chain_theorem1(t, order).first_mismatch
    _same_mismatch(got, want)


@pytest.mark.parametrize("only_t", [True, False])
def test_a_cases_mismatch_is_halved_back_to_the_value_and_type_of_the_halves(
    monkeypatch, only_t
):
    # Bumping gf_pbar(t) alone breaks case (2); bumping every gf_pbar keeps
    # case (2) and breaks the sum.
    t, order = 3, 14
    real = identities.gf_pbar

    def bumped(s, prec):
        out = real(s, prec)
        return add(out, monomial(3, 7, prec)) if s == t or not only_t else out

    monkeypatch.setattr(identities, "gf_pbar", bumped)
    monkeypatch.setattr(sys.modules[__name__], "gf_pbar", bumped)
    case2, direct, total, full = reference_case_sides(t, order)
    want = _first_mismatch([(case2, direct), (total, full)], order)
    assert type(want.lhs) is Fraction and type(want.rhs) is int
    _same_mismatch(check_three_cases(t, order).first_mismatch, want)


def test_proof_chain_passes():
    assert proof_chain_theorem1(1, 25).passed
    assert proof_chain_theorem1(4, 40).passed


@pytest.mark.parametrize("step", [1, 2, 3, 4, 5])
def test_proof_chain_perturbation_fails_at_named_step(monkeypatch, step):
    monkeypatch.setattr(identities, "_chain_steps",
                        _perturb_step(step)(identities._chain_steps))
    report = proof_chain_theorem1(2, 20)
    assert report.status == "fail"
    assert report.first_mismatch is not None
    label = f"({'i' * step})" if step <= 3 else ("(iv)" if step == 4 else "(v)")
    assert label in report.message


def test_corollary_check():
    assert check_corollary(1, 30).passed
    # n = 4 is a square: count 10 = 2 mod 4; n = 5 is not: count 16 = 0 mod 4
    assert coeff(gf_pbar(1, 6), 4) % 4 == 2
    assert coeff(gf_pbar(1, 6), 5) % 4 == 0
    with pytest.raises(ValueError):
        check_corollary(-1, 30)
    with pytest.raises(ValueError):
        check_corollary(1, 0)


def test_twice_the_divisor_count_is_2_mod_4_exactly_at_squares():
    # Why check_corollary has no separate square test: a count congruent to
    # 2*d(n) mod 4 is divisible by 4 exactly when n is not a square.
    for n in range(1, 10**4 + 1):
        square = isqrt(n) ** 2 == n
        assert (2 * divisor_count(n) % 4 == 2) == square, n


def test_corollary_reports_int_mismatches(monkeypatch):
    real = identities.gf_pbar
    # One more partition at q^3 makes that count odd.
    monkeypatch.setattr(identities, "gf_pbar",
                        lambda t, prec: add(real(t, prec), monomial(1, 3, prec)))
    report = check_corollary(1, 10)
    assert report.status == "fail"
    assert report.message == "count at q^3 is odd"
    mm = report.first_mismatch
    assert (mm.exponent, mm.lhs, mm.rhs) == (3, 1, 0)
    assert type(mm.lhs) is int and type(mm.rhs) is int
    assert report.to_dict()["first_mismatch"] == {
        "exponent": 3, "lhs": "1", "rhs": "0"}
    # A non-integer count is an internal error, not a failed congruence.
    half = monomial(Fraction(1, 2), 2, 11)
    monkeypatch.setattr(identities, "gf_pbar",
                        lambda t, prec: add(real(t, prec), half))
    report = check_corollary(1, 10)
    assert report.status == "error" and report.first_mismatch is None
    assert report.message == "internal consistency: non-integer count 9/2 at q^2"


# -- pinned reports: the pass and fail paths of every family -------------------------


def _bump(real, e=5, c=1):
    """real(..., prec) plus c * q^e on the same window."""
    return lambda *args: add(real(*args), monomial(c, e, args[-1]))


def _bump_pbar_at_2(real):
    # Only gf_pbar(2, .) moves, so case (2) = (gf_pbar(2) - gf_pbar(1))/2 does.
    def bumped(t, prec):
        s = real(t, prec)
        return add(s, monomial(2, 5, prec)) if t == 2 else s
    return bumped


def _bump_box(box):
    """Wrap the column sweep so that the polynomial of one box (m, n), row
    m of column n, gains q^1."""
    m, n = box

    def wrap(real):
        def columns(t, p):
            for j, col in enumerate(real(t, p)):
                if j == n:
                    s = col[m]
                    col = [*col[:m], [s[0], s[1] + 1, *s[2:]], *col[m + 1:]]
                yield col
        return columns
    return wrap


def _chu():
    return qfunctions.verify_chu(QMonomial(-1, 0), 2, QMonomial(-1, 1), 13)


_VS_DIRECT = "closed form deviates from the direct sum"
_VS_ORACLE = "closed form deviates from the enumeration oracle"
_PINNED = [
    # (id, check, ((module, attribute, wrapper), ...), first_mismatch, message)
    ("th1", lambda: check_th1(2, 12), (), None,
     "closed form matches direct sum and enumeration to order 12"),
    ("th1-direct", lambda: check_th1(2, 12),
     ((identities, "gf_g_direct", _bump),), (5, "18", "19"), _VS_DIRECT),
    ("th1-oracle", lambda: check_th1(2, 12),
     ((identities, "gf_g_direct", _bump), (identities, "gf_G", _bump)),
     (5, "19", "18"), _VS_ORACLE),
    ("th2", lambda: check_th2(2, 12), (), None,
     "closed form matches direct sum and enumeration to order 12"),
    ("th2-direct", lambda: check_th2(2, 12),
     ((identities, "gf_pbar_direct", _bump),), (5, "20", "21"), _VS_DIRECT),
    ("th2-oracle", lambda: check_th2(2, 12),
     ((identities, "gf_pbar_direct", _bump), (identities, "gf_pbar", _bump)),
     (5, "21", "20"), _VS_ORACLE),
    ("bk", lambda: check_bk(2, 12), (), None,
     "closed form matches enumeration to order 12"),
    ("bk-oracle", lambda: check_bk(2, 12),
     ((identities, "gf_bk", _bump),), (5, "7", "6"), _VS_ORACLE),
    ("abr", lambda: check_abr(3, 12), (), None,
     "closed form matches enumeration to order 12"),
    ("abr-oracle", lambda: check_abr(3, 12),
     ((identities, "gf_abr", _bump),), (5, "2", "1"), _VS_ORACLE),
    ("oqbinom", lambda: check_oqbinom_pbar(2, 12), (), None,
     "largest-part expansion over box polynomials matches to order 12"),
    ("oqbinom-closed", lambda: check_oqbinom_pbar(2, 12),
     ((identities, "gf_pbar", _bump),), (5, "20", "21"),
     "largest-part expansion deviates from the closed form"),
    # The box (2, 3) serves r = 4: 2 q^4/(1-q^4) * q moves q^5 by 2.
    ("oqbinom-box", lambda: check_oqbinom_pbar(2, 12),
     ((qfunctions, "over_qbinom_columns", _bump_box((2, 3))),), (5, "22", "20"),
     "largest-part expansion deviates from the closed form"),
    ("relation", lambda: check_pbar_g_relation(2, 12), (), None,
     "adjacent spread bounds recombine to order 12"),
    ("relation-g", lambda: check_pbar_g_relation(2, 12),
     ((identities, "gf_G", _bump),), (5, "36", "38"),
     "adjacent spread bounds fail to recombine"),
    ("cases", lambda: check_three_cases(2, 12), (), None,
     "three cases sum to the full series to order 12"),
    ("cases-total", lambda: check_three_cases(2, 12),
     ((identities, "gf_pbar", _bump),), (5, "20", "21"),
     "three cases fail to sum to the full series"),
    ("cases-two", lambda: check_three_cases(2, 12),
     ((identities, "gf_pbar", _bump_pbar_at_2),), (5, "3", "2"),
     "case (2) closed form deviates from its direct sum"),
    # The box (1, 4) is the t - 1 side of r = 4: case (3) loses q^5.
    ("cases-box", lambda: check_three_cases(2, 12),
     ((qfunctions, "over_qbinom_columns", _bump_box((1, 4))),), (5, "19", "20"),
     "three cases fail to sum to the full series"),
    ("proofchain", lambda: proof_chain_theorem1(2, 12), (), None,
     "all five expressions agree pairwise to order 12"),
    ("proofchain-1", lambda: proof_chain_theorem1(2, 12),
     ((identities, "_chain_steps", _perturb_step(1)),),
     (2, "3", "2"), "step (i) deviates from step (ii)"),
    ("proofchain-2", lambda: proof_chain_theorem1(2, 12),
     ((identities, "_chain_steps", _perturb_step(2)),),
     (2, "2", "3"), "step (i) deviates from step (ii)"),
    ("proofchain-3", lambda: proof_chain_theorem1(2, 12),
     ((identities, "_chain_steps", _perturb_step(3)),),
     (2, "2", "3"), "step (ii) deviates from step (iii)"),
    ("proofchain-4", lambda: proof_chain_theorem1(2, 12),
     ((identities, "_chain_steps", _perturb_step(4)),),
     (2, "2", "3"), "step (iii) deviates from step (iv)"),
    ("proofchain-5", lambda: proof_chain_theorem1(2, 12),
     ((identities, "_chain_steps", _perturb_step(5)),),
     (2, "2", "3"), "step (iv) deviates from step (v)"),
    ("proofchain-g", lambda: proof_chain_theorem1(2, 12),
     ((identities, "gf_G", _bump),), (5, "9", "19/2"),
     "step (iv) deviates from step (v)"),
    # At the window start of gf_G's side the half is a Fraction too.
    ("proofchain-g-start", lambda: proof_chain_theorem1(2, 12),
     ((identities, "gf_G", lambda real: _bump(real, 0, 1)),), (0, "0", "1/2"),
     "step (iv) deviates from step (v)"),
    ("chu", _chu, (), None,
     "terminating sum equals its product form to order 12"),
    ("chu-phi", _chu, ((qfunctions, "phi", _bump),), (5, "-1", "-2"),
     "terminating sum deviates from its product form"),
    ("corollary", lambda: check_corollary(2, 12), (), None,
     "parity, mod-4 congruence and square test hold for n <= 12"),
    ("corollary-square", lambda: check_corollary(2, 12),
     ((identities, "gf_pbar", lambda real: _bump(real, 4, 2)),), (4, "0", "2"),
     "count at q^4 is not congruent to twice the divisor count mod 4"),
    ("corollary-nonsquare", lambda: check_corollary(2, 12),
     ((identities, "gf_pbar", lambda real: _bump(real, 5, 2)),), (5, "2", "0"),
     "count at q^5 is not congruent to twice the divisor count mod 4"),
    ("corollary-one", lambda: check_corollary(2, 12),
     ((identities, "gf_pbar", lambda real: _bump(real, 1, 2)),), (1, "0", "2"),
     "count at q^1 is not congruent to twice the divisor count mod 4"),
]


@pytest.mark.parametrize(
    "check, patches, mismatch, message",
    [p[1:] for p in _PINNED], ids=[p[0] for p in _PINNED],
)
def test_report_messages_and_first_mismatch_are_pinned(
    monkeypatch, check, patches, mismatch, message
):
    for module, name, wrap in patches:
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    d = check().to_dict()
    assert d["status"] == ("pass" if mismatch is None else "fail")
    got = d["first_mismatch"]
    assert got == (None if mismatch is None else
                   dict(zip(("exponent", "lhs", "rhs"), mismatch)))
    assert d["message"] == message


# -- runner and report plumbing ----------------------------------------------------


def test_run_checks_single_family():
    reports = run_checks("relation", 3, 20)
    assert [r.check.params["t"] for r in reports] == [1, 2, 3]
    assert all(r.passed for r in reports)


def test_run_checks_looks_each_check_up_at_call_time(monkeypatch):
    seen = []
    real = identities.check_bk

    def spy(t, order):
        seen.append(t)
        return real(t, order)

    monkeypatch.setattr(identities, "check_bk", spy)
    reports = run_checks("bk", 3, 12)
    assert seen == [1, 2, 3]
    assert all(r.passed for r in reports)


def _count_builds(monkeypatch, *names):
    """Wrap identities builders to record the args of every build."""
    builds = {name: [] for name in names}
    for name in names:
        real = getattr(identities, name)
        monkeypatch.setattr(identities, name, lambda *args, _real=real,
                            _seen=builds[name]: _seen.append(args) or _real(*args))
    return builds


def test_verify_all_builds_each_shared_series_once(monkeypatch, capsys):
    from overq import cli

    builds = _count_builds(monkeypatch, "gf_pbar", "gf_G")
    assert cli.main(["verify", "--check", "all"]) == 0
    assert "0 fail, 0 error" in capsys.readouterr().out
    # th2, relation, oqbinom, cases and corollary all read gf_pbar(t, 61):
    # one build per t <= 8 instead of 59.
    assert sorted(builds["gf_pbar"]) == [(t, 61) for t in range(9)]
    assert sorted(builds["gf_G"]) == [(t, 61) for t in range(1, 9)]
    assert kernels._scope is None


def test_verify_all_makes_one_smallest_part_pass_and_one_walk(monkeypatch, capsys):
    from overq import cli

    builds = _count_builds(monkeypatch, "_smallest_part_sums")
    walks = []
    real_walk = kernels.window_diff_counts
    monkeypatch.setattr(kernels, "window_diff_counts",
                        lambda *args: walks.append(args) or real_walk(*args))
    assert cli.main(["verify", "--check", "all"]) == 0
    assert "0 fail, 0 error" in capsys.readouterr().out
    # th1, th2, cases and proofchain read every t's direct sums from one
    # pass at prec 61, made at the request's bound; the oracles read one
    # walk.
    assert builds["_smallest_part_sums"] == [(8, 61)]
    assert walks == [(60, 8)]
    assert kernels._scope is None


def test_a_builder_replaced_between_run_checks_calls_is_used(monkeypatch):
    builds = _count_builds(monkeypatch, "gf_G")
    assert all(r.passed for r in run_checks("relation", 2, 12))
    assert builds["gf_G"] == [(1, 13), (2, 13)]
    # The scope lives for one call: the next one builds afresh, with the
    # builder the module names then.
    bumped = []
    monkeypatch.setattr(identities, "gf_G", lambda t, prec: (
        bumped.append((t, prec)) or add(gf_G(t, prec), monomial(1, 5, prec))))
    reports = run_checks("relation", 2, 12)
    assert bumped == [(1, 13), (2, 13)]
    assert [r.status for r in reports] == ["fail", "fail"]
    assert kernels._scope is None


def test_run_checks_all_is_sorted_and_passes():
    reports = run_checks("all", 2, 12)
    assert all(r.passed for r in reports)
    keys = [(r.check.name, json.dumps(r.check.params, sort_keys=True))
            for r in reports]
    assert keys == sorted(keys)
    assert {r.check.name for r in reports} == set(ALL_CHECKS)


def test_run_checks_all_skips_families_below_their_minimum():
    reports = run_checks("all", 0, 10)
    assert {r.check.name for r in reports} == {"th2", "oqbinom", "chu", "corollary"}


def test_run_checks_domain_errors():
    with pytest.raises(ValueError):
        run_checks("th1", 0, 20)
    with pytest.raises(ValueError):
        run_checks("abr", 1, 20)
    with pytest.raises(ValueError):
        run_checks("nope", 3, 20)
    with pytest.raises(ValueError):
        run_checks("th1", 3, 0)


def test_each_check_refuses_its_domain_itself():
    # Called directly, not through run_checks, each check family refuses an
    # order below 1, and a t below its lowest, with its own message.
    for check in (check_th1, check_th2, check_bk, check_abr, check_pbar_g_relation,
                  check_oqbinom_pbar, check_three_cases, proof_chain_theorem1):
        with pytest.raises(ValueError, match="^comparison order must be >= 1, got 0$"):
            check(3, 0)
    for check, t, message in (
        (check_pbar_g_relation, 0, "relation needs t >= 1, got 0"),
        (check_oqbinom_pbar, -1, "oqbinom check needs t >= 0, got -1"),
        (check_three_cases, 0, "three-case split needs t >= 1, got 0"),
        (proof_chain_theorem1, 0, "proof chain needs t >= 1, got 0"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check(t, 20)


def test_run_checks_inject_mismatch_hits_th1_only():
    reports = run_checks("th1", 3, 15, inject_mismatch=True)
    assert all(r.status == "fail" for r in reports)
    reports = run_checks("relation", 3, 15, inject_mismatch=True)
    assert all(r.passed for r in reports)


def test_report_dict_schema():
    report = run_checks("th1", 1, 10)[0]
    d = report.to_dict()
    assert list(d) == ["name", "params", "status", "first_mismatch", "message"]
    assert d["name"] == "th1" and d["params"] == {"t": 1}
    assert d["status"] == "pass" and d["first_mismatch"] is None
    bad = check_th1(1, 10, _corrupt=True).to_dict()
    m = bad["first_mismatch"]
    assert set(m) == {"exponent", "lhs", "rhs"}
    assert isinstance(m["exponent"], int)
    assert isinstance(m["lhs"], str) and isinstance(m["rhs"], str)


def test_report_invariant_fail_requires_mismatch():
    from overq.reports import IdentityCheck, VerificationReport

    check = IdentityCheck("th1", {"t": 1}, 5)
    with pytest.raises(ValueError):
        VerificationReport(check, "fail", None, "missing mismatch")
    from overq.series import MismatchInfo

    info = MismatchInfo(2, Fraction(1), Fraction(2))
    with pytest.raises(ValueError):
        VerificationReport(check, "pass", info, "unexpected mismatch")
