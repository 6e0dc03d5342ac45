"""Pochhammer symbols, q-binomials (the over q-binomial by its explicit sum,
its ladder and the box walk), and the phi evaluator."""

import operator
from fractions import Fraction
from functools import lru_cache

import pytest

from overq import kernels, qfunctions
from overq.enumeration import iter_partitions, over_qbinom_box_oracle
from overq.identities import gf_G
from overq.qfunctions import (
    _over_ladder,
    _wrap_poly,
    NonconvergentPhiError,
    NonconvergentProductError,
    PhiDivisionError,
    PhiSpec,
    over_qbinom_ladder,
    over_qbinom_sum,
    phi,
    pochhammer,
    pochhammer_inf,
    qbinom,
    verify_chu,
)
from overq.series import (
    QMonomial,
    coeff,
    div,
    div_one_minus,
    equal_to_order,
    from_terms,
    invert,
    mul,
    mul_one_minus,
    one,
)

Q = QMonomial(1, 1)
MINUS_ONE = QMonomial(-1, 0)
MINUS_Q = QMonomial(-1, 1)


def ints(s, lo=0):
    return [coeff(s, e) for e in range(lo, s.prec)]


# -- pochhammer --------------------------------------------------------------------


def test_pochhammer_small_products():
    assert ints(pochhammer(Q, 2, 4)) == [1, -1, -1, 1]
    assert ints(pochhammer(MINUS_Q, 2, 4)) == [1, 1, 1, 1]
    assert ints(pochhammer(Q, 0, 3)) == [1, 0, 0]


def test_pochhammer_negative_exponent_window():
    s = pochhammer(QMonomial(1, -2), 2, 4)
    assert s.lo == -3
    assert ints(s, -3) == [1, -1, -1, 1, 0, 0, 0]


def test_pochhammer_vanishes_exactly_when_factor_hits_one():
    # (q^{-t}; q)_m contains the factor (1 - q^{-t} q^t) = 0 iff m > t
    for t in range(0, 5):
        for m in range(0, 7):
            s = pochhammer(QMonomial(1, -t), m, 5)
            vanished = all(c == 0 for c in s.coeffs)
            assert vanished == (m > t), (t, m)


def test_pochhammer_inf_euler_signs():
    assert ints(pochhammer_inf(Q, 13)) == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


def test_pochhammer_inf_counts_distinct_partitions():
    s = pochhammer_inf(MINUS_Q, 16)
    assert ints(s)[:4] == [1, 1, 1, 2]
    for n in range(1, 16):
        distinct = sum(
            1 for p in iter_partitions(n) if len(set(p)) == len(p)
        )
        assert coeff(s, n) == distinct, n


def test_pochhammer_inf_rejects_nonpositive_exponent():
    for a in (QMonomial(1, 0), QMonomial(-1, 0), QMonomial(1, -1)):
        with pytest.raises(NonconvergentProductError):
            pochhammer_inf(a, 8)


# -- Gaussian q-binomial -----------------------------------------------------------


@lru_cache(maxsize=None)
def box_partition_count(n, m, k):
    """Partitions of n with parts <= m, at most k parts (independent DP)."""
    if n == 0:
        return 1
    if n < 0 or m == 0 or k == 0:
        return 0
    return box_partition_count(n, m - 1, k) + box_partition_count(n - m, m, k - 1)


def test_qbinom_small_values():
    assert ints(qbinom(2, 0)) == [1]
    assert ints(qbinom(1, 1)) == [1, 1]
    assert ints(qbinom(2, 2)) == [1, 1, 2, 1, 1]
    assert ints(qbinom(3, 3)) == [1, 1, 2, 3, 3, 3, 3, 2, 1, 1]


def test_qbinom_counts_partitions_in_a_box():
    for m in range(13):
        for n in range(13):
            s = qbinom(m, n)
            assert s.prec == m * n + 1
            for e in range(s.prec):
                assert coeff(s, e) == box_partition_count(e, m, n), (m, n, e)


# -- over q-binomials --------------------------------------------------------------


def test_over_qbinom_sum_small_values():
    assert ints(over_qbinom_sum(0, 5)) == [1]
    assert ints(over_qbinom_sum(5, 0)) == [1]
    assert ints(over_qbinom_sum(1, 1)) == [1, 2]
    assert ints(over_qbinom_sum(2, 2)) == [1, 2, 4, 4, 2]
    assert ints(over_qbinom_sum(3, 2)) == [1, 2, 4, 6, 6, 4, 2]


def test_over_qbinom_rec_small_values():
    # The Pascal-style recurrence, read from the held ladder.
    assert ints(over_qbinom_ladder(1, 1, 2)) == [1, 2]
    assert ints(over_qbinom_ladder(3, 0, 1)) == [1]
    assert ints(over_qbinom_ladder(2, 2, 5)) == [1, 2, 4, 4, 2]


def test_over_qbinom_three_routes_agree():
    for m in range(9):
        for n in range(9):
            a = over_qbinom_sum(m, n)
            b = over_qbinom_ladder(m, n, m * n + 1)
            c = over_qbinom_box_oracle(m, n)
            assert a == b == c, (m, n)


def test_over_qbinom_symmetry_and_specialization():
    for m in range(9):
        for n in range(9):
            assert over_qbinom_sum(m, n) == over_qbinom_sum(n, m)
            s = over_qbinom_sum(m, n)
            assert coeff(s, 0) == 1
            if m >= 1 and n >= 1:
                assert coeff(s, 1) == 2
    assert over_qbinom_sum(12, 7).prec == 12 * 7 + 1


def test_over_qbinom_recurrence_relation():
    # box form of: [a,b] = [a-1,b-1] + q^b [a-1,b] + q^b [a-2,b-1], a=m+n, b=n
    for m in range(1, 7):
        for n in range(1, 7):
            prec = m * n + 1
            lhs = over_qbinom_sum(m, n, prec=prec)
            rhs = over_qbinom_sum(m, n - 1, prec=prec)
            rhs += over_qbinom_sum(m - 1, n, prec=prec - n).times_monomial(1, n)
            rhs += over_qbinom_sum(m - 1, n - 1, prec=prec - n).times_monomial(1, n)
            ok, mismatch = equal_to_order(lhs, rhs, prec - 1)
            assert ok, (m, n, mismatch)


def test_over_qbinom_prec_keyword():
    assert over_qbinom_sum(2, 2, prec=3).prec == 3
    padded = over_qbinom_sum(2, 2, prec=20)
    assert padded.prec == 20 and coeff(padded, 10) == 0
    assert over_qbinom_ladder(2, 2, 20) == padded


# -- the held ladder ------------------------------------------------------------------


@pytest.fixture
def ladder_builds(monkeypatch):
    """Record every ladder build, starting and ending with no held ladder."""
    builds = []
    monkeypatch.setattr(qfunctions, "_over_ladder",
                        lambda p, t: builds.append((p, t)) or _over_ladder(p, t))
    qfunctions._LADDER.clear()
    yield builds
    qfunctions._LADDER.clear()


def test_held_ladder_serves_every_smaller_request_as_a_fresh_build(ladder_builds):
    big_p, big_t = 20, 5
    over_qbinom_ladder(big_t, 0, big_p)
    for p in range(1, big_p + 1):
        for t in range(big_t + 1):
            for i, row in enumerate(_over_ladder(p, t)):
                for j, col in enumerate(row):
                    got = over_qbinom_ladder(i, j, p - j)
                    assert (got.lo, got.prec) == (0, p - j), (p, t, i, j)
                    assert got.coeffs == tuple(col), (p, t, i, j)
    assert ladder_builds == [(big_p, big_t)]


def test_a_larger_request_rebuilds_the_held_ladder(ladder_builds):
    reads = [(3, 0, 10), (2, 4, 6), (3, 1, 10), (4, 0, 5), (1, 1, 3)]
    for m, n, prec in reads:
        assert over_qbinom_ladder(m, n, prec) == over_qbinom_sum(m, n, prec)
    # (2, 4, 6) needs p = 10 and m = 2: covered.  (3, 1, 10) needs p = 11,
    # (4, 0, 5) needs m = 4; each rebuilds to exactly what it needs, and
    # (1, 1, 3) is covered by the last.
    assert ladder_builds == [(10, 3), (11, 3), (5, 4)]


def test_a_huge_box_width_reads_row_p_minus_one(ladder_builds):
    # On [0, prec) a box polynomial stops changing once m reaches prec - 1,
    # so m clamps to p - 1 = n + prec - 1 and the ladder holds at most p rows.
    prec = 12
    for n in range(5):
        p = n + prec
        huge = over_qbinom_ladder(10**6, n, prec)
        assert len(qfunctions._LADDER.table) <= p
        assert huge == over_qbinom_ladder(p - 1, n, prec), n
        assert huge == over_qbinom_sum(10**6, n, prec), n
    assert ladder_builds == [(p, p - 1) for p in range(prec, prec + 5)]
    # The builder caps its rows too, so a ladder of its own takes a huge m.
    assert len(_over_ladder(6, 10**6)) == 6
    assert (tuple(_over_ladder(3 + prec, 10**6)[-1][3])
            == over_qbinom_sum(10**6, 3, prec).coeffs)


def test_held_ladder_reads_an_empty_window_like_the_sum():
    for prec in (0, -3):
        assert over_qbinom_ladder(2, 2, prec) == over_qbinom_sum(2, 2, prec)
    with pytest.raises(ValueError):
        over_qbinom_ladder(-1, 2, 5)


# -- references: the q-binomial builders before their loops were bounded -----------


def reference_gauss_ints(m, n, width):
    c = [0] * width
    if width == 0:
        return c
    c[0] = 1
    small, big = (m, n) if m <= n else (n, m)
    for i in range(1, small + 1):
        c = kernels.mul_one_minus(c, 1, big + i)
        c = kernels.div_one_minus(c, 1, i)
    return c


def reference_qbinom(m, n, prec=None):
    width = m * n + 1 if prec is None else min(prec, m * n + 1)
    return _wrap_poly(reference_gauss_ints(m, n, max(width, 0)), max(width, 0), prec)


def reference_over_qbinom_sum(m, n, prec=None):
    natural = m * n + 1
    width = natural if prec is None else max(0, min(prec, natural))
    if width == 0:
        return _wrap_poly([], 0, prec)
    term = reference_gauss_ints(m, n, width)
    acc = list(term)
    for k in range(min(m, n)):
        if k + 1 >= width:
            break
        term = [0] * (k + 1) + term[: width - (k + 1)]
        term = kernels.mul_one_minus(term, 1, m - k)
        term = kernels.mul_one_minus(term, 1, n - k)
        term = kernels.div_one_minus(term, 1, m + n - k)
        term = kernels.div_one_minus(term, 1, k + 1)
        acc[k + 1 :] = map(operator.add, acc[k + 1 :], term[k + 1 :])
    return _wrap_poly(acc, width, prec)


BOXES = [(m, n) for m in range(11) for n in range(11)] + [
    (1, 24), (24, 1), (2, 17), (17, 3), (13, 12),
]


@pytest.mark.parametrize(
    "build, reference",
    [(qbinom, reference_qbinom), (over_qbinom_sum, reference_over_qbinom_sum)],
    ids=["qbinom", "over_qbinom_sum"],
)
def test_bounded_qbinom_loops_equal_the_unbounded_ones(build, reference):
    # The loops skip every one-minus factor that cannot change an entry
    # below the window width, and the sum stops at the first term whose
    # valuation reaches the width.
    for m, n in BOXES:
        for prec in [None, *range(m * n + 3)]:
            new, ref = build(m, n, prec), reference(m, n, prec)
            assert (new.lo, new.prec) == (ref.lo, ref.prec), (m, n, prec)
            assert new.coeffs == ref.coeffs, (m, n, prec)
            assert all(type(c) is int for c in new.coeffs), (m, n, prec)



def test_qbinom_loops_make_no_copy_only_kernel_calls(monkeypatch):
    # A one-minus factor (1 - q^k) on coefficients c changes only entries at
    # k + (valuation of c) and above.  When that is the width or more, the
    # factor is 1 on the window and a kernel call would only copy c.
    fits = []

    def valuation(c):
        return next((i for i, x in enumerate(c) if x), len(c))

    for name in ("mul_one_minus", "div_one_minus"):
        real = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda c, g, k, real=real: (
            fits.append(valuation(c) + k < len(c)) or real(c, g, k)))
    for m, n in BOXES:
        for prec in [None, *range(m * n + 3)]:
            qbinom(m, n, prec)
            over_qbinom_sum(m, n, prec)
    assert fits and all(fits)


# -- phi ---------------------------------------------------------------------------


def test_phi_two_term_hand_expansion():
    # 2phi1(-1, q^{-1}; -q; q^2) = 1 - 2q/(1+q) = (1-q)/(1+q)
    spec = PhiSpec((MINUS_ONE, QMonomial(1, -1)), (MINUS_Q,), QMonomial(1, 2), 12)
    lhs = phi(spec)
    rhs = div(from_terms([(0, 1), (1, -1)], 12), from_terms([(0, 1), (1, 1)], 12))
    ok, mismatch = equal_to_order(lhs, rhs, 11)
    assert ok, mismatch


def test_phi_upper_q_to_zero_terminates_immediately():
    spec = PhiSpec((QMonomial(1, 3), QMonomial(1, 0)), (MINUS_Q,), QMonomial(1, 1), 9)
    assert equal_to_order(phi(spec), one(9), 8)[0]


def test_phi_terminating_sum_matches_manual_assembly():
    # structural termination allows an argument exponent <= 0
    n_top = 2
    spec = PhiSpec(
        (QMonomial(1, 2), QMonomial(1, -n_top)),
        (QMonomial(-1, 2),),
        QMonomial(1, -1),
        8,
    )
    got = phi(spec)
    work = 30
    acc = None
    for n in range(n_top + 1):
        term = mul(
            pochhammer(QMonomial(1, 2), n, work),
            pochhammer(QMonomial(1, -n_top), n, work),
        )
        term = mul(term, invert(pochhammer(Q, n, work)))
        term = mul(term, invert(pochhammer(QMonomial(-1, 2), n, work)))
        term = term.times_monomial(1, -n)  # z^n at z = q^{-1}
        acc = term if acc is None else acc + term
    ok, mismatch = equal_to_order(got, acc.truncate(8), 7)
    assert ok, mismatch


def test_phi_three_two_instance_matches_closed_form():
    # 3phi2(q, q, -q^3; -q^2, q^4; q) = (1+q)(q;q)_3 / (q (-q;q)_2) * gf_G(2)/2
    t = 2
    lhs = phi(
        PhiSpec(
            (Q, Q, QMonomial(-1, t + 1)),
            (QMonomial(-1, 2), QMonomial(1, t + 2)),
            Q,
            12,
        )
    )
    rhs = gf_G(t, 14).scale(Fraction(1, 2))
    rhs = mul_one_minus(rhs, -1, 1)
    for k in range(1, t + 2):
        rhs = mul_one_minus(rhs, 1, k)
    for k in range(1, t + 1):
        rhs = div_one_minus(rhs, -1, k)
    rhs = rhs.times_monomial(1, -1)
    ok, mismatch = equal_to_order(lhs, rhs, 11)
    assert ok, mismatch


def test_phi_rejects_vanishing_lower_parameter():
    for bad in (QMonomial(1, 0), QMonomial(1, -2)):
        with pytest.raises(PhiDivisionError):
            phi(PhiSpec((Q,), (bad,), QMonomial(1, 2), 6))


def test_phi_rejects_nonterminating_constant_argument():
    with pytest.raises(NonconvergentPhiError):
        phi(PhiSpec((Q, Q), (MINUS_Q,), QMonomial(1, 0), 6))


def test_phi_rejects_surplus_upper_parameters():
    with pytest.raises(NonconvergentPhiError):
        phi(PhiSpec((Q, Q, Q), (MINUS_Q,), Q, 6))


# -- q-Chu-Vandermonde -------------------------------------------------------------


def test_chu_hand_checked_instance():
    report = verify_chu(MINUS_ONE, 1, MINUS_Q, 10)
    assert report.passed
    assert report.check.order == 9


def test_chu_empty_product_case():
    report = verify_chu(QMonomial(1, 3), 0, MINUS_Q, 8)
    assert report.passed


@pytest.mark.parametrize("n", range(0, 9))
def test_chu_instances_used_in_the_main_proof(n):
    report = verify_chu(MINUS_ONE, n, MINUS_Q, 41)
    assert report.passed, report.message
    assert report.check.params == {"a": "-1", "c": "-q", "n": n}
