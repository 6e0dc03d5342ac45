"""The infinite Pochhammer symbol, q-binomials (the over q-binomial by its
explicit sum, its column recurrence and the box walk), the phi evaluator
and the q-Chu-Vandermonde check."""

import operator
import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import chu_right_side, iter_partitions, pochhammer, qbinom
from overq import kernels, qfunctions
from overq.enumeration import over_qbinom_box_oracle
from overq.identities import gf_G
from overq.qfunctions import (
    _wrap_poly,
    NonconvergentPhiError,
    NonconvergentProductError,
    PhiDivisionError,
    _termination_index,
    over_qbinom_columns,
    over_qbinom_ladder,
    over_qbinom_sum,
    phi,
    pochhammer_inf,
    verify_chu,
)
from overq.series import (
    QMonomial,
    QSeriesError,
    add,
    coeff,
    div,
    div_one_minus,
    equal_to_order,
    from_terms,
    invert,
    mul,
    mul_one_minus,
    one,
    one_minus_product,
)

Q = QMonomial(1, 1)
MINUS_ONE = QMonomial(-1, 0)
MINUS_Q = QMonomial(-1, 1)


def ints(s, lo=0):
    return [coeff(s, e) for e in range(lo, s.prec)]


# -- pochhammer_inf ----------------------------------------------------------------


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
    # The Pascal-style recurrence, read from its columns.
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
            rhs = add(rhs, over_qbinom_sum(m - 1, n, prec=prec - n).times_monomial(1, n))
            rhs = add(
                rhs, over_qbinom_sum(m - 1, n - 1, prec=prec - n).times_monomial(1, n))
            ok, mismatch = equal_to_order(lhs, rhs, prec - 1)
            assert ok, (m, n, mismatch)


def test_over_qbinom_prec_keyword():
    assert over_qbinom_sum(2, 2, prec=3).prec == 3
    padded = over_qbinom_sum(2, 2, prec=20)
    assert padded.prec == 20 and coeff(padded, 10) == 0
    assert over_qbinom_ladder(2, 2, 20) == padded


# -- the column recurrence -------------------------------------------------------------


def test_columns_hold_every_box_polynomial_on_its_window():
    for p in range(-1, 21):
        for t in range(6):
            cols = list(over_qbinom_columns(t, p))
            assert len(cols) == max(p, 0), (p, t)
            for j, col in enumerate(cols):
                assert len(col) == min(t, p - 1) + 1, (p, t, j)
                for i, c in enumerate(col):
                    assert c == list(over_qbinom_sum(i, j, p - j).coeffs), (p, t, i, j)


def test_a_huge_box_width_reads_row_p_minus_one():
    # On [0, prec) a box polynomial stops changing once m reaches prec - 1,
    # so m clamps to p - 1 = n + prec - 1 and a column holds at most p rows.
    prec = 12
    for n in range(5):
        p = n + prec
        huge = over_qbinom_ladder(10**6, n, prec)
        assert huge == over_qbinom_ladder(p - 1, n, prec), n
        assert huge == over_qbinom_sum(10**6, n, prec), n
    assert len(next(over_qbinom_columns(10**6, 6))) == 6
    assert (tuple(list(over_qbinom_columns(10**6, 3 + prec))[3][-1][:prec])
            == over_qbinom_sum(10**6, 3, prec).coeffs)


def test_a_ladder_read_stops_at_half_the_width(monkeypatch):
    # Column n is a prefix of column ceil(p/2) - 1 when n is past it, so a
    # read takes no column after min(n, ceil(p/2) - 1).
    taken = []

    def columns(t, p):
        for j, col in enumerate(over_qbinom_columns(t, p)):
            taken.append(j)
            yield col

    monkeypatch.setattr(qfunctions, "over_qbinom_columns", columns)
    for m, n, prec in [(3, 2, 10), (3, 9, 4), (2, 20, 1), (0, 0, 5)]:
        taken.clear()
        assert over_qbinom_ladder(m, n, prec) == over_qbinom_sum(m, n, prec)
        assert taken == list(range(min(n, (n + prec + 1) // 2 - 1) + 1)), (m, n, prec)


def test_ladder_reads_an_empty_window_like_the_sum():
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
    lhs = phi((MINUS_ONE, QMonomial(1, -1)), (MINUS_Q,), QMonomial(1, 2), 12)
    rhs = div(from_terms([(0, 1), (1, -1)], 12), from_terms([(0, 1), (1, 1)], 12))
    ok, mismatch = equal_to_order(lhs, rhs, 11)
    assert ok, mismatch


def test_phi_arguments():
    # phi reads its upper and lower parameters from any iterable, once each,
    # takes every parameter by keyword, and has no default precision.
    ups, lows, z = (MINUS_ONE, QMonomial(1, -1)), (MINUS_Q,), QMonomial(1, 2)
    want = phi(ups, lows, z, 12)
    assert phi(list(ups), list(lows), z, 12) == want
    assert phi(iter(ups), iter(lows), z, 12) == want
    assert phi(upper=iter(ups), lower=lows, argument=z, prec=12) == want
    with pytest.raises(TypeError):
        phi(ups, lows, z)


def test_phi_upper_q_to_zero_terminates_immediately():
    got = phi((QMonomial(1, 3), QMonomial(1, 0)), (MINUS_Q,), QMonomial(1, 1), 9)
    assert equal_to_order(got, one(9), 8)[0]


def test_phi_terminating_sum_matches_manual_assembly():
    # structural termination allows an argument exponent <= 0
    n_top = 2
    spec = (
        (QMonomial(1, 2), QMonomial(1, -n_top)),
        (QMonomial(-1, 2),),
        QMonomial(1, -1),
        8,
    )
    got = phi(*spec)
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
        acc = term if acc is None else add(acc, term)
    ok, mismatch = equal_to_order(got, acc.truncate(8), 7)
    assert ok, mismatch


def test_phi_three_two_instance_matches_closed_form():
    # 3phi2(q, q, -q^3; -q^2, q^4; q) = (1+q)(q;q)_3 / (q (-q;q)_2) * gf_G(2)/2
    t = 2
    lhs = phi(
        (Q, Q, QMonomial(-1, t + 1)),
        (QMonomial(-1, 2), QMonomial(1, t + 2)),
        Q,
        12,
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
            phi((Q,), (bad,), QMonomial(1, 2), 6)


def test_phi_rejects_nonterminating_constant_argument():
    with pytest.raises(NonconvergentPhiError):
        phi((Q, Q), (MINUS_Q,), QMonomial(1, 0), 6)


def test_phi_rejects_surplus_upper_parameters():
    with pytest.raises(NonconvergentPhiError):
        phi((Q, Q, Q), (MINUS_Q,), Q, 6)


# -- phi against its former per-term QSeries loop ------------------------------------


def reference_phi(upper, lower, z, prec):
    """The body phi had before it ran on one int list, kept verbatim."""
    ups, lows = tuple(upper), tuple(lower)
    for b in lows:
        if b.coeff == 1 and b.exp <= 0:
            raise PhiDivisionError(
                f"lower parameter {b} vanishes inside its Pochhammer factor"
            )
    s_minus_r = len(lows) - (len(ups) - 1)
    n_stop = _termination_index(ups)
    if n_stop is None:
        if s_minus_r < 0:
            raise NonconvergentPhiError(
                "more upper than lower parameters: terms lose valuation"
            )
        if s_minus_r == 0 and z.exp < 1:
            raise NonconvergentPhiError(
                f"argument {z} has exponent < 1 and the series does not terminate"
            )
    horizon = n_stop if n_stop is not None else prec + 16

    # Negative-exponent parameter factors shift term windows downward; pad
    # the working precision so the requested window survives every shift.
    drift = 0
    for k in range(horizon + 1):
        for u in ups:
            drift += max(0, -(u.exp + k))
        for b in lows:
            drift += max(0, -(b.exp + k))
    drift += (horizon + 1) * max(0, -z.exp)
    if s_minus_r < 0:
        drift += (-s_minus_r) * horizon * (horizon + 1) // 2
    work = prec + drift

    # From the first n with low + n >= 1 on, every factor of a term update
    # has k >= 1 and the update is one chain.
    low = min((p.exp for p in (*ups, *lows)), default=1)
    term = one(work)
    acc = term
    n = 0
    while True:
        if n_stop is not None and n >= n_stop:
            break
        if low + n >= 1:
            term = one_minus_product(
                term,
                [(u.coeff, u.exp + n, 1) for u in ups] + [(1, n + 1, -1)]
                + [(b.coeff, b.exp + n, -1) for b in lows],
            )
        else:
            for u in ups:
                term = mul_one_minus(term, u.coeff, u.exp + n)
            term = div_one_minus(term, 1, n + 1)
            for b in lows:
                term = div_one_minus(term, b.coeff, b.exp + n)
        if s_minus_r:
            sign = -1 if s_minus_r % 2 else 1
            term = term.times_monomial(sign, n * s_minus_r)
        term = term.times_monomial(z.coeff, z.exp)
        if not drift:
            # No factor shifts a term down, so entries at prec and above
            # never reach the window: drop them.
            term = term.truncate(prec)
        n += 1
        acc = add(acc, term)
        if n_stop is None:
            settled = (
                all(u.exp + n >= 0 for u in ups)
                and all(b.exp + n >= 1 for b in lows)
                and z.exp + n * s_minus_r >= 1
            )
            if settled:
                v = term.valuation()
                if v is None or v >= prec:
                    break
            if n > horizon:
                raise NonconvergentPhiError(
                    f"phi series did not settle within {horizon} terms"
                )
    return acc.truncate(prec)


def assert_same_phi(*spec):
    """phi(*spec) and reference_phi(*spec) give the same window, values and
    coefficient types, or raise the same error with the same message."""
    try:
        want = reference_phi(*spec)
    except QSeriesError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            phi(*spec)
        return
    got = phi(*spec)
    assert (got.lo, got.prec, got.coeffs) == (want.lo, want.prec, want.coeffs)
    assert list(map(type, got.coeffs)) == list(map(type, want.coeffs))


def chain_and_chu_specs(t, prec):
    """The phi parameters (upper, lower, argument, prec) of proof-chain
    steps (ii)-(iv) and of the chu check at termination index t, all at
    prec."""
    return [
        ((Q, Q, QMonomial(-1, t + 1)), (QMonomial(-1, 2), QMonomial(1, t + 2)),
         Q, prec),
        ((Q, MINUS_Q, QMonomial(1, 1 - t)), (QMonomial(-1, 2), QMonomial(1, 2)),
         QMonomial(1, t + 1), prec),
        ((MINUS_ONE, QMonomial(1, -t)), (MINUS_Q,), QMonomial(1, t + 1), prec),
        ((MINUS_ONE, QMonomial(1, -t)), (MINUS_Q,),
         (MINUS_Q * QMonomial(1, t)) / MINUS_ONE, prec),
    ]


@pytest.mark.parametrize("order", [1, 2, 3, 5, 17, 60, 120])
def test_phi_matches_the_per_term_loop_on_the_chain_and_chu_specs(order):
    # The proof chain builds (ii) and (iii) at prec = order, the chu check
    # at order + 1; both are covered, and t = 0 for chu.
    for t in range(0, 11):
        for prec in (order, order + 1):
            for spec in chain_and_chu_specs(t, prec)[0 if t else 3:]:
                got = phi(*spec)
                assert all(type(c) is int for c in got.coeffs), (t, prec)
                assert_same_phi(*spec)


@pytest.mark.parametrize("spec", [
    # negative exponents: terminating sums with argument exponent <= 0, and
    # lower parameters below q^1 with a coefficient other than 1
    ((QMonomial(1, 2), QMonomial(1, -2)), (QMonomial(-1, 2),),
     QMonomial(1, -1), 8),
    ((QMonomial(3, -2), QMonomial(1, -3)), (QMonomial(-2, -1),),
     QMonomial(1, 1), 9),
    ((QMonomial(-1, -1),), (QMonomial(2, 0),), QMonomial(-1, 2), 10),
    ((Q, QMonomial(1, -4)), (QMonomial(-1, -2), MINUS_Q),
     QMonomial(1, -3), 7),
    # non-+-1 coefficients, in the parameters and in the argument
    ((QMonomial(2, 1), QMonomial(-3, 2)), (QMonomial(5, 1),),
     QMonomial(1, 1), 12),
    ((QMonomial(Fraction(1, 2), 1),), (QMonomial(-1, 2),),
     QMonomial(3, 1), 11),
    ((Q, Q), (MINUS_Q,), QMonomial(Fraction(-2, 3), 1), 9),
    ((QMonomial(2, 0), QMonomial(1, -2)), (QMonomial(3, 1),),
     QMonomial(2, 1), 8),
    # more lower than upper parameters: the (-1)^n q^{n(n-1)/2} factor
    ((Q,), (MINUS_Q, QMonomial(1, 3)), QMonomial(-1, 0), 10),
    ((), (QMonomial(2, 1),), QMonomial(1, -2), 9),
    # a term window that drops past prec before the sum settles
    ((Q,), (), QMonomial(1, 4), 3),
])
def test_phi_matches_the_per_term_loop_off_the_chain(spec):
    assert_same_phi(*spec)


_MONOMIALS = st.builds(
    QMonomial,
    st.sampled_from((1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2))),
    st.integers(-3, 3),
)


@settings(max_examples=300, deadline=None)
@given(
    ups=st.lists(_MONOMIALS, max_size=3),
    lows=st.lists(_MONOMIALS, max_size=2),
    z=_MONOMIALS,
    prec=st.integers(1, 10),
)
def test_phi_matches_the_per_term_loop_on_random_specs(ups, lows, z, prec):
    assert_same_phi(ups, lows, z, prec)


def test_phi_error_messages_are_pinned():
    for bad, shown in ((QMonomial(1, 0), "1"), (QMonomial(1, -2), "q^-2")):
        with pytest.raises(PhiDivisionError, match=re.escape(
                f"lower parameter {shown} vanishes inside its Pochhammer factor")):
            phi((Q,), (bad,), QMonomial(1, 2), 6)
    cases = [
        (((Q, Q, Q), (MINUS_Q,), Q, 6),
         "more upper than lower parameters: terms lose valuation"),
        (((Q, Q), (MINUS_Q,), QMonomial(1, 0), 6),
         "argument 1 has exponent < 1 and the series does not terminate"),
        (((Q, Q), (MINUS_Q,), QMonomial(-2, -1), 6),
         "argument -2*q^-1 has exponent < 1 and the series does not terminate"),
        # q^{n(n-1)/2} q^{-40 n} gains valuation only after 40 terms
        (((Q,), (MINUS_Q,), QMonomial(1, -40), 4),
         "phi series did not settle within 20 terms"),
    ]
    for spec, message in cases:
        with pytest.raises(NonconvergentPhiError, match=f"^{re.escape(message)}$"):
            phi(*spec)
        assert_same_phi(*spec)


# -- q-Chu-Vandermonde -------------------------------------------------------------


def test_chu_hand_checked_instance():
    report = verify_chu(MINUS_ONE, 1, MINUS_Q, 10)
    assert report.passed
    assert report.check.order == 9


def test_chu_empty_product_case():
    report = verify_chu(QMonomial(1, 3), 0, MINUS_Q, 8)
    assert report.passed
    # n = 0 is the smallest termination index.
    with pytest.raises(ValueError, match="^termination index n must be >= 0$"):
        verify_chu(QMonomial(1, 3), -1, MINUS_Q, 8)


@pytest.mark.parametrize("n", range(0, 9))
def test_chu_instances_used_in_the_main_proof(n):
    report = verify_chu(MINUS_ONE, n, MINUS_Q, 41)
    assert report.passed, report.message
    assert report.check.params == {"a": "-1", "c": "-q", "n": n}


def grid_monomials(coeffs):
    return [QMonomial(g, e) for g in coeffs for e in range(-3, 3)]


@pytest.mark.parametrize("n", range(5))
def test_chu_right_side_matches_the_former_quotient(monkeypatch, n):
    # verify_chu's right side is one product of its 2n one-minus factors on
    # a window that ends at prec; the former route divided two Pochhammer
    # symbols built at a boosted precision.  phi is stubbed, so that only
    # the right side can raise, and the side is read where it is compared.
    prec = 12
    sides = []
    real = qfunctions.comparison_report
    monkeypatch.setattr(qfunctions, "phi", lambda *spec: one(prec))
    monkeypatch.setattr(qfunctions, "comparison_report", lambda check, text, pair:
                        sides.append(pair[1]) or real(check, text, pair))
    for a in grid_monomials((1, -1, 2, Fraction(1, 3))):
        for c in grid_monomials((1, -1, 2, -3)):
            try:
                want = chu_right_side(a, n, c, prec)
            except QSeriesError as exc:
                with pytest.raises(type(exc)):
                    verify_chu(a, n, c, prec)
                continue
            verify_chu(a, n, c, prec)
            got = sides.pop()
            assert got.prec == prec, (a, c)
            ok, mismatch = equal_to_order(got, want, prec - 1)
            assert ok, (a, c, mismatch)
