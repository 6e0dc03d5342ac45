"""Series arithmetic: windows, ring behavior, inversion, error contracts."""

import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import former_div_one_minus, former_mul_one_minus
from overq import kernels
from overq.series import (
    EmptyWindowError,
    MismatchInfo,
    NotInvertibleError,
    PrecisionExceededError,
    QMonomial,
    QSeries,
    QSeriesError,
    WindowViolationError,
    add,
    coeff,
    div,
    div_one_minus,
    equal_to_order,
    from_terms,
    geometric,
    invert,
    monomial,
    mul,
    mul_one_minus,
    one,
    one_minus_product,
    zero,
)

F = Fraction
SRC = str(Path(__file__).resolve().parents[1] / "src")


def series_eq(s, pairs, prec):
    """Exact coefficient check over the full window [s.lo, prec)."""
    want = dict(pairs)
    assert s.prec == prec
    for e in range(s.lo, prec):
        assert coeff(s, e) == want.get(e, 0), f"q^{e}"
    return True


# -- construction ------------------------------------------------------------------


def test_from_terms_constant():
    s = from_terms([(0, 1)], 5)
    assert s.lo == 0 and s.prec == 5
    assert series_eq(s, {0: 1}, 5)


def test_from_terms_empty_is_zero_window():
    for prec in (5, 0, -2):
        s = from_terms([], prec)
        assert s.lo <= 0 and s.prec == prec
        assert all(coeff(s, e) == 0 for e in range(s.lo, prec))
    # Below prec 1 the series 1 is the empty window too.
    for prec in (0, -2):
        assert one(prec) == zero(prec) == QSeries(prec, prec, ())
    assert (one(1).lo, one(1).prec, one(1).coeffs) == (0, 1, (1,))


def test_from_terms_laurent():
    s = from_terms([(-1, 1), (1, -2)], 3)
    assert s.lo == -1
    assert series_eq(s, {-1: 1, 1: -2}, 3)


def test_from_terms_duplicate_exponents_accumulate():
    s = from_terms([(2, 1), (2, 2), (0, 1)], 4)
    assert series_eq(s, {0: 1, 2: 3}, 4)


def test_from_terms_rejects_exponent_at_or_above_prec():
    with pytest.raises(WindowViolationError):
        from_terms([(5, 1)], 5)
    with pytest.raises(WindowViolationError):
        from_terms([(9, 1)], 5)


def test_floats_are_rejected_everywhere():
    # bools are ints to Python but not exact rationals to the series layer.
    # These entry points carry the only type check: ring operations store
    # their results unchecked.
    for bad in (0.5, True, False):
        with pytest.raises(TypeError):
            from_terms([(0, bad)], 3)
        with pytest.raises(TypeError):
            monomial(bad, 1, 3)
        with pytest.raises(TypeError):
            QMonomial(bad, 1)
        with pytest.raises(TypeError):
            one(4).scale(bad)
        with pytest.raises(TypeError):
            one(4).times_monomial(bad, 1)
        with pytest.raises(TypeError):
            QSeries(0, 2, [1, bad])
        with pytest.raises(TypeError):
            mul_one_minus(one(4), bad, 1)
        with pytest.raises(TypeError):
            div_one_minus(one(4), bad, 1)


def test_exponents_must_be_ints():
    # A float exponent used to be cut to an int: 2.5 and 2.9 both gave q^2.
    for bad in (2.5, 2.9, 2.0, F(2), "2", None):
        with pytest.raises(TypeError):
            from_terms([(bad, 1)], 5)
        with pytest.raises(TypeError):
            monomial(1, bad, 5)
        with pytest.raises(TypeError):
            QMonomial(1, bad)
    assert from_terms([(2, 1), (2, 3)], 5) == monomial(4, 2, 5)


def test_monomial_requires_nonzero_coeff():
    with pytest.raises(ValueError):
        QMonomial(0, 3)


def test_values_are_immutable():
    s = one(4)
    with pytest.raises(AttributeError):
        s.prec = 10
    m = QMonomial(1, 1)
    with pytest.raises(AttributeError):
        m.exp = 2


def test_str_rendering():
    s = from_terms([(0, 1), (1, -1), (2, -1), (5, 1)], 8)
    assert repr(s) == "QSeries(1 - q - q^2 + q^5 + O(q^8))"
    assert repr(zero(3)) == "QSeries(0 + O(q^3))"


# -- add ---------------------------------------------------------------------------


def test_add_cancellation():
    a = from_terms([(0, 1), (1, 1)], 5)
    b = from_terms([(0, 1), (1, -1)], 5)
    assert series_eq(add(a, b), {0: 2}, 5)


def test_add_takes_min_precision():
    a = geometric(1, 4)
    s = add(a, zero(6))
    assert s.prec == 4
    assert series_eq(s, {0: 1, 1: 1, 2: 1, 3: 1}, 4)


def test_add_merges_windows():
    a = monomial(1, -1, 2)
    b = monomial(1, 1, 3)
    s = add(a, b)
    assert s.lo == -1 and s.prec == 2
    assert series_eq(s, {-1: 1, 1: 1}, 2)


# -- mul ---------------------------------------------------------------------------


def test_mul_telescopes_geometric():
    s = mul(from_terms([(0, 1), (1, -1)], 10), geometric(1, 10))
    assert s.prec == 10
    # 1 + O(q^9) is the weakest true statement; the full window is exact here
    assert series_eq(s, {0: 1}, 10)


def test_mul_polynomials():
    a = from_terms([(0, 1), (1, 1)], 4)
    b = from_terms([(0, 1), (2, 1)], 4)
    s = mul(a, b)
    assert [coeff(s, e) for e in range(4)] == [1, 1, 1, 1]


def test_mul_exponent_cancellation():
    s = mul(monomial(1, -1, 2), monomial(1, 1, 4))
    assert s.lo == 0
    assert coeff(s, 0) == 1


def test_mul_window_rule():
    a = QSeries(2, 7, [1, 0, 0, 0, 0])      # q^2, window [2, 7)
    b = QSeries(-1, 4, [1, 0, 0, 0, 0])     # q^-1, window [-1, 4)
    s = mul(a, b)
    assert s.lo == 1
    assert s.prec == min(7 + (-1), 4 + 2)
    assert coeff(s, 1) == 1


def test_mul_by_scalar():
    s = geometric(1, 4).scale(3)
    assert [coeff(s, e) for e in range(4)] == [3, 3, 3, 3]
    half = geometric(1, 4).scale(F(1, 2))
    assert [coeff(half, e) for e in range(4)] == [F(1, 2)] * 4


# -- invert ------------------------------------------------------------------------


def test_invert_one_minus_q():
    s = invert(from_terms([(0, 1), (1, -1)], 6))
    assert s.lo == 0 and s.prec == 6
    assert all(coeff(s, e) == 1 for e in range(6))


def test_invert_constant():
    s = invert(from_terms([(0, 2)], 4))
    assert series_eq(s, {0: F(1, 2)}, 4)


def test_invert_with_valuation_shift():
    a = from_terms([(1, 1), (2, -1)], 6)     # q(1-q)
    b = invert(a)
    assert b.lo == -1 and b.prec == 4
    assert [coeff(b, e) for e in range(-1, 4)] == [1, 1, 1, 1, 1]
    prod = mul(a, b)
    ok, _ = equal_to_order(prod, one(prod.prec), prod.prec - 1)
    assert ok


def test_invert_error_contracts():
    with pytest.raises(NotInvertibleError):
        invert(zero(5))
    with pytest.raises(EmptyWindowError):
        invert(QSeries(3, 3, ()))


def test_div_is_invert_then_mul():
    num = from_terms([(0, 1), (1, 1)], 8)
    den = from_terms([(0, 1), (1, -1)], 8)
    s = div(num, den)
    # (1+q)/(1-q) = 1 + 2q + 2q^2 + ...
    assert coeff(s, 0) == 1
    assert all(coeff(s, e) == 2 for e in range(1, s.prec))


# -- coeff / equal_to_order --------------------------------------------------------


def test_coeff_window_contract():
    s = geometric(1, 5)
    assert coeff(s, 3) == 1
    assert coeff(s, -2) == 0
    with pytest.raises(PrecisionExceededError):
        coeff(s, 7)
    with pytest.raises(PrecisionExceededError):
        coeff(s, 5)


def test_equal_to_order_true():
    ok, mismatch = equal_to_order(invert(from_terms([(0, 1), (1, -1)], 22)),
                                  geometric(1, 22), 20)
    assert ok and mismatch is None


def test_equal_to_order_reports_first_mismatch():
    a = from_terms([(0, 1), (1, 1)], 6)
    b = from_terms([(0, 1), (1, -1)], 6)
    ok, mismatch = equal_to_order(a, b, 5)
    assert not ok
    assert mismatch.exponent == 1
    assert (mismatch.lhs, mismatch.rhs) == (1, -1)


def test_equal_to_order_sees_negative_exponents():
    a = monomial(1, -2, 4)
    b = zero(4)
    ok, mismatch = equal_to_order(a, b, 3)
    assert not ok and mismatch.exponent == -2


def test_equal_to_order_precision_guard():
    with pytest.raises(PrecisionExceededError):
        equal_to_order(one(5), one(9), 5)


# -- binomial-factor helpers -------------------------------------------------------


def test_mul_one_minus_matches_mul():
    a = geometric(1, 9)
    direct = mul_one_minus(a, 1, 2)
    generic = mul(a, from_terms([(0, 1), (2, -1)], 9))
    ok, _ = equal_to_order(direct, generic, generic.prec - 1)
    assert ok
    assert direct.prec == 9  # exact binomial factors never shrink the window


def test_div_one_minus_round_trips():
    a = from_terms([(0, 1), (3, 5)], 12)
    assert mul_one_minus(div_one_minus(a, 1, 4), 1, 4) == a
    assert div_one_minus(mul_one_minus(a, -2, 3), -2, 3) == a


def test_one_minus_helpers_handle_k_zero_and_negative():
    a = one(6)
    assert coeff(mul_one_minus(a, 3, 0), 0) == -2       # (1 - 3) = -2
    with pytest.raises(NotInvertibleError):
        div_one_minus(a, 1, 0)                          # 1/(1-1)
    s = mul_one_minus(a, 1, -2)                         # 1 - q^{-2}
    assert s.lo == -2
    assert coeff(s, -2) == -1 and coeff(s, 0) == 1
    back = div_one_minus(s, 1, -2)
    ok, _ = equal_to_order(back, one(back.prec), back.prec - 1)
    assert ok


def test_geometric_windows():
    assert geometric(3, 7) == from_terms([(0, 1), (3, 1), (6, 1)], 7)
    for prec in (0, -2):
        s = geometric(2, prec)
        assert (s.lo, s.prec, s.coeffs) == (0, 0, ())
    with pytest.raises(ValueError):
        geometric(0, 5)


def test_int_series_never_import_fractions():
    # Importing fractions also imports decimal, so it is left until a
    # Fraction can appear: int coefficients never import it.
    code = (
        f"import sys; sys.path.insert(0, {SRC!r})\n"
        "from overq.series import from_terms, mul_one_minus, one_minus_product\n"
        "s = mul_one_minus(from_terms([(0, 1), (2, -3)], 6), 2, 1).scale(3)\n"
        "s = one_minus_product(s, [(1, 2, -1), (-1, 1, 1)])\n"
        "print(s.coeffs, sorted(m for m in ('fractions', 'decimal') if m in sys.modules))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    # 3 (1 - 3q^2)(1 - 2q)(1 + q)/(1 - q^2) = 3 (1 - 3q^2)(1 - 2q)/(1 - q)
    assert done.stdout == "(3, -3, -12, 6, 6, 6) []\n"


def test_truncate_and_pad():
    s = geometric(1, 10)
    assert s.truncate(4) == geometric(1, 4)
    assert s.truncate(15) == s
    p = from_terms([(0, 1), (1, 2)], 3).pad_exact(7)
    assert p.prec == 7 and coeff(p, 5) == 0
    e = monomial(1, 4, 6).truncate(2)
    assert e.lo == e.prec  # nothing known below the monomial's exponent


# -- randomized properties ---------------------------------------------------------


def rand_series(rng, invertible=False):
    lo = rng.randint(-3, 3)
    width = rng.randint(1, 8)
    coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(width)]
    if invertible and not any(coeffs):
        coeffs[0] = F(1)
    return QSeries(lo, lo + width, coeffs)


def test_ring_axioms_randomized():
    rng = random.Random(0x5eed)
    for _ in range(300):
        a, b, c = (rand_series(rng) for _ in range(3))
        assert add(a, b) == add(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_invert_roundtrip_randomized():
    rng = random.Random(0xbead)
    for _ in range(200):
        a = rand_series(rng, invertible=True)
        prod = mul(a, invert(a))
        # leading stored zeros can push the product window below q^0; every
        # coefficient the window does show must still agree with the unit
        unit = from_terms([(0, 1)] if prod.prec >= 1 else [], prod.prec)
        ok, mismatch = equal_to_order(prod, unit, prod.prec - 1)
        assert ok, mismatch


def test_precision_contract_rederive_and_truncate():
    rng = random.Random(21)
    assert invert(from_terms([(0, 1), (1, -1)], 30)).truncate(10) == \
        invert(from_terms([(0, 1), (1, -1)], 10))
    assert geometric(3, 40).truncate(11) == geometric(3, 11)
    for _ in range(50):
        lo = rng.randint(-2, 2)
        width = rng.randint(1, 6)
        coeffs = [F(rng.randint(-3, 3)) for _ in range(width)]
        narrow = QSeries(lo, lo + width, coeffs)
        wide = QSeries(lo, lo + width + 7, coeffs + [F(rng.randint(-3, 3))
                                                     for _ in range(7)])
        g = rng.choice([1, -1, 2])
        k = rng.randint(1, 4)
        assert mul_one_minus(wide, g, k).truncate(narrow.prec) == \
            mul_one_minus(narrow, g, k)
        assert div_one_minus(wide, g, k).truncate(narrow.prec) == \
            div_one_minus(narrow, g, k)


def test_integer_pipelines_stay_integral():
    s = one(40)
    for k in (1, 2, 3, 5):
        s = div_one_minus(s, 1, k)
    for k in (1, 4):
        s = mul_one_minus(s, -1, k)
    s = mul_one_minus(s, 2, 6)
    assert all(c.denominator == 1 for c in s.coeffs)


# -- int coefficients and the Fraction slow path -------------------------------------
#
# A coefficient is int | Fraction.  Ring operations on int series return int
# series; the same operations on all-Fraction copies take the slow path and
# must give equal coefficients.  Neither path may ever produce a float.


@st.composite
def int_series(draw, unit=False):
    lo = draw(st.integers(-3, 3))
    width = draw(st.integers(1, 10))
    coeffs = draw(st.lists(st.integers(-40, 40), min_size=width, max_size=width))
    if unit:
        coeffs[0] = draw(st.sampled_from((1, -1)))
    return QSeries(lo, lo + width, coeffs)


def as_fractions(s):
    return QSeries(s.lo, s.prec, [F(c) for c in s.coeffs])


def assert_no_float(s, name):
    assert all(type(c) is int or type(c) is F for c in s.coeffs), name


def ring_ops(a, b, u, r, m, e, g, k):
    return {
        "add": add(a, b),
        "sub": add(a, b.scale(-1)),
        "mul": mul(a, b),
        "invert": invert(u),
        "div": div(a, u),
        "scale": a.scale(r),
        "times_monomial": a.times_monomial(m, e),
        "mul_one_minus": mul_one_minus(a, g, k),
        "div_one_minus": div_one_minus(u, g, k),
    }


@settings(max_examples=150, deadline=None)
@given(
    a=int_series(), b=int_series(), u=int_series(unit=True),
    r=st.integers(-9, 9), m=st.integers(-9, 9), e=st.integers(-4, 4),
    g=st.integers(-5, 5), k=st.integers(1, 6),
)
def test_int_ops_stay_int_and_match_fraction_path(a, b, u, r, m, e, g, k):
    fast = ring_ops(a, b, u, r, m, e, g, k)
    slow = ring_ops(
        as_fractions(a), as_fractions(b), as_fractions(u), F(r), F(m), e, F(g), k
    )
    for name, s in fast.items():
        assert all(type(c) is int for c in s.coeffs), name
        f = slow[name]
        assert_no_float(f, name)
        assert all(type(c) is F for c in f.coeffs if c), name
        assert (s.lo, s.prec, s.coeffs) == (f.lo, f.prec, f.coeffs), name


@settings(max_examples=150, deadline=None)
@given(
    a=int_series(), c0=st.integers(-6, 6).filter(lambda c: c not in (-1, 0, 1)),
    g=st.integers(-5, 5).filter(lambda g: g not in (0, 1)), k=st.integers(-4, 0),
    num=st.integers(-9, 9).filter(bool), den=st.integers(-9, 9).filter(bool),
)
def test_true_divisions_give_fractions_not_floats(a, c0, g, k, num, den):
    unit = QSeries(a.lo, a.prec, (c0,) + a.coeffs[1:])
    inv = invert(unit)
    assert_no_float(inv, "invert")
    assert type(inv.coeffs[0]) is F and inv.coeffs[0] == F(1, c0)
    assert inv == invert(as_fractions(unit))
    for name, s in (
        ("mul_one_minus", mul_one_minus(a, g, k)),
        ("div_one_minus", div_one_minus(a, g, k)),
    ):
        assert_no_float(s, name)
    back = div_one_minus(mul_one_minus(a, g, k), g, k)
    ok, mismatch = equal_to_order(back, a, min(back.prec, a.prec) - 1)
    assert ok, mismatch
    quotient = QMonomial(num, 2) / QMonomial(den, 1)
    assert quotient.exp == 1 and quotient.coeff == F(num, den)
    assert type(quotient.coeff) is (int if den in (1, -1) else F)


# -- one-minus factors beyond the window -------------------------------------------
#
# For k >= prec - lo the factor (1 - g*q^k) is 1 on the window, and the
# helpers return their input without a kernel call.


@st.composite
def windowed_series(draw):
    lo = draw(st.integers(-6, 4))
    width = draw(st.integers(0, 9))
    values = st.one_of(st.integers(-9, 9), st.fractions(max_denominator=5))
    coeffs = draw(st.lists(values, min_size=width, max_size=width))
    return QSeries(lo, lo + width, coeffs)


def test_one_minus_helpers_skip_factors_beyond_the_window(monkeypatch):
    calls = []
    real = kernels.one_minus_chain
    monkeypatch.setattr(kernels, "one_minus_chain", lambda c, factors: (
        calls.append((len(c), list(factors))) or real(c, factors)))
    a = QSeries(-2, 3, [1, 2, 0, -1, 4])
    for k in (5, 6, 40):
        for g in (1, -1, 2, F(1, 2)):
            assert mul_one_minus(a, g, k) is a
            assert div_one_minus(a, g, k) is a
    assert calls == []
    mul_one_minus(a, 2, 4)
    div_one_minus(a, 2, 4)
    assert calls == [(5, [(2, 4, 1)]), (5, [(2, 4, -1)])]


# -- one_minus_product against one factor at a time -------------------------------
#
# The reference applies the factors one at a time with the former helpers,
# each with its own k <= 0 rewrite (``brute.former_mul_one_minus`` and
# ``former_div_one_minus``, kept verbatim).


def one_factor_at_a_time(a, factors):
    for g, k, e in factors:
        step = former_mul_one_minus if e > 0 else former_div_one_minus
        a = step(a, g, k)
    return a


@st.composite
def factor_lists(draw):
    """Factors (g, k, e) with k from -4 to past every drawn window width,
    (1 - q^0) among them, then some of them repeated and some followed by
    their inverses, all shuffled."""
    factor = st.tuples(
        st.sampled_from((1, -1, 2, -3, 0, F(1, 2), F(-3, 1), F(1))),
        st.integers(-4, 12),
        st.sampled_from((1, -1)),
    )
    base = draw(st.lists(st.one_of(factor, st.just((1, 0, 1))), max_size=6))
    repeats = draw(st.lists(st.sampled_from(base), max_size=4)) if base else []
    inverses = [(g, k, -e) for g, k, e in
                (draw(st.lists(st.sampled_from(base), max_size=4)) if base else [])]
    return draw(st.permutations(base + repeats + inverses))


@settings(max_examples=400, deadline=None)
@given(a=st.one_of(int_series(), windowed_series()), factors=factor_lists())
def test_one_minus_product_matches_one_factor_at_a_time(a, factors):
    try:
        want = one_factor_at_a_time(a, factors)
    except QSeriesError as exc:
        with pytest.raises(type(exc)):
            one_minus_product(a, factors)
        return
    got = one_minus_product(a, factors)
    assert (got.lo, got.prec, got.coeffs) == (want.lo, want.prec, want.coeffs)
    assert list(map(type, got.coeffs)) == list(map(type, want.coeffs))


def test_one_minus_product_rewrites_nonpositive_exponents():
    a = QSeries(0, 4, [1, 2, 0, 5])
    # (1 - 3) is a scalar; (1 - 2q^-1) = -2q^-1 (1 - q/2) moves the window
    # down by 1, and its inverse moves it back up.
    assert one_minus_product(a, [(3, 0, 1)]) == a.scale(-2)
    down = one_minus_product(a, [(2, -1, 1)])
    assert (down.lo, down.prec) == (-1, 3)
    assert down == mul_one_minus(a, F(1, 2), 1).times_monomial(-2, -1)
    assert one_minus_product(a, [(2, -1, 1), (2, -1, -1)]) == a.scale(F(1))
    # A factor with g = -1 and -k past the window scales by 1 and only
    # moves it.
    moved = one_minus_product(a, [(-1, -6, 1)])
    assert (moved.lo, moved.prec, moved.coeffs) == (-6, -2, a.coeffs)
    with pytest.raises(NotInvertibleError):
        one_minus_product(a, [(2, 1, 1), (1, 0, -1)])


def test_a_vanishing_factor_keeps_the_types_of_one_factor_at_a_time():
    # (1 - q^0) = 0 zeroes the product; a Fraction divisor makes Fractions
    # of the nonzero entries it reaches, which it does before the zero
    # factor and not after it.
    a = QSeries(0, 5, [1, 0, 0, 0, 0])
    half = (F(1, 2), 2, -1)
    for factors in ([half, (1, 0, 1)], [(1, 0, 1), half]):
        got = one_minus_product(a, factors)
        want = one_factor_at_a_time(a, factors)
        assert got.coeffs == (0,) * 5
        assert list(map(type, got.coeffs)) == list(map(type, want.coeffs))
    assert [type(c) for c in one_minus_product(a, [half, (1, 0, 1)]).coeffs] \
        == [int, int, F, int, F]


def test_one_minus_product_cancels_inverse_int_factors_only(monkeypatch):
    a = QSeries(0, 8, [1, 2, 0, -1, 4, 0, 0, 3])
    both = [(1, 3, 1), (2, 5, -1), (1, 3, -1), (-1, 2, 1), (-1, 2, 1), (-1, 2, -1)]
    want = one_factor_at_a_time(a, both)
    chains = []
    real = kernels.one_minus_chain
    monkeypatch.setattr(kernels, "one_minus_chain", lambda c, factors: (
        chains.append(list(factors)) or real(c, factors)))
    assert one_minus_product(a, both) == want
    assert chains == [[(2, 5, -1), (-1, 2, 1)]]
    # Every factor cancels: no kernel call, and a itself comes back.
    assert one_minus_product(a, [(3, 2, 1), (3, 2, -1)]) is a
    assert len(chains) == 1
    # A Fraction g, or a Fraction coefficient, runs every factor as given.
    chains.clear()
    half = [(F(1, 2), 3, 1), (F(1, 2), 3, -1)]
    assert one_minus_product(a, half) == a
    mixed = QSeries(0, 8, [F(1, 2), *a.coeffs[1:]])
    one_minus_product(mixed, both[:3])
    assert chains == [half, both[:3]]


# -- equal_to_order against its per-exponent loop -----------------------------------


def reference_equal_to_order(a, b, order):
    """The per-exponent body equal_to_order had before, kept verbatim."""
    if order >= a.prec or order >= b.prec:
        raise PrecisionExceededError(
            f"comparison up to q^{order} needs prec > {order} on both sides "
            f"(have {a.prec} and {b.prec})"
        )
    for e in range(min(a.lo, b.lo), order + 1):
        va = a.coeff(e)
        vb = b.coeff(e)
        if va != vb:
            return False, MismatchInfo(e, va, vb)
    return True, None


def assert_same_comparison(a, b, order):
    try:
        want = reference_equal_to_order(a, b, order)
    except PrecisionExceededError as exc:
        with pytest.raises(PrecisionExceededError, match=re.escape(str(exc))):
            equal_to_order(a, b, order)
        return
    got = equal_to_order(a, b, order)
    assert got == want
    if want[1] is not None:
        assert type(got[1]) is MismatchInfo
        assert type(got[1].lhs) is type(want[1].lhs)
        assert type(got[1].rhs) is type(want[1].rhs)


@settings(max_examples=400, deadline=None)
@given(
    a=windowed_series(),
    shift=st.integers(-4, 4),
    edits=st.lists(
        st.tuples(st.integers(0, 12), st.one_of(st.integers(-2, 2), st.just(F(1, 3)))),
        max_size=3,
    ),
    trim=st.integers(0, 3),
    order=st.integers(-12, 12),
)
def test_equal_to_order_matches_the_per_exponent_loop(a, shift, edits, trim, order):
    # b is a with its window start moved by shift (zeros fill or are dropped
    # where that is exact), a few entries changed, and maybe a shorter window.
    lo = a.lo + shift
    coeffs = [a.coeff(e) if e >= a.lo else 0 for e in range(lo, a.prec)]
    for i, v in edits:
        if i < len(coeffs):
            coeffs[i] = v
    b = QSeries(lo, max(lo, a.prec - trim), coeffs[: max(a.prec - trim - lo, 0)])
    assert_same_comparison(a, b, order)
    assert_same_comparison(b, a, order)


def test_equal_to_order_finds_mismatch_at_the_first_and_last_exponent():
    a = QSeries(-3, 5, [F(1, 2), 0, 1, 2, 3, 4, 5, 6])
    for e in (-3, 4):
        b = from_terms([(x, a.coeff(x) + (x == e)) for x in range(-3, 5)], 5)
        assert equal_to_order(a, b, 4) == (False, MismatchInfo(e, a.coeff(e), b.coeff(e)))
        assert_same_comparison(a, b, 4)
    # unequal window starts: the first exponent is the lower start
    c = QSeries(-1, 5, [1, 2, 3, 4, 5, 6])
    assert equal_to_order(a, c, 4) == (False, MismatchInfo(-3, F(1, 2), 0))
    assert type(equal_to_order(c, a, 4)[1].lhs) is int
    d = QSeries(-1, 5, [1, 2, 3, 4, 5, 7])
    e = QSeries(-4, 5, [0, 0, 0, 1, 2, 3, 4, 5, 6])
    assert equal_to_order(e, d, 4) == (False, MismatchInfo(4, 6, 7))
    assert equal_to_order(e, c, 4) == (True, None)
    for x, y in ((a, c), (c, a), (e, d), (d, e), (e, c), (c, e)):
        for order in range(-5, 5):
            assert_same_comparison(x, y, order)
