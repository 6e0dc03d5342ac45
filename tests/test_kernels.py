"""The coefficient kernels and series.add against the loops they replaced,
kept verbatim below as test-only references, one for each kernel: convolve
against the per-coefficient loop, one_minus_chain against the one-factor
kernels it replaced, applied one factor at a time, divide_unit against the
product with the inverse, both taken from the per-coefficient loops (so
also invert_unit, which is divide_unit with the dividend 1), series.div
against mul(a, invert(b)), and add against the per-exponent loop.

Values must always agree.  Types must agree entry by entry on int inputs,
and on every input for the kernels whose rewrite does the same arithmetic
in the same order (one_minus_chain, add).  convolve may drive its loop
from either operand, so with Fraction inputs it may return a zero as 0
where the reference gave Fraction(0), or the other way round.  divide_unit
and series.div solve for the quotient where the product multiplies by the
reciprocal, so there too only a zero's type may differ, and only when a
Fraction is involved.
"""

from fractions import Fraction
from itertools import accumulate, repeat
from operator import add as _add, mul as _mul, sub as _sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overq import kernels
from overq.series import QSeries, QSeriesError, add, div, invert, mul

# -- references: the former kernel bodies, kept verbatim ------------------------------

_ZERO = 0


def reference_convolve(a, b, n_out):
    """Truncated Cauchy product: out[k] = sum_{i+j=k} a[i]*b[j], k < n_out."""
    la = len(a)
    lb = len(b)
    out = []
    for k in range(n_out):
        lo = k - lb + 1
        if lo < 0:
            lo = 0
        hi = k + 1
        if hi > la:
            hi = la
        s = 0
        for i in range(lo, hi):
            ai = a[i]
            if ai:
                s = s + ai * b[k - i]
        out.append(s)
    return out


def reference_invert_unit(c, n_out):
    """Reciprocal of a unit: (c * out)[k] = (k == 0), for k < n_out."""
    c0 = c[0]
    unit = c0 == 1 or c0 == -1
    # For c0 = +-1, 1/c0 == c0 and -s/c0 == -s*c0.
    out = [c0 if unit else Fraction(1, c0)]
    neg = -c0
    lc = len(c)
    for k in range(1, n_out):
        hi = k + 1
        if hi > lc:
            hi = lc
        s = 0
        for i in range(1, hi):
            ci = c[i]
            if ci:
                s = s + ci * out[k - i]
        if not s:
            out.append(0 * c0)
        elif unit:
            out.append(s * neg)
        else:
            out.append(Fraction(-s, c0))
    return out


def former_mul_one_minus(c, g, k):
    """Multiply by the exact factor (1 - g*q^k), k >= 1; length preserved."""
    out = list(c[:k])
    if g == 1:
        out += map(_sub, c[k:], c)
    elif g == -1:
        out += map(_add, c[k:], c)
    else:
        out += map(_sub, c[k:], map(_mul, repeat(g), c))
    return out


def former_div_one_minus(c, g, k):
    """Divide by the exact factor (1 - g*q^k), k >= 1; length preserved."""
    n = len(c)
    out = list(c)
    if g == 1 and k * k < n:
        for r in range(k):
            out[r::k] = accumulate(out[r::k])
    elif g == 1:
        for i in range(k, n):
            prev = out[i - k]
            if prev:
                out[i] = out[i] + prev
    elif g == -1:
        for i in range(k, n):
            prev = out[i - k]
            if prev:
                out[i] = out[i] - prev
    else:
        for i in range(k, n):
            prev = out[i - k]
            if prev:
                out[i] = out[i] + g * prev
    return out


def reference_add(a: QSeries, b: QSeries) -> QSeries:
    """Sum on the common window [min(lo), min(prec))."""
    lo = min(a.lo, b.lo)
    prec = min(a.prec, b.prec)
    ac, bc = a.coeffs, b.coeffs
    alo, blo = a.lo, b.lo
    out = []
    for e in range(lo, prec):
        ia = e - alo
        ib = e - blo
        va = ac[ia] if ia >= 0 else _ZERO
        vb = bc[ib] if ib >= 0 else _ZERO
        out.append(va + vb)
    return QSeries._make(lo, prec, out)


# -- inputs -------------------------------------------------------------------------

FRACTIONS = st.builds(
    Fraction, st.integers(-9, 9), st.integers(1, 6)
) | st.just(Fraction(0))
INTS = st.integers(-9, 9) | st.integers(-(10**30), 10**30)


def coeff(kind, density="half"):
    """One coefficient of the given kind; "sparse" lists are mostly zeros,
    "dense" ones have none (Fraction(0) aside)."""
    if kind == "int":
        nonzero = INTS
    elif kind == "fraction":
        nonzero = FRACTIONS
    else:
        nonzero = INTS | FRACTIONS
    zero = st.just(0) if kind == "int" else st.sampled_from((0, Fraction(0)))
    if density == "dense":
        return nonzero
    if density == "sparse":
        return st.one_of(zero, zero, zero, nonzero)
    return st.one_of(zero, nonzero)


KINDS = st.sampled_from(("int", "fraction", "mixed"))
G = st.integers(-4, 4).filter(bool) | st.sampled_from((1, -1)) | FRACTIONS.filter(bool)


def coeff_lists(kind, max_size=14):
    return st.sampled_from(("sparse", "half", "dense")).flatmap(
        lambda density: st.lists(coeff(kind, density), max_size=max_size)
    )


def assert_same(new, ref, exact_types):
    assert new == ref
    assert all(type(x) in (int, Fraction) for x in new)
    if exact_types:
        assert [type(x) for x in new] == [type(x) for x in ref]


# -- the kernels ----------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_convolve_matches_the_gather_loop(data):
    kind = data.draw(KINDS)
    a = data.draw(coeff_lists(kind))
    b = data.draw(coeff_lists(kind))
    n_out = data.draw(st.integers(0, len(a) + len(b) + 3))
    a, b = data.draw(st.sampled_from(((a, b), (tuple(a), tuple(b)))))
    new = kernels.convolve(a, b, n_out)
    assert_same(new, reference_convolve(a, b, n_out), kind == "int")
    assert len(new) == n_out


def apply_each(c, factors, mul_one, div_one):
    for g, k, e in factors:
        c = (mul_one if e > 0 else div_one)(c, g, k)
    return list(c)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_minus_chain_matches_the_per_factor_loops(data):
    kind = data.draw(KINDS)
    c = data.draw(coeff_lists(kind, max_size=40))
    g = G if kind != "int" else G.filter(lambda g: type(g) is int)
    k = st.integers(1, len(c) + 2) | st.integers(1, 5)
    factors = data.draw(st.lists(st.tuples(g, k, st.sampled_from((1, -1))),
                                 max_size=6))
    c = data.draw(st.sampled_from((c, tuple(c))))
    new = kernels.one_minus_chain(c, factors)
    assert len(new) == len(c)
    assert_same(new, apply_each(c, factors, former_mul_one_minus,
                                former_div_one_minus), True)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_divide_unit_matches_the_product_with_the_inverse(data):
    kind = data.draw(KINDS)
    c0 = data.draw(st.sampled_from((1, -1)) | coeff(kind).filter(bool))
    c = [c0] + data.draw(coeff_lists(kind))
    a = data.draw(coeff_lists(kind))
    n_out = data.draw(st.integers(1, len(c) + 3))
    new = kernels.divide_unit(a, c, n_out)
    ref = reference_convolve(a, reference_invert_unit(c, n_out), n_out)
    assert_same(new, ref, kind == "int" and c0 in (1, -1))
    assert len(new) == n_out


def test_divide_unit_keeps_the_inverse_rules():
    # A quotient entry that cancels is 0 * c[0]: an int zero for an int
    # unit, a Fraction zero for a Fraction one.
    assert kernels.divide_unit([1, 1], [1, 1], 4) == [1, 0, 0, 0]
    assert [type(x) for x in kernels.divide_unit([1, 1], [1, 1], 4)] == [int] * 4
    half = kernels.divide_unit([Fraction(1), 1], [Fraction(1), 1], 3)
    assert [type(x) for x in half] == [Fraction] * 3
    assert kernels.divide_unit([3, 0, 1], [2, 1], 3) == [
        Fraction(3, 2), Fraction(-3, 4), Fraction(7, 8)]
    # The series 1 over c is the inverse, entry for entry and type for type.
    for c in ([1, 0, 3], [-1, 2, 0, 5], [2, 1], [Fraction(1, 3), 0, 1]):
        for n_out in (1, 2, 5):
            assert_same(kernels.divide_unit((1,), c, n_out),
                        kernels.invert_unit(c, n_out), True)


# -- series.div -------------------------------------------------------------------

LEAD = st.sampled_from((1, -1, 0, 2, -3, Fraction(1), Fraction(-1), Fraction(1, 2)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_div_matches_the_product_with_the_inverse(data):
    # b's constant term: +-1 (the direct quotient), or 0, a non-unit int or
    # a Fraction (the product with the inverse).
    kind = data.draw(KINDS)
    a = data.draw(series(kind))
    lo = data.draw(st.sampled_from((0, 0, 0, -2, 1)))
    rest = data.draw(coeff_lists(kind, max_size=10))
    b = QSeries(lo, lo + 1 + len(rest), [data.draw(LEAD)] + rest)
    try:
        ref = mul(a, invert(b))
    except QSeriesError as err:
        with pytest.raises(type(err)):
            div(a, b)
        return
    new = div(a, b)
    assert (new.lo, new.prec) == (ref.lo, ref.prec)
    direct = b.lo == 0 and type(b.coeffs[0]) is int and b.coeffs[0] in (1, -1)
    assert_same(new.coeffs, ref.coeffs, kind == "int" or not direct)


def test_kernels_on_empty_and_short_inputs():
    assert kernels.convolve([], [], 3) == reference_convolve([], [], 3) == [0, 0, 0]
    assert kernels.convolve((1, 2), (), 2) == [0, 0]
    assert kernels.convolve([1, 2], [3], 0) == []
    for g in (1, -1, 3, Fraction(1, 2)):
        for k in (1, 2, 9):
            assert kernels.mul_one_minus((), g, k) == []
            assert kernels.div_one_minus((), g, k) == []
            assert kernels.mul_one_minus((5,), g, k) == [5]
            assert kernels.div_one_minus((5,), g, k) == [5]
    assert kernels.invert_unit([1], 0) == reference_invert_unit([1], 0) == [1]
    assert kernels.invert_unit([-1, 0, 3], 6) == reference_invert_unit([-1, 0, 3], 6)


# -- series.add -------------------------------------------------------------------


@st.composite
def series(draw, kind):
    lo = draw(st.integers(-5, 5))
    coeffs = draw(coeff_lists(kind, max_size=10))
    return QSeries(lo, lo + len(coeffs), coeffs)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_add_matches_the_per_exponent_loop(data):
    kind = data.draw(KINDS)
    a = data.draw(series(kind))
    b = data.draw(series(kind))
    new = add(a, b)
    ref = reference_add(a, b)
    assert (new.lo, new.prec) == (ref.lo, ref.prec)
    assert type(new.coeffs) is tuple
    assert_same(new.coeffs, ref.coeffs, True)
