"""The coefficient kernels and series.add against the per-coefficient loops
they replaced, kept verbatim below as test-only references.

Values must always agree.  Types must agree entry by entry on int inputs,
and on every input for the kernels whose rewrite does the same arithmetic
in the same order (mul_one_minus, invert_unit, add).  convolve may drive
its loop from either operand and div_one_minus's accumulate path does not
skip zero terms, so with Fraction inputs they may return a zero as 0 where
the reference gave Fraction(0), or the other way round.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from overq import kernels
from overq.series import QSeries, add

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


def reference_mul_one_minus(c, g, k):
    """Multiply by the exact factor (1 - g*q^k), k >= 1; length preserved."""
    n = len(c)
    if g == 1:
        return [c[i] - c[i - k] if i >= k else c[i] for i in range(n)]
    if g == -1:
        return [c[i] + c[i - k] if i >= k else c[i] for i in range(n)]
    return [c[i] - g * c[i - k] if i >= k else c[i] for i in range(n)]


def reference_div_one_minus(c, g, k):
    """Divide by the exact factor (1 - g*q^k), k >= 1; length preserved."""
    n = len(c)
    out = list(c)
    if g == 1:
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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_invert_unit_matches_the_dense_loop(data):
    kind = data.draw(KINDS)
    c0 = data.draw(st.sampled_from((1, -1)) | coeff(kind).filter(bool))
    c = [c0] + data.draw(coeff_lists(kind))
    n_out = data.draw(st.integers(0, len(c) + 3))
    new = kernels.invert_unit(c, n_out)
    assert_same(new, reference_invert_unit(c, n_out), True)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_minus_factors_match_the_per_entry_loops(data):
    kind = data.draw(KINDS)
    c = data.draw(coeff_lists(kind, max_size=40))
    g = data.draw(G if kind != "int" else G.filter(lambda g: type(g) is int))
    # k >= len(c) included, and k*k < len(c) for the accumulate path
    k = data.draw(st.integers(1, len(c) + 2) | st.integers(1, 5))
    c = data.draw(st.sampled_from((c, tuple(c))))
    assert_same(kernels.mul_one_minus(c, g, k), reference_mul_one_minus(c, g, k), True)
    assert_same(
        kernels.div_one_minus(c, g, k), reference_div_one_minus(c, g, k), kind == "int"
    )


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
