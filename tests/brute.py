"""Plain enumerations and former routes that only the tests use:
partitions one at a time, overpartitions one overline choice at a time, the
Gaussian q-binomial, the one-minus helpers with their own k <= 0 rewrite,
the finite Pochhammer symbol one factor at a time, and the q-Chu-Vandermonde
right side as a quotient of two Pochhammer symbols.  They cross-check the
package's walks, q-binomial builders and one-minus products at small sizes;
no request of the ``overq`` command reaches them."""

from collections.abc import Iterator

from overq import kernels
from overq.qfunctions import _gauss_ints, _require_box, _wrap_poly
from overq.series import (
    NotInvertibleError,
    QMonomial,
    QSeries,
    QSeriesError,
    _coerce,
    _div,
    div,
    one,
)


def iter_partitions(
    n: int, max_part: int | None = None, min_part: int = 1
) -> Iterator[tuple[int, ...]]:
    """All partitions of n with parts in [min_part, max_part], largest first.

    Iterative, so the depth of a partition is bounded by memory, not by the
    interpreter's recursion limit.

    Raises:
        ValueError: if min_part < 1.
    """
    if min_part < 1:
        raise ValueError(f"parts must be positive, got min_part {min_part}")
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    if n < 1 or min_part > max_part:
        return
    parts = []
    remaining = n
    v = max_part  # the next value to try after the parts chosen so far
    while True:
        if v >= min_part:
            parts.append(v)
            remaining -= v
            if remaining:
                v = min(v, remaining)
                continue
            yield tuple(parts)
        elif not parts:
            return
        # Replace the last part by the next smaller value.
        last = parts.pop()
        remaining += last
        v = last - 1


def _subsets(values):
    values = sorted(values)
    for mask in range(1 << len(values)):
        yield frozenset(v for i, v in enumerate(values) if mask >> i & 1)


def iter_overpartitions(n: int) -> Iterator[tuple[tuple[int, ...], frozenset]]:
    """Every overpartition of n as (parts, overlined): a partition, largest
    part first, and the set of its part values that carry an overline.

    Exponential in the number of distinct parts; a small-n cross-check of
    the weighted counting walks.
    """
    for parts in iter_partitions(n):
        for overlined in _subsets(set(parts)):
            yield parts, overlined


def qbinom(m: int, n: int, prec: int | None = None) -> QSeries:
    """Gaussian q-binomial: generating function, by the size being
    partitioned, of partitions with at most n parts, each at most m.

    The exact polynomial has degree m*n; the default window is [0, m*n+1).
    """
    _require_box(m, n)
    width = m * n + 1 if prec is None else min(prec, m * n + 1)
    return _wrap_poly(_gauss_ints(m, n, max(width, 0)), max(width, 0), prec)


# -- the former one-minus routes, kept verbatim -------------------------------


def former_mul_one_minus(a: QSeries, g, k: int) -> QSeries:
    """a * (1 - g*q^k) for any integer k; the factor is exact."""
    g = _coerce(g)
    if g == 0:
        return a
    if k == 0:
        return a.scale(1 - g)
    if k < 0:
        # (1 - g*q^k) = (-g*q^k) * (1 - (1/g)*q^{-k})
        return former_mul_one_minus(a, _div(1, g), -k).times_monomial(-g, k)
    if k >= a.prec - a.lo:
        return a  # the factor is 1 on the window
    return QSeries._make(a.lo, a.prec, kernels.mul_one_minus(a.coeffs, g, k))


def former_div_one_minus(a: QSeries, g, k: int) -> QSeries:
    """a / (1 - g*q^k) for any integer k; the factor is exact."""
    g = _coerce(g)
    if g == 0:
        return a
    if k == 0:
        if g == 1:
            raise NotInvertibleError("division by (1 - q^0) which is zero")
        return a.scale(_div(1, 1 - g))
    if k < 0:
        inv = _div(1, g)
        return former_div_one_minus(a.times_monomial(-inv, -k), inv, -k)
    if k >= a.prec - a.lo:
        return a  # the factor is 1 on the window
    return QSeries._make(a.lo, a.prec, kernels.div_one_minus(a.coeffs, g, k))


def pochhammer(a: QMonomial, n: int, prec: int) -> QSeries:
    """(a;q)_n as an exact Laurent polynomial, embedded at the given prec.

    The window starts at the sum of the negative factor exponents (zero when
    a.exp >= 0) and every coefficient of the polynomial below prec is exact.
    """
    if n < 0:
        raise ValueError("Pochhammer length must be >= 0")
    e = a.exp
    g = a.coeff
    lo = sum(min(0, e + k) for k in range(n))
    # Negative-exponent factors shift the window down by lo in all, so
    # [0, prec - lo) ends up as [lo, prec); a factor past the window's
    # width is 1 on it.
    s = one(prec - lo)
    for k in range(n):
        s = former_mul_one_minus(s, g, e + k)
    return s.truncate(prec)


def chu_right_side(a: QMonomial, n: int, c: QMonomial, prec: int) -> QSeries:
    """(c/a;q)_n / (c;q)_n known at least to prec, as a quotient of two
    Pochhammer symbols built at a boosted precision."""
    ca = c / a
    boost = -sum(min(0, ca.exp + k) for k in range(n))
    boost += -2 * sum(min(0, c.exp + k) for k in range(n))
    num = pochhammer(ca, n, prec + boost)
    den = pochhammer(c, n, prec + boost)
    rhs = div(num, den)
    if rhs.prec < prec:
        raise QSeriesError("internal: right side lost precision")
    return rhs
