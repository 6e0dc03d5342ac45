"""q-Pochhammer symbols, q-binomial coefficients and basic hypergeometric
series, all as exact windowed series.

Notation used in the docstrings: (a;q)_n = prod_{k=0}^{n-1} (1 - a*q^k),
(a;q)_oo is the n -> oo limit, and a phi series with upper parameters
a_1..a_r, lower parameters b_1..b_s and argument z is

    sum_{n>=0} [(a_1;q)_n ... (a_r;q)_n / ((q;q)_n (b_1;q)_n ... (b_s;q)_n)]
               * ((-1)^n q^{n(n-1)/2})^{1+s-r} * z^n

the standard balancing convention.  All parameters and z are exact
monomials here, so every term is an exact Laurent polynomial times z^n.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable

from . import kernels
from .reports import IdentityCheck, comparison_report
from .series import (
    QMonomial,
    QSeries,
    QSeriesError,
    add,
    div_one_minus,
    invert,
    mul,
    mul_one_minus,
    one,
)


class NonconvergentProductError(QSeriesError):
    """Infinite product does not converge as a formal series."""


class NonconvergentPhiError(QSeriesError):
    """phi series neither terminates nor gains valuation term by term."""


class PhiDivisionError(QSeriesError):
    """A lower-parameter Pochhammer factor of a phi series vanishes."""


# -- Pochhammer symbols --------------------------------------------------------


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
    hi = sum(max(0, e + k) for k in range(n))
    # Work wide enough to hold the whole polynomial and survive the window
    # shifts from negative-exponent factors, then cut down to prec.
    work = max(prec, hi + 1) - lo
    s = one(work)
    for k in range(n):
        s = mul_one_minus(s, g, e + k)
    return s.truncate(prec)


def pochhammer_inf(a: QMonomial, prec: int) -> QSeries:
    """(a;q)_oo.  Requires a.exp >= 1; otherwise infinitely many factors
    move the constant term and the product has no formal limit.

    Raises:
        NonconvergentProductError: if a.exp < 1.
    """
    if a.exp < 1:
        raise NonconvergentProductError(
            f"(a;q)_oo needs a with positive exponent, got {a}"
        )
    s = one(prec)
    k = 0
    while a.exp + k < prec:
        s = mul_one_minus(s, a.coeff, a.exp + k)
        k += 1
    return s


# -- Gaussian and overpartition q-binomials -------------------------------------
#
# These are integer polynomials; the builders below run on plain int lists
# and wrap the result as a QSeries only at the end.


def _require_box(m: int, n: int) -> None:
    if m < 0 or n < 0:
        raise ValueError("q-binomial indices must be >= 0")


def _gauss_ints(m: int, n: int, width: int) -> list:
    """Coefficients 0..width-1 of the Gaussian binomial for an m x n box."""
    c = [0] * width
    if width == 0:
        return c
    c[0] = 1
    small, big = (m, n) if m <= n else (n, m)
    # A factor (1 - q^k) with k >= width is 1 on the window: skip it.
    for i in range(1, min(small, width - 1) + 1):
        if big + i < width:
            c = kernels.mul_one_minus(c, 1, big + i)
        c = kernels.div_one_minus(c, 1, i)
    return c


def _wrap_poly(ints: list, width: int, prec: int | None) -> QSeries:
    """Int coefficients of an exact polynomial -> QSeries at the target prec."""
    s = QSeries._make(0, width, ints)
    if prec is None or prec == width:
        return s
    return s.pad_exact(prec) if prec > width else s.truncate(prec)


def qbinom(m: int, n: int, prec: int | None = None) -> QSeries:
    """Gaussian q-binomial: generating function, by the size being
    partitioned, of partitions with at most n parts, each at most m.

    The exact polynomial has degree m*n; the default window is [0, m*n+1).
    """
    _require_box(m, n)
    width = m * n + 1 if prec is None else min(prec, m * n + 1)
    return _wrap_poly(_gauss_ints(m, n, max(width, 0)), max(width, 0), prec)


def over_qbinom_sum(m: int, n: int, prec: int | None = None) -> QSeries:
    """Overpartition analogue of the q-binomial, by its explicit sum.

    Counts overpartitions (each partition weighted by 2**distinct parts)
    with at most n parts, each part at most m.  Term k of the sum is

        q^{k(k+1)/2} (q;q)_{m+n-k} / ((q;q)_k (q;q)_{m-k} (q;q)_{n-k})

    for 0 <= k <= min(m, n); consecutive terms differ by the exact factor
    q^{k+1} (1-q^{m-k})(1-q^{n-k}) / ((1-q^{m+n-k})(1-q^{k+1})), which is
    how the loop below advances.

    The identity checks read their boxes from the held ladder
    (:func:`over_qbinom_ladder`); this sum serves ``overq coeff --gf
    oqbinom`` and the tests that hold the routes against each other.
    """
    _require_box(m, n)
    natural = m * n + 1
    width = natural if prec is None else max(0, min(prec, natural))
    if width == 0:
        return _wrap_poly([], 0, prec)
    term = _gauss_ints(m, n, width)
    acc = list(term)
    # Term k + 1 has valuation v = (k+1)(k+2)/2.  A factor (1 - q^e) changes
    # only entries at v + e and above, so it reaches a kernel only when
    # v + e < width; once v >= width this term and every later one vanish
    # on the window.
    v = 0
    for k in range(min(m, n)):
        v += k + 1
        if v >= width:
            break
        term = [0] * (k + 1) + term[: width - (k + 1)]
        room = width - v
        for e in (m - k, n - k):
            if e < room:
                term = kernels.mul_one_minus(term, 1, e)
        for e in (m + n - k, k + 1):
            if e < room:
                term = kernels.div_one_minus(term, 1, e)
        acc[v:] = map(operator.add, acc[v:], term[v:])
    return _wrap_poly(acc, width, prec)


def _over_ladder(p: int, t: int) -> list:
    """The over-q-binomials f(i, j) for i <= min(t, p - 1) and j < p:
    rows[i][j] holds the int coefficients of f(i, j) on [0, p - j).

    f(i, j) = f(i, j-1) + q^j (f(i-1, j) + f(i-1, j-1)) with
    f(i, 0) = f(0, j) = 1: either fewer than j parts are used, or all j
    part slots are filled and lowering every part by one costs q^j and
    lands in a box one shorter.  On [0, p - j) the q^j terms need their
    f(i-1, .) only below p - 2j, so each entry is one copy and two
    slice-adds.  A box with largest part i adds only sizes >= i, so on
    these windows every row past p - 1 would repeat row p - 1: the rows
    stop there.
    """
    row = [[1] + [0] * (p - 1 - j) for j in range(p)]
    rows = [row]
    for _ in range(min(t, p - 1)):
        above, row = row, [row[0]]
        for j in range(1, p):
            cur = row[j - 1][: p - j]
            cur[j:] = map(operator.add, map(operator.add, cur[j:], above[j]),
                          above[j - 1])
            row.append(cur)
        rows.append(row)
    return rows


# The ladder of the last read that an earlier one did not cover; the
# builder is looked up at call time, so a wrapper set on the module sees
# every build.
_LADDER = kernels.HeldTable(lambda p, t: _over_ladder(p, t))


def over_qbinom_ladder(m: int, n: int, prec: int) -> QSeries:
    """over_qbinom_sum(m, n, prec), read from the held ladder.

    The read needs the ladder to p = n + prec.  On [0, prec) the box
    polynomial stops changing once m reaches prec - 1, so m clamps to
    p - 1 and a huge m costs no more than m = p - 1.  A ladder held from
    an earlier read serves this one when it reaches both p and the clamped
    m; otherwise it is rebuilt to exactly those.
    """
    _require_box(m, n)
    if prec < 1:
        return _wrap_poly([], 0, prec)
    p = n + prec
    t = min(m, p - 1)
    return QSeries._make(0, prec, _LADDER.get(p, t)[t][n][:prec])


# -- basic hypergeometric series -------------------------------------------------


class PhiSpec:
    """Parameters of a phi series: monomial upper/lower parameters, a
    monomial argument, and the output precision."""

    __slots__ = ("upper", "lower", "argument", "prec")

    upper: tuple[QMonomial, ...]
    lower: tuple[QMonomial, ...]
    argument: QMonomial
    prec: int

    def __init__(self, upper: Iterable[QMonomial], lower: Iterable[QMonomial],
                 argument: QMonomial, prec: int):
        object.__setattr__(self, "upper", tuple(upper))
        object.__setattr__(self, "lower", tuple(lower))
        object.__setattr__(self, "argument", argument)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, name, value):
        raise AttributeError("PhiSpec is immutable")


def _termination_index(upper: tuple[QMonomial, ...]) -> int | None:
    """Smallest n making a numerator factor vanish, or None."""
    stops = [-u.exp for u in upper if u.coeff == 1 and u.exp <= 0]
    return min(stops) if stops else None


def phi(spec: PhiSpec) -> QSeries:
    """Evaluate the phi series as an exact windowed series.

    Terminating series (some upper parameter q^{-k}, k >= 0) are summed
    exactly, n = 0..k.  Otherwise the term valuations must grow without
    bound; once every parameter factor is a unit and each further term gains
    at least one order of valuation, the loop stops as soon as a term
    vanishes on the whole requested window.  A series that has not settled
    after prec + 16 terms is rejected.

    Raises:
        PhiDivisionError: a lower parameter is q^{-k} with k >= 0, so a
            denominator Pochhammer factor vanishes.
        NonconvergentPhiError: the series neither terminates nor gains
            valuation (for example argument exponent < 1, or more upper
            than lower parameters).
    """
    ups, lows, z, prec = spec.upper, spec.lower, spec.argument, spec.prec
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

    term = one(work)
    acc = term
    n = 0
    while True:
        if n_stop is not None and n >= n_stop:
            break
        for u in ups:
            term = mul_one_minus(term, u.coeff, u.exp + n)
        term = div_one_minus(term, 1, n + 1)
        for b in lows:
            term = div_one_minus(term, b.coeff, b.exp + n)
        if s_minus_r:
            sign = -1 if s_minus_r % 2 else 1
            term = term.times_monomial(sign, n * s_minus_r)
        term = term.times_monomial(z.coeff, z.exp)
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


def verify_chu(a: QMonomial, n: int, c: QMonomial, prec: int):
    """Check the terminating 2phi1 summation

        2phi1(a, q^{-n}; c; q, c q^n / a) = (c/a;q)_n / (c;q)_n

    to order prec - 1, returning a VerificationReport.
    """
    if n < 0:
        raise ValueError("termination index n must be >= 0")
    lhs = phi(PhiSpec((a, QMonomial(1, -n)), (c,), (c * QMonomial(1, n)) / a, prec))

    ca = c / a
    boost = -sum(min(0, ca.exp + k) for k in range(n))
    boost += -2 * sum(min(0, c.exp + k) for k in range(n))
    num = pochhammer(ca, n, prec + boost)
    den = pochhammer(c, n, prec + boost)
    rhs = mul(num, invert(den))
    if rhs.prec < prec:
        raise QSeriesError("internal: right side lost precision")

    return comparison_report(
        IdentityCheck("chu", {"a": str(a), "c": str(c), "n": n}, prec - 1),
        f"terminating sum equals its product form to order {prec - 1}",
        (lhs, rhs, "terminating sum deviates from its product form"),
    )
