"""q-Pochhammer symbols, the over q-binomials and basic hypergeometric
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
from itertools import accumulate, islice, repeat

from . import kernels
from .reports import IdentityCheck, comparison_report
from .series import (
    QMonomial,
    QSeries,
    QSeriesError,
    _div,
    div,
    mul_one_minus,
    one,
    one_minus_chain,
    one_minus_product,
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
    # Negative-exponent factors shift the window down by lo in all, so
    # [0, prec - lo) ends up as [lo, prec); a factor past the window's
    # width is 1 on it.
    s = one(prec - lo)
    for k in range(n):
        s = mul_one_minus(s, g, e + k)
    return s.truncate(prec)


def pochhammer_inf(a: QMonomial, prec: int) -> QSeries:
    """(a;q)_oo to O(q^prec), under the precision contract of
    :mod:`.series`.  Requires a.exp >= 1; otherwise infinitely many factors
    move the constant term and the product has no formal limit.

    Raises:
        NonconvergentProductError: if a.exp < 1.
    """
    if a.exp < 1:
        raise NonconvergentProductError(
            f"(a;q)_oo needs a with positive exponent, got {a}"
        )
    return one_minus_product(one(prec), ((a.coeff, k, 1) for k in range(a.exp, prec)))


# -- over q-binomials ------------------------------------------------------------
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


def over_qbinom_sum(m: int, n: int, prec: int | None = None) -> QSeries:
    """Overpartition analogue of the q-binomial, by its explicit sum.

    Counts overpartitions (each partition weighted by 2**distinct parts)
    with at most n parts, each part at most m.  Term k of the sum is

        q^{k(k+1)/2} (q;q)_{m+n-k} / ((q;q)_k (q;q)_{m-k} (q;q)_{n-k})

    for 0 <= k <= min(m, n); consecutive terms differ by the exact factor
    q^{k+1} (1-q^{m-k})(1-q^{n-k}) / ((1-q^{m+n-k})(1-q^{k+1})), which is
    how the loop below advances.

    The identity checks read their boxes from the columns of
    :func:`over_qbinom_columns`, swept once per check family and request;
    this sum serves ``overq coeff --gf oqbinom`` and the tests that hold
    the routes against each other.
    """
    _require_box(m, n)
    natural = m * n + 1
    width = natural if prec is None else max(0, min(prec, natural))
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


def over_qbinom_columns(t: int, p: int):
    """Yield column j = 0..p-1 of the over-q-binomials f(i, j) for
    i <= min(t, p - 1): column j is a list whose entry i holds the int
    coefficients of f(i, j) on [0, p - j).  The caller must not change
    them.

    f(i, j) = f(i, j-1) + q^j (f(i-1, j) + f(i-1, j-1)) with
    f(i, 0) = f(0, j) = 1: either fewer than j parts are used, or all j
    part slots are filled and lowering every part by one costs q^j and
    lands in a box one shorter.  So column j needs only column j - 1,
    which is all that is kept.  On [0, p - j) the q^j terms need their
    f(i-1, .) only below p - 2j, so each entry is one copy and two
    slice-adds; once 2j >= p the q^j terms lie past the window, and
    column j is column j - 1 cut by one.  A box with largest part i adds
    only sizes >= i, so on these windows every row past p - 1 would
    repeat row p - 1: the rows stop there.
    """
    col = [[1] + [0] * (p - 1) for _ in range(min(t, p - 1) + 1)]
    for j in range(p):
        if j:
            prev, col = col, []
            for i, c in enumerate(prev):
                cur = c[: p - j]
                if i:
                    cur[j:] = map(operator.add, map(operator.add, cur[j:],
                                                    col[i - 1]), prev[i - 1])
                col.append(cur)
        yield col


def over_qbinom_ladder(m: int, n: int, prec: int) -> QSeries:
    """over_qbinom_sum(m, n, prec), read from over_qbinom_columns.

    The read needs the columns to p = n + prec.  On [0, prec) the box
    polynomial stops changing once m reaches prec - 1, so m clamps to
    p - 1 and a huge m costs no more than m = p - 1.  Column n is a prefix
    of column ceil(p/2) - 1 when n is past it, so the columns stop there.
    """
    _require_box(m, n)
    if prec < 1:
        return _wrap_poly([], 0, prec)
    p = n + prec
    m = min(m, p - 1)
    col = next(islice(over_qbinom_columns(m, p), min(n, (p + 1) // 2 - 1), None))
    return QSeries._make(0, prec, col[m][:prec])


# -- basic hypergeometric series -------------------------------------------------


def _termination_index(upper: tuple[QMonomial, ...]) -> int | None:
    """Smallest n making a numerator factor vanish, or None."""
    stops = [-u.exp for u in upper if u.coeff == 1 and u.exp <= 0]
    return min(stops) if stops else None


def phi(upper: Iterable[QMonomial], lower: Iterable[QMonomial],
        argument: QMonomial, prec: int) -> QSeries:
    """The phi series with monomial upper and lower parameters and a
    monomial argument, as an exact windowed series to the given prec.

    Terminating series (some upper parameter q^{-k}, k >= 0) are summed
    exactly, n = 0..k.  Otherwise the term valuations must grow without
    bound; once every parameter factor is a unit and each further term gains
    at least one order of valuation, the loop stops as soon as a term
    vanishes on the whole requested window.  A series that has not settled
    after prec + 16 terms is rejected.

    The terms and their sum are plain lists, each with a window start.
    Each term comes from the one before it by one ``one_minus_chain`` over
    the update's factors, in which a factor and its inverse cancel when
    everything is an int; a factor with k <= 0 becomes a k >= 1 factor
    times a scalar and a shift, which are applied once per term, with the
    argument's.  The term is added into the sum in place.  Every
    coefficient gets the value and type it gets one factor at a time.

    Raises:
        PhiDivisionError: a lower parameter is q^{-k} with k >= 0, so a
            denominator Pochhammer factor vanishes.
        NonconvergentPhiError: the series neither terminates nor gains
            valuation (for example argument exponent < 1, or more upper
            than lower parameters).
    """
    ups, lows, z = tuple(upper), tuple(lower), argument
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

    # Term n+1's window is term n's moved by z's exponent, n(s - r), and k
    # (upper) or -k (lower) for each parameter factor with k = exp + n < 0.
    # The working width covers the lowest start the windows reach.  Only
    # when no move is downward can entries at prec and above be dropped:
    # none of them ever comes back into the window.
    moves = [z.exp + n * s_minus_r for n in range(horizon + 1)]
    for params, e in ((ups, 1), (lows, -1)):
        for p in params:
            for n in range(min(horizon + 1, -p.exp)):
                moves[n] += e * (p.exp + n)
    falls = min(moves) < 0
    work = prec - min(accumulate(moves, initial=0))

    # The term is the list c on the window [lo, lo + len(c)), the sum the
    # list acc on [acc_lo, acc_lo + len(acc)).
    c = list(one(work).coeffs)
    lo = 0
    acc = list(c)
    acc_lo = 0
    sign = -1 if s_minus_r % 2 else 1
    settled = False
    n = 0
    while True:
        if n_stop is not None and n >= n_stop:
            break
        # Term n+1 is term n times z (-1)^{s-r} q^{n(s-r)} and these
        # factors (e = +1 on top, -1 below):
        factors = ([(u.coeff, u.exp + n, 1) for u in ups] + [(1, n + 1, -1)]
                   + [(b.coeff, b.exp + n, -1) for b in lows])
        scalar = z.coeff * sign if s_minus_r else z.coeff
        shift = z.exp + n * s_minus_r
        chain = []
        for g, k, e in factors:
            if k > 0:
                chain.append((g, k, e))
            elif k == 0:
                # (1 - g) is never 0 here: an upper q^0 ends the sum
                # first and a lower one was rejected above.
                scalar *= 1 - g if e > 0 else _div(1, 1 - g)
            else:
                # 1 - g q^k = -g q^k (1 - q^{-k}/g)
                inv = _div(1, g)
                chain.append((inv, -k, e))
                scalar *= -g if e > 0 else -inv
                shift += k * e
        c = one_minus_chain(c, chain)
        # An int 1 changes nothing; a Fraction, even 1, makes every entry one.
        if scalar != 1 or type(scalar) is not int:
            c = list(map(operator.mul, repeat(scalar), c))
        lo += shift
        if not falls:
            if lo > prec:
                lo, c = prec, []
            del c[prec - lo:]
        n += 1
        # acc += term on the common window: acc first takes int zeros below
        # its start and is then cut at the term's end.  x + 0 keeps x's
        # type, so every entry has the type a QSeries add would give it.
        if lo < acc_lo:
            acc[:0] = [0] * (acc_lo - lo)
            acc_lo = lo
        at = lo - acc_lo
        del acc[at + len(c):]
        acc[at:] = map(operator.add, acc[at:], c)
        if n_stop is None:
            # Once settled, every later n is too.
            settled = settled or (
                all(u.exp + n >= 0 for u in ups)
                and all(b.exp + n >= 1 for b in lows)
                and z.exp + n * s_minus_r >= 1
            )
            if settled and not any(c[: max(prec - lo, 0)]):
                break
            if n > horizon:
                raise NonconvergentPhiError(
                    f"phi series did not settle within {horizon} terms"
                )
    return QSeries._make(acc_lo, acc_lo + len(acc), acc).truncate(prec)


def verify_chu(a: QMonomial, n: int, c: QMonomial, prec: int):
    """Check the terminating 2phi1 summation

        2phi1(a, q^{-n}; c; q, c q^n / a) = (c/a;q)_n / (c;q)_n

    to order prec - 1, returning a VerificationReport.
    """
    if n < 0:
        raise ValueError("termination index n must be >= 0")
    lhs = phi((a, QMonomial(1, -n)), (c,), (c * QMonomial(1, n)) / a, prec)

    ca = c / a
    boost = -sum(min(0, ca.exp + k) for k in range(n))
    boost += -2 * sum(min(0, c.exp + k) for k in range(n))
    num = pochhammer(ca, n, prec + boost)
    den = pochhammer(c, n, prec + boost)
    rhs = div(num, den)
    if rhs.prec < prec:
        raise QSeriesError("internal: right side lost precision")

    return comparison_report(
        IdentityCheck("chu", {"a": str(a), "c": str(c), "n": n}, prec - 1),
        f"terminating sum equals its product form to order {prec - 1}",
        (lhs, rhs, "terminating sum deviates from its product form"),
    )
