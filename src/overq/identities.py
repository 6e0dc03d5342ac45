"""Generating functions and identity checks.

Each gf_* function builds a closed form as an exact windowed series; each
check_* function compares a closed form against an independently computed
series (a direct summand-by-summand sum, an enumeration oracle, or both)
and returns a VerificationReport.  t is always the bound on the spread of
a partition (largest part minus smallest part).

Series produced here, with the weight conventions of :mod:`.enumeration`:

* gf_bk(t): partitions with spread <= t.
* gf_abr(t): partitions with spread exactly t (t >= 2).
* gf_G(t): overpartitions with spread <= t, largest part not overlined
  when the spread is exactly t.
* gf_pbar(t): overpartitions with spread <= t.
* gf_overline_total: all overpartitions.

Two passes carry the paper's part sums, each for every t up to a bound.
``_smallest_part_sums`` makes the direct sums over the smallest part m in
one pass over m, each t's summand from the one before it: they serve the
direct sums of Theorems 1 and 2, case (2) of the three-case split and step
(i) of the proof chain.  ``_largest_part_sums`` sums q^r/(1-q^r) times
the over-q-binomials f(i, r - lag) over the largest part r in one sweep
over the columns of ``qfunctions.over_qbinom_columns``: lag 1 serves the
over-q-binomial expansion, lag 0 case (3).

The part sums, ``gf_pbar`` and the factor products run on plain int
lists: each summand is one list, each step of a product one
``kernels.one_minus_chain`` call, and every summand is added in place into
its sum's one list, which is wrapped as a QSeries once, at the end.

Steps (ii)-(iv) of the proof chain are each one ``one_minus_product`` on
their phi series, whose factor list spells out the step's prefactor and
infinite products; inverse factors cancel there.  The proof chain and the
three-case split compare halves, so they compare twice each side, as int
series, and halve only a reported mismatch (``_halves_report``).

The passes and the ``gf_pbar`` and ``gf_G`` series of the checks are read
through ``kernels.shared``, which names each builder as this module names it
at the call, so a replacement (a test's, or a tracer's wrapper) runs.  A
pass is made at ``kernels.bound(t)``, clamped by its builder, and read at
row min(t, last); the kernels docstring says how long each table is held.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from itertools import repeat

from . import kernels, qfunctions
from .enumeration import divisor_count, oracle_series
from .qfunctions import phi, pochhammer_inf, verify_chu
from .reports import (
    STATUS_ERROR,
    STATUS_FAIL,
    STATUS_PASS,
    IdentityCheck,
    VerificationReport,
    comparison_report,
)
from .series import (
    MismatchInfo,
    QMonomial,
    QSeries,
    _div,
    add,
    div,
    div_one_minus,
    geometric,
    monomial,
    mul_one_minus,
    one,
    one_minus_product,
    zero,
)


def _require_order(order: int) -> None:
    if order < 1:
        raise ValueError(f"comparison order must be >= 1, got {order}")


# -- building blocks -------------------------------------------------------------


def lambert_divisor(prec: int) -> QSeries:
    """sum_{m>=1} q^m / (1 - q^m) = sum_{n>=1} d(n) q^n, d = divisor count.

    The window is [1, prec), or empty at prec when prec < 1.
    """
    coeffs = [0] * max(prec - 1, 0)
    for m in range(1, prec):
        for j in range(m, prec, m):
            coeffs[j - 1] += 1
    return QSeries._make(min(1, prec), prec, coeffs)


def _ratio_factors(lo: int, hi: int) -> list:
    """prod_{k=lo}^{hi} (1 + q^k)/(1 - q^k) as one-minus factors (g, k, e)."""
    return [f for k in range(lo, hi + 1) for f in ((-1, k, 1), (1, k, -1))]


def _ratio_minus_one(t: int, prec: int) -> QSeries:
    """(-q;q)_t / (q;q)_t - 1: nonempty overpartitions with parts <= t.

    A factor with k >= prec is 1 on the window [0, prec), so k stops at
    prec - 1 and a huge t costs no more than t = prec - 1.
    """
    ratio = one_minus_product(one(prec), _ratio_factors(1, min(t, prec - 1)))
    return add(ratio, one(prec).scale(-1))


def gf_G(t: int, prec: int) -> QSeries:
    """Closed form ((-q;q)_t/(q;q)_t - 1) / (1 - q^t) for the half-weighted
    spread-bounded overpartition counts (see module docstring)."""
    if t < 1:
        raise ValueError(f"gf_G needs t >= 1, got {t}")
    return div_one_minus(_ratio_minus_one(t, prec), 1, t)


def gf_pbar(t: int, prec: int) -> QSeries:
    """Closed form for overpartitions with spread at most t:

        2 (-1)^t [ sum_n d(n) q^n
                   + sum_{n=1}^t (-1)^n ((-q;q)_n/(q;q)_n - 1)/(1 - q^n) ]
    """
    if t < 0:
        raise ValueError(f"gf_pbar needs t >= 0, got {t}")
    if prec < 1:
        return zero(prec)
    divisors = lambert_divisor(prec)
    # (-q;q)_n/(q;q)_n on [0, prec), extended by one factor per n; its
    # constant term stays 1, so [0, *ratio[1:]] is the ratio minus 1.
    ratio = list(one(prec).coeffs)
    if t == 0:
        return divisors.scale(2)
    acc = [0, *divisors.coeffs]
    cap = min(t, prec - 1)
    for n in range(1, cap + 1):
        ratio = kernels.one_minus_chain(ratio, ((-1, n, 1), (1, n, -1)))
        term = kernels.one_minus_chain([0, *ratio[1:]], ((1, n, -1),))
        acc[:] = map(operator.sub if n % 2 else operator.add, acc, term)
    if t > cap:
        # Every factor with n >= prec is 1 on the window, so each term
        # n = cap+1..t is (-1)^n (R - 1) with R the last ratio.  The
        # alternating tail cancels in pairs: it leaves (-1)^t (R - 1) when
        # its length is odd, and nothing (on the same window) when even.
        if (t - cap) % 2:
            acc[1:] = map(operator.sub if t % 2 else operator.add, acc[1:], ratio[1:])
    scale = 2 if t % 2 == 0 else -2
    return QSeries._make(0, prec, map(operator.mul, repeat(scale), acc))


def _window_series(coeffs: list, prec: int) -> QSeries:
    """coeffs on the window of zero(prec)."""
    return QSeries._make(min(0, prec), prec, coeffs)


def _smallest_part_sums(t_max: int, prec: int) -> tuple[list, list, list]:
    """The direct sums over the smallest part m for every t <= t_max, made
    in one pass over m: int coefficient lists on [0, prec), indexed by t,

        pbar[t]     = sum_{m>=1} P_m(t)   (gf_pbar_direct),
        g[t]        = sum_{m>=1} G_m(t)   (gf_g_direct, t >= 1),
        case_two[t] = sum_{2m+t<prec} q^{m+t} G_m(t)   (case (2), t >= 1),

    where P_m(t) = 2 q^m / prod_{j=m}^{m+t} (1-q^j) * prod_{j=m+1}^{m+t} (1+q^j)
    and G_m(t) is P_m(t) without the factor (1+q^{m+t}); g and case_two
    hold None at t = 0.  Each summand comes from the one before it in t:
    P_m(0) = 2q^m/(1-q^m), G_m(t) = P_m(t-1)/(1-q^{m+t}) and
    P_m(t) = G_m(t)(1+q^{m+t}), each one ``kernels.one_minus_chain`` call on
    a list on [m, prec); a factor with m + t at or past the list's width is
    1 there.  Every summand has valuation exactly m (checked; a
    RuntimeError names m if not).  Past t = prec - 2 every summand's factors
    are 1 on its list and case (2) is empty, so t_max is clamped there.
    """
    t_max = min(t_max, max(prec - 2, 1))
    width = max(prec, 0)
    pbar = [[0] * width for _ in range(t_max + 1)]
    g = [None, *([0] * width for _ in range(t_max))]
    case_two = [None, *([0] * width for _ in range(t_max))]

    def chain(s, factor, m):
        s = kernels.one_minus_chain(s, (factor,))
        if not s[0]:
            v = next((m + i for i, c in enumerate(s) if c), None)
            raise RuntimeError(f"summand m={m} has valuation {v}, expected {m}")
        return s

    # tail[j]: the summands that stay the same for every t >= j, because
    # every factor from j on is 1 on their lists; each joins pbar[t] and
    # g[t] for t >= j through one running sum at the end.
    tail = [[0] * width for _ in range(t_max + 1)]
    for m in range(1, prec):
        s = chain([2] + [0] * (prec - m - 1), (1, m, -1), m)
        acc = pbar[0]
        acc[m:] = map(operator.add, acc[m:], s)
        # m + t < prec - m exactly for t < prec - 2m, and then also
        # 2m + t < prec: those t alone change the summand or reach case (2).
        for t in range(1, min(prec - 2 * m, t_max + 1)):
            k = m + t
            s = chain(s, (1, k, -1), m)
            acc = g[t]
            acc[m:] = map(operator.add, acc[m:], s)
            acc = case_two[t]
            acc[m + k :] = map(operator.add, acc[m + k :], s)
            s = chain(s, (-1, k, 1), m)
            acc = pbar[t]
            acc[m:] = map(operator.add, acc[m:], s)
        j = max(prec - 2 * m, 1)
        if j <= t_max:
            acc = tail[j]
            acc[m:] = map(operator.add, acc[m:], s)
    run = [0] * width
    for t in range(1, t_max + 1):
        run[:] = map(operator.add, run, tail[t])
        for acc in (pbar[t], g[t]):
            acc[:] = map(operator.add, acc, run)
    return pbar, g, case_two


def _smallest_part_sum(which: int, t: int, prec: int) -> QSeries:
    """Row t of the _smallest_part_sums list which (0: pbar, 1: g,
    2: case_two) at prec, as a series; a t past the pass's last row reads
    that row."""
    rows = kernels.shared("smallest-part pass", _smallest_part_sums,
                          kernels.bound(t), prec)[which]
    return _window_series(rows[min(t, len(rows) - 1)], prec)


def gf_pbar_direct(t: int, prec: int) -> QSeries:
    """Same series as gf_pbar, summed one smallest part m at a time:

        sum_{m>=1} 2 q^m/(1-q^m) prod_{j=1}^t (1+q^{m+j})/(1-q^{m+j})

    Summand m has valuation exactly m (checked; a RuntimeError names m if
    not), so m stops at prec.
    """
    if t < 0:
        raise ValueError(f"gf_pbar_direct needs t >= 0, got {t}")
    return _smallest_part_sum(0, t, prec)


def gf_g_direct(t: int, prec: int) -> QSeries:
    """The gf_G series summed one smallest part m at a time: the factor for
    the largest admissible value m+t is 1/(1-q^{m+t}), without the
    (1+q^{m+t}) overline choice."""
    if t < 1:
        raise ValueError(f"gf_g_direct needs t >= 1, got {t}")
    return _smallest_part_sum(1, t, prec)


def _case_two_direct(t: int, prec: int) -> QSeries:
    """Case (2) of the three-case split as a direct sum: q^{m+t} G_m, with
    G_m the gf_g_direct summands, over the m with 2m + t < prec."""
    return _smallest_part_sum(2, t, prec)


def _largest_part_sums(t: int, prec: int, lag: int) -> list:
    """The sums over the largest part r for every row i <= min(t, prec -
    lag - 1), made in one sweep over the columns of
    ``qfunctions.over_qbinom_columns``: int coefficient lists on [0, prec),

        rows[i] = sum_{r>=1} q^r/(1-q^r) f(i, r - lag),

    f(i, j) the over-q-binomial read on [0, prec - r), which is column
    r - lag at p = prec - lag.  A row past the last equals the last on
    these windows.  The factor 1/(1-q^r) is 1 on the window once 2r >= prec.
    """
    p = prec - lag
    rows = [[0] * prec for _ in range(min(t, max(p - 1, 0)) + 1)]
    for r, col in enumerate(qfunctions.over_qbinom_columns(t, p), lag):
        if r:
            for acc, c in zip(rows, col):
                if 2 * r < prec:
                    c = kernels.div_one_minus(c, 1, r)
                acc[r:] = map(operator.add, acc[r:], c)
    return rows


def gf_bk(t: int, prec: int) -> QSeries:
    """Closed form (1/(q;q)_t - 1) / (1 - q^t) for partitions with spread
    at most t."""
    if t < 1:
        raise ValueError(f"gf_bk needs t >= 1, got {t}")
    # 1/((q;q)_t (1 - q^t)) - 1/(1 - q^t).  1/(1 - q^k) with k >= prec is
    # 1 on the window [0, prec).
    divisors = [(1, k, -1) for k in range(1, min(t, prec - 1) + 1)]
    s = one_minus_product(one(prec), [*divisors, (1, t, -1)])
    return add(s, geometric(t, prec).scale(-1))


def gf_abr(t: int, prec: int) -> QSeries:
    """Closed form for partitions with spread exactly t, valid for t >= 2:

        q^{t-1}(1-q)/((1-q^t)(1-q^{t-1})) * (1 - 1/(q;q)_t)
        + q^t/((1-q^{t-1})(q;q)_t)

    For t = 0 the exact-spread series is sum d(n) q^n and for t = 1 it is
    sum (n - d(n)) q^n; both lie outside this formula's domain.

    Raises:
        ValueError: if t < 2.
    """
    if t < 2:
        raise ValueError(f"gf_abr needs t >= 2, got {t}")
    if prec <= t + 2:
        # Spread t needs parts m and m + t with m >= 1, so n >= t + 2: every
        # coefficient below prec is 0, with the window truncate(prec) gives.
        lo = min(t - 1, prec)
        return QSeries._make(lo, prec, [0] * (prec - lo))
    # The q^t monomial needs a window past t even when prec is smaller.
    work = max(prec, t + 1)
    p1 = mul_one_minus(monomial(1, t - 1, work), 1, 1)
    p1 = div_one_minus(div_one_minus(p1, 1, t), 1, t - 1)
    # The last two terms share 1/(q;q)_t: p1 + (q^t/(1-q^{t-1}) - p1)/(q;q)_t.
    rest = add(div_one_minus(monomial(1, t, work), 1, t - 1), p1.scale(-1))
    for k in range(1, t + 1):
        rest = div_one_minus(rest, 1, k)
    return add(p1, rest).truncate(prec)


def gf_p_exact_low(t: int, prec: int) -> QSeries:
    """Exact-spread partition series for the two t values outside gf_abr's
    domain: t = 0 gives sum d(n) q^n, t = 1 gives sum (n - d(n)) q^n."""
    if t == 0:
        return lambert_divisor(prec)
    if t == 1:
        coeffs = [n - divisor_count(n) for n in range(1, prec)]
        return QSeries._make(min(1, prec), prec, coeffs)
    raise ValueError(f"gf_p_exact_low covers t in {{0, 1}}, got {t}")


def gf_overline_total(prec: int) -> QSeries:
    """All overpartitions: (-q;q)_oo / (q;q)_oo."""
    if prec < 1:
        return zero(prec)  # div of two empty windows would raise
    num = pochhammer_inf(QMonomial(-1, 1), prec)
    den = pochhammer_inf(QMonomial(1, 1), prec)
    return div(num, den)


# -- checks ----------------------------------------------------------------------


def _triple_report(
    name: str,
    t: int,
    order: int,
    closed: QSeries,
    direct: QSeries | None,
    oracle: QSeries,
) -> VerificationReport:
    """Compare a closed form against an optional direct sum and an oracle."""
    pairs = [(closed, oracle, "closed form deviates from the enumeration oracle")]
    what = "enumeration"
    if direct is not None:
        pairs.insert(0, (closed, direct, "closed form deviates from the direct sum"))
        what = "direct sum and enumeration"
    return comparison_report(
        IdentityCheck(name, {"t": t}, order),
        f"closed form matches {what} to order {order}",
        *pairs,
    )


def check_th1(t: int, order: int, _corrupt: bool = False) -> VerificationReport:
    """gf_G(t) against its direct sum and the count_g oracle.

    _corrupt is a test hook: it multiplies the closed form by (1 + q) so
    failure reporting can be exercised deliberately.
    """
    _require_order(order)
    prec = order + 1
    closed = kernels.shared("gf_G", gf_G, t, prec)
    if _corrupt:
        closed = mul_one_minus(closed, -1, 1)
    return _triple_report(
        "th1", t, order, closed, gf_g_direct(t, prec),
        oracle_series("g_t", t, order),
    )


def check_th2(t: int, order: int) -> VerificationReport:
    """gf_pbar(t) against its direct sum and the count_opbar_bounded oracle."""
    _require_order(order)
    prec = order + 1
    closed = kernels.shared("gf_pbar", gf_pbar, t, prec)
    return _triple_report(
        "th2", t, order, closed, gf_pbar_direct(t, prec),
        oracle_series("pbar_t", t, order),
    )


def check_bk(t: int, order: int) -> VerificationReport:
    """gf_bk(t) against the count_p_bounded_diff oracle."""
    _require_order(order)
    return _triple_report(
        "bk", t, order, gf_bk(t, order + 1), None,
        oracle_series("p_t", t, order),
    )


def check_abr(t: int, order: int) -> VerificationReport:
    """gf_abr(t) against the count_p_exact_diff oracle (t >= 2)."""
    _require_order(order)
    return _triple_report(
        "abr", t, order, gf_abr(t, order + 1), None,
        oracle_series("p_exact_t", t, order),
    )


def check_pbar_g_relation(t: int, order: int) -> VerificationReport:
    """gf_pbar(t) + gf_pbar(t-1) = 2 gf_G(t): dropping the spread bound by
    one and doubling the half-weighted series agree."""
    _require_order(order)
    if t < 1:
        raise ValueError(f"relation needs t >= 1, got {t}")
    prec = order + 1
    return comparison_report(
        IdentityCheck("relation", {"t": t}, order),
        f"adjacent spread bounds recombine to order {order}",
        (add(kernels.shared("gf_pbar", gf_pbar, t, prec),
             kernels.shared("gf_pbar", gf_pbar, t - 1, prec)),
         kernels.shared("gf_G", gf_G, t, prec).scale(2),
         "adjacent spread bounds fail to recombine"),
    )


def check_oqbinom_pbar(t: int, order: int) -> VerificationReport:
    """gf_pbar(t) as a sum over the largest part r of overpartition
    q-binomials:  2 sum_{r>=1} q^r/(1-q^r) * oqbinom(t, r-1)."""
    _require_order(order)
    if t < 0:
        raise ValueError(f"oqbinom check needs t >= 0, got {t}")
    prec = order + 1
    rows = kernels.shared("largest-part sums", _largest_part_sums,
                          kernels.bound(t), prec, 1)
    lhs = _window_series(rows[min(t, len(rows) - 1)], prec)
    return comparison_report(
        IdentityCheck("oqbinom", {"t": t}, order),
        f"largest-part expansion over box polynomials matches to order {order}",
        (lhs.scale(2), kernels.shared("gf_pbar", gf_pbar, t, prec),
         "largest-part expansion deviates from the closed form"),
    )


def _halves_report(
    check: IdentityCheck, pass_message: str,
    *comparisons: tuple[tuple[QSeries, bool], tuple[QSeries, bool], str],
) -> VerificationReport:
    """comparison_report for checks whose compared values are halves.

    Each comparison is (lhs, rhs, fail message), each side a pair
    (series, frac) whose series is twice the compared value, so every
    comparison runs on int series.  Only a reported mismatch is halved
    back, to the type the value has as a half: a Fraction on a frac side
    from its window start on, where the half is a scale by 1/2, and an
    int elsewhere (an int side is doubled from ints, so it is even).
    """
    report = comparison_report(
        check, pass_message, *((a, b, m) for (a, _), (b, _), m in comparisons)
    )
    mm = report.first_mismatch
    if mm is None:
        return report
    sides = next((a, b) for a, b, m in comparisons if m == report.message)
    e = mm.exponent
    lhs, rhs = (
        _div(v, 2) if frac and e >= s.lo else v // 2
        for (s, frac), v in zip(sides, (mm.lhs, mm.rhs))
    )
    return VerificationReport(
        check, STATUS_FAIL, MismatchInfo(e, lhs, rhs), report.message
    )


def _case_sides(t: int, prec: int) -> tuple[QSeries, QSeries, QSeries, QSeries]:
    """Twice the sides that check_three_cases compares: case (2)'s closed
    form and its direct sum, then the sum of the three cases and gf_pbar(t)."""
    full = kernels.shared("gf_pbar", gf_pbar, t, prec)
    case1 = _ratio_minus_one(t, prec)
    twice_case2 = add(full, kernels.shared("gf_pbar", gf_pbar, t - 1, prec).scale(-1))
    rows = kernels.shared("largest-part sums", _largest_part_sums,
                          kernels.bound(t), prec, 0)
    last = len(rows) - 1
    case3 = _window_series(
        list(map(operator.sub, rows[min(t, last)], rows[min(t - 1, last)])), prec)
    return (twice_case2, _case_two_direct(t, prec).scale(2),
            add(add(case1, case3).scale(2), twice_case2), full.scale(2))


def check_three_cases(t: int, order: int) -> VerificationReport:
    """The three-way split of spread-bounded overpartitions:

    (1) parts all <= t:            (-q;q)_t/(q;q)_t - 1
    (2) spread == t, smallest part overlined:  (gf_pbar(t) - gf_pbar(t-1))/2
    (3) the rest, via box polynomials: sum_r q^r/(1-q^r)
                                        (oqbinom(t, r) - oqbinom(t-1, r))

    Passes when case (2)'s closed form matches its own direct sum and the
    cases sum to gf_pbar(t).  Both comparisons run doubled, on int series
    (see _halves_report); case (2) and the sum of the cases are the halves.
    """
    _require_order(order)
    if t < 1:
        raise ValueError(f"three-case split needs t >= 1, got {t}")
    case2, direct, total, full = _case_sides(t, order + 1)
    return _halves_report(
        IdentityCheck("cases", {"t": t}, order),
        f"three cases sum to the full series to order {order}",
        ((case2, True), (direct, False),
         "case (2) closed form deviates from its direct sum"),
        ((total, True), (full, False), "three cases fail to sum to the full series"),
    )


_CHAIN_LABELS = ("(i)", "(ii)", "(iii)", "(iv)", "(v)")
# Whether each step's value is a Fraction series: (i), (iv) and (v) carry a
# factor 1/2, while (ii) and (iii) are int series.
_CHAIN_FRACS = (True, False, False, True, True)


def _chain_steps(t: int, order: int) -> list[QSeries]:
    """Twice the five steps of proof_chain_theorem1, each an int series.

    (i) and (v) are gf_g_direct and gf_G themselves.  Each of (ii)-(iv) is
    one one_minus_product on its phi series: 2q times it for (ii) and
    (iii), whose prefactor's q becomes that shift, so their phi series are
    needed below q^order only; 1 minus it for (iv).  The factor list
    spells out the step's prefactor, and for (iii) the four infinite
    products over every k below the window width.  A factor and its
    inverse cancel in one_minus_product, so (iii) costs no more than (ii).
    """
    prec = order + 1
    q = QMonomial(1, 1)
    # q(-q;q)_t/((1+q)(q;q)_{t+1}) without its q
    pref = [*_ratio_factors(1, t), (1, t + 1, -1), (-1, 1, -1)]

    # (ii)
    phi2 = phi(
        (q, q, QMonomial(-1, t + 1)),
        (QMonomial(-1, 2), QMonomial(1, t + 2)),
        q,
        order,
    )
    two = one_minus_product(phi2.times_monomial(2, 1), pref)

    # (iii): (q^{t+1};q)_oo (q^2;q)_oo / ((q^{t+2};q)_oo (q;q)_oo)
    phi3 = phi(
        (q, QMonomial(-1, 1), QMonomial(1, 1 - t)),
        (QMonomial(-1, 2), QMonomial(1, 2)),
        QMonomial(1, t + 1),
        order,
    )
    products = [
        *((1, k, 1) for k in range(t + 1, order)),
        *((1, k, 1) for k in range(2, order)),
        *((1, k, -1) for k in range(t + 2, order)),
        *((1, k, -1) for k in range(1, order)),
    ]
    three = one_minus_product(phi3.times_monomial(2, 1), [*pref, *products])

    # (iv) doubled: (-q;q)_t/((1-q^t)(q;q)_t) * (1 - 2phi1)
    phi4 = phi(
        (QMonomial(-1, 0), QMonomial(1, -t)),
        (QMonomial(-1, 1),),
        QMonomial(1, t + 1),
        prec,
    )
    four = one_minus_product(
        add(one(prec), phi4.scale(-1)), [*_ratio_factors(1, t), (1, t, -1)])

    five = kernels.shared("gf_G", gf_G, t, prec)
    return [gf_g_direct(t, prec), two, three, four, five]


def proof_chain_theorem1(t: int, order: int) -> VerificationReport:
    """Five expressions that should all equal gf_G(t)/2, compared pairwise:

    (i)   sum_{m>=1} q^m (q;q)_{m-1} (-q;q)_{m+t-1} / ((q;q)_{m+t} (-q;q)_m)
    (ii)  q(-q;q)_t/((1+q)(q;q)_{t+1}) * 3phi2(q, q, -q^{t+1}; -q^2, q^{t+2}; q)
    (iii) the same prefactor times (q^{t+1};q)_oo (q^2;q)_oo /
          ((q^{t+2};q)_oo (q;q)_oo) * 3phi2(q, -q, q^{1-t}; -q^2, q^2; q^{t+1})
    (iv)  -(-q;q)_t/(2(1-q^t)(q;q)_t) * (2phi1(-1, q^{-t}; -q; q^{t+1}) - 1)
    (v)   gf_G(t)/2

    The steps are compared doubled, on int series (see _chain_steps and
    _halves_report).
    """
    _require_order(order)
    if t < 1:
        raise ValueError(f"proof chain needs t >= 1, got {t}")
    steps = _chain_steps(t, order)
    return _halves_report(
        IdentityCheck("proofchain", {"t": t}, order),
        f"all five expressions agree pairwise to order {order}",
        *[((steps[i], _CHAIN_FRACS[i]), (steps[i + 1], _CHAIN_FRACS[i + 1]),
           f"step {_CHAIN_LABELS[i]} deviates from step {_CHAIN_LABELS[i + 1]}")
          for i in range(4)],
    )


def check_corollary(t: int, n_max: int) -> VerificationReport:
    """Arithmetic of the gf_pbar(t) coefficients, for n in [1, n_max]:
    every count is even, is congruent to twice the divisor count mod 4, and
    so is divisible by 4 exactly when n is not a perfect square (d(n) is
    odd exactly at the squares, so 2*d(n) mod 4 is 2 there and 0 elsewhere;
    the square test needs no check of its own)."""
    if t < 0:
        raise ValueError(f"corollary needs t >= 0, got {t}")
    if n_max < 1:
        raise ValueError(f"corollary needs n_max >= 1, got {n_max}")
    series = kernels.shared("gf_pbar", gf_pbar, t, n_max + 1)
    check = IdentityCheck("corollary", {"t": t, "n_max": n_max}, n_max)
    for n in range(1, n_max + 1):
        v = series.coeff(n)
        if type(v) is not int:
            return VerificationReport(
                check, STATUS_ERROR, None,
                f"internal consistency: non-integer count {v} at q^{n}",
            )
        if v % 2:
            return VerificationReport(
                check, STATUS_FAIL, MismatchInfo(n, v % 2, 0),
                f"count at q^{n} is odd",
            )
        expected = (2 * divisor_count(n)) % 4
        if v % 4 != expected:
            return VerificationReport(
                check, STATUS_FAIL, MismatchInfo(n, v % 4, expected),
                f"count at q^{n} is not congruent to twice the divisor count mod 4",
            )
    return VerificationReport(
        check, STATUS_PASS, None,
        f"parity, mod-4 congruence and square test hold for n <= {n_max}",
    )


# -- check runner -----------------------------------------------------------------

# Check family -> (lowest admissible t, or termination index for chu;
# runner(t, order, inject_mismatch)).  Each runner names its check function
# at call time, so a replacement set on this module is the one that runs.
_Runner = Callable[[int, int, bool], VerificationReport]
CHECKS: dict[str, tuple[int, _Runner]] = {
    "th1": (1, lambda t, order, bad: check_th1(t, order, _corrupt=bad)),
    "th2": (0, lambda t, order, bad: check_th2(t, order)),
    "bk": (1, lambda t, order, bad: check_bk(t, order)),
    "abr": (2, lambda t, order, bad: check_abr(t, order)),
    "oqbinom": (0, lambda t, order, bad: check_oqbinom_pbar(t, order)),
    "relation": (1, lambda t, order, bad: check_pbar_g_relation(t, order)),
    "cases": (1, lambda t, order, bad: check_three_cases(t, order)),
    "proofchain": (1, lambda t, order, bad: proof_chain_theorem1(t, order)),
    "chu": (0, lambda t, order, bad: verify_chu(
        QMonomial(-1, 0), t, QMonomial(-1, 1), order + 1)),
    "corollary": (0, lambda t, order, bad: check_corollary(t, order)),
}

ALL_CHECKS = tuple(sorted(CHECKS))


def run_checks(
    selector: str, t_max: int, order: int, inject_mismatch: bool = False
) -> list[VerificationReport]:
    """Run one check family (or "all") for every admissible t up to t_max.

    With an explicit selector an empty t range is a domain error; under
    "all" the families whose minimum exceeds t_max are skipped.

    inject_mismatch corrupts the th1 closed form (test hook).

    The call is one request scope with spread bound t_max: its checks
    share one spread walk, one smallest-part pass, one largest-part sweep
    per lag and each gf_pbar and gf_G series, each made once, for every
    t <= t_max, and dropped when the call returns (see the kernels
    docstring).
    """
    _require_order(order)
    if selector != "all" and selector not in CHECKS:
        raise ValueError(f"unknown check {selector!r}")
    names = ALL_CHECKS if selector == "all" else (selector,)
    reports: list[VerificationReport] = []
    with kernels.RequestScope(t_max):
        for name in names:
            lo, runner = CHECKS[name]
            if t_max < lo:
                if selector == "all":
                    continue
                raise ValueError(
                    f"check {name!r} needs t_max >= {lo}, got {t_max}"
                )
            for t in range(lo, t_max + 1):
                reports.append(runner(t, order, inject_mismatch))
    reports.sort(key=lambda r: r.sort_key())
    return reports
