"""Brute-force enumeration oracles.

Everything here counts partitions or overpartitions directly, with no
generating-function machinery, so the results can sit on the other side of
an identity check.  An overpartition is a partition in which the final
(lowest) occurrence of each distinct part value may be overlined, so a
partition with d distinct values yields 2**d overpartitions.  The spread of
a partition is its largest part minus its smallest.

The spread statistics and the overpartition totals come from one walk
that counts partitions by exact spread and number of distinct values.  It
lists every multiset of parts strictly between the largest and the
smallest part on its own and counts the copies of both end parts in bulk
(see ``kernels.window_diff_counts``).  Its table is turned into every
spread statistic at every spread bound it reaches, by weighted row sums and
running sums over the spread (``_spread_statistics``), and a read takes a
slice of one row of a walk made at ``kernels.bound(t)``: inside a request
scope the reads of one n share one walk (see the kernels docstring).  The
overpartition totals are that walk's table at a bound that no partition of
the sizes asked for exceeds, summed over every spread and distinct count,
and are made afresh for each call.  The over q-binomial oracle walks the
partitions of its box itself.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mul

from . import kernels
from .series import QSeries

ORACLE_KINDS = ("pbar_t", "g_t", "p_t", "p_exact_t", "d", "opbar_total")


def divisor_count(n: int) -> int:
    """Number of positive divisors of n.

    Raises:
        ValueError: if n < 1.
    """
    if n < 1:
        raise ValueError(f"divisor_count needs n >= 1, got {n}")
    total = 0
    d = 1
    while d * d < n:
        if n % d == 0:
            total += 2
        d += 1
    if d * d == n:
        total += 1
    return total


def _require_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"counting functions need n >= 1, got {n}")


def _require_t(t: int) -> None:
    if t < 0:
        raise ValueError(f"spread bound t must be >= 0, got {t}")


def _spread_statistics(n_max: int, t: int) -> dict[str, list[list[int]]]:
    """Every spread statistic for every bound up to min(t, n_max), from one
    spread walk to n_max, as weighted row sums of its table c[s][d][n]: kind
    -> rows by bound, each indexed by n.  No partition of n_max or less has
    a spread past n_max, so the bound is clamped there.

    p_t counts partitions with spread s <= t, p_exact_t those with s == t;
    pbar_t weighs each by 2**d (its overpartitions), and g_t does too except
    at s == t, where the largest part may not be overlined: 2**(d-1).  So
    each s gives two row sums, at weights 1 and 2**(d-1), and running sums
    over s give the rest: g_t = pbar_{t-1} + the half-weighted row t.  The
    walk is looked up in kernels at the call, so a wrapper put there sees it.
    """
    width = n_max + 1
    stats: dict[str, list[list[int]]] = {
        kind: [] for kind in ("p_t", "p_exact_t", "pbar_t", "g_t")}
    p = pbar = [0] * width
    for rows in kernels.window_diff_counts(n_max, min(t, n_max)):
        exact, half = [0] * width, [0] * width
        for d in range(1, len(rows)):
            exact[:] = map(add, exact, rows[d])
            half[:] = map(add, half, map(mul, repeat(1 << (d - 1)), rows[d]))
        stats["g_t"].append(list(map(add, pbar, half)))
        p = list(map(add, p, exact))
        pbar = list(map(add, pbar, map(add, half, half)))
        stats["p_t"].append(p)
        stats["p_exact_t"].append(exact)
        stats["pbar_t"].append(pbar)
    return stats


def _spread_counts(kind: str, t: int, lo: int, hi: int) -> list[int]:
    """Entries n = lo..hi of the spread statistic kind (see
    _spread_statistics) at bound t, from a walk to hi."""
    rows = kernels.shared("spread walk", _spread_statistics, hi, kernels.bound(t))[kind]
    return rows[min(t, len(rows) - 1)][lo : hi + 1]


def count_p_bounded_diff(n: int, t: int) -> int:
    """Partitions of n with spread at most t."""
    _require_n(n)
    _require_t(t)
    return _spread_counts("p_t", t, n, n)[0]


def count_p_exact_diff(n: int, t: int) -> int:
    """Partitions of n with spread exactly t."""
    _require_n(n)
    _require_t(t)
    return _spread_counts("p_exact_t", t, n, n)[0]


def count_opbar_total(n: int) -> int:
    """All overpartitions of n."""
    _require_n(n)
    return kernels.all_partition_weighted_counts(n)[n]


def count_opbar_bounded(n: int, t: int) -> int:
    """Overpartitions of n whose underlying partition has spread at most t."""
    _require_n(n)
    _require_t(t)
    return _spread_counts("pbar_t", t, n, n)[0]


def count_g(n: int, t: int) -> int:
    """Overpartitions of n with spread at most t, except that when the
    spread is exactly t the largest part may not be overlined (half the
    overline choices survive)."""
    _require_n(n)
    _require_t(t)
    return _spread_counts("g_t", t, n, n)[0]


def over_qbinom_box_oracle(m: int, n: int) -> QSeries:
    """Overpartition q-binomial by direct enumeration of the m x n box.

    Walks every partition with at most n parts, each at most m, adding
    2**distinct at its size.  Exact polynomial, window [0, m*n + 1).
    """
    if m < 0 or n < 0:
        raise ValueError("box dimensions must be >= 0")
    counts = [0] * (m * n + 1)
    counts[0] = 1

    def rec(maxv, slots, total, weight):
        # Choose the next (largest remaining) distinct part value and its
        # multiplicity; every call path builds each partition exactly once.
        for v in range(maxv, 0, -1):
            tot = total
            w2 = weight * 2
            for copies in range(1, slots + 1):
                tot += v
                counts[tot] += w2
                if copies < slots and v > 1:
                    rec(v - 1, slots - copies, tot, w2)

    if m and n:
        rec(m, n, 0, 1)
    return QSeries._make(0, m * n + 1, counts)


def oracle_series(kind: str, t: int | None, n_max: int) -> QSeries:
    """Enumerated counts as a series: sum_{n=1}^{n_max} count(n) q^n.

    kind selects the statistic: "pbar_t" (count_opbar_bounded), "g_t"
    (count_g), "p_t" (count_p_bounded_diff), "p_exact_t"
    (count_p_exact_diff), "d" (divisor_count) or "opbar_total"
    (count_opbar_total); t is ignored by the last two.  The window is
    [1, n_max + 1).
    """
    if kind not in ORACLE_KINDS:
        raise ValueError(f"unknown oracle kind {kind!r}")
    _require_n(n_max)
    if kind == "d":
        counts = [divisor_count(n) for n in range(1, n_max + 1)]
    elif kind == "opbar_total":
        counts = kernels.all_partition_weighted_counts(n_max)[1:]
    else:
        if t is None:
            raise ValueError(f"oracle kind {kind!r} needs the parameter t")
        _require_t(t)
        counts = _spread_counts(kind, t, 1, n_max)
    return QSeries._make(1, n_max + 1, counts)

