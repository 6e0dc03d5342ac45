"""Reference counts computed apart from overq, with the standard library only.

Two independent routes:

* brute force: every partition of n is listed and weighted directly, used
  for the first rows of each table;
* integer sums over the smallest part m of a partition, whose parts then
  lie in [m, m + t], built from exact factors (1 + c*q^v) and 1/(1 - q^v)
  on plain int lists; used for every table row and for large coefficients.

Nothing here imports overq, so a fault in the program's series engine,
closed forms or oracle walks cannot hide in the reference.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from operator import add
from typing import Iterator, List, Optional, Tuple


def divisor_count(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if n % k == 0)


def partitions(n: int) -> Iterator[Tuple[int, ...]]:
    """Every partition of n >= 1, parts non-increasing, without recursion."""
    parts = [n]
    while True:
        yield tuple(parts)
        # Take one from the last part above 1 and refill with parts at most
        # that size; stop when every part is 1.
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        v = parts.pop() - 1
        rest = ones + 1
        parts.append(v)
        while rest > v:
            parts.append(v)
            rest -= v
        if rest:
            parts.append(rest)


@lru_cache(maxsize=None)
def brute_count(kind: str, t: Optional[int], n: int) -> int:
    """One table entry by listing every partition of n."""
    if kind == "d":
        return divisor_count(n)
    total = 0
    for p in partitions(n):
        spread = p[0] - p[-1]
        distinct = len(set(p))
        if kind == "overline_total":
            total += 2 ** distinct
        elif kind == "p_bounded" and spread <= t:
            total += 1
        elif kind == "p_exact" and spread == t:
            total += 1
        elif kind == "pbar" and spread <= t:
            total += 2 ** distinct
        elif kind == "g" and spread <= t:
            total += 2 ** (distinct - 1 if spread == t else distinct)
    return total


# -- int series on lists indexed by exponent ------------------------------------


def _times_binomial(a: List[int], c: int, v: int) -> List[int]:
    """a * (1 + c*q^v), truncated to len(a)."""
    if v >= len(a):
        return a
    shifted = a[: len(a) - v] if c == 1 else [c * x for x in a[: len(a) - v]]
    return a[:v] + list(map(add, a[v:], shifted))


def _over_one_minus(a: List[int], v: int) -> List[int]:
    """a / (1 - q^v), truncated to len(a); one block of v entries at a time,
    each block adding the block before it, which is already final."""
    a = list(a)
    for s in range(v, len(a), v):
        a[s : s + v] = map(add, a[s : s + v], a[s - v : s])
    return a


# How each value m + j of the window [m, m + t] enters a partition with
# smallest part m, per table kind: (present, weight) for the mandatory
# smallest value, the middle values and the top value.  "present" values
# occur at least once; the others at least zero times.  weight 2 means the
# value may carry an overline.
_RULES = {
    #             smallest      middle         top
    "pbar": ((True, 2), (False, 2), (False, 2)),
    "g": ((True, 2), (False, 2), (False, 1)),
    "p_bounded": ((True, 1), (False, 1), (False, 1)),
    "p_exact": ((True, 1), (False, 1), (True, 1)),
}


def _window_product(kind: str, t: int, m: int, width: int) -> List[int]:
    """Partitions with smallest part m and spread within the kind's rule,
    weighted, at exponents m .. m + width - 1 (stored from index 0)."""
    first, middle, top = _RULES[kind]
    a = [0] * width
    a[0] = first[1]
    a = _over_one_minus(a, m)
    for j in range(1, t + 1):
        v = m + j
        present, weight = top if j == t else middle
        if present:
            a = [0] * min(v, width) + [weight * x for x in a[: max(width - v, 0)]]
        elif weight != 1:
            a = _times_binomial(a, weight - 1, v)
        a = _over_one_minus(a, v)
    return a


def smallest_part_series(kind: str, t: int, n_max: int) -> List[int]:
    """Counts for n = 0..n_max, summed over the smallest part m."""
    total = [0] * (n_max + 1)
    for m in range(1, n_max + 1):
        for i, x in enumerate(_window_product(kind, t, m, n_max - m + 1)):
            total[m + i] += x
    return total


@lru_cache(maxsize=None)
def smallest_part_coeff(kind: str, t: int, n: int) -> int:
    """Coefficient of q^n in smallest_part_series, without the other
    exponents: for m > n/2 only the one-part partition m = n fits."""
    value = sum(
        _window_product(kind, t, m, n - m + 1)[-1] for m in range(1, n // 2 + 1)
    )
    if t == 0 or not _RULES[kind][2][0]:
        value += _RULES[kind][0][1]
    return value


@lru_cache(maxsize=None)
def table_column(kind: str, t: Optional[int], n_max: int) -> Tuple[int, ...]:
    """Reference values for n = 1..n_max of one table kind."""
    if kind == "d":
        return tuple(divisor_count(n) for n in range(1, n_max + 1))
    if kind == "overline_total":
        return tuple(overline_totals(n_max)[1:])
    return tuple(smallest_part_series(kind, t, n_max)[1:])


def overline_totals(n_max: int) -> List[int]:
    """(-q;q)_oo / (q;q)_oo up to q^n_max, by exact factors."""
    a = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        a = _over_one_minus(_times_binomial(a, 1, k), k)
    return a


@lru_cache(maxsize=None)
def overline_total_coeff(n: int) -> int:
    return overline_totals(n)[n]


@lru_cache(maxsize=None)
def walk_partitions(n_max: int, t: Optional[int]) -> int:
    """Partitions of 1..n_max with spread at most t (any spread when t is
    None): the nodes an exhaustive oracle walk visits."""
    if t is not None:
        return sum(smallest_part_series("p_bounded", t, n_max))
    a = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        a = _over_one_minus(a, k)
    return sum(a) - 1


def corollary_fault(n: int, value: int) -> Optional[str]:
    """The paper's corollary for every spread bound t: pbar_t(n) is even,
    is 2*d(n) mod 4, and is divisible by 4 exactly when n is not a square."""
    if value % 2:
        return f"pbar value {value} at n={n} is odd"
    if value % 4 != (2 * divisor_count(n)) % 4:
        return f"pbar value {value} at n={n} is not 2*d(n) mod 4"
    square = isqrt(n) ** 2 == n
    if (value % 4 == 0) == square:
        return f"pbar value {value} at n={n} breaks the square test"
    return None
