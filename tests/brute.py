"""Plain enumerations that only the tests use: partitions one at a time,
overpartitions one overline choice at a time, and the Gaussian q-binomial.
They cross-check the package's walks and q-binomial builders at small
sizes; no request of the ``overq`` command reaches them."""

from collections.abc import Iterator

from overq.qfunctions import _gauss_ints, _require_box, _wrap_poly
from overq.series import QSeries


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
