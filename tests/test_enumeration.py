"""Brute-force oracles: scalar counts, series batching, and the weighted
walks, the overpartition totals among them, against the independent
flag-materializing enumeration of ``brute``, whose partition order is
pinned here too."""

import pytest

from brute import iter_overpartitions, iter_partitions
from overq.enumeration import (
    count_g,
    count_opbar_bounded,
    count_opbar_total,
    count_p_bounded_diff,
    count_p_exact_diff,
    divisor_count,
    oracle_series,
    over_qbinom_box_oracle,
)
from overq.series import coeff


def ints(s):
    return [int(coeff(s, e)) for e in range(s.lo, s.prec)]


# -- scalar counts -----------------------------------------------------------------


def test_divisor_count_values():
    assert divisor_count(1) == 1
    assert divisor_count(4) == 3
    assert divisor_count(12) == 6
    with pytest.raises(ValueError):
        divisor_count(0)


def test_exact_difference_counts():
    assert count_p_exact_diff(4, 1) == 1
    assert count_p_exact_diff(4, 0) == 3
    assert count_p_exact_diff(5, 2) == 1


def test_bounded_difference_counts():
    assert count_p_bounded_diff(4, 1) == 4
    assert count_p_bounded_diff(4, 0) == 3
    assert count_p_bounded_diff(4, 3) == 5


def test_overpartition_totals():
    assert count_opbar_total(1) == 2
    assert count_opbar_total(4) == 14
    assert count_opbar_total(5) == 24
    assert [count_opbar_total(n) for n in range(1, 7)] == [2, 4, 8, 14, 24, 40]


def test_bounded_overpartition_counts():
    assert count_opbar_bounded(4, 1) == 10
    assert count_opbar_bounded(4, 0) == 6
    assert count_opbar_bounded(4, 2) == 14


def test_half_weighted_counts():
    assert count_g(4, 1) == 8
    assert count_g(4, 0) == 3
    assert count_g(4, 2) == 12


def test_domain_errors():
    for fn in (count_p_exact_diff, count_p_bounded_diff, count_opbar_bounded,
               count_g):
        with pytest.raises(ValueError):
            fn(0, 1)
        with pytest.raises(ValueError):
            fn(4, -1)
    with pytest.raises(ValueError):
        count_opbar_total(0)


# -- box polynomials and series batching -------------------------------------------


def test_box_oracle_small():
    assert ints(over_qbinom_box_oracle(0, 0)) == [1]
    assert ints(over_qbinom_box_oracle(1, 1)) == [1, 2]
    assert ints(over_qbinom_box_oracle(2, 2)) == [1, 2, 4, 4, 2]


def test_oracle_series_examples():
    assert ints(oracle_series("g_t", 1, 4)) == [2, 4, 6, 8]
    assert ints(oracle_series("d", None, 3)) == [1, 2, 2]
    assert ints(oracle_series("pbar_t", 0, 4)) == [2, 4, 4, 6]


def test_oracle_series_contract():
    s = oracle_series("p_t", 2, 9)
    assert s.lo == 1 and s.prec == 10
    with pytest.raises(ValueError):
        oracle_series("nope", 1, 5)
    with pytest.raises(ValueError):
        oracle_series("g_t", None, 5)
    with pytest.raises(ValueError):
        oracle_series("d", None, 0)
    for kind in ("p_t", "p_exact_t", "pbar_t", "g_t"):
        with pytest.raises(ValueError, match="^spread bound t must be >= 0, got -1$"):
            oracle_series(kind, -1, 5)


# -- partition and overpartition iterators -----------------------------------------


def test_iter_partitions_of_four():
    assert list(iter_partitions(4)) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
    ]


def test_iter_partitions_bounds():
    assert list(iter_partitions(6, max_part=3, min_part=2)) == [
        (3, 3), (2, 2, 2)
    ]
    assert list(iter_partitions(3, max_part=1)) == [(1, 1, 1)]
    with pytest.raises(ValueError):
        list(iter_partitions(3, min_part=0))


def recursive_partitions(n, max_part=None, min_part=1):
    """The former recursive iter_partitions, kept as the reference order."""
    if max_part is None or max_part > n:
        max_part = n

    def rec(remaining, cap, prefix):
        if remaining == 0:
            yield prefix
            return
        for v in range(min(cap, remaining), min_part - 1, -1):
            yield from rec(remaining - v, v, prefix + (v,))

    if n == 0:
        yield ()
    elif n >= 1 and min_part <= max_part:
        yield from rec(n, max_part, ())


def test_iter_partitions_matches_the_recursive_order():
    for n in range(-1, 21):
        for max_part in (None, *range(-1, 23)):
            for min_part in range(1, 23):
                assert list(iter_partitions(n, max_part, min_part)) == \
                    list(recursive_partitions(n, max_part, min_part)), \
                    (n, max_part, min_part)


def test_iter_partitions_has_no_depth_limit():
    assert list(iter_partitions(1200, max_part=1)) == [(1,) * 1200]


def test_iter_overpartitions_of_two():
    got = sorted(
        (parts, tuple(sorted(overlined)))
        for parts, overlined in iter_overpartitions(2)
    )
    assert got == [
        ((1, 1), ()), ((1, 1), (1,)), ((2,), ()), ((2,), (2,))
    ]


def test_overpartition_objects_validate():
    # Every pair is an overpartition of n, and none comes twice: positive
    # parts, largest first, summing to n, overlined values among the parts.
    for n in range(9):
        pairs = list(iter_overpartitions(n))
        assert len(set(pairs)) == len(pairs), n
        for parts, overlined in pairs:
            assert sum(parts) == n and all(p >= 1 for p in parts), (n, parts)
            assert list(parts) == sorted(parts, reverse=True), parts
            assert type(overlined) is frozenset, overlined
            assert overlined <= set(parts), (parts, overlined)


# -- the weighted walks against the flag-materializing enumeration -----------------


def test_totals_match_flag_enumeration():
    for n in range(1, 13):
        flags = sum(1 for _ in iter_overpartitions(n))
        assert count_opbar_total(n) == flags, n


def test_box_oracle_matches_flag_enumeration():
    # Coefficient k of the m x n box oracle counts the overpartitions of k
    # with at most n parts, each at most m.
    for m in range(5):
        for n in range(5):
            want = [
                sum(1 for parts, _ in iter_overpartitions(k)
                    if len(parts) <= n and (not parts or parts[0] <= m))
                for k in range(m * n + 1)
            ]
            assert ints(over_qbinom_box_oracle(m, n)) == want, (m, n)
    for m, n in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="box dimensions must be >= 0"):
            over_qbinom_box_oracle(m, n)


def test_bounded_and_half_weighted_match_flag_enumeration():
    for n in range(1, 11):
        for t in range(0, 5):
            ops = [(parts, overlined) for parts, overlined in iter_overpartitions(n)
                   if parts[0] - parts[-1] <= t]
            assert count_opbar_bounded(n, t) == len(ops), (n, t)
            # when the spread is exactly t the largest part is never overlined
            kept = [
                (parts, overlined) for parts, overlined in ops
                if parts[0] - parts[-1] < t or parts[0] not in overlined
            ]
            assert count_g(n, t) == len(kept), (n, t)


# -- structural properties ---------------------------------------------------------


def test_bounded_counts_monotone_and_stabilize():
    for n in range(1, 26):
        total = count_opbar_total(n)
        prev = 0
        for t in range(0, n + 1):
            cur = count_opbar_bounded(n, t)
            assert cur >= prev, (n, t)
            prev = cur
            if t >= n - 1:
                assert cur == total, (n, t)


def test_half_weighted_sandwich():
    for n in range(1, 31):
        for t in range(1, 6):
            g = count_g(n, t)
            bounded = count_opbar_bounded(n, t)
            assert g <= bounded <= 2 * g, (n, t)


def test_low_spread_closed_forms():
    for n in range(1, 201):
        assert count_p_exact_diff(n, 0) == divisor_count(n)
        assert count_p_exact_diff(n, 1) == n - divisor_count(n)
        assert count_g(n, 1) == 2 * n
