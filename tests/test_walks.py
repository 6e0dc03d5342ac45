"""The shared spread walk: its table against the one-increment-per-part
walk it replaced, against the smallest-part-first walk before that at small
sizes, and against the independent oracles, plain and flag-materializing
enumeration; the sizes the oracle walks are made at, inside a request scope
and out; and the oracle's independence from the coefficient kernels.  The
statistics derived from the table are checked against flag enumeration in
``test_enumeration.py`` and against every closed form in
``test_acceptance.py``."""

import pytest

from brute import iter_overpartitions, iter_partitions
from overq import enumeration, kernels
from overq.cli import main
from overq.enumeration import ORACLE_KINDS, count_p_exact_diff, oracle_series
from overq.identities import run_checks

# -- reference: the former largest-part-first spread walk, kept verbatim -------------
# It adds 1 per multiplicity of every part, the smallest part included.


def reference_largest_part_first_table(n_max, t):
    """Partition counts by exact spread and number of distinct part values.

    Returns c with c[s][d][n] the number of partitions of n (1 <= n <= n_max)
    with spread (largest part minus smallest) exactly s and d distinct part
    values, for 0 <= s <= t.  Row c[s] holds d = 0..min(s + 1, d_max), where
    d_max is the largest d with d*(d+1)/2 <= n_max: no partition of n_max or
    less has more distinct values.  Entry n = 0 and row d = 0 are always 0,
    since the empty partition has no smallest part.

    The walk runs largest part first, in the reverse-lexicographic order of
    Knuth, TAOCP 7.2.1.4.  For each largest part L it adds values v from
    L - 1 down to lo = max(1, L - t), each with multiplicity >= 1.  The
    value added last is the smallest part, so every multiplicity adds 1 to
    c[L - v][d].  A branch goes deeper only while one more part of size lo
    still fits in n_max.

    Each partition with spread at most t is visited once and adds 1 to one
    entry, so any statistic of (spread, distinct values) follows by weighted
    sums over the rows.
    """
    d_max = 0
    while (d_max + 1) * (d_max + 2) // 2 <= n_max:
        d_max += 1
    acc = [
        [[0] * (n_max + 1) for _ in range(min(s + 1, d_max) + 1)]
        for s in range(t + 1)
    ]

    for L in range(1, n_max + 1):
        lo = L - t if L > t else 1
        lim = n_max - lo

        def rec(last, total, nd):
            # Add each value in [lo, last) that fits, largest first; a call
            # is made only when a part of size lo still fits.
            nd += 1
            top = n_max - total
            if top >= last:
                top = last - 1
            for v in range(top, lo - 1, -1):
                row = acc[L - v][nd]
                if v > lo:
                    for tot in range(total + v, n_max + 1, v):
                        row[tot] += 1
                        if tot <= lim:
                            rec(v, tot, nd)
                else:
                    for tot in range(total + v, n_max + 1, v):
                        row[tot] += 1

        # The largest part L appears at least once; smaller values are
        # optional and strictly decreasing, so each multiset is hit once.
        row = acc[0][1]
        deeper = L > lo
        for tot in range(L, n_max + 1, L):
            row[tot] += 1
            if deeper and tot <= lim:
                rec(L, tot, 1)
    return acc


# -- reference: the former smallest-part-first spread walk, kept verbatim ----------


def reference_spread_table(n_max, t):
    """Partition counts by exact spread and number of distinct part values.

    Returns c with c[s][d][n] the number of partitions of n (1 <= n <= n_max)
    with spread (largest part minus smallest) exactly s and d distinct part
    values, for 0 <= s <= t.  Row c[s] holds d = 0..min(s + 1, d_max), where
    d_max is the largest d with d*(d+1)/2 <= n_max: no partition of n_max or
    less has more distinct values.  Entry n = 0 and row d = 0 are always 0,
    since the empty partition has no smallest part.

    Each partition with spread at most t is visited once and adds 1 to one
    entry, so any statistic of (spread, distinct values) follows by weighted
    sums over the rows.
    """
    d_max = 0
    while (d_max + 1) * (d_max + 2) // 2 <= n_max:
        d_max += 1
    acc = [
        [[0] * (n_max + 1) for _ in range(min(s + 1, d_max) + 1)]
        for s in range(t + 1)
    ]

    for m in range(1, n_max + 1):
        top = m + t

        def rec(last, total, nd):
            # Add each value in (last, top] with multiplicity >= 1; a call is
            # made only when at least one more value fits.
            nd += 1
            for v in range(last + 1, min(top, n_max - total) + 1):
                row = acc[v - m][nd]
                deeper = v < top
                lim = n_max - v
                for tot in range(total + v, n_max + 1, v):
                    row[tot] += 1
                    if deeper and tot < lim:
                        rec(v, tot, nd)

        # The smallest part m appears at least once; larger values are
        # optional and strictly increasing, so each multiset is hit once.
        row = acc[0][1]
        lim = n_max - m
        for tot in range(m, n_max + 1, m):
            row[tot] += 1
            if t and tot < lim:
                rec(m, tot, 1)
    return acc


@pytest.fixture
def walks(monkeypatch):
    """Record every oracle walk."""
    calls = []
    for name in ("window_diff_counts", "all_partition_weighted_counts"):
        def recorded(*args, _walk=getattr(kernels, name), _name=name):
            calls.append((_name, args))
            return _walk(*args)
        monkeypatch.setattr(kernels, name, recorded)
    return calls


def spread_walks(calls):
    return [args for name, args in calls if name == "window_diff_counts"]


# -- the running-sum walk against the one-increment-per-part walk -------------------


@pytest.mark.parametrize(
    "n_max, t", [(60, 8), (64, 6), (94, 5), (96, 6), (48, 47)])
def test_walk_table_matches_the_one_increment_per_part_walk(n_max, t):
    got = kernels.window_diff_counts(n_max, t)
    assert got == reference_largest_part_first_table(n_max, t)


def test_walk_table_matches_the_one_increment_per_part_walk_at_small_sizes():
    for n_max in range(1, 25):
        for t in range(n_max + 1):
            got = kernels.window_diff_counts(n_max, t)
            assert got == reference_largest_part_first_table(n_max, t), (n_max, t)


# -- the largest-part-first walk against the smallest-part-first one ---------------
# The smallest-part-first walk came before the one-increment-per-part walk and
# reaches each partition from the other end; it is kept only at the sizes
# where it is cheap: every t at small n_max and the t = n_max - 1 tables.


@pytest.mark.parametrize("n_max, t", [(32, 31), (40, 39), (48, 47)])
def test_walk_table_matches_the_smallest_part_first_walk(n_max, t):
    assert kernels.window_diff_counts(n_max, t) == reference_spread_table(n_max, t)


def test_walk_table_matches_the_smallest_part_first_walk_at_small_sizes():
    # Covers n_max = 1, t = 0, t >= n_max and every d_max row trimming.
    for n_max in range(1, 21):
        for t in range(n_max + 1):
            got = kernels.window_diff_counts(n_max, t)
            assert got == reference_spread_table(n_max, t), (n_max, t)


def test_walk_table_counts_each_partition_once():
    # Independent of either walk: tally iter_partitions by (spread, distinct).
    tally = {}
    for n in range(1, 25):
        for parts in iter_partitions(n):
            key = (parts[0] - parts[-1], len(set(parts)), n)
            tally[key] = tally.get(key, 0) + 1
    for n_max in range(1, 25):
        d_max = max(d for d in range(n_max + 1) if d * (d + 1) // 2 <= n_max)
        for t in range(n_max + 1):
            table = kernels.window_diff_counts(n_max, t)
            want = [
                [[tally.get((s, d, n), 0) for n in range(n_max + 1)]
                 for d in range(min(s + 1, d_max) + 1)]
                for s in range(t + 1)
            ]
            assert table == want, (n_max, t)


def test_walk_table_matches_flag_enumeration():
    # Callers and outside wrappers reach every kernel as a module attribute.
    assert kernels.BACKEND == "pure"
    assert all(callable(getattr(kernels, name, None)) for name in (
        "convolve", "invert_unit", "divide_unit", "one_minus_chain",
        "mul_one_minus", "div_one_minus", "window_diff_counts",
        "all_partition_weighted_counts",
    ))
    table = kernels.window_diff_counts(12, 4)
    for n in range(1, 13):
        flags = {}
        for parts, overlined in iter_overpartitions(n):
            key = (parts[0] - parts[-1], len(set(parts)))
            all_, top_free = flags.get(key, (0, 0))
            flags[key] = (all_ + 1, top_free + (parts[0] not in overlined))
        for s in range(5):
            for d in range(len(table[s])):
                # d distinct values give 2**d overline choices, half of them
                # with the largest part plain.
                c = table[s][d][n]
                want = (c << d, c << d >> 1)
                assert flags.get((s, d), (0, 0)) == want, (n, s, d)
            assert all(table[s][d][0] == 0 for d in range(len(table[s])))


# -- walk sizes ----------------------------------------------------------------------


def test_cold_request_walks_exactly_its_size(walks):
    oracle_series("p_t", 6, 65)
    assert spread_walks(walks) == [(65, 6)]


def test_check_suite_walks_once(walks):
    reports = run_checks("all", 8, 60)
    assert all(r.passed for r in reports)
    assert spread_walks(walks) == [(60, 8)]


def test_each_check_suite_walks_once(walks):
    # Nothing outlives a request: the second one walks again, once.
    for _ in range(2):
        assert all(r.passed for r in run_checks("all", 3, 12))
    assert spread_walks(walks) == [(12, 3), (12, 3)]


def test_overline_total_table_walks_to_n_max(walks, capsys):
    assert main(["table", "--kind", "overline_total", "--n-max", "33",
                 "--source", "oracle"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 34
    # The totals kernel lists no partition itself: it sums one spread walk
    # at a bound that no partition of 33 or less exceeds.
    assert walks == [("all_partition_weighted_counts", (33,)),
                     ("window_diff_counts", (33, 32))]


def test_reads_share_a_walk_only_inside_a_request_scope(walks):
    # Outside a scope each read walks at its own size.  Inside one, the
    # reads of one n share a walk at the scope's t_max, whatever their t; a
    # read past t_max walks at its own t, and no walk goes past spread n.
    for _ in range(2):
        oracle_series("p_t", 6, 65)
        oracle_series("g_t", 3, 65)
        oracle_series("p_t", 6, 40)
    assert spread_walks(walks) == [(65, 6), (65, 3), (40, 6)] * 2
    walks.clear()
    with kernels.RequestScope(6):
        oracle_series("p_t", 6, 65)
        oracle_series("g_t", 3, 65)
        oracle_series("p_exact_t", 0, 65)
        oracle_series("p_t", 6, 40)
        oracle_series("g_t", 3, 40)
        oracle_series("pbar_t", 9, 40)
        oracle_series("pbar_t", 2, 5)
    assert spread_walks(walks) == [(65, 6), (40, 6), (40, 9), (5, 5)]


def test_ascending_scan(walks):
    for n in range(1, 201):
        assert count_p_exact_diff(n, 0) == enumeration.divisor_count(n)
    assert spread_walks(walks) == [(n, 0) for n in range(1, 201)]


# -- independence from the coefficient kernels ------------------------------------


def test_oracle_calls_no_coefficient_kernel(walks, monkeypatch):
    # An oracle that shared a coefficient kernel with the formula side would
    # not check it.  Outside a request scope every kind walks.
    used = []
    for name in ("convolve", "invert_unit", "divide_unit", "one_minus_chain",
                 "mul_one_minus", "div_one_minus"):
        def recorded(*args, _kernel=getattr(kernels, name), _name=name):
            used.append(_name)
            return _kernel(*args)
        monkeypatch.setattr(kernels, name, recorded)
    for kind in ORACLE_KINDS:
        s = oracle_series(kind, 5, 30)
        assert (s.lo, s.prec) == (1, 31), kind
    assert kernels.window_diff_counts(30, 29)
    assert kernels.all_partition_weighted_counts(30)
    assert walks == [
        *[("window_diff_counts", (30, 5))] * 4,
        ("all_partition_weighted_counts", (30,)), ("window_diff_counts", (30, 29)),
        ("window_diff_counts", (30, 29)),
        ("all_partition_weighted_counts", (30,)), ("window_diff_counts", (30, 29))]
    assert used == []
