"""Coefficient and enumeration kernels: the hot inner loops, in pure Python.

Callers reach these through the module (``kernels.convolve``, ...) at call
time, so a wrapper set on the module attribute sees every call.  Coefficient
kernels work on dense sequences indexed from the window's lowest exponent
and never mutate their inputs.  Their inner loops run inside the C-level
builtins ``map``, ``itertools.accumulate`` and ``sum``: ``convolve`` steps
in Python once per nonzero term and ``divide_unit`` once per output
coefficient.  ``one_minus_chain`` applies a whole product of one-minus
factors to one copy of its input, in place: a multiply steps in Python not
at all, a divide once per residue class (g = 1, small k) or else once per
entry, which is faster at the widths used.  ``invert_unit``,
``mul_one_minus`` and ``div_one_minus`` are the one-call cases of these
two loops.  A coefficient is an exact rational, ``int | Fraction`` (never
a float or a bool): multiply-add keeps ints as ints, and only
``divide_unit`` divides, through Fraction, when the unit's constant term
is not +-1.

The enumeration kernel ``window_diff_counts``, a walk by spread, walks
partition trees once per call and accumulates exact integer counts, so
results are arbitrary precision by construction.  It lists, for each
largest part L, every multiset of interior values (strictly between the
smallest part lo and L) once, after one copy of L; running sums along the
residue classes mod lo and mod L then count the copies of both end parts.
Those sums are written inline in the walk and merge prefixes of equal
total only for the end parts, whose copies change neither the spread nor
the distinct count, so the oracles share no code with the coefficient
kernels and never become a DP over the product formula they are meant to
check: no interior factor is applied in bulk.
``all_partition_weighted_counts`` sums the table of one such walk, at a
spread bound that no partition of n_max or less exceeds.

A request scope (:class:`RequestScope`), which ``identities.run_checks``
opens with its spread bound t_max, holds the tables its checks share: the
oracles' walk, the part-sum passes and the ``gf_pbar`` and ``gf_G`` series.
:func:`shared` makes each once per key, on its first read, and every table
goes when the scope closes, even on an error.  A table with one row per
spread bound is made at the bound :func:`bound` gives its read: inside a
scope at least t_max, so one walk and one pass serve every t in any order.
Its builder clamps that bound to the last row that differs, and the reader
takes row min(t, last).  Outside a scope each call makes its table at its
own size.
"""

from itertools import accumulate, repeat
from operator import add, mul, sub

# The one kernel backend; reported by tools that record where time goes.
BACKEND = "pure"


def convolve(a, b, n_out):
    """Truncated Cauchy product: out[k] = sum_{i+j=k} a[i]*b[j], k < n_out.

    Scatter form, driven by the operand with fewer nonzeros: each of its
    nonzero entries a[i] adds a[i]*b[:m] into out[i:i+m] in one map, so
    the Python loop runs once per nonzero and skips the zeros of sparse
    factors such as q^r/(1-q^r).  The sum is exact; with int operands the
    result is all ints, and with Fraction operands an entry that gets no
    Fraction product stays an int.
    """
    if sum(map(bool, a[:n_out])) > sum(map(bool, b[:n_out])):
        a, b = b, a
    out = [0] * n_out
    lb = len(b)
    for i in range(min(len(a), n_out)):
        ai = a[i]
        if ai:
            j = i + min(lb, n_out - i)
            out[i:j] = map(add, out[i:j], map(mul, repeat(ai), b))
    return out


def divide_unit(a, c, n_out):
    """Quotient by a unit: (c * out)[k] = a[k] (0 past the end of a), k < n_out.

    Requires c[0] != 0 and n_out >= 1 (entry 0 is always computed).
    Entry k is r = a[k] - sum_{i>=1} c[i]*out[k-i] over the nonzero c[i]
    only, divided by c[0]: when c[0] is +-1 that is a sign change, so int
    input gives int output; any other c[0] divides through Fraction.  An
    entry with r == 0 is 0 * c[0], a zero of c[0]'s type.  The loop steps
    once per output entry and keeps its sum inside ``sum``.
    """
    c0 = c[0]
    unit = c0 == 1 or c0 == -1
    if not unit:
        from fractions import Fraction
    la = len(a)
    nz = [i for i in range(1, min(len(c), n_out)) if c[i]]
    vals = [c[i] for i in nz]
    out = []
    used = 0  # nz[:used] are the indices i <= k
    for k in range(max(n_out, 1)):
        if used < len(nz) and nz[used] == k:
            used += 1
        back = map(out.__getitem__, map(k.__sub__, nz[:used]))  # out[k - i]
        s = sum(map(mul, vals[:used], back))
        r = a[k] - s if k < la else -s
        if not r:
            out.append(0 * c0)
        elif unit:
            out.append(r * c0)  # r / c0 for c0 = +-1
        else:
            out.append(Fraction(r, c0))
    return out


def invert_unit(c, n_out):
    """Reciprocal of a unit: (c * out)[k] = (k == 0), for k < n_out.

    The quotient of the series 1 by c; see :func:`divide_unit`.
    """
    return divide_unit((1,), c, n_out)


def one_minus_chain(c, factors):
    """c times (1 - g*q^k)**e for each (g, k, e) in order, e = +1 to
    multiply and -1 to divide, every k >= 1; length preserved.

    c is copied once and each factor is applied to the copy in place.  A
    multiply is one map over the shifted copy: the right side is built in
    full before the slice is written, so it reads only old entries.  A
    divide is valid whenever the true quotient has no terms below the
    window start, which holds for every unit divisor of this shape:
    out[i] = out[i] + g*out[i-k] is a running sum along each residue class
    mod k.  For g = 1 and k*k < n each class takes one accumulate.
    Otherwise the loop runs once per entry and skips zero terms: at window
    widths up to a few hundred it beats a map over blocks of k entries,
    whose per-block slices cost more than the n/k steps save.
    """
    out = list(c)
    n = len(out)
    for g, k, e in factors:
        if e > 0:
            if g == 1:
                out[k:] = map(sub, out[k:], out)
            elif g == -1:
                out[k:] = map(add, out[k:], out)
            else:
                out[k:] = map(sub, out[k:], map(mul, repeat(g), out))
        elif g == 1 and k * k < n:
            for r in range(k):
                out[r::k] = accumulate(out[r::k])
        elif g == 1:
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


def mul_one_minus(c, g, k):
    """Multiply by the exact factor (1 - g*q^k), k >= 1; length preserved."""
    return one_minus_chain(c, ((g, k, 1),))


def div_one_minus(c, g, k):
    """Divide by the exact factor (1 - g*q^k), k >= 1; length preserved."""
    return one_minus_chain(c, ((g, k, -1),))


def window_diff_counts(n_max, t):
    """Partition counts by exact spread and number of distinct part values.

    Returns c with c[s][d][n] the number of partitions of n (1 <= n <= n_max)
    with spread (largest part minus smallest) exactly s and d distinct part
    values, for 0 <= s <= t.  Row c[s] holds d = 0..min(s + 1, d_max), where
    d_max is the largest d with d*(d+1)/2 <= n_max: no partition of n_max or
    less has more distinct values.  Entry n = 0 and row d = 0 are always 0,
    since the empty partition has no smallest part.

    The walk runs largest part first, in the reverse-lexicographic order of
    Knuth, TAOCP 7.2.1.4.  For each largest part L it lists every multiset
    of interior values, strictly between lo = max(1, L - t) and L, each
    value with multiplicity >= 1, after one copy of L: a value v adds 1 to
    row (L - v, d) of a table local to L per multiplicity, so each of these
    prefixes (L, then interior values) is recorded once, by its total, in
    the row of its last value.  The values lo + 2 and lo + 1 are listed in
    the loops over their multiplicities, without a call each.

    Both end parts are counted in bulk, by running sums along residue
    classes.  The further copies of L: one sum mod L over each local row
    adds every entry at total + L, total + 2*L, ... <= n_max, and the row
    is then added into c.  The parts of size lo: the local rows, summed over
    the spread, give the prefixes (with any number of copies of L) by total
    and distinct count, and one sum mod lo adds each at total + lo,
    total + 2*lo, ... to c[L - lo].  Prefixes of equal total are merged
    only there, for the two end parts, whose copies change neither the
    spread nor the distinct count; every interior multiset is still listed
    on its own, so the table comes from listing partitions and not from a
    product formula.  Only the local rows that a partition of n_max or less
    can reach are made.

    Each partition with spread at most t is counted once, in one entry, so
    any statistic of (spread, distinct values) follows by weighted sums
    over the rows.
    """
    d_max = 0
    while (d_max + 1) * (d_max + 2) // 2 <= n_max:
        d_max += 1
    acc = [
        [[0] * (n_max + 1) for _ in range(min(s + 1, d_max) + 1)]
        for s in range(t + 1)
    ]

    for L in range(1, n_max + 1):
        row = acc[0][1]
        for tot in range(L, n_max + 1, L):
            row[tot] += 1
        lo = L - t if L > t else 1
        lim = n_max - lo
        if lo == L or L > lim:
            continue  # no smaller part fits below L

        # d_hi[s]: the most distinct values of a partition of n_max or less
        # with largest part L and smallest L - s, whose cheapest values
        # are L, L - s, L - s + 1, ...; 1 when L - s does not fit.
        d_hi = [None]
        for s in range(1, L - lo + 1):
            d, need = 1, L
            while d <= s and need + L - s + d - 1 <= n_max:
                need += L - s + d - 1
                d += 1
            d_hi.append(d)
        # loc[s][d]: the local rows, d = 2..d_hi[s].  The other places hold
        # None, which nothing writes or reads: a spare last place lets the
        # v = lo + 2 loop look up the row of lo + 1 before it knows that
        # anything fits in it.
        loc = [None] + [
            [None, None, *([0] * (n_max + 1) for _ in range(d_hi[s] - 1)), None]
            for s in range(1, L - lo)
        ]
        lo1 = lo + 1
        lo2 = lo + 2

        def rec(last, total, nd):
            # Add each value in (lo, last) that fits, largest first; a call
            # is made only when lo still fits.
            nd += 1
            top = n_max - total
            if top >= last:
                top = last - 1
            for v in range(top, lo2, -1):
                row = loc[L - v][nd]
                for tot in range(total + v, n_max + 1, v):
                    row[tot] += 1
                    if tot <= lim:
                        rec(v, tot, nd)
            if top >= lo2:
                # Below lo + 2 only lo + 1 and lo are left, so these
                # prefixes, and those that go on with lo + 1, are listed in
                # place instead of by a call each.
                row = loc[L - lo2][nd]
                row1 = loc[L - lo1][nd + 1]
                for tot in range(total + lo2, n_max + 1, lo2):
                    row[tot] += 1
                    for tot1 in range(tot + lo1, n_max + 1, lo1):
                        row1[tot1] += 1
            if top >= lo1:
                row = loc[L - lo1][nd]
                for tot in range(total + lo1, n_max + 1, lo1):
                    row[tot] += 1

        # One copy of L; smaller values are optional and strictly
        # decreasing, so each interior multiset is hit once.
        rec(L, L, 1)
        # One or more further copies of L: entry x of a local row gains the
        # entries at x - L, x - 2*L, ...; spread s starts at total 2*L - s.
        for s in range(1, L - lo):
            first = 2 * L - s
            for d in range(2, d_hi[s] + 1):
                row = loc[s][d]
                for x in range(first + L, n_max + 1):
                    row[x] += row[x - L]
                out = acc[s][d]
                out[first:] = map(add, out[first:], row[first:])
        # One or more parts of size lo after each prefix that leaves room
        # for one: the local rows, now with every number of copies of L,
        # give st[x - L], the prefixes with d distinct values at total x;
        # then st[x - L] becomes the number at x, x - lo, x - 2*lo, ...,
        # and each of them reaches x + lo.
        rows = acc[L - lo]
        for d in range(1, d_hi[L - lo]):
            st = [0] * (lim + 1 - L)
            if d == 1:
                st[::L] = [1] * len(st[::L])  # L alone
            else:
                for s in range(1, L - lo):
                    if d <= d_hi[s]:
                        st[:] = map(add, st, loc[s][d][L : lim + 1])
            for x in range(lo, len(st)):
                st[x] += st[x - lo]
            row = rows[d + 1]
            row[L + lo :] = map(add, row[L + lo :], st)
    return acc


def all_partition_weighted_counts(n_max):
    """Overpartition totals: entry n is sum over partitions of 2**distinct.

    Entry 0 counts the empty partition once.  No constraint on parts.
    Every partition of n <= n_max has spread below n_max, so one
    :func:`window_diff_counts` table at bound n_max - 1 counts them all,
    and the totals are its rows summed at weight 2**d.
    """
    acc = [0] * (n_max + 1)
    for rows in window_diff_counts(n_max, max(n_max - 1, 0)):
        for d in range(1, len(rows)):
            acc[:] = map(add, acc, map(mul, repeat(1 << d), rows[d]))
    acc[0] = 1
    return acc


# -- the request scope -------------------------------------------------------------


_scope = None  # the open RequestScope, or None


class RequestScope:
    """The shared tables of one request with spread bound t_max, open for the
    block of a ``with`` statement: each is made once per key and held until
    the block ends."""

    def __init__(self, t_max):
        self.t_max = t_max
        self.tables = {}

    def __enter__(self):
        global _scope
        if _scope is not None:
            raise RuntimeError("a request scope is already open")
        _scope = self
        return self

    def __exit__(self, *exc_info):
        global _scope
        _scope = None


def bound(t):
    """The spread bound to make a table read at t with: t outside a request
    scope, and at least the scope's t_max inside one, so that one table
    serves every t of the request."""
    return t if _scope is None else max(t, _scope.t_max)


def shared(name, build, *args):
    """build(*args), made once per (name, *args) inside a request scope and
    held until it closes; outside one, a plain call."""
    scope = _scope
    if scope is None:
        return build(*args)
    key = (name, *args)
    table = scope.tables.get(key)
    if table is None:
        table = scope.tables[key] = build(*args)
    return table
