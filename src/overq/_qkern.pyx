# cython: language_level=3
"""Compiled coefficient and enumeration kernels.

Same contracts as overq._qkern_py, which documents them; the spread walk
window_diff_counts lives only there.  Coefficient values stay Python
objects, int | Fraction (never float or bool), so everything is exact and
arbitrary precision: ints stay ints, and invert_unit divides through
Fraction only when the unit's constant term is not +-1.  The speedup comes
from typed loop indices and C-level recursion in the partition walks.
"""

from fractions import Fraction


def convolve(a, b, Py_ssize_t n_out):
    cdef Py_ssize_t la = len(a)
    cdef Py_ssize_t lb = len(b)
    cdef Py_ssize_t k, i, lo, hi
    cdef list out = []
    cdef object s, ai
    for k in range(n_out):
        lo = k - lb + 1
        if lo < 0:
            lo = 0
        hi = k + 1
        if hi > la:
            hi = la
        s = 0
        for i in range(lo, hi):
            ai = a[i]
            if ai:
                s = s + ai * b[k - i]
        out.append(s)
    return out


def invert_unit(c, Py_ssize_t n_out):
    cdef object c0 = c[0]
    cdef bint unit = c0 == 1 or c0 == -1
    cdef object neg = -c0
    cdef Py_ssize_t lc = len(c)
    cdef Py_ssize_t k, i, hi
    cdef object s, ci
    cdef list out = [c0 if unit else Fraction(1, c0)]
    for k in range(1, n_out):
        hi = k + 1
        if hi > lc:
            hi = lc
        s = 0
        for i in range(1, hi):
            ci = c[i]
            if ci:
                s = s + ci * out[k - i]
        if not s:
            out.append(0 * c0)
        elif unit:
            out.append(s * neg)
        else:
            out.append(Fraction(-s, c0))
    return out


def mul_one_minus(c, g, Py_ssize_t k):
    cdef Py_ssize_t n = len(c)
    cdef Py_ssize_t i
    cdef list out = list(c)
    cdef object prev
    if g == 1:
        for i in range(n - 1, k - 1, -1):
            prev = c[i - k]
            if prev:
                out[i] = out[i] - prev
    elif g == -1:
        for i in range(n - 1, k - 1, -1):
            prev = c[i - k]
            if prev:
                out[i] = out[i] + prev
    else:
        for i in range(n - 1, k - 1, -1):
            prev = c[i - k]
            if prev:
                out[i] = out[i] - g * prev
    return out


def div_one_minus(c, g, Py_ssize_t k):
    cdef Py_ssize_t n = len(c)
    cdef Py_ssize_t i
    cdef list out = list(c)
    cdef object prev
    if g == 1:
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


cdef void _box_rec(list acc, int maxv, int slots, int total, object weight):
    cdef int v, m, tot
    cdef object w2
    for v in range(maxv, 0, -1):
        tot = total
        w2 = weight * 2
        for m in range(1, slots + 1):
            tot += v
            acc[tot] = acc[tot] + w2
            if m < slots and v > 1:
                _box_rec(acc, v - 1, slots - m, tot, w2)


def box_weighted_counts(int max_part, int max_parts):
    cdef int cap = max_part * max_parts
    cdef list acc = [0] * (cap + 1)
    acc[0] = 1
    if max_part >= 1 and max_parts >= 1:
        _box_rec(acc, max_part, max_parts, 0, 1)
    return acc


cdef void _all_rec(list acc, int n_max, int maxv, int total, object weight):
    cdef int v, tot, top
    cdef object w2
    top = n_max - total
    if top > maxv:
        top = maxv
    for v in range(top, 0, -1):
        tot = total
        w2 = weight * 2
        while True:
            tot += v
            if tot > n_max:
                break
            acc[tot] = acc[tot] + w2
            if v > 1:
                _all_rec(acc, n_max, v - 1, tot, w2)


def all_partition_weighted_counts(int n_max):
    cdef list acc = [0] * (n_max + 1)
    acc[0] = 1
    if n_max >= 1:
        _all_rec(acc, n_max, n_max, 0, 1)
    return acc
