"""Exact truncated Laurent series over arbitrary-precision rationals.

A :class:`QSeries` stores the coefficients of exponents in a half-open
window ``[lo, prec)``.  Coefficients below ``lo`` are exactly zero by
contract; coefficients at ``prec`` and above are unspecified.  Every
operation is pure: values are immutable and results are new objects whose
window is the largest one the inputs can justify.

There is no floating point anywhere in this module.  A coefficient is an
exact rational, ``int | Fraction``: ints stay plain ints through every ring
operation, and a :class:`fractions.Fraction` appears only after a true
division: a unit inverse whose constant term is not +-1, a reciprocal 1/g
with g != +-1, or a Fraction supplied by the caller (such as a 1/2
scalar).  Floats and bools are rejected outright.

Coefficient types are checked once, where outside values enter:
``QSeries(...)``, :func:`from_terms` and :func:`monomial`, the scalars of
:meth:`QSeries.scale` and :meth:`QSeries.times_monomial`,
:class:`QMonomial`, and the ``g`` of :func:`mul_one_minus`,
:func:`div_one_minus` and :func:`one_minus_product`.  Ring operations on
checked values can only give ints and Fractions, so their results are
stored unchecked.  Exponents must be ints: a float exponent raises
TypeError and is never rounded.

Builders with many factors or summands do not go through one immutable
value per step: :func:`one_minus_product` applies a whole product of
one-minus factors (1 - g*q^k)**e, k any integer, in one kernel call, after
cancelling inverse factors when everything is an int
(:func:`one_minus_chain` does the same on a plain coefficient list),
:func:`div` solves for a quotient by a unit directly, and the part sums of
:mod:`.identities` add their summands into one int list that is wrapped
once.  A factor with k <= 0 is rewritten as a scalar, a window shift and a
factor with k >= 1 in one place, :func:`one_minus_chain`, which
:func:`mul_one_minus`, :func:`div_one_minus` and the terms of
:func:`.qfunctions.phi` all reach.

Every builder of a series in the package, f(t, prec) with t a spread
bound, box width or exponent, keeps one precision contract.  Its window is
[min(s, prec), prec) for a start s >= 0 of its own; so below prec 1 the
window is empty, as :func:`one`'s is.  It truncates consistently: f(t, P)
cut to prec p <= P is f(t, p), window included.  And past a clamp that depends
on prec, a larger t neither changes the series nor applies more one-minus
factors, so a huge t costs no more than the clamp.  Each builder's t
domain, window start and clamp are listed in ``tests/test_contracts.py``,
and checked there as one property.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import repeat
from operator import add as _add, mul as _mul

from . import kernels


def __getattr__(name):
    # ``Rational = int | Fraction`` is made on first use: importing
    # ``fractions`` also imports ``decimal``, and most requests never see a
    # Fraction.  Annotations here are strings and never look it up.
    if name == "Rational":
        from fractions import Fraction

        return int | Fraction
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class QSeriesError(Exception):
    """Base class for all series-arithmetic errors."""


class WindowViolationError(QSeriesError):
    """A term was supplied at or above the requested precision."""


class PrecisionExceededError(QSeriesError):
    """A coefficient beyond the known window was requested."""


class EmptyWindowError(QSeriesError):
    """The operation needs at least one known coefficient."""


class NotInvertibleError(QSeriesError):
    """Inversion failed: every known coefficient is zero."""


def _coerce(value) -> Rational:
    """Check a coefficient is an exact rational: an int stays a plain int,
    a Fraction stays a Fraction.  Floats, bools and every other type raise
    TypeError."""
    if type(value) is int:
        return value
    from fractions import Fraction

    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise TypeError("exact rational required, got bool")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"exact rational required, got {type(value).__name__}")


def _exponent(e) -> int:
    """Check an exponent is an int; a float such as 2.5 is never rounded."""
    if not isinstance(e, int):
        raise TypeError(f"exponent must be an int, got {type(e).__name__}")
    return int(e)


def _div(num: Rational, den: Rational) -> Rational:
    """Exact num / den.  Division by +-1 is a sign change and keeps the
    operand types; any other divisor goes through Fraction."""
    if den == 1 or den == -1:
        return num * den
    from fractions import Fraction

    return Fraction(num, den)


class QMonomial:
    """A single exact term coeff * q^exp with coeff != 0."""

    __slots__ = ("coeff", "exp")

    coeff: Rational
    exp: int

    def __init__(self, coeff: Rational, exp: int):
        coeff = _coerce(coeff)
        if coeff == 0:
            raise ValueError("QMonomial coefficient must be nonzero")
        if not isinstance(exp, int):
            raise TypeError("QMonomial exponent must be an int")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name, value):
        raise AttributeError("QMonomial is immutable")

    def __mul__(self, other: "QMonomial") -> "QMonomial":
        return QMonomial(self.coeff * other.coeff, self.exp + other.exp)

    def __truediv__(self, other: "QMonomial") -> "QMonomial":
        return QMonomial(_div(self.coeff, other.coeff), self.exp - other.exp)

    def __str__(self):
        return _term_str(self.coeff, self.exp)


class QSeries:
    """Window of known coefficients of a Laurent series in q."""

    __slots__ = ("lo", "prec", "coeffs")

    lo: int
    prec: int
    coeffs: tuple[Rational, ...]

    def __init__(self, lo: int, prec: int, coeffs: Iterable[Rational]):
        cs = tuple(_coerce(c) for c in coeffs)
        if lo > prec:
            raise ValueError(f"window start {lo} exceeds prec {prec}")
        if len(cs) != prec - lo:
            raise ValueError(
                f"window [{lo}, {prec}) needs {prec - lo} coefficients, got {len(cs)}"
            )
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    # -- construction shortcut for internal use (coeffs already exact) -----

    @classmethod
    def _make(cls, lo: int, prec: int, coeffs) -> "QSeries":
        self = object.__new__(cls)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        return self

    # -- queries -----------------------------------------------------------

    def coeff(self, e: int) -> Rational:
        """Coefficient of q^e.  Exact zero below the window; error above it.

        Raises:
            PrecisionExceededError: if e >= prec, where the value is unknown.
        """
        if e >= self.prec:
            raise PrecisionExceededError(
                f"coefficient of q^{e} requested, but only exponents below "
                f"{self.prec} are known"
            )
        if e < self.lo:
            return 0
        return self.coeffs[e - self.lo]

    def valuation(self) -> int | None:
        """Exponent of the first nonzero known coefficient, or None."""
        for i, c in enumerate(self.coeffs):
            if c:
                return self.lo + i
        return None

    # -- window adjustments --------------------------------------------------

    def truncate(self, prec: int) -> "QSeries":
        """Shrink the window to [lo, min(prec, self.prec)); never widens."""
        new_prec = min(self.prec, prec)
        if new_prec < self.lo:
            return QSeries._make(new_prec, new_prec, ())
        return QSeries._make(self.lo, new_prec, self.coeffs[: new_prec - self.lo])

    def pad_exact(self, prec: int) -> "QSeries":
        """Widen the window with zeros: the caller asserts this series is an
        exact polynomial with no terms at self.prec or above."""
        if prec <= self.prec:
            return self.truncate(prec)
        return QSeries._make(
            self.lo, prec, self.coeffs + (0,) * (prec - self.prec)
        )

    # -- arithmetic ----------------------------------------------------------

    def scale(self, r: Rational) -> "QSeries":
        r = _coerce(r)
        return QSeries._make(self.lo, self.prec, map(_mul, repeat(r), self.coeffs))

    def times_monomial(self, coeff: Rational, exp: int) -> "QSeries":
        """Multiply by the exact term coeff * q^exp; the window shifts."""
        c = _coerce(coeff)
        return QSeries._make(
            self.lo + exp, self.prec + exp, map(_mul, repeat(c), self.coeffs)
        )

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.lo == other.lo
            and self.prec == other.prec
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            term = _term_str(c, self.lo + i)
            if parts:
                parts.append(f"- {term[1:]}" if term.startswith("-") else f"+ {term}")
            else:
                parts.append(term)
        body = " ".join(parts) if parts else "0"
        return f"QSeries({body} + O(q^{self.prec}))"


def _term_str(c: Rational, e: int) -> str:
    if e == 0:
        return str(c)
    q = "q" if e == 1 else f"q^{e}"
    if c == 1:
        return q
    if c == -1:
        return f"-{q}"
    return f"{c}*{q}"


class MismatchInfo(tuple):
    """First disagreeing coefficient found by equal_to_order: the tuple
    (exponent, lhs, rhs), whose items are also read by those names."""

    __slots__ = ()

    def __new__(cls, exponent: int, lhs: Rational, rhs: Rational):
        return tuple.__new__(cls, (exponent, lhs, rhs))

    exponent = property(lambda self: self[0])
    lhs = property(lambda self: self[1])
    rhs = property(lambda self: self[2])


# -- constructors -------------------------------------------------------------


def from_terms(terms: Iterable[tuple[int, Rational]], prec: int) -> QSeries:
    """Build a series from (exponent, coefficient) pairs, known to O(q^prec).

    Duplicate exponents accumulate.  With no terms the window is
    [min(0, prec), prec), a zero series.

    Raises:
        TypeError: if an exponent is not an int.
        WindowViolationError: if any exponent is >= prec.
    """
    pairs = [(_exponent(e), _coerce(c)) for e, c in terms]
    for e, _ in pairs:
        if e >= prec:
            raise WindowViolationError(
                f"term at q^{e} lies at or above the requested prec {prec}"
            )
    lo = min((e for e, _ in pairs), default=min(0, prec))
    coeffs = [0] * (prec - lo)
    for e, c in pairs:
        coeffs[e - lo] += c
    return QSeries._make(lo, prec, coeffs)


def zero(prec: int) -> QSeries:
    return from_terms([], prec)


def one(prec: int) -> QSeries:
    """The series 1 to O(q^prec); the empty window at prec < 1."""
    return from_terms([(0, 1)] if prec > 0 else [], prec)


def monomial(coeff: Rational, exp: int, prec: int) -> QSeries:
    return from_terms([(exp, coeff)], prec)


def geometric(k: int, prec: int) -> QSeries:
    """1 / (1 - q^k) = sum_{j>=0} q^{jk}, for k >= 1."""
    if k < 1:
        raise ValueError("geometric stride must be >= 1")
    coeffs = [0] * max(prec, 0)
    for j in range(0, max(prec, 0), k):
        coeffs[j] = 1
    return QSeries._make(0, max(prec, 0), coeffs)


# -- the ring operations -------------------------------------------------------


def add(a: QSeries, b: QSeries) -> QSeries:
    """Sum on the common window [min(lo), min(prec)).

    Below the later window start only the earlier series has terms, and
    x + 0 is x with its type, so that stretch is copied as it is.
    """
    if a.lo > b.lo:
        a, b = b, a
    prec = min(a.prec, b.prec)
    ac = a.coeffs
    n = max(prec - a.lo, 0)
    split = min(b.lo - a.lo, n)
    return QSeries._make(
        a.lo, prec, ac[:split] + tuple(map(_add, ac[split:n], b.coeffs))
    )


def mul(a: QSeries, b: QSeries) -> QSeries:
    """Product with the conservative window.

    The result is known on [lo_a + lo_b, min(prec_a + lo_b, prec_b + lo_a)):
    any term of the product below that bound involves only known
    coefficients of both factors.
    """
    lo = a.lo + b.lo
    prec = min(a.prec + b.lo, b.prec + a.lo)
    n_out = prec - lo
    if n_out <= 0:
        return QSeries._make(prec, prec, ())
    return QSeries._make(lo, prec, kernels.convolve(a.coeffs, b.coeffs, n_out))


def invert(a: QSeries) -> QSeries:
    """Reciprocal 1/a.

    With v the valuation of a inside its window, the result is known on
    [-v, prec - 2v): writing a = q^v * u with u a unit known to
    O(q^{prec-v}), the reciprocal of u is known to the same order and the
    q^{-v} shift costs another v of precision.

    Raises:
        EmptyWindowError: if the window holds no coefficients at all.
        NotInvertibleError: if every known coefficient is zero.
    """
    if a.prec == a.lo:
        raise EmptyWindowError("cannot invert a series with an empty window")
    v = a.valuation()
    if v is None:
        raise NotInvertibleError(
            "cannot invert: all coefficients in the known window are zero"
        )
    unit = a.coeffs[v - a.lo :]
    inv = kernels.invert_unit(unit, len(unit))
    return QSeries._make(-v, a.prec - 2 * v, inv)


def div(a: QSeries, b: QSeries) -> QSeries:
    """a / b, on the window of mul(a, invert(b)).

    When b starts at q^0 with the int constant term +-1, the quotient is
    solved for directly (``kernels.divide_unit``), with no reciprocal and
    no product: a step per output entry over the nonzeros of b only.
    Otherwise a / b is inversion followed by multiplication.
    """
    c0 = b.coeffs[0] if b.lo == 0 and b.prec > 0 else 0
    if type(c0) is int and (c0 == 1 or c0 == -1):
        prec = min(a.prec, b.prec + a.lo)
        n_out = prec - a.lo
        if n_out <= 0:
            return QSeries._make(prec, prec, ())
        return QSeries._make(a.lo, prec, kernels.divide_unit(a.coeffs, b.coeffs, n_out))
    return mul(a, invert(b))


def coeff(a: QSeries, e: int) -> Rational:
    return a.coeff(e)


def equal_to_order(a: QSeries, b: QSeries, order: int):
    """Compare all coefficients with exponent <= order.

    The two runs of coefficients from the lower window start up to q^order
    are compared as whole tuples; only when they differ does a Python loop
    look for the first mismatch.

    Returns:
        (True, None) when they agree, else (False, MismatchInfo) for the
        smallest disagreeing exponent.

    Raises:
        PrecisionExceededError: if either window ends at or below order.
    """
    if order >= a.prec or order >= b.prec:
        raise PrecisionExceededError(
            f"comparison up to q^{order} needs prec > {order} on both sides "
            f"(have {a.prec} and {b.prec})"
        )
    lo = min(a.lo, b.lo)
    run_a = _coeff_run(a, lo, order + 1)
    run_b = _coeff_run(b, lo, order + 1)
    if run_a == run_b:
        return True, None
    for i, (va, vb) in enumerate(zip(run_a, run_b)):
        if va != vb:
            return False, MismatchInfo(lo + i, va, vb)


def _coeff_run(a: QSeries, lo: int, stop: int) -> tuple[Rational, ...]:
    """Coefficients of q^lo .. q^(stop-1), for lo <= a.lo and stop <= a.prec."""
    return (0,) * max(min(a.lo, stop) - lo, 0) + a.coeffs[: max(stop - a.lo, 0)]


# -- exact binomial factors ------------------------------------------------------
#
# Multiplying or dividing by (1 - g*q^k) is exact and O(window), so products
# of such factors (Pochhammer symbols, partition generating functions) never
# pay the generic convolution cost.


def one_minus_chain(c, factors):
    """The coefficient list c times prod (1 - g*q^k)**e over the exact
    (g, k, e) in factors, e = +1 to multiply and -1 to divide, for any
    integer k, as (out, shift): the product's window is c's moved by
    shift.  out is c itself when no factor acts on it.

    This is the one place a factor with k <= 0 is rewritten: (1 - g) with
    k = 0 is a scalar, and 1 - g*q^k = -g*q^k * (1 - q^{-k}/g) with k < 0
    is a scalar, a shift by k and a factor with exponent -k >= 1.  The
    scalars are applied as one, after the one ``kernels.one_minus_chain``
    call over the factors with k >= 1.  Factors with g = 0 or k >= len(c)
    are 1 on the window and are dropped.  When every g and every entry of
    c is an int, each step is exact in ints and the steps commute, so a
    factor and its exact inverse, (g, k, +1) and (g, k, -1), cancel before
    the kernel call.  Otherwise the factors run as given, in order, so
    that every coefficient keeps the type it would get one factor at a
    time.

    Raises:
        NotInvertibleError: for a division by (1 - q^0), which is zero.
    """
    n = len(c)
    chain = []
    scalar = 1
    shift = 0
    for i, (g, k, e) in enumerate(factors):
        if not g:
            continue
        if k < 0:
            inv = _div(1, g)
            scalar *= -g if e > 0 else -inv
            shift += k * e
            g, k = inv, -k
        elif k == 0:
            if g == 1:
                if e < 0:
                    raise NotInvertibleError("division by (1 - q^0) which is zero")
                # The product is 0.  The factors before this one act first,
                # as they do one factor at a time, so each 0 keeps its type.
                head, moved = one_minus_chain(c, factors[:i])
                out, more = one_minus_chain([(1 - g) * x for x in head],
                                            factors[i + 1:])
                return out, moved + more
            scalar *= 1 - g if e > 0 else _div(1, 1 - g)
            continue
        if k < n:
            chain.append((g, k, e))
    net: dict = {}
    for g, k, e in chain:
        net[g, k] = net.get((g, k), 0) + (1 if e > 0 else -1)
    # Types are checked only when some factor would cancel.
    if (sum(map(abs, net.values())) < len(chain)
            and {type(f[0]) for f in chain} <= {int}
            and {int}.issuperset(map(type, c))):
        chain = [(g, k, 1 if e > 0 else -1)
                 for (g, k), e in net.items() for _ in range(abs(e))]
    out = kernels.one_minus_chain(c, chain) if chain else c
    # An int 1 changes nothing; a Fraction, even 1, makes every entry one.
    if scalar != 1 or type(scalar) is not int:
        out = list(map(_mul, repeat(scalar), out))
    return out, shift


def one_minus_product(
    a: QSeries, factors: Iterable[tuple[Rational, int, int]]
) -> QSeries:
    """a * prod (1 - g*q^k)**e over the (g, k, e) in factors, e = +1 to
    multiply and -1 to divide and k any integer, applied by one
    :func:`one_minus_chain` call, which copies the coefficients once; a
    factor with k < 0 moves the window by k (multiply) or -k (divide)."""
    out, shift = one_minus_chain(a.coeffs,
                                 [(_coerce(g), k, e) for g, k, e in factors])
    if out is a.coeffs and not shift:
        return a
    return QSeries._make(a.lo + shift, a.prec + shift, out)


def mul_one_minus(a: QSeries, g: Rational, k: int) -> QSeries:
    """a * (1 - g*q^k) for any integer k; the factor is exact."""
    return one_minus_product(a, ((g, k, 1),))


def div_one_minus(a: QSeries, g: Rational, k: int) -> QSeries:
    """a / (1 - g*q^k) for any integer k; the factor is exact."""
    return one_minus_product(a, ((g, k, -1),))
