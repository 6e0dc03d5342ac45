"""The precision contract of every series builder, as one table checked by
one property.

A builder here is f(t, prec): a spread bound, box width or length t and a
precision.  The ``overq.series`` docstring states the contract; each row of
``ROWS`` gives what the contract leaves to the builder:

* its t domain, from ``t_min`` (to ``t_max`` when the domain is finite),
  and the exact error ``below`` that t = t_min - 1 raises;
* ``start(t)``, 0 unless given: at prec p the window is
  [min(start(t), p), p), so every builder gives the empty window [p, p)
  below prec 1;
* ``clamp(p)``: at prec p, the smallest t from which no larger t changes
  the series or applies more one-minus factors.  A huge t, ``huge``, must
  give the series of t = clamp(p) at no more factor applications, counted
  at ``kernels.one_minus_chain``, which ``kernels.mul_one_minus`` and
  ``div_one_minus`` reach as a module global.  ``clamp`` is None when the
  domain is finite.

The property draws t and P <= 40.  At every p in [-2, P] it checks the
window and that f(t, P).truncate(p) == f(t, p).  At P it checks the error
below the domain and the clamp: the series does not change past it, and
at clamp(P) - 1 either the series differs or fewer factors are applied.
"""

from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overq import kernels
from overq.identities import (
    _case_two_direct,
    gf_abr,
    gf_bk,
    gf_G,
    gf_g_direct,
    gf_overline_total,
    gf_p_exact_low,
    gf_pbar,
    gf_pbar_direct,
    lambert_divisor,
)
from overq.qfunctions import (
    NonconvergentProductError,
    over_qbinom_ladder,
    over_qbinom_sum,
    pochhammer,
    pochhammer_inf,
)
from overq.series import QMonomial

BOX_HEIGHT = 4  # the over q-binomial rows read boxes t x BOX_HEIGHT


class Row(NamedTuple):
    build: Callable
    t_min: int
    below: Exception | None
    clamp: Callable | None = None
    start: Callable = lambda t: 0
    t_max: int | None = None
    huge: int = 10**9


ROWS = {
    "gf_G": Row(gf_G, 1, ValueError("gf_G needs t >= 1, got 0"),
                clamp=lambda p: max(p - 1, 1)),
    # t = 0 is twice the divisor series, whose window starts at 1.
    "gf_pbar": Row(gf_pbar, 0, ValueError("gf_pbar needs t >= 0, got -1"),
                   clamp=lambda p: max(p - 1, 1) if p > 0 else 0,
                   start=lambda t: 0 if t else 1),
    "gf_bk": Row(gf_bk, 1, ValueError("gf_bk needs t >= 1, got 0"),
                 clamp=lambda p: max(p - 2, 1)),
    # Spread t needs n >= t + 2, and the window starts at t - 1 however
    # small prec is; so the clamp is t = prec + 1, past prec.
    "gf_abr": Row(gf_abr, 2, ValueError("gf_abr needs t >= 2, got 1"),
                  clamp=lambda p: max(p + 1, 2), start=lambda t: t - 1),
    "gf_p_exact_low": Row(
        gf_p_exact_low, 0,
        ValueError("gf_p_exact_low covers t in {0, 1}, got -1"),
        start=lambda t: 1, t_max=1),
    "gf_overline_total": Row(lambda t, p: gf_overline_total(p), 0, None,
                             t_max=0),
    "lambert_divisor": Row(lambda t, p: lambert_divisor(p), 0, None,
                           start=lambda t: 1, t_max=0),
    "gf_pbar_direct": Row(
        gf_pbar_direct, 0, ValueError("gf_pbar_direct needs t >= 0, got -1"),
        clamp=lambda p: max(p - 3, 0)),
    "gf_g_direct": Row(
        gf_g_direct, 1, ValueError("gf_g_direct needs t >= 1, got 0"),
        clamp=lambda p: max(p - 2, 1)),
    # Private: check_three_cases reads it at t >= 1 only, unchecked.
    "_case_two_direct": Row(_case_two_direct, 1, None,
                            clamp=lambda p: max(p - 2, 1)),
    "over_qbinom_sum": Row(
        lambda m, p: over_qbinom_sum(m, BOX_HEIGHT, p), 0,
        ValueError("q-binomial indices must be >= 0"),
        clamp=lambda p: max(p - 1, 0)),
    "over_qbinom_ladder": Row(
        lambda m, p: over_qbinom_ladder(m, BOX_HEIGHT, p), 0,
        ValueError("q-binomial indices must be >= 0"),
        clamp=lambda p: max(p - 1, 0)),
    # (-q;q)_n.  Its loop steps once per factor, even past the window, so
    # a huge n costs n steps (but no more kernel factors): huge is 10**5.
    "pochhammer": Row(
        lambda n, p: pochhammer(QMonomial(-1, 1), n, p), 0,
        ValueError("Pochhammer length must be >= 0"),
        clamp=lambda p: max(p - 1, 0), huge=10**5),
    # (-q^t;q)_oo.
    "pochhammer_inf": Row(
        lambda t, p: pochhammer_inf(QMonomial(-1, t), p), 1,
        NonconvergentProductError(
            "(a;q)_oo needs a with positive exponent, got -1"),
        clamp=lambda p: max(p, 1)),
}


def applied(build, t, prec):
    """build(t, prec) and the number of one-minus factors it applied."""
    chain = kernels.one_minus_chain
    count = 0

    def counted(c, factors):
        nonlocal count
        factors = list(factors)
        count += len(factors)
        return chain(c, factors)

    kernels.one_minus_chain = counted
    try:
        return build(t, prec), count
    finally:
        kernels.one_minus_chain = chain


@pytest.mark.parametrize("name", ROWS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_builder_keeps_its_precision_contract(name, data):
    row = ROWS[name]
    f = row.build
    t_max = row.t_min + 45 if row.t_max is None else row.t_max
    t = data.draw(st.integers(row.t_min, t_max), label="t")
    top = data.draw(st.integers(-2, 40), label="P")

    whole = f(t, top)
    for p in range(-2, top + 1):
        s = f(t, p)
        assert (s.lo, s.prec) == (min(row.start(t), p), p), p
        assert len(s.coeffs) == p - s.lo, p
        assert whole.truncate(p) == s, p

    if row.below is not None:
        with pytest.raises(type(row.below)) as raised:
            f(row.t_min - 1, top)
        assert str(raised.value) == str(row.below)

    if row.clamp is not None:
        c = row.clamp(top)
        huge, huge_n = applied(f, row.huge, top)
        at_c, c_n = applied(f, c, top)
        assert huge == at_c and huge_n <= c_n, (c, huge_n, c_n)
        if t >= c:
            assert whole == at_c
        if c > row.t_min:
            before, before_n = applied(f, c - 1, top)
            assert before != huge or before_n < huge_n, c
