"""Kernel backend selection.

The hot inner loops (Cauchy products, unit inversion, binomial-factor
sweeps, the box and totals partition walks) live twice: compiled in
``overq._qkern`` and in pure Python in ``overq._qkern_py``.  Both expose
the same functions and produce identical exact results; this module picks
one at import time.  The spread walk ``window_diff_counts`` exists only in
pure Python and is bound to it whatever the backend.

Set OVERQ_KERNEL=pure or OVERQ_KERNEL=compiled to force a backend
(``compiled`` raises ImportError when the extension is missing); the
default ``auto`` prefers the compiled module and falls back silently.
"""

import os

from . import _qkern_py

_choice = os.environ.get("OVERQ_KERNEL", "auto").lower()
if _choice not in ("auto", "pure", "compiled"):
    raise ValueError(
        f"OVERQ_KERNEL must be auto, pure or compiled, not {_choice!r}"
    )

if _choice == "pure":
    _impl = _qkern_py
else:
    try:
        from . import _qkern as _impl  # type: ignore[no-redef]
    except ImportError:
        if _choice == "compiled":
            raise
        _impl = _qkern_py

BACKEND = "pure" if _impl is _qkern_py else "compiled"

convolve = _impl.convolve
invert_unit = _impl.invert_unit
mul_one_minus = _impl.mul_one_minus
div_one_minus = _impl.div_one_minus
box_weighted_counts = _impl.box_weighted_counts
window_diff_counts = _qkern_py.window_diff_counts
all_partition_weighted_counts = _impl.all_partition_weighted_counts
