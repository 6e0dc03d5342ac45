"""Exact q-series toolkit for overpartition counting with bounded part spread.

The package has seven modules:

* :mod:`overq.kernels` -- the hot inner loops: coefficient products, unit
  inversion, one-minus factors and the spread walk.
* :mod:`overq.series` -- truncated Laurent series over exact rationals.
* :mod:`overq.qfunctions` -- Pochhammer symbols, the over q-binomials and a
  basic hypergeometric series evaluator.
* :mod:`overq.enumeration` -- the formula-free oracles: spread statistics,
  overpartition totals and the over q-binomial box walk.
* :mod:`overq.reports` -- the verification report types and the one helper
  that turns ordered series comparisons into a pass or fail report.
* :mod:`overq.identities` -- generating functions and identity checks that
  pit closed forms against direct sums and the oracles.
* :mod:`overq.cli` -- the ``overq`` command (table / verify / coeff).
"""

__version__ = "0.1.0"
