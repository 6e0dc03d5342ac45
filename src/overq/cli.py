"""Command-line front end: tabulate counts, query coefficients, run checks.

Exit codes: 0 success (and, where applicable, all comparisons pass),
1 verification mismatch, 2 usage or domain error.  Tables and reports go
to standard out, diagnostics to standard error.

Every request is a fresh process, so start-up counts: ``json`` is imported
only where a JSON document is written, and nothing this module imports
pulls in ``dataclasses`` or ``inspect`` (``tests/test_startup.py``).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .enumeration import oracle_series
from .identities import (
    ALL_CHECKS,
    gf_G,
    gf_abr,
    gf_bk,
    gf_overline_total,
    gf_p_exact_low,
    gf_pbar,
    lambert_divisor,
    run_checks,
)
from .qfunctions import over_qbinom_sum
from .series import QSeries, Rational, coeff

TABLE_KINDS = ("pbar", "g", "p_bounded", "p_exact", "d", "overline_total")
COEFF_GFS = ("th1", "th2", "bk", "abr", "overline_total", "oqbinom")

_ORACLE_KIND = {
    "pbar": "pbar_t",
    "g": "g_t",
    "p_bounded": "p_t",
    "p_exact": "p_exact_t",
    "d": "d",
    "overline_total": "opbar_total",
}
_T_FREE = ("d", "overline_total")


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else str(value)
    return str(value)


def _json_value(value):
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else str(value)
    return value


# -- table -----------------------------------------------------------------------


def _formula_series(kind: str, t: int | None, prec: int) -> QSeries:
    if kind == "pbar":
        return gf_pbar(t, prec)
    if kind == "g":
        return gf_G(t, prec)
    if kind == "p_bounded":
        return gf_bk(t, prec)
    if kind == "p_exact":
        return gf_p_exact_low(t, prec) if t < 2 else gf_abr(t, prec)
    if kind == "d":
        return lambert_divisor(prec)
    return gf_overline_total(prec)


def _formula_values(kind: str, t: int | None, n_max: int) -> list[Rational]:
    s = _formula_series(kind, t, n_max + 1)
    return [coeff(s, n) for n in range(1, n_max + 1)]


def _oracle_values(kind: str, t: int | None, n_max: int) -> list[int]:
    s = oracle_series(_ORACLE_KIND[kind], t, n_max)
    return [int(coeff(s, n)) for n in range(1, n_max + 1)]


def _cmd_table(args: argparse.Namespace) -> int:
    if args.n_max < 1:
        return _usage_error(f"--n-max must be >= 1, got {args.n_max}")
    t = args.t
    if args.kind in _T_FREE:
        t = None
    elif t is None:
        return _usage_error(f"--t is required for kind {args.kind!r}")
    elif t < 0:
        return _usage_error(f"--t must be >= 0, got {t}")

    formula = oracle = None
    try:
        if args.source in ("formula", "both"):
            formula = _formula_values(args.kind, t, args.n_max)
        if args.source in ("oracle", "both"):
            oracle = _oracle_values(args.kind, t, args.n_max)
    except ValueError as exc:
        return _usage_error(str(exc))

    ns = range(1, args.n_max + 1)
    mismatch = False
    if args.source == "both":
        rows = []
        for i, n in enumerate(ns):
            match = formula[i] == oracle[i]
            mismatch = mismatch or not match
            rows.append((n, formula[i], oracle[i], match))
    else:
        values = formula if formula is not None else oracle
        rows = [(n, values[i]) for i, n in enumerate(ns)]

    if args.format == "csv":
        if args.source == "both":
            lines = ["n,formula,oracle,match"]
            lines += [
                f"{n},{_fmt(f)},{_fmt(o)},{'true' if m else 'false'}"
                for n, f, o, m in rows
            ]
        else:
            lines = ["n,value"] + [f"{n},{_fmt(v)}" for n, v in rows]
        print("\n".join(lines))
    else:
        import json

        if args.source == "both":
            out_rows = [
                {"n": n, "formula": _json_value(f), "oracle": _json_value(o),
                 "match": m}
                for n, f, o, m in rows
            ]
        else:
            out_rows = [{"n": n, "value": _json_value(v)} for n, v in rows]
        doc = {
            "kind": args.kind,
            "t": t,
            "n_max": args.n_max,
            "source": args.source,
            "rows": out_rows,
        }
        print(json.dumps(doc, indent=2))
    return 1 if mismatch else 0


# -- verify ----------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        reports = run_checks(
            args.check, args.t_max, args.order,
            inject_mismatch=args.inject_mismatch,
        )
    except ValueError as exc:
        return _usage_error(str(exc))
    if not reports:
        return _usage_error(
            f"no checks to run for {args.check!r} with --t-max {args.t_max}"
        )

    if args.format == "json":
        import json

        doc = {"order": args.order, "checks": [r.to_dict() for r in reports]}
        print(json.dumps(doc, indent=2))
    else:
        counts = {"pass": 0, "fail": 0, "error": 0}
        for r in reports:
            counts[r.status] += 1
            params = " ".join(f"{k}={v}" for k, v in sorted(r.check.params.items()))
            line = f"{r.status:<5} {r.check.name} {params}: {r.message}"
            if r.first_mismatch is not None:
                m = r.first_mismatch
                line += f" [q^{m.exponent}: {m.lhs} != {m.rhs}]"
            print(line)
        print(
            f"{len(reports)} checks: {counts['pass']} pass, "
            f"{counts['fail']} fail, {counts['error']} error"
        )
    return 0 if all(r.passed for r in reports) else 1


# -- coeff -----------------------------------------------------------------------


def _coeff_series(args: argparse.Namespace, prec: int) -> QSeries:
    gf = args.gf
    if gf == "overline_total":
        return gf_overline_total(prec)
    if gf == "oqbinom":
        if args.M is None or args.N is None:
            raise ValueError("--M and --N are required for --gf oqbinom")
        return over_qbinom_sum(args.M, args.N, prec=prec)
    if args.t is None:
        raise ValueError(f"--t is required for --gf {gf}")
    if gf == "th1":
        return gf_G(args.t, prec)
    if gf == "th2":
        return gf_pbar(args.t, prec)
    if gf == "bk":
        return gf_bk(args.t, prec)
    return gf_abr(args.t, prec)


def format_coeff(value: Rational) -> tuple[str, bool]:
    """Render an exact coefficient; the flag marks a non-integer value."""
    if value.denominator == 1:
        return str(value.numerator), False
    return str(value), True


def _cmd_coeff(args: argparse.Namespace) -> int:
    if args.n < 0:
        return _usage_error(f"--n must be >= 0, got {args.n}")
    try:
        series = _coeff_series(args, args.n + 1)
    except ValueError as exc:
        return _usage_error(str(exc))
    text, non_integer = format_coeff(coeff(series, args.n))
    print(text)
    if non_integer:
        print(
            "warning: coefficient is not an integer; this indicates a bug",
            file=sys.stderr,
        )
        return 1
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overq",
        description="Tabulate, query and verify spread-bounded partition counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print a table of counts")
    p_table.add_argument("--kind", required=True, choices=TABLE_KINDS)
    p_table.add_argument(
        "--t", type=int, default=None,
        help="spread parameter (ignored for d and overline_total)",
    )
    p_table.add_argument("--n-max", type=int, required=True)
    p_table.add_argument(
        "--source", choices=("formula", "oracle", "both"), default="formula"
    )
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(func=_cmd_table)

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument(
        "--check", required=True, choices=ALL_CHECKS + ("all",)
    )
    p_verify.add_argument("--t-max", type=int, default=8)
    p_verify.add_argument("--order", type=int, default=60)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument(
        "--inject-mismatch", action="store_true", help=argparse.SUPPRESS
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_coeff = sub.add_parser("coeff", help="print one exact coefficient")
    p_coeff.add_argument("--gf", required=True, choices=COEFF_GFS)
    p_coeff.add_argument("--t", type=int, default=None)
    p_coeff.add_argument("--M", type=int, default=None, help="box width for oqbinom")
    p_coeff.add_argument("--N", type=int, default=None, help="box height for oqbinom")
    p_coeff.add_argument("--n", type=int, required=True, help="exponent of q")
    p_coeff.set_defaults(func=_cmd_coeff)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
