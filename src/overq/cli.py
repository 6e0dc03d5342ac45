"""Command-line front end: tabulate counts, query coefficients, run checks.

Exit codes: 0 success (and, where applicable, all comparisons pass),
1 verification mismatch, 2 usage or domain error.  Tables and reports go
to standard out, diagnostics to standard error.

One table, ``_KINDS``, gives each family ``table`` prints its oracle kind,
whether it takes t, and its closed form (t, prec); ``coeff`` reuses those
closed forms.  Each is a lambda that looks its builder up in this module
when it runs, as ``identities.CHECKS`` does, so a wrapper set on this
module (the perfbench tracer) sees every call; a stored function would not.

Every request is a fresh process, so start-up counts: ``json`` is imported
only where a request needs it (a JSON document, or the report order that
``VerificationReport.sort_key`` builds for every ``verify``), and nothing
this module imports pulls in ``dataclasses`` or ``inspect``
(``tests/test_startup.py``).
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

# table kind -> (oracle kind, takes t, closed form (t, prec)).
_KINDS = {
    "pbar": ("pbar_t", True, lambda t, prec: gf_pbar(t, prec)),
    "g": ("g_t", True, lambda t, prec: gf_G(t, prec)),
    "p_bounded": ("p_t", True, lambda t, prec: gf_bk(t, prec)),
    "p_exact": ("p_exact_t", True,
                lambda t, prec: (gf_p_exact_low if t < 2 else gf_abr)(t, prec)),
    "d": ("d", False, lambda t, prec: lambert_divisor(prec)),
    "overline_total": ("opbar_total", False, lambda t, prec: gf_overline_total(prec)),
}
# coeff --gf -> closed form (t, prec); oqbinom (box M x N) is handled apart.
_COEFF_FORMS = {
    "th1": _KINDS["g"][2],
    "th2": _KINDS["pbar"][2],
    "bk": _KINDS["p_bounded"][2],
    "abr": lambda t, prec: gf_abr(t, prec),
    "overline_total": _KINDS["overline_total"][2],
}
TABLE_KINDS = tuple(_KINDS)
COEFF_GFS = (*_COEFF_FORMS, "oqbinom")


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _json_value(value):
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else str(value)
    return value


def _csv_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return format_coeff(value)[0]


# -- table -----------------------------------------------------------------------


def _cmd_table(args: argparse.Namespace) -> int:
    if args.n_max < 1:
        return _usage_error(f"--n-max must be >= 1, got {args.n_max}")
    oracle_kind, takes_t, closed_form = _KINDS[args.kind]
    t = args.t if takes_t else None
    if takes_t and t is None:
        return _usage_error(f"--t is required for kind {args.kind!r}")
    if takes_t and t < 0:
        return _usage_error(f"--t must be >= 0, got {t}")

    ns = range(1, args.n_max + 1)
    columns = {}
    try:
        if args.source in ("formula", "both"):
            s = closed_form(t, args.n_max + 1)
            columns["formula"] = [coeff(s, n) for n in ns]
        if args.source in ("oracle", "both"):
            s = oracle_series(oracle_kind, t, args.n_max)
            columns["oracle"] = [coeff(s, n) for n in ns]
    except ValueError as exc:
        return _usage_error(str(exc))
    if len(columns) == 2:
        columns["match"] = [f == o for f, o in zip(*columns.values())]
    else:
        columns = {"value": columns.popitem()[1]}
    rows = [(n, dict(zip(columns, cells))) for n, *cells in zip(ns, *columns.values())]

    if args.format == "csv":
        lines = [",".join(["n", *columns])]
        lines += [",".join([str(n), *map(_csv_value, row.values())]) for n, row in rows]
        print("\n".join(lines))
    else:
        import json

        out_rows = [{"n": n, **{k: _json_value(v) for k, v in row.items()}}
                    for n, row in rows]
        doc = {"kind": args.kind, "t": t, "n_max": args.n_max,
               "source": args.source, "rows": out_rows}
        print(json.dumps(doc, indent=2))
    return 0 if all(columns.get("match", ())) else 1


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
    if args.gf == "oqbinom":
        if args.M is None or args.N is None:
            raise ValueError("--M and --N are required for --gf oqbinom")
        return over_qbinom_sum(args.M, args.N, prec=prec)
    if args.t is None and args.gf != "overline_total":
        raise ValueError(f"--t is required for --gf {args.gf}")
    return _COEFF_FORMS[args.gf](args.t, prec)


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
