"""CLI surface: exact table bytes, report schemas, and exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import overq.cli as cli
from overq.cli import format_coeff, main
from overq.series import add, monomial

# Child processes import overq from this checkout's src/, as the tests do.
SRC = str(Path(__file__).resolve().parent.parent / "src")
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- table -------------------------------------------------------------------------


def test_table_pbar_csv_exact_bytes(capsys):
    code, out, err = run_cli(
        capsys, "table", "--kind", "pbar", "--t", "1", "--n-max", "4",
        "--format", "csv",
    )
    assert code == 0 and err == ""
    assert out == "n,value\n1,2\n2,4\n3,8\n4,10\n"


def test_table_g_csv(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--kind", "g", "--t", "1", "--n-max", "4"
    )
    assert code == 0
    assert out == "n,value\n1,2\n2,4\n3,6\n4,8\n"


def test_table_divisor_counts_ignore_t(capsys):
    code, out, _ = run_cli(capsys, "table", "--kind", "d", "--n-max", "3")
    assert code == 0
    assert out == "n,value\n1,1\n2,2\n3,2\n"
    code, out2, _ = run_cli(
        capsys, "table", "--kind", "d", "--t", "7", "--n-max", "3"
    )
    assert code == 0 and out2 == out


def test_table_overline_total(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--kind", "overline_total", "--n-max", "4"
    )
    assert code == 0
    assert out == "n,value\n1,2\n2,4\n3,8\n4,14\n"


def test_table_oracle_source_agrees_with_formula(capsys):
    _, formula, _ = run_cli(
        capsys, "table", "--kind", "p_exact", "--t", "2", "--n-max", "12"
    )
    _, oracle, _ = run_cli(
        capsys, "table", "--kind", "p_exact", "--t", "2", "--n-max", "12",
        "--source", "oracle",
    )
    assert formula == oracle


def test_table_both_emits_match_column(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--kind", "pbar", "--t", "2", "--n-max", "3",
        "--source", "both",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,formula,oracle,match"
    assert lines[1:] == ["1,2,2,true", "2,4,4,true", "3,8,8,true"]


def test_table_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--kind", "g", "--t", "1", "--n-max", "3",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["kind", "t", "n_max", "source", "rows"]
    assert doc["kind"] == "g" and doc["t"] == 1
    assert doc["rows"] == [
        {"n": 1, "value": 2}, {"n": 2, "value": 4}, {"n": 3, "value": 6}
    ]
    assert all(isinstance(r["value"], int) for r in doc["rows"])


def test_table_json_both_schema(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--kind", "p_bounded", "--t", "1",
        "--n-max", "2", "--source", "both", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0] == {"n": 1, "formula": 1, "oracle": 1, "match": True}


def test_table_usage_errors(capsys):
    code, _, err = run_cli(capsys, "table", "--kind", "pbar", "--t", "1",
                           "--n-max", "0")
    assert code == 2 and "n-max" in err
    code, _, err = run_cli(capsys, "table", "--kind", "pbar", "--n-max", "4")
    assert code == 2 and "--t" in err
    code, _, err = run_cli(capsys, "table", "--kind", "g", "--t", "-1",
                           "--n-max", "4")
    assert code == 2
    code, _, err = run_cli(capsys, "table", "--kind", "g", "--t", "0",
                           "--n-max", "4")
    assert code == 2 and "t >= 1" in err
    with pytest.raises(SystemExit) as exc:
        main(["table", "--kind", "bogus", "--n-max", "4"])
    assert exc.value.code == 2


def test_table_exact_spread_below_t_prints_zeros(capsys):
    # n-max < t: no partition of n <= n-max has spread exactly t, so both
    # columns are zero; the closed form needs a window past q^t to build.
    code, out, err = run_cli(
        capsys, "table", "--kind", "p_exact", "--t", "3", "--n-max", "2",
        "--source", "both",
    )
    assert (code, err) == (0, "")
    assert out == "n,formula,oracle,match\n1,0,0,true\n2,0,0,true\n"


def test_table_oracle_allows_t_zero_for_g(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--kind", "g", "--t", "0", "--n-max", "4",
        "--source", "oracle",
    )
    assert code == 0
    assert out == "n,value\n1,1\n2,2\n3,2\n4,3\n"


def test_table_both_exits_one_on_a_mismatch(capsys, monkeypatch):
    real = cli.gf_pbar
    monkeypatch.setattr(cli, "gf_pbar",
                        lambda t, prec: add(real(t, prec), monomial(1, 2, prec)))
    argv = ("table", "--kind", "pbar", "--t", "2", "--n-max", "3", "--source", "both")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (1, "")
    assert out == "n,formula,oracle,match\n1,2,2,true\n2,5,4,false\n3,8,8,true\n"
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 1
    assert json.loads(out)["rows"][1] == {"n": 2, "formula": 5, "oracle": 4,
                                          "match": False}


def test_table_prints_fraction_cells(capsys, monkeypatch):
    # A Fraction cell prints as an integer when it is one, else as p/q; in
    # JSON an integral Fraction is a number and the match cells stay bools.
    real = cli.gf_pbar
    monkeypatch.setattr(cli, "gf_pbar", lambda t, prec: add(
        real(t, prec).scale(Fraction(1)), monomial(Fraction(1, 2), 2, prec)))
    argv = ("table", "--kind", "pbar", "--t", "2", "--n-max", "3", "--source", "both")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert out == "n,formula,oracle,match\n1,2,2,true\n2,9/2,4,false\n3,8,8,true\n"
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 1
    rows = json.loads(out)["rows"]
    assert rows[:2] == [{"n": 1, "formula": 2, "oracle": 2, "match": True},
                        {"n": 2, "formula": "9/2", "oracle": 4, "match": False}]
    assert '"match": true' in out  # not 1, which compares equal to True


# The names the perfbench tracer swaps on the cli module.
CLI_BUILDERS = ("gf_pbar", "gf_G", "gf_bk", "gf_abr", "gf_p_exact_low",
                "lambert_divisor", "gf_overline_total", "over_qbinom_sum",
                "oracle_series")


def test_every_builder_is_looked_up_on_the_module_when_it_runs(capsys, monkeypatch):
    calls = set()

    def spy(name):
        real = getattr(cli, name)
        return lambda *a, **k: calls.add(name) or real(*a, **k)

    for name in CLI_BUILDERS:
        monkeypatch.setattr(cli, name, spy(name))
    for kind, t in (("pbar", "2"), ("g", "2"), ("p_bounded", "2"), ("p_exact", "1"),
                    ("p_exact", "3"), ("d", "0"), ("overline_total", "0")):
        assert run_cli(capsys, "table", "--kind", kind, "--t", t, "--n-max", "4",
                       "--source", "both")[0] == 0
    for gf in ("th1", "th2", "bk", "abr", "overline_total"):
        assert run_cli(capsys, "coeff", "--gf", gf, "--t", "3", "--n", "4")[0] == 0
    assert run_cli(capsys, "coeff", "--gf", "oqbinom", "--M", "2", "--N", "2",
                   "--n", "2")[0] == 0
    assert calls == set(CLI_BUILDERS)


# -- verify ------------------------------------------------------------------------


def test_verify_text_output_and_exit(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--check", "relation", "--t-max", "2",
        "--order", "15",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("pass  relation t=1:")
    assert lines[-1] == "2 checks: 2 pass, 0 fail, 0 error"


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--check", "th1", "--t-max", "2", "--order", "12",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["order", "checks"]
    assert doc["order"] == 12
    assert len(doc["checks"]) == 2
    for entry in doc["checks"]:
        assert list(entry) == ["name", "params", "status", "first_mismatch",
                               "message"]
        assert entry["status"] == "pass"
        assert entry["first_mismatch"] is None


def test_verify_empty_domain_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--check", "th1", "--t-max", "0")
    assert code == 2
    assert "t_max" in err
    # Under "all" a family is skipped below its lowest t; when that skips
    # every family, nothing runs, and that is a usage error too.
    assert run_cli(capsys, "verify", "--check", "all", "--t-max", "-1") == (
        2, "", "error: no checks to run for 'all' with --t-max -1\n")


def test_verify_unknown_selector_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--check", "everything"])
    assert exc.value.code == 2


def test_verify_injected_mismatch_exits_one(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--check", "th1", "--t-max", "1", "--order", "10",
        "--inject-mismatch", "--format", "json",
    )
    assert code == 1
    doc = json.loads(out)
    entry = doc["checks"][0]
    assert entry["status"] == "fail"
    assert entry["first_mismatch"]["exponent"] == 2
    assert entry["first_mismatch"]["lhs"] != entry["first_mismatch"]["rhs"]


def test_verify_injected_mismatch_text_shows_values(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--check", "th1", "--t-max", "1", "--order", "10",
        "--inject-mismatch",
    )
    assert code == 1
    assert "fail" in out and "q^2" in out
    assert out.splitlines()[-1] == "1 checks: 0 pass, 1 fail, 0 error"


def test_verify_corollary_family(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--check", "corollary", "--t-max", "1",
        "--order", "40",
    )
    assert code == 0
    assert out.splitlines()[-1] == "2 checks: 2 pass, 0 fail, 0 error"


# -- coeff -------------------------------------------------------------------------


def test_coeff_values(capsys):
    assert run_cli(capsys, "coeff", "--gf", "th2", "--t", "1", "--n", "4") \
        == (0, "10\n", "")
    assert run_cli(capsys, "coeff", "--gf", "overline_total", "--n", "4") \
        == (0, "14\n", "")
    assert run_cli(capsys, "coeff", "--gf", "bk", "--t", "1", "--n", "4") \
        == (0, "4\n", "")
    assert run_cli(capsys, "coeff", "--gf", "th1", "--t", "1", "--n", "4") \
        == (0, "8\n", "")
    assert run_cli(capsys, "coeff", "--gf", "abr", "--t", "2", "--n", "5") \
        == (0, "1\n", "")
    assert run_cli(
        capsys, "coeff", "--gf", "oqbinom", "--M", "3", "--N", "2", "--n", "3"
    ) == (0, "6\n", "")


def test_coeff_beyond_polynomial_degree_is_zero(capsys):
    code, out, _ = run_cli(
        capsys, "coeff", "--gf", "oqbinom", "--M", "2", "--N", "2", "--n", "9"
    )
    assert code == 0 and out == "0\n"


def test_coeff_exact_spread_below_t(capsys):
    # spread exactly 5 needs n >= 1 + 6; below that the coefficient is 0
    assert run_cli(capsys, "coeff", "--gf", "abr", "--t", "5", "--n", "2") \
        == (0, "0\n", "")
    assert run_cli(capsys, "coeff", "--gf", "abr", "--t", "5", "--n", "7") \
        == (0, "1\n", "")


def test_coeff_exact_spread_with_huge_t_builds_no_wide_series():
    # Spread 10**8 needs n >= 10**8 + 2, so the answer is 0 without a
    # series as wide as t; the timeout turns a hang into a failure.
    out = subprocess.run(
        [sys.executable, "-m", "overq", "coeff", "--gf", "abr",
         "--t", "100000000", "--n", "3"],
        capture_output=True, text=True, timeout=10, env=CHILD_ENV,
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "0\n", "")


@pytest.mark.parametrize("gf, value", [("bk", "3"), ("th1", "8"), ("th2", "8")])
def test_coeff_bounded_spread_with_huge_t_stops_at_n(gf, value):
    # Every partition of 3 has spread below 10**8: p(3) = 3 partitions and
    # 8 overpartitions.  Factors past q^3 are 1 on the window, so the
    # builders stop there; the timeout turns a hang into a failure.
    out = subprocess.run(
        [sys.executable, "-m", "overq", "coeff", "--gf", gf,
         "--t", "100000000", "--n", "3"],
        capture_output=True, text=True, timeout=10, env=CHILD_ENV,
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, value + "\n", "")


def test_coeff_usage_errors(capsys):
    code, _, err = run_cli(capsys, "coeff", "--gf", "th1", "--n", "4")
    assert code == 2 and "--t" in err
    code, _, err = run_cli(capsys, "coeff", "--gf", "oqbinom", "--M", "3",
                           "--n", "2")
    assert code == 2 and "--N" in err
    code, _, err = run_cli(capsys, "coeff", "--gf", "abr", "--t", "1",
                           "--n", "4")
    assert code == 2
    code, _, err = run_cli(capsys, "coeff", "--gf", "th2", "--t", "1",
                           "--n", "-1")
    assert code == 2


def test_format_coeff_flags_non_integers():
    assert format_coeff(Fraction(10)) == ("10", False)
    assert format_coeff(Fraction(7, 2)) == ("7/2", True)
