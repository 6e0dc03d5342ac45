"""``tools/mutants.py`` without running a mutant: its sample is fixed and
every mutant compiles, it picks test files by the package's imports, every
survivor it names as equivalent is still in the sample, and its exit status
tells a new survivor from a known one.  No pytest process is started."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("module", mutants.MODULES)
def test_a_module_gives_the_same_unique_mutants_each_time_and_each_compiles(module):
    made = list(mutants.mutants(module))
    ids = [mid for mid, _, _ in made]
    assert ids == [mid for mid, _ in mutants.sample(module)]
    assert len(set(ids)) == len(ids)
    plain = (ROOT / "src" / "overq" / f"{module}.py").read_text()
    for mid, _, source in made:
        assert mid.startswith(f"{module}.") and source != plain, mid
        compile(source, mid, "exec")


def test_tests_for_follows_the_package_imports():
    files = mutants.tests_for("identities")
    # test_cli.py imports only cli, which imports identities.
    assert "tests/test_cli.py" in files
    # The files that import identities come before those that reach it.
    assert files.index("tests/test_identities.py") < files.index("tests/test_cli.py")
    always = list(mutants.ALWAYS)
    assert files[-len(always):] == always
    assert not set(files[:-len(always)]) & set(always)
    assert all((ROOT / f).is_file() for f in files)
    # test_startup.py imports overq.cli only in a program it runs from a string.
    assert "tests/test_startup.py" in mutants.tests_for("series")
    assert "tests/test_kernels.py" not in mutants.tests_for("cli")


def test_every_known_equivalent_is_in_the_sample():
    ids = {mid for m in mutants.MODULES for mid, _ in mutants.sample(m)}
    assert sorted(set(mutants.EQUIVALENT) - ids) == []
    assert all(reason.strip() for reason in mutants.EQUIVALENT.values())


def test_only_a_new_survivor_fails_the_survey(monkeypatch, capsys):
    # Every pytest run "passes": the baseline holds and each mutant survives.
    monkeypatch.setattr(mutants, "run_all",
                        lambda jobs: {key: ("survived", "") for key, _, _ in jobs})
    [(mid, _)] = mutants.sample("reports")
    assert mutants.main(["reports"]) == 1
    out = capsys.readouterr().out
    assert out.split("new survivors:\n")[1].startswith(f"  {mid} ")
    monkeypatch.setitem(mutants.EQUIVALENT, mid, "a planted reason")
    assert mutants.main(["reports"]) == 0
    out = capsys.readouterr().out
    assert f"  {mid} " in out.split("new survivors:")[0]
    assert out.rstrip().endswith("new survivors:")
