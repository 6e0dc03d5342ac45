"""Mutation survey of the overq package: which small faults do the tests catch?

Usage::

    python tools/mutants.py [MODULE ...]

MODULE is any of kernels, series, qfunctions, identities, enumeration,
reports and cli; with none given, all of them.  The script takes no flags:
the mutant list, its seed, the per-mutant time cap and the child's
address-space cap are the constants below, so two runs on one tree print
the same mutants and the same counts.

A mutant is one small edit of one module, made on its ``ast`` and written
back with ``ast.unparse``:

* ``add-sub`` / ``sub-add``: a ``+`` becomes ``-`` or the other way round
  (``+=`` and ``-=`` too);
* ``lt-le``, ``le-lt``, ``gt-ge``, ``ge-gt``: a comparison at the boundary;
* ``const``: an int constant plus one;
* ``range``: the stop of a ``range`` call minus one;
* ``drop``: a statement in a function replaced by ``pass``;
* ``drop-if``: an ``if`` whose test is never true (only its ``else`` runs);
* ``drop-else``: the ``else`` (or ``elif`` chain) of an ``if`` removed.

A mutant's id is ``module.qualname:kind:h:i``: the function
(``<module>`` for module level), the kind, a short hash of the first line
of the statement that holds the site, and the site's index among those
alike.  An edit to other statements leaves it unchanged.  The survey keeps
the ids whose seeded hash falls below ``SHARE``: 195 of the package's
1,964 sites when it was written.

Each mutant runs in its own temporary copy of ``src/``, ``tests/`` and
``pyproject.toml``; the working tree is only read.  In the copy it runs
``pytest -x -p no:cacheprovider --hypothesis-seed=0`` over the test files
that import the module or a package module that reaches it through the
package's imports (:func:`tests_for`), then ``tests/test_acceptance.py`` and
``tests/test_cli_golden.py``.  A failing run kills the mutant, a passing one
lets it survive, and a run past ``TIME_CAP`` is timed out.  Before any
mutant, the unmutated modules, written back the same way, must pass all of
those tests, or the survey stops.

Standard output lists every mutant with its outcome (and the first test that
failed), then killed, survived and timed-out counts per module, then the
survivors: the known ones, which ``EQUIVALENT`` names with the reason no
test can kill them, and the new ones.  Progress and the elapsed time go to
standard error.  The exit status is 1 when a new survivor exists, and 0
otherwise.  A full survey takes 12 to 16 minutes on two cores.
"""

import ast
import hashlib
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("kernels", "series", "qfunctions", "identities", "enumeration",
           "reports", "cli")
ALWAYS = ("tests/test_acceptance.py", "tests/test_cli_golden.py")
SEED = "overq-24"
SHARE = 0.095            # the fraction of all mutation sites that is run
HYPOTHESIS_SEED = 0
TIME_CAP = 120           # seconds per mutant, for its whole pytest run
MEMORY_CAP = 1536 << 20  # bytes of address space for each child process
WORKERS = 2

# Survivors that no test can kill, each with why the mutant behaves as the
# code does.  A survivor not named here is new, and fails the survey.
EQUIVALENT = {
    "kernels.window_diff_counts:sub-add:52b744:0":
        "d_hi entries past L - lo are made but never read",
    "kernels.window_diff_counts:const:430a53:0":
        "a slice one longer into map(add, st, ...), which stops at st's length",
    "kernels.window_diff_counts:const:a48319:1":
        "a local row one entry longer, whose extra entry no loop writes "
        "and every read cuts off",
    "series.one_minus_chain:gt-ge:1a9218:0":
        "a factor's exponent is +1 or -1, and only its sign is read",
    "identities.gf_pbar:const:0122e0:1":
        "a factor's exponent is +1 or -1, and only its sign is read",
    "identities.gf_bk:const:81f3f3:1":
        "a factor's exponent is +1 or -1, and only its sign is read",
    "identities._chain_steps:const:c37ff3:3":
        "a factor's exponent is +1 or -1, and only its sign is read",
    "identities._smallest_part_sums:sub-add:68f415:1":
        "a summand list longer than the window: the one-minus factors are "
        "causal and every add into the sums stops at the window",
    "qfunctions.over_qbinom_ladder:const:295230:0":
        "for prec < 1 _wrap_poly cuts the window to prec, so the width "
        "before the cut does not matter",
    "qfunctions.phi:lt-le:b5e859:0":
        "at equal starts the sum gains an empty prefix",
    "enumeration.over_qbinom_box_oracle.rec:gt-ge:8d2f96:0":
        "a call with largest value 0 lists nothing",
}

SWAPS = {ast.Add: (ast.Sub, "add-sub"), ast.Sub: (ast.Add, "sub-add"),
         ast.Lt: (ast.LtE, "lt-le"), ast.LtE: (ast.Lt, "le-lt"),
         ast.Gt: (ast.GtE, "gt-ge"), ast.GtE: (ast.Gt, "ge-gt")}


# -- the mutation sites ------------------------------------------------------------


def _is_docstring(body, i):
    stmt = body[i]
    return (i == 0 and isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


# An edit: apply() makes it in place and returns a function that undoes it.
def _set(obj, field, value):
    def apply():
        old = getattr(obj, field)
        setattr(obj, field, value)
        return lambda: setattr(obj, field, old)
    return apply


def _put(seq, i, value):
    def apply():
        old = seq[i:i + 1]
        seq[i:i + 1] = value
        return lambda: seq.__setitem__(slice(i, i + len(value)), old)
    return apply


def _header(stmt):
    """The first line of a statement as ast.unparse writes it: all of a
    simple statement, the header of a compound one."""
    return ast.unparse(stmt).partition("\n")[0]


def sites(tree):
    """Yield (id, line, apply) for each mutation site of tree, in source
    order; apply() makes that one edit on tree in place and returns its undo.

    The id is qualname:kind:h:i, with h a short hash of the first line of
    the statement that holds the site and i the site's index among those
    with the same qualname, kind and h.  So an edit to other statements,
    even in the same function, leaves the id unchanged."""
    out = []

    def visit(node, qual, in_def, stmt):
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qual = node.name if qual == "<module>" else f"{qual}.{node.name}"
            in_def = in_def or not isinstance(node, ast.ClassDef)
        if isinstance(node, ast.stmt):
            stmt = node
        line = getattr(node, "lineno", 0)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            new, kind = SWAPS[type(node.op)]
            out.append((qual, kind, stmt, line, _set(node, "op", new())))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    new, kind = SWAPS[type(op)]
                    out.append((qual, kind, stmt, line, _put(node.ops, i, [new()])))
        elif (isinstance(node, ast.Constant) and type(node.value) is int):
            out.append((qual, "const", stmt, line,
                        _set(node, "value", node.value + 1)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "range" and node.args
              and not isinstance(node.args[0], ast.Starred)):
            i = 0 if len(node.args) == 1 else 1
            less = ast.BinOp(node.args[i], ast.Sub(), ast.Constant(1))
            out.append((qual, "range", stmt, line, _put(node.args, i, [less])))
        if in_def:
            for field, body in ast.iter_fields(node):
                if not (isinstance(body, list) and body
                        and isinstance(body[0], ast.stmt)):
                    continue
                for i, child in enumerate(body):
                    if _is_docstring(body, i) or isinstance(
                            child, (ast.FunctionDef, ast.ClassDef, ast.Pass,
                                    ast.Global, ast.Nonlocal)):
                        continue
                    if isinstance(child, ast.If):
                        out.append((qual, "drop-if", child, child.lineno,
                                    _put(body, i, child.orelse or [ast.Pass()])))
                        if child.orelse:
                            out.append((qual, "drop-else", child, child.lineno,
                                        _set(child, "orelse", [])))
                    else:
                        out.append((qual, "drop", child, child.lineno,
                                    _put(body, i, [ast.Pass()])))
        for child in ast.iter_child_nodes(node):
            visit(child, qual, in_def, stmt)

    visit(tree, "<module>", False, None)
    seen = {}
    for qual, kind, stmt, line, apply in out:
        h = hashlib.sha256(_header(stmt).encode()).hexdigest()[:6]
        n = seen[qual, kind, h] = seen.get((qual, kind, h), -1) + 1
        yield f"{qual}:{kind}:{h}:{n}", line, apply


def _is_type_checking(test):
    return isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"


def chosen(mid):
    digest = hashlib.sha256(f"{SEED}:{mid}".encode()).digest()
    return int.from_bytes(digest[:8], "big") < SHARE * 2**64


def sample(module):
    """The kept mutation sites of one module, in source order: (id, line)."""
    source = (ROOT / "src" / "overq" / f"{module}.py").read_text()
    for mid, line, _ in sites(ast.parse(source)):
        mid = f"{module}.{mid}"
        if chosen(mid):
            yield mid, line


def mutants(module):
    """The kept mutants of one module: (id, line, source of the mutated module)."""
    tree = ast.parse((ROOT / "src" / "overq" / f"{module}.py").read_text())
    for mid, line, apply in sites(tree):
        mid = f"{module}.{mid}"
        if chosen(mid):
            undo = apply()
            source = ast.unparse(ast.fix_missing_locations(tree)) + "\n"
            undo()
            yield mid, line, source


# -- running the tests -------------------------------------------------------------


# An import line of a test: ``import overq[.M]`` or ``from overq[.M] import
# NAMES``; NAMES is read only after ``from overq``.
TEST_IMPORT = re.compile(r"^[ \t]*(?:import|from)[ \t]+overq(?:\.(\w+))?"
                         r"(?:[ \t]+import[ \t]+([\w ,]+))?", re.M)


def package_imports():
    """{module: the package modules it imports}, read from the ASTs of
    src/overq; the package itself is "__init__"."""
    graph = {}
    for path in (ROOT / "src" / "overq").glob("*.py"):
        graph[path.stem] = {
            name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for name in ([node.module] if node.module
                         else [a.name for a in node.names])}
    return graph


def tests_for(module):
    """The test files that import overq.<module>, or a package module that
    imports it directly or through others, then the ALWAYS files.  A test's
    imports are read from its import lines, those of a program it runs from
    a string included.  The files that import the module itself come first,
    so a mutant fails soonest where it is tested most directly."""
    graph = package_imports()
    reach, more = set(), {module}
    while more:
        reach |= more
        more = {m for m, deps in graph.items() if deps & reach} - reach
    direct, further = [], []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        found = set()
        for m in TEST_IMPORT.finditer(path.read_text()):
            names = [m[1]] if m[1] else (m[2] or "").replace(",", " ").split()
            found |= {n if n in graph else "__init__" for n in names or [None]}
        name = f"tests/{path.name}"
        if name not in ALWAYS and found & reach:
            (direct if module in found else further).append(name)
    return direct + further + list(ALWAYS)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def start(replaced, files):
    """A copy of the tree with replaced ({module: source}) written over it,
    and a pytest process over files in it."""
    work = Path(tempfile.mkdtemp(prefix="overq-mutant-"))
    shutil.copytree(ROOT / "src", work / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", work / "tests",
                    ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", work)
    for module, source in replaced.items():
        (work / "src" / "overq" / f"{module}.py").write_text(source)
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONUNBUFFERED", "PYTEST_ADDOPTS")}
    env["PYTHONPATH"] = str(work / "src")
    log = open(work / "pytest.log", "w")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         f"--hypothesis-seed={HYPOTHESIS_SEED}", *files],
        cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT,
        stdin=subprocess.DEVNULL, preexec_fn=_limit_memory, start_new_session=True)
    return work, log, proc


def finish(work, log, proc):
    """(outcome, first failure) of a pytest process that has ended or run
    past TIME_CAP; one still running is ended with its children."""
    code = proc.poll()
    if code is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    log.close()
    text = (work / "pytest.log").read_text(errors="replace")
    shutil.rmtree(work, ignore_errors=True)
    if code is None:
        return "timeout", ""
    if code == 0:
        return "survived", ""
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", text, re.M)
    return "killed", first.group(1) if first else f"exit {code}"


def run_all(jobs):
    """Run (key, replaced, files) jobs, WORKERS at a time; {key: result}."""
    results, running, queue = {}, [], list(jobs)
    try:
        while queue or running:
            while queue and len(running) < WORKERS:
                key, replaced, files = queue.pop(0)
                running.append((key, time.monotonic(), *start(replaced, files)))
            time.sleep(0.1)
            for item in list(running):
                key, started, work, log, proc = item
                if proc.poll() is None and time.monotonic() - started < TIME_CAP:
                    continue
                running.remove(item)
                results[key] = finish(work, log, proc)
                print(f"  {len(results)}/{len(jobs)} {key} {results[key][0]}",
                      file=sys.stderr, flush=True)
    finally:
        # Interrupted: end every running pytest and its children, and
        # remove their copies.
        for key, started, work, log, proc in running:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            log.close()
            shutil.rmtree(work, ignore_errors=True)
    return results


def main(argv):
    chosen_modules = argv or list(MODULES)
    unknown = sorted(set(chosen_modules) - set(MODULES))
    if unknown:
        sys.exit(f"usage: python tools/mutants.py [MODULE ...]; unknown: "
                 f"{', '.join(unknown)} (modules: {', '.join(MODULES)})")
    began = time.monotonic()
    files = {m: tests_for(m) for m in chosen_modules}
    plain = {m: ast.unparse(ast.parse(
        (ROOT / "src" / "overq" / f"{m}.py").read_text())) + "\n"
        for m in chosen_modules}
    every = sorted({f for fs in files.values() for f in fs})
    print(f"baseline: the unmutated modules, unparsed, over {len(every)} test files",
          file=sys.stderr, flush=True)
    outcome, first = run_all([("baseline", plain, every)])["baseline"]
    if outcome != "survived":
        sys.exit(f"the unmutated tree does not pass: {outcome} {first}")

    jobs, lines = [], {}
    for m in chosen_modules:
        for mid, line, source in mutants(m):
            jobs.append((mid, {m: source}, files[m]))
            lines[mid] = line
    print(f"{len(jobs)} mutants", file=sys.stderr, flush=True)
    results = run_all(jobs)

    for mid, _, _ in jobs:
        outcome, first = results[mid]
        print(f"{outcome:8} {mid} (line {lines[mid]}) {first}".rstrip())
    print()
    print(f"{'module':12} {'killed':>6} {'survived':>8} {'timeout':>7}")
    totals = [0, 0, 0]
    for m in chosen_modules:
        counts = [sum(1 for mid, _, _ in jobs if mid.split(".")[0] == m
                      and results[mid][0] == outcome)
                  for outcome in ("killed", "survived", "timeout")]
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"{m:12} {counts[0]:6} {counts[1]:8} {counts[2]:7}")
    print(f"{'total':12} {totals[0]:6} {totals[1]:8} {totals[2]:7}")
    survivors = [mid for mid, _, _ in jobs if results[mid][0] == "survived"]
    new = [mid for mid in survivors if mid not in EQUIVALENT]
    print()
    print("known survivors (equivalent):")
    for mid in survivors:
        if mid in EQUIVALENT:
            print(f"  {mid} (line {lines[mid]}): {EQUIVALENT[mid]}")
    print("new survivors:")
    for mid in new:
        print(f"  {mid} (line {lines[mid]})")
    print(f"{len(jobs)} mutants in {time.monotonic() - began:.0f} s",
          file=sys.stderr)
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
