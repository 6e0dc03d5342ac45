"""The package keeps only what its users reach.  Two passes over
``src/overq`` check this, and each fails for anything that is neither
reached nor allowed by name with a reason.

Module-level names: a static pass follows every module-level name from the
CLI entry points and the names the acceptance tests import.  A reference
counts when it resolves, inside the referring module, to a name a module of
the package defines: a bare name (defined there or imported from a sibling)
or an attribute of a sibling module (``kernels.convolve``).  Reaching a
class reaches its whole body.  Statements that run at import, outside any
definition, are not roots, and neither is the package root: a name that
``overq/__init__.py`` imports is an export, flagged unless something
reaches it, so the root exports nothing but ``__version__``.

Class members: a method, or a property's accessor, counts as reached when
its code is entered while the golden CLI requests of
``tests/test_cli_golden.py`` run in one process under ``sys.setprofile``.
A member that only the acceptance criteria use is listed with its
criterion, and the CLI must not enter it.  So series arithmetic has one
form, the module functions of ``overq.series``: ``QSeries`` defines no
operators.

Code kept for the tests alone belongs in ``tests/brute.py``.  Both passes
are checked on copies of the package with code planted in them, and a last
test checks that the benchmark's tracer finds every function it wraps.

``python tests/test_package_surface.py PACKAGE_DIR`` prints, as JSON, the
class members of the package at PACKAGE_DIR that the golden requests do not
enter; the member pass runs it so, in a child process.
"""

import ast
import functools
import importlib
import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "overq"
ACCEPTANCE = TESTS / "test_acceptance.py"
PERFBENCH = TESTS.parent / "perfbench"

# What nothing reaches but stays on purpose: module-level names, and class
# members as "Class.member".
ALLOWED = {
    ("kernels", "BACKEND"): "perfbench's probe reads it to name the backend",
    ("cli", "TYPE_CHECKING"): "guards the import made only for annotations",
    ("series", "QMonomial.__setattr__"): "refuses assignment: the value is immutable",
    ("series", "QSeries.__setattr__"): "refuses assignment: the value is immutable",
    ("reports", "IdentityCheck.__setattr__"): "refuses assignment: the value is immutable",
    ("reports", "VerificationReport.__setattr__"):
        "refuses assignment: the value is immutable",
    ("series", "QSeries.__repr__"): "pytest prints it when a series assertion fails",
}

# Class members that only the acceptance criteria enter: (criterion, use).
ACCEPTANCE_ONLY = {
    ("series", "QSeries.__init__"): (9, "builds random series from coefficient lists"),
    ("series", "QSeries.__eq__"): (9, "compares whole series"),
    ("series", "QSeries.valuation"): (9, "inverts random series through invert"),
}


def _sibling_imports(tree):
    """Bare name -> (module, name) and alias -> sibling module, for every
    ``from ... import`` of the package anywhere in tree."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            base = node.module
        elif node.module == "overq" or (node.module or "").startswith("overq."):
            base = node.module.partition(".")[2] or None
        else:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if base is None:
                modules[local] = alias.name
            else:
                names[local] = (base, alias.name)
    return names, modules


def _definitions(tree):
    """Module-level name -> the nodes that define it."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.setdefault(node.name, []).append(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs.setdefault(name.id, []).append(node)
    # Dunder names are read by the interpreter and by packaging tools
    # (``__getattr__``, ``__all__``, ``__version__``), not by name.
    return {name: nodes for name, nodes in defs.items()
            if not (name.startswith("__") and name.endswith("__"))}


def _references(nodes, module, local, imported, modules):
    """The (module, name) pairs that the code in nodes refers to."""
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if sub.id in local:
                    yield module, sub.id
                elif sub.id in imported:
                    yield imported[sub.id]
            elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                  and sub.value.id in modules):
                yield modules[sub.value.id], sub.attr


def unreached_names(package=PACKAGE):
    """Every (module, name) defined at module level in the package at the
    given path that no root reaches, sorted."""
    graph = {}  # (module, name) -> the (module, name) pairs it refers to
    roots = [("cli", "main"), ("cli", "run")]
    for path in sorted(package.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), str(path))
        defs = _definitions(tree)
        imported, modules = _sibling_imports(tree)
        for name, nodes in defs.items():
            graph[module, name] = set(
                _references(nodes, module, defs, imported, modules))
        if module == "__init__":
            # Every name the root imports is an export, and no root.
            for local, target in imported.items():
                graph[module, local] = {target}
            for local in modules:
                graph[module, local] = set()
    acceptance_imports, _ = _sibling_imports(ast.parse(ACCEPTANCE.read_text()))
    roots.extend(acceptance_imports.values())

    seen = set()
    todo = list(roots)
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        todo.extend(graph.get(key, ()))
    return sorted(key for key in graph if key not in seen)


@functools.lru_cache(maxsize=None)
def unentered_members(package=PACKAGE):
    """Every (module, "Class.member") of the package at the given path whose
    code the golden CLI requests do not enter, sorted.  The requests run in
    a child process that imports the package from that path."""
    done = subprocess.run([sys.executable, __file__, str(package)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return sorted(map(tuple, json.loads(done.stdout)))


def _member_code(package):
    """(module, "Class.member") -> the code objects of that member, for every
    class defined in a module of the package at the given path."""
    members = {}
    for path in sorted(package.glob("*.py")):
        if path.stem == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(
            "overq" if path.stem == "__init__" else f"overq.{path.stem}")
        for cls in vars(module).values():
            if not (isinstance(cls, type) and cls.__module__ == module.__name__):
                continue
            for name, value in vars(cls).items():
                if isinstance(value, (classmethod, staticmethod)):
                    value = value.__func__
                funcs = ((value.fget, value.fset, value.fdel)
                         if isinstance(value, property) else (value,))
                code = {f.__code__ for f in funcs if hasattr(f, "__code__")}
                if code:
                    members[path.stem, f"{cls.__qualname__}.{name}"] = code
    return members


def _print_unentered_members(package):
    sys.path.insert(0, str(package.parent))
    import overq

    if Path(overq.__file__).resolve().parent != package:
        raise SystemExit(f"overq was imported from {overq.__file__}, not {package}")
    from test_cli_golden import REQUESTS, run

    members = _member_code(package)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for argv in REQUESTS:
            run(argv)
    finally:
        sys.setprofile(None)
    print(json.dumps(sorted(key for key, code in members.items()
                            if not code & entered)))


def _stale(listed, unreached):
    """The listed names that are gone, or that are reached after all."""
    return sorted(set(listed) - set(unreached))


def test_every_module_level_name_is_reached_or_allowed():
    unreached = [key for key in unreached_names() if key not in ALLOWED]
    assert not unreached, (
        "module-level names that neither the CLI nor the acceptance tests "
        f"reach: {unreached}")


def test_every_class_member_is_entered_or_listed():
    unentered = [key for key in unentered_members()
                 if key not in ALLOWED and key not in ACCEPTANCE_ONLY]
    assert not unentered, (
        f"class members that no golden CLI request enters: {unentered}")


def test_the_allowed_names_exist_and_are_unreached():
    # An allowed name or member that is gone, or is reached after all,
    # leaves the list, and so does an acceptance-only member that is gone
    # or that the CLI enters.
    assert not _stale({**ALLOWED, **ACCEPTANCE_ONLY},
                      unreached_names() + unentered_members())


def _planted_copy(tmp_path, additions, edits=None):
    """A copy of the package with the given source appended to modules and
    each (old, new) of edits made once in its module."""
    copy = tmp_path / "overq"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    for module, text in additions.items():
        path = copy / f"{module}.py"
        path.write_text(path.read_text() + "\n" + textwrap.dedent(text))
    for module, pairs in (edits or {}).items():
        path = copy / f"{module}.py"
        source = path.read_text()
        for old, new in pairs:
            assert source.count(old) == 1, old
            source = source.replace(old, new)
        path.write_text(source)
    return copy


def test_the_pass_flags_code_only_the_tests_use(tmp_path):
    # A dead function is flagged, and so is a helper only a dead function
    # calls; the reached helpers a dead function calls are not.
    copy = _planted_copy(tmp_path, {
        "enumeration": """
            def iter_overpartitions(n):
                return _subsets(range(n))

            def _subsets(values):
                return values
            """,
        "qfunctions": """
            def qbinom(m, n):
                return _wrap_poly(_gauss_ints(m, n, m * n + 1), m * n + 1, None)
            """,
    })
    planted = set(unreached_names(copy)) - set(unreached_names())
    assert planted == {
        ("enumeration", "_subsets"),
        ("enumeration", "iter_overpartitions"),
        ("qfunctions", "qbinom"),
    }


def test_the_pass_follows_module_attributes_not_exports_or_import_time_reads(
        tmp_path):
    # A function the CLI reaches reaches what it reads as an attribute of a
    # sibling module; its export from the root is still flagged, and so is
    # a name read only by a statement that runs at import.
    copy = _planted_copy(tmp_path, {
        "__init__": "from .enumeration import planted_export\n",
        "enumeration": """
            def planted_export():
                return kernels._planted_leaf()

            _READ_AT_IMPORT = 1
            _SET_AT_IMPORT = _READ_AT_IMPORT
            """,
        "kernels": """
            def _planted_leaf():
                return 0
            """,
    }, {"enumeration": [(
        '    """Enumerated counts as a series',
        '    planted_export()\n    """Enumerated counts as a series')]})
    planted = set(unreached_names(copy)) - set(unreached_names())
    assert planted == {
        ("__init__", "planted_export"),
        ("enumeration", "_READ_AT_IMPORT"),
        ("enumeration", "_SET_AT_IMPORT"),
    }


def test_a_root_export_is_no_root(tmp_path):
    # Exports of a reached function, of a sibling module and of a function
    # nothing else reaches are all flagged, and so is that function.
    copy = _planted_copy(tmp_path, {
        "__init__": """
            from . import kernels
            from .series import add
            from .enumeration import planted_export
            """,
        "enumeration": """
            def planted_export():
                return 0
            """,
    })
    planted = set(unreached_names(copy)) - set(unreached_names())
    assert planted == {
        ("__init__", "add"),
        ("__init__", "kernels"),
        ("__init__", "planted_export"),
        ("enumeration", "planted_export"),
    }


def test_the_member_pass_flags_what_the_cli_does_not_enter(tmp_path):
    # A planted method no golden request enters is flagged.  Listed members
    # go stale when they are gone (an allowed guard, the acceptance-only
    # equality) or when the CLI enters them (repr and valuation, entered
    # on every coefficient read).
    copy = _planted_copy(tmp_path, {
        "series": "del QSeries.__eq__\n",
        "reports": "del IdentityCheck.__setattr__\n",
    }, {"series": [
        ("    # -- window adjustments",
         "    def planted(self):\n        return self.lo\n\n    # -- window adjustments"),
        ("        if e >= self.prec:\n",
         "        repr(self), self.valuation()\n        if e >= self.prec:\n"),
    ]})
    unentered = unentered_members(copy)
    assert set(unentered) - set(unentered_members()) == {("series", "QSeries.planted")}
    assert _stale({**ALLOWED, **ACCEPTANCE_ONLY},
                  unreached_names(copy) + unentered) == [
        ("reports", "IdentityCheck.__setattr__"),
        ("series", "QSeries.__eq__"),
        ("series", "QSeries.__repr__"),
        ("series", "QSeries.valuation"),
    ]


def test_the_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    # perfbench/tracer.py wraps package functions by name, so renaming or
    # deleting one of them fails here as well as in a traced benchmark run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        tracer = importlib.import_module("tracer")
        missing = [
            f"{home}.{fn}"
            for _, table, home, _ in tracer.PATCHES
            for fn in table
            if not hasattr(tracer._resolve(home), fn)
        ]
    finally:
        for name in ("tracer", "reference"):
            sys.modules.pop(name, None)
    assert tracer.PATCHES and not missing, missing


if __name__ == "__main__":
    _print_unentered_members(Path(sys.argv[1]).resolve())
