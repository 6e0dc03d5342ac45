"""The package keeps only what its users reach: a static pass over the
modules of ``src/overq`` that follows every module-level name from the CLI
entry points, the package's exports and the names the acceptance tests
import, and fails for any module-level name that nothing reaches.

A reference counts when it resolves, inside the referring module, to a name
a module of the package defines: a bare name (defined there or
imported from a sibling) or an attribute of a sibling module
(``kernels.convolve``).  Reaching a class reaches its whole body.
Statements that run at import, outside any definition, are not roots, so a
name read only there counts as unreached.  Code kept for the tests alone
belongs in ``tests/brute.py``.  The pass is itself checked on copies of the
package with code planted in them, and a last test checks that the
benchmark's tracer finds every function it wraps.
"""

import ast
import importlib
import shutil
import sys
import textwrap
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "overq"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Names nothing in the package reaches that stay on purpose.
ALLOWED = {
    ("kernels", "BACKEND"): "perfbench's probe reads it to name the backend",
    ("cli", "TYPE_CHECKING"): "guards the import made only for annotations",
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
            roots.extend(imported.values())
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


def test_every_module_level_name_is_reached_or_allowed():
    unreached = [key for key in unreached_names() if key not in ALLOWED]
    assert not unreached, (
        "module-level names that neither the CLI, the package exports nor "
        f"the acceptance tests reach: {unreached}")


def test_the_allowed_names_exist_and_are_unreached():
    # An allowed name that is gone, or is reached after all, leaves the list.
    assert set(ALLOWED) <= set(unreached_names())


def _planted_copy(tmp_path, additions):
    """A copy of the package with the given source appended to modules."""
    copy = tmp_path / "overq"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    for module, text in additions.items():
        path = copy / f"{module}.py"
        path.write_text(path.read_text() + "\n" + textwrap.dedent(text))
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


def test_the_pass_follows_exports_and_module_attributes_not_import_time_reads(
        tmp_path):
    # A name the package exports is a root, and it reaches what it reads as
    # an attribute of a sibling module; a name read only by a statement that
    # runs at import is still flagged.
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
    })
    planted = set(unreached_names(copy)) - set(unreached_names())
    assert planted == {
        ("enumeration", "_READ_AT_IMPORT"),
        ("enumeration", "_SET_AT_IMPORT"),
    }


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
