"""Source hygiene: every imported name is used, and ``src/qpwave`` holds
only what the package itself reads.

An AST scan of ``src/qpwave`` and ``tests``: a name bound by an import must
be read somewhere in its module. ``src/qpwave/__init__.py`` is left out, as
its imports are the package's re-exports.

A second AST scan of ``src/qpwave``: every function and method defined there
must be referenced from ``src/qpwave`` outside its own body. An oracle or a
helper that only tests read belongs under ``tests``.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qpwave"
SCANNED = sorted(p for d in (PACKAGE, ROOT / "tests") for p in d.glob("*.py")
                 if p != PACKAGE / "__init__.py")
ENTRY_POINTS = {"cli.main"}  # run by the ``qpwave`` command, not by the package


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(source) == [(1, "os"), (2, "system"), (3, "dumps")]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b.c()\n") == []


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _scan(node, owner: str, prefix: str, defs: list, refs: dict):
    """Record each function defined under node as (qualified name, name) in
    defs, and each name read under node, a Name or an attribute's name, in
    refs[owner], where owner is the qualified name of the innermost function
    whose body holds the read (the module's name outside every function).
    Decorators, defaults and annotations belong to the enclosing code."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        qualified = prefix + node.name
        defs.append((qualified, node.name))
        for part in (*node.decorator_list, node.args, node.returns):
            if part is not None:
                _scan(part, owner, prefix, defs, refs)
        for stmt in node.body:
            _scan(stmt, qualified, qualified + ".", defs, refs)
        return
    if isinstance(node, ast.ClassDef):
        for part in (*node.decorator_list, *node.bases, *node.keywords):
            _scan(part, owner, prefix, defs, refs)
        for stmt in node.body:
            _scan(stmt, owner, prefix + node.name + ".", defs, refs)
        return
    if isinstance(node, ast.Name):
        refs[owner].add(node.id)
    elif isinstance(node, ast.Attribute):
        refs[owner].add(node.attr)
    for child in ast.iter_child_nodes(node):
        _scan(child, owner, prefix, defs, refs)


def unreferenced_functions(sources: dict) -> list:
    """Qualified names of the functions and methods of the modules
    {module name: source} that none of these modules references by name
    outside the function's own body; dunders and ENTRY_POINTS are exempt.

    Iterated to a fixed point: a reference from the body of an unreferenced
    function does not count, so code that only dead code reads is dead too.

    Known limit: the check matches bare names, a Name read or an attribute's
    name, so a method that shares its name with any other attribute read
    escapes it (a ``norm`` method with ``np.linalg.norm``).
    """
    defs, refs = [], defaultdict(set)
    for module, source in sources.items():
        _scan(ast.parse(source), module, module + ".", defs, refs)
    candidates = [(q, name) for q, name in defs
                  if q not in ENTRY_POINTS and not (name.startswith("__") and name.endswith("__"))]

    def inside(owner: str, qualified: str) -> bool:
        return owner == qualified or owner.startswith(qualified + ".")

    dead: set = set()
    while True:
        found = {q for q, name in candidates if q not in dead and not any(
            name in names for owner, names in refs.items()
            if not inside(owner, q) and not any(inside(owner, d) for d in dead))}
        if not found:
            return sorted(dead)
        dead |= found


def test_the_scan_finds_dead_functions():
    # helper is read by dead and by itself only; inner by its outer function
    sources = {
        "a": ("def used():\n    return 1\n"
              "def dead():\n    return helper()\n"
              "def helper():\n    return helper()\n"
              "class C:\n    def __init__(self):\n        self.x = 1\n"
              "    def read(self):\n        return self.x\n"
              "    @property\n    def size(self):\n        return 2\n"
              "def outer():\n    def inner():\n        return 3\n    return inner\n"),
        "cli": "from a import C, outer, used\ndef main():\n    return used(), C().size, outer\n",
    }
    assert unreferenced_functions(sources) == ["a.C.read", "a.dead", "a.helper"]
    sources["cli"] = sources["cli"].replace("def main", "def start")
    # without the entry point nothing is read, inner too once outer is dead
    assert unreferenced_functions(sources) == ["a.C.read", "a.C.size", "a.dead", "a.helper",
                                               "a.outer", "a.outer.inner", "a.used",
                                               "cli.start"]


def test_every_function_in_the_package_is_referenced_by_the_package():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_functions(sources) == []
