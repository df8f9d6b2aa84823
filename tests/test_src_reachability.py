"""Every ``def`` and ``class`` in ``src/`` is reached by code outside tests.

The reproduction is one simulator, so a function that only a test calls
is code the reproduction never runs.  This test scans the package's AST
and fails on any such symbol, so test-only helpers cannot grow back.

A name counts as *used* when it appears outside ``tests/`` (in ``src/``,
``tools/``, ``perf/``, ``examples/`` or ``benchmarks/``) as a name, an
attribute, an import or an exact string constant, other than:

- inside a definition of that same name (recursion is not a caller);
- as an entry of an ``__all__`` list;
- as an import in an ``__init__.py`` (a re-export is not a caller).

The scan is by name, not by call graph: a method counts as used when any
attribute of that name is read anywhere, so it under-reports.  Dunder
methods are skipped; the interpreter calls them.

:data:`KEPT` lists the few symbols that stay without such a caller.  Each
one's docstring carries a ``Kept:`` line that says why.  A kept symbol
that gains a caller, or is deleted, fails the test too, so the list
cannot go stale.
"""

from __future__ import annotations

import ast
import pathlib
from collections import defaultdict
from typing import Dict, List, Set, Tuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
USER_DIRS = ("src", "tools", "perf", "examples", "benchmarks")

#: ``module path::qualified name`` of every symbol kept without a caller.
KEPT = frozenset({
    "repro/runtime/task.py::_reset_task_ids",
    "repro/obs/sinks.py::InMemorySink",
    "repro/apgas/annotations.py::any_place_task",
    "repro/apgas/plh.py::PlaceLocalHandle",
    "repro/cluster/memory.py::MemoryManager.replicas",
})


def _definitions(tree: ast.AST, path: str) -> Dict[str, ast.AST]:
    """``path::qualname`` -> node for every def/class in ``tree``."""
    found: Dict[str, ast.AST] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qualname = prefix + child.name
                found[f"{path}::{qualname}"] = child
                visit(child, qualname + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def _uses(tree: ast.AST, path: str, is_init: bool,
          into: Dict[str, List[Tuple[str, int]]]) -> None:
    """Record every counted use in ``tree`` as ``name -> [(file, line)]``."""
    exported: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if node.value is not None and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in targets):
                exported.update(id(c) for c in ast.walk(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            into[node.id].append((path, node.lineno))
        elif isinstance(node, ast.Attribute):
            into[node.attr].append((path, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if not is_init:
                for alias in node.names:
                    into[alias.name.rsplit(".", 1)[-1]].append(
                        (path, node.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in exported):
            into[node.value].append((path, node.lineno))


def _scan() -> Tuple[Dict[str, ast.AST], Set[str]]:
    """All src definitions, and the keys of those no user code reaches."""
    defs: Dict[str, ast.AST] = {}
    #: name -> (file, first line, last line) of each definition of it
    spans: Dict[str, List[Tuple[str, int, int]]] = defaultdict(list)
    uses: Dict[str, List[Tuple[str, int]]] = defaultdict(list)
    for top in USER_DIRS:
        for file in sorted((ROOT / top).rglob("*.py")):
            rel = file.relative_to(ROOT).as_posix()
            tree = ast.parse(file.read_text(), rel)
            if top == "src":
                for key, node in _definitions(
                        tree, file.relative_to(SRC).as_posix()).items():
                    defs[key] = node
                    spans[node.name].append(
                        (rel, node.lineno, node.end_lineno))
            _uses(tree, rel, file.name == "__init__.py", uses)
    unreached = set()
    for key, node in defs.items():
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        own = spans[name]
        if not any(not any(f == path and lo <= line <= hi
                           for path, lo, hi in own)
                   for f, line in uses.get(name, ())):
            unreached.add(key)
    return defs, unreached


@pytest.fixture(scope="module")
def scan():
    return _scan()


def test_every_src_symbol_is_reached_outside_tests(scan):
    _defs, unreached = scan
    test_only = sorted(unreached - KEPT)
    assert not test_only, (
        "only tests reach these src symbols; delete them (and the tests "
        "that exercise only them), or keep one in KEPT with a 'Kept:' "
        f"line in its docstring: {test_only}")


def test_kept_symbols_exist_and_still_lack_a_caller(scan):
    defs, unreached = scan
    missing = sorted(KEPT - set(defs))
    assert not missing, f"KEPT names symbols that no longer exist: {missing}"
    reached = sorted(KEPT - unreached)
    assert not reached, (
        f"KEPT symbols now have a caller outside tests; drop them from "
        f"KEPT and their 'Kept:' docstring line: {reached}")


def test_kept_symbols_say_why_in_their_docstring(scan):
    defs, _unreached = scan
    silent = sorted(
        key for key in KEPT if key in defs
        and not any(line.strip().startswith("Kept:") for line in
                    (ast.get_docstring(defs[key]) or "").splitlines()))
    assert not silent, f"KEPT symbols without a 'Kept:' reason: {silent}"
