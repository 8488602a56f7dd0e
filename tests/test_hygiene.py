"""Static scans of the package source.

Every name a module imports is read in that module (or re-exported
through its `__all__`), and every top-level function, class and method
is referenced somewhere in `src/` outside its own body.  References are
matched by name: a bare name or an attribute of that name anywhere in the
package counts, so two methods that share a name cover each other.
Importing a name, or listing it in `__all__`, is not a reference.
Dunder methods run implicitly and click commands run from the command
line; both are exempt.  So are the names below, each with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "topolayers"
MODULES = sorted(SRC.glob("*.py"))

UNREFERENCED_OK = {
    "complete_graph": "public constructor of K_n inputs, used by tests, CI and the benchmark",
    "format_graph": "public writer of the edge-list format parse_graph reads",
    "chords_cross": "public form of the crossing relation select_noncrossing applies",
    "check_face_trace": "public wrapper of the face-trace check verify_raw runs",
    "build_mixed_cycle_graph": "the benchmark's tracer patches it by name",
    "MixedCycleGraph": "the return type of build_mixed_cycle_graph",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _all_names(tree: ast.Module) -> Set[str]:
    """The strings listed in the module's `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _imported(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(bound name, line) of each import, except `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _read_names(tree: ast.AST) -> Set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _referenced(node: ast.AST) -> List[str]:
    """Names used as bare names or attributes under node."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
    return out


def _is_click_command(node: ast.AST) -> bool:
    for dec in getattr(node, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def _definitions(tree: ast.Module) -> Iterator[ast.AST]:
    """Top-level functions and classes, and the methods of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (sub for sub in node.body if isinstance(sub, defs))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = _tree(path)
    read = _read_names(tree) | _all_names(tree)
    unread = [f"{name} (line {line})" for name, line in _imported(tree) if name not in read]
    assert not unread, f"{path.name} imports names it never reads: {unread}"


def test_every_definition_is_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    counts: Dict[str, int] = {}
    for tree in trees.values():
        for name in _referenced(tree):
            counts[name] = counts.get(name, 0) + 1
    unreferenced = []
    for module, tree in trees.items():
        for node in _definitions(tree):
            name = node.name
            if name.startswith("__") or _is_click_command(node) or name in UNREFERENCED_OK:
                continue
            if counts.get(name, 0) == _referenced(node).count(name):
                unreferenced.append(f"{module}: {name}")
    assert not unreferenced, f"defined but never referenced in src/: {unreferenced}"


def test_allowlist_names_existing_definitions():
    defined = {node.name for path in MODULES for node in _definitions(_tree(path))}
    assert set(UNREFERENCED_OK) <= defined
