"""Every module-level import is used.

A name a module imports and never reads is dead weight: it costs an import
at load time and tells a reader about a dependency that is not there.  The
check reads every module of ``src/`` and ``tests/`` (package
``__init__`` files aside, since they exist to re-export) and fails on a
module-level imported name that its module never reads and does not list in
``__all__``.  A name counts as read when it appears as a name in the code or
in a string annotation.
"""

from __future__ import annotations

import ast

#: Imported names kept only for other modules to import, each with its reason.
ALLOWED = {
    "src/repro/apps/clients/webbench.py:DEFAULT_STATIC_MIX": (
        "wallbench/workloads.py imports it from there"
    ),
}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module's top-level imports bind, with its line."""
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotation_names(annotation: ast.AST | None) -> set[str]:
    """The names a (possibly string) annotation reads."""
    names: set[str] = set()
    for node in ast.walk(annotation) if annotation is not None else ():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _annotation_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _read(tree: ast.Module) -> set[str]:
    """Every name the module reads, ``__all__`` entries included."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            names |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names |= {element.value for element in getattr(node.value, "elts", ())}
    return names


def _unused(source_trees) -> list[str]:
    found = []
    for relative, tree in source_trees.items():
        if relative.split("/")[0] not in ("src", "tests") or relative.endswith("/__init__.py"):
            continue
        read = _read(tree)
        for name, line in _imported(tree).items():
            if name not in read and f"{relative}:{name}" not in ALLOWED:
                found.append(f"{relative}:{line}: {name}")
    return found


def test_every_imported_name_is_used(source_trees):
    assert _unused(source_trees) == []


def test_every_allowed_name_is_imported_and_otherwise_unused(source_trees):
    for entry in ALLOWED:
        relative, name = entry.split(":")
        tree = source_trees[relative]
        assert name in _imported(tree), entry
        assert name not in _read(tree), entry
