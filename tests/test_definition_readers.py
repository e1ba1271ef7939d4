"""Every definition in ``src/repro`` has a reader outside ``tests/``.

A function or class that only tests name is code the program never runs:
it costs a reader of ``src/`` time and tells them about a capability the
system does not use.  The check covers every module-level function and
class of ``src/repro``, and every private (single-underscore) method of a
module-level class, since only its own module should reach one.  It fails
on a definition that nothing outside ``tests/`` names.

A definition is named by any file of ``src/``, ``benchmarks/``,
``examples/`` and ``wallbench/``, or a ``python`` block of the README, that
reads it as a name or an attribute, imports it, writes it in a string
annotation or as a ``"module:attribute"`` loader string, or builds its name
with ``getattr(obj, f"prefix{...}")``: the kernel's ``_HANDLERS`` table
reaches every ``_sys_*`` handler that way.  Its own module names it too,
outside the definition's own body.  A package's lazy-export strings do not
count: a name only re-exported is read by whoever imports it.
"""

from __future__ import annotations

import ast
import gc
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Definitions only tests name that stay, each with its reason.
ALLOWED = {
    "src/repro/core/reexpression.py::check_partial_overwrite_resilience": (
        "item 7 candidate: a Table 1 property check build_variations may run"
    ),
    "src/repro/memory/corruption.py::corruption_outcomes": (
        "item 7 candidate: the corruption model the disjointness check reads"
    ),
    "src/repro/memory/corruption.py::detectable_by_disjoint_inverses": (
        "item 7 candidate: a Table 1 property check build_variations may run"
    ),
}

_LOADER = re.compile(r"[\w.]+:\w+")


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


def _reads(root: ast.AST) -> tuple[set[str], set[str]]:
    """``(names, prefixes)`` that *root*'s subtree reads.

    A prefix is the constant head of an f-string passed to ``getattr``.
    """
    names: set[str] = set()
    prefixes: set[str] = set()
    pending = [root]
    while pending:
        node = pending.pop()
        kind = type(node)
        if kind is ast.Name:
            names.add(node.id)
        elif kind is ast.Attribute:
            names.add(node.attr)
        elif kind is ast.alias:
            names.add(node.name.rpartition(".")[2])
        elif kind is ast.arg:
            names |= _annotation_names(node.annotation)
        elif kind is ast.FunctionDef or kind is ast.AsyncFunctionDef:
            names |= _annotation_names(node.returns)
        elif kind is ast.AnnAssign:
            names |= _annotation_names(node.annotation)
        elif kind is ast.Constant:
            if type(node.value) is str and _LOADER.fullmatch(node.value):
                names.add(node.value.rpartition(":")[2])
        elif kind is ast.Call:
            if getattr(node.func, "id", None) == "getattr" and len(node.args) > 1:
                name = node.args[1]
                if type(name) is ast.JoinedStr and type(name.values[0]) is ast.Constant:
                    prefixes.add(name.values[0].value)
        for value in node.__dict__.values():
            if type(value) is list:
                pending.extend(item for item in value if isinstance(item, ast.AST))
            elif isinstance(value, ast.AST):
                pending.append(value)
    return names, prefixes


def _definitions(statement: ast.stmt):
    """``(label, name, method)`` of each definition *statement* makes that the check covers.

    *method* is the private method's node, or ``None`` for the statement's
    own function or class.
    """
    if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return
    yield statement.name, statement.name, None
    if isinstance(statement, ast.ClassDef):
        for item in statement.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name.startswith("_")
                and not item.name.startswith("__")
            ):
                yield f"{statement.name}.{item.name}", item.name, item


def find_test_only_definitions(source_trees) -> list[str]:
    """``path::label`` of every covered definition nothing outside ``tests/`` names."""
    trees = dict(source_trees)
    readme = (ROOT / "README.md").read_text()
    for number, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        trees[f"README.md#{number}"] = ast.parse(block)
    # Where each name is read outside tests/: (file, top-level statement).
    # A package __init__ file only re-exports, through strings this check
    # does not read.
    where = defaultdict(set)
    prefixes = []
    for relative, tree in trees.items():
        if relative.startswith("tests/"):
            continue
        for position, statement in enumerate(tree.body):
            names, heads = _reads(statement)
            for name in names:
                where[name].add((relative, position))
            prefixes += [(head, relative, position) for head in heads]

    def named(name: str, relative: str, position: int) -> bool:
        """Whether *name* is read anywhere but statement *position* of *relative*."""
        sites = where.get(name, ())
        if len(sites) > 1 or (sites and (relative, position) not in sites):
            return True
        return any(
            name.startswith(head) and (site, at) != (relative, position)
            for head, site, at in prefixes
        )

    found = []
    for relative, tree in trees.items():
        if not relative.startswith("src/repro/"):
            continue
        for position, statement in enumerate(tree.body):
            for label, name, member in _definitions(statement):
                if named(name, relative, position):
                    continue
                if member is not None:
                    # A method is also read by the rest of its class.
                    rest = [item for item in statement.body if item is not member]
                    rest += statement.bases + statement.decorator_list
                    if any(name in _reads(node)[0] for node in rest):
                        continue
                found.append(f"{relative}::{label}")
    return found


def test_only_tests_name_nothing_in_src(source_trees):
    # The scan builds many small sets and no cycle; pausing the cyclic
    # collector keeps each collection from walking the trees again.
    enabled = gc.isenabled()
    gc.disable()
    try:
        found = find_test_only_definitions(source_trees)
    finally:
        if enabled:
            gc.enable()
    assert sorted(set(found) - set(ALLOWED)) == []
    # An allowed definition that gained a reader, or went, comes off the list.
    assert sorted(set(ALLOWED) - set(found)) == []
