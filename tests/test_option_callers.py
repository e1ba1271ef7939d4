"""Every keyword option has a caller.

An option is a parameter with a default on a public function or method of
``src/repro``.  It has a caller when some code sets it.  The check reads the
code of ``src/``, ``tests/``, ``benchmarks/``, ``examples/`` and
``wallbench/``, and the README's ``python`` blocks, and counts these as
setting an option:

* a call that passes it by keyword, or passes enough positional arguments
  to reach it.  Calls match by the callee's name, and reach ``f`` through
  the other names it goes by: ``g = f``; ``field=f`` passed to a call, as
  the catalog's ``ServingApp`` takes its payload builders, so
  ``app.uid_overwrite(0, partial_bytes=1)`` sets an option of
  ``uid_overwrite_payload``; and ``def g(**kwargs)`` calling
  ``f(**kwargs)``.  A class's options are its ``__init__``'s, set through
  the class, a subclass, ``cls(...)`` or ``super().__init__(...)``;
* ``functools.partial(f, ...)``, like a call of ``f``;
* a ``**`` route.  A callable handed on as a value (a registry entry, a
  dict value, an argument, a ``"module:name"`` loader string) takes the
  arguments of every ``h(..., **mapping)`` call, and every option whose
  name code spells out: a string literal (a dict key, a declared
  parameter, a ``name=value`` flag), a ``dict(name=...)`` keyword, or a key
  in an example scenario file.

An option nothing sets is a configuration that no test or workload runs:
delete it, or list it in :data:`ALLOWED` with the reason it stays.
"""

from __future__ import annotations

import ast
import gc
import json
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Options no caller sets that stay, each with its reason.
ALLOWED = {
    "Libc.open(mode)": "mirrors the C open(path, flags, mode)",
    "Libc.lseek(whence)": "mirrors the C lseek(fd, offset, whence)",
    "SyscallResult.failure(value)": "mirrors the kernel's -1 failure return",
    "HttpRequest.header(default)": "mirrors dict.get, which the lookup wraps",
    "drive_engine(workload)": "the README documents it",
    "build_serving_session(multiplex)": "a checkpoint records it and restore rebuilds with it",
}


def _sources(source_trees):
    """``(defines options?, tree)`` of every scanned file and README block."""
    for relative, tree in source_trees.items():
        yield relative.startswith("src/"), tree
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        yield False, ast.parse(block)


def _scenario_keys() -> set[str]:
    keys: set[str] = set()

    def walk(value):
        if isinstance(value, dict):
            keys.update(value)
            for item in value.values():
                walk(item)
        elif isinstance(value, list):
            for item in value:
                walk(item)

    for path in (ROOT / "examples" / "scenarios").glob("*.json"):
        walk(json.loads(path.read_text()))
    return keys


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


#: The callee name under which every ``**`` call is also recorded.
ROUTE = "**"


class _Callers:
    """What each callee name is called with, over every scanned tree."""

    def __init__(self) -> None:
        self.calls = defaultdict(list)  # callee name -> [(positional count, keywords)]
        self.aliases = defaultdict(set)  # callable name -> names calls reach it through
        self.passed_on: set[tuple[str, bool]] = set()  # (name, bare?) handed on as values
        self.module_level: set[str] = set()  # names a module binds at its top level
        self.strings: set[str] = _scenario_keys()  # names a ``**`` route can spell

    def scan(self, tree: ast.Module) -> None:
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                self.module_level.add(statement.name)
            elif isinstance(statement, ast.Assign):
                self.module_level.update(map(_name, statement.targets))
        self._scan(tree, None, None)

    def _scan(self, root: ast.AST, owner, function) -> None:
        """Scan *root*'s subtree; *owner* and *function* enclose it."""
        pending = [root]
        while pending:
            node = pending.pop()
            kind = type(node)
            if kind is ast.Call:
                self._call(node, owner, function)
            elif kind is ast.Constant:
                if type(node.value) is str:
                    self.strings.add(node.value.partition("=")[0])
                    if re.fullmatch(r"[\w.]+:\w+", node.value):
                        self.passed_on.add((node.value.rpartition(":")[2], False))
            elif kind is ast.Dict:
                self._pass_on(node.values)
            elif kind is ast.Assign:
                if len(node.targets) == 1 and type(node.targets[0]) is ast.Name:
                    self.aliases[_name(node.value)].add(node.targets[0].id)
            elif kind is ast.ClassDef and node is not root:
                for base in node.bases:
                    self.aliases[_name(base)].add(node.name)
                self._scan(node, node, function)
                continue
            elif kind is ast.FunctionDef and node is not root:
                self._scan(node, owner, node)
                continue
            for value in node.__dict__.values():
                if type(value) is list:
                    pending.extend(item for item in value if isinstance(item, ast.AST))
                elif isinstance(value, ast.AST):
                    pending.append(value)

    def _pass_on(self, values) -> None:
        # A bare name handed on is a callable only if a module binds it; an
        # attribute (``Class.method``) may be one whatever its name.
        for value in values:
            if isinstance(value, (ast.Name, ast.Attribute)):
                self.passed_on.add((_name(value), isinstance(value, ast.Name)))

    def _call(self, node: ast.Call, owner, function) -> None:
        callee, arguments = _name(node.func), node.args
        if callee == "partial" and arguments:
            callee, arguments = _name(arguments[0]), arguments[1:]
        else:
            self._pass_on(arguments)
        keywords = {keyword.arg for keyword in node.keywords if keyword.arg is not None}
        site = (sum(not isinstance(a, ast.Starred) for a in arguments), keywords)
        if owner is not None and callee in ("cls", "__init__"):
            # cls(...) constructs the class; super().__init__(...) its bases.
            for base in [owner.name] if callee == "cls" else map(_name, owner.bases):
                self.calls[base].append(site)
        self.calls[callee].append(site)
        if callee == "dict":
            self.strings.update(keywords)
        mappings = [keyword.value for keyword in node.keywords if keyword.arg is None]
        if mappings:
            self.calls[ROUTE].append(site)
            # def g(..., **kwargs): f(..., **kwargs) -- g's callers set f's options.
            if function is not None and function.args.kwarg is not None:
                if any(_name(mapping) == function.args.kwarg.arg for mapping in mappings):
                    self.aliases[callee].add(function.name)
        for keyword in node.keywords:
            if keyword.arg is not None and _name(keyword.value):
                # Dataclass(field=f): a later .field(...) calls f.
                self.aliases[_name(keyword.value)].add(keyword.arg)


def _options(function: ast.FunctionDef, method: bool):
    """``(name, position)`` of each option; keyword-only ones have no position."""
    arguments = function.args
    positional = arguments.posonlyargs + arguments.args
    static = any(_name(decorator) == "staticmethod" for decorator in function.decorator_list)
    skip = 1 if method and not static else 0
    first = len(positional) - len(arguments.defaults)
    for index in range(first, len(positional)):
        yield positional[index].arg, index - skip
    for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
        if default is not None:
            yield argument.arg, None


def _definitions(tree: ast.Module):
    """``(label, callee name, options)`` of every public function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, list(_options(node, method=False))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    yield node.name, node.name, list(_options(item, method=True))
                elif not item.name.startswith("_"):
                    label = f"{node.name}.{item.name}"
                    yield label, item.name, list(_options(item, method=True))


def find_unset_options(source_trees) -> list[str]:
    """``label(option)`` of every option that nothing sets (see the module docstring)."""
    trees = list(_sources(source_trees))
    found = _Callers()
    for _, tree in trees:
        found.scan(tree)

    def reach(name: str) -> set[str]:
        """*name* and every name a call reaches it through."""
        names, pending = set(), [name]
        while pending:
            name = pending.pop()
            if name not in names:
                names.add(name)
                pending.extend(found.aliases[name])
        return names

    unset = []
    for defines, tree in trees:
        if not defines:
            continue
        for label, callee, options in _definitions(tree):
            names = reach(callee)
            routed = any(
                (name, bare) in found.passed_on
                for name in names
                for bare in ((False, True) if name in found.module_level else (False,))
            )
            if routed:
                names.add(ROUTE)
            sites = [site for name in names for site in found.calls[name]]
            for option, position in options:
                if any(
                    option in keywords or (position is not None and count > position)
                    for count, keywords in sites
                ):
                    continue
                if not (routed and option in found.strings):
                    unset.append(f"{label}({option})")
    return unset


def test_every_keyword_option_has_a_caller(source_trees):
    # The scan builds many small containers and no cycle; pausing the
    # cyclic collector keeps each collection from walking the trees again.
    enabled = gc.isenabled()
    gc.disable()
    try:
        unset = find_unset_options(source_trees)
    finally:
        if enabled:
            gc.enable()
    assert sorted(set(unset) - set(ALLOWED)) == []
    # An allowed option that gained a caller comes off the list.
    assert sorted(set(ALLOWED) - set(unset)) == []
