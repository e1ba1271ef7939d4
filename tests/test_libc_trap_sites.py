"""Every program traps through a libc helper with one plain ``yield``.

A :class:`~repro.kernel.libc.Libc` helper returns its request, so a program
writes ``result = yield libc.open(path)``.  A leftover ``yield from
libc.open(path)`` compiles, and raises ``TypeError`` only when its branch
runs -- and some branches run rarely (the server's log of an error status,
an attack's failure path).  This check reads every module and fails on a
``yield from`` whose operand calls a helper: ``libc.<name>(...)``,
``<expr>.libc.<name>(...)``, ``Libc().<name>(...)`` or ``Libc.syscall(...)``.
"""

from __future__ import annotations

import ast


def _calls_a_helper(operand: ast.expr) -> bool:
    """True when *operand* is a call of a libc helper."""
    if not (isinstance(operand, ast.Call) and isinstance(operand.func, ast.Attribute)):
        return False
    owner = operand.func.value
    if isinstance(owner, ast.Call):  # Libc().<name>(...)
        owner = owner.func
    if isinstance(owner, ast.Name):
        return owner.id in ("libc", "Libc")
    return isinstance(owner, ast.Attribute) and owner.attr == "libc"


def test_no_program_yields_from_a_libc_helper(source_trees):
    leftovers = [
        f"{path}:{node.lineno}: {ast.unparse(node)}"
        for path, tree in source_trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.YieldFrom) and _calls_a_helper(node.value)
    ]
    assert not leftovers, "a libc helper returns its request; yield it:\n" + "\n".join(leftovers)


def test_the_libc_helpers_are_plain_functions(source_trees):
    tree = source_trees["src/repro/kernel/libc.py"]
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Yield, ast.YieldFrom))]
