"""Pretty-printer: emit mini-C source from an AST.

Used to materialise the transformed variant's source (so examples and tests
can diff original vs transformed code the way a reviewer of the paper's
Apache patch would) and to round-trip programs in tests.
"""

from __future__ import annotations

from repro.transform.ast_nodes import (
    Assignment,
    Binary,
    BoolLiteral,
    Call,
    Declaration,
    Expr,
    ExprStmt,
    FieldAccess,
    Function,
    Identifier,
    If,
    IntLiteral,
    NullLiteral,
    Return,
    Stmt,
    StringLiteral,
    TranslationUnit,
    Unary,
    While,
)

_INDENT = "    "


def print_expression(expr: Expr) -> str:
    """Render an expression."""
    if isinstance(expr, IntLiteral):
        if expr.original_text.lower().startswith("0x"):
            return expr.original_text
        return str(expr.value)
    if isinstance(expr, StringLiteral):
        return expr.text
    if isinstance(expr, NullLiteral):
        return "NULL"
    if isinstance(expr, BoolLiteral):
        return "true" if expr.value else "false"
    if isinstance(expr, Identifier):
        return expr.name
    if isinstance(expr, FieldAccess):
        separator = "->" if expr.arrow else "."
        return f"{print_expression(expr.base)}{separator}{expr.field}"
    if isinstance(expr, Call):
        arguments = ", ".join(print_expression(argument) for argument in expr.args)
        return f"{expr.func}({arguments})"
    if isinstance(expr, Unary):
        return f"{expr.op}{print_expression(expr.operand)}"
    if isinstance(expr, Binary):
        return f"({print_expression(expr.left)} {expr.op} {print_expression(expr.right)})"
    raise TypeError(f"cannot print expression {expr!r}")


def _print_statement(statement: Stmt, indent: int) -> list[str]:
    pad = _INDENT * indent
    if isinstance(statement, Declaration):
        pointer = "*" if statement.pointer else ""
        if statement.init is not None:
            return [f"{pad}{statement.ctype} {pointer}{statement.name} = {print_expression(statement.init)};"]
        return [f"{pad}{statement.ctype} {pointer}{statement.name};"]
    if isinstance(statement, Assignment):
        return [f"{pad}{print_expression(statement.target)} = {print_expression(statement.value)};"]
    if isinstance(statement, ExprStmt):
        return [f"{pad}{print_expression(statement.expr)};"]
    if isinstance(statement, Return):
        if statement.value is None:
            return [f"{pad}return;"]
        return [f"{pad}return {print_expression(statement.value)};"]
    if isinstance(statement, If):
        lines = [f"{pad}if ({print_expression(statement.cond)}) {{"]
        for child in statement.then_body:
            lines.extend(_print_statement(child, indent + 1))
        if statement.else_body:
            lines.append(f"{pad}}} else {{")
            for child in statement.else_body:
                lines.extend(_print_statement(child, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(statement, While):
        lines = [f"{pad}while ({print_expression(statement.cond)}) {{"]
        for child in statement.body:
            lines.extend(_print_statement(child, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    raise TypeError(f"cannot print statement {statement!r}")


def _print_function(function: Function) -> list[str]:
    parameters = ", ".join(
        f"{parameter.ctype} {'*' if parameter.pointer else ''}{parameter.name}"
        for parameter in function.parameters
    ) or "void"
    pointer = "*" if function.return_pointer else ""
    lines = [f"{function.return_type} {pointer}{function.name}({parameters}) {{"]
    for statement in function.body:
        lines.extend(_print_statement(statement, 1))
    lines.append("}")
    return lines


def print_unit(unit: TranslationUnit) -> str:
    """Render a whole translation unit back to source text."""
    lines: list[str] = []
    for variable in unit.globals:
        pointer = "*" if variable.pointer else ""
        if variable.init is not None:
            lines.append(f"{variable.ctype} {pointer}{variable.name} = {print_expression(variable.init)};")
        else:
            lines.append(f"{variable.ctype} {pointer}{variable.name};")
    if unit.globals:
        lines.append("")
    for index, function in enumerate(unit.functions):
        if index:
            lines.append("")
        lines.extend(_print_function(function))
    return "\n".join(lines) + "\n"
