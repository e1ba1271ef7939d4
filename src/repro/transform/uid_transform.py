"""The UID-variation source-to-source transformation (Section 3.3 / Section 4).

Given a parsed program and a reexpression function ``R_i``, the transformer
produces the variant-*i* source by applying, in order:

1. **implicit comparison expansion** -- ``if (!getuid())`` becomes
   ``if (getuid() == 0)`` so that the implied UID constant is explicit and
   can be reexpressed;
2. **constant reexpression** -- every integer literal used in a UID context
   (assigned to, compared with, or passed as a UID) is replaced with
   ``R_i(constant)``;
3. **comparison rewriting** -- comparisons whose operands carry UID values
   become the corresponding ``cc_*`` detection call, so the kernel performs
   the comparison on decoded values and the two variants' instruction
   streams stay identical;
4. **uid_value exposure** -- a UID value passed to an ordinary (non-kernel)
   function is wrapped in ``uid_value(...)`` so the monitor checks it at the
   point of use;
5. **cond_chk wrapping** -- ``if``/``while`` conditions that UID data may
   directly or indirectly influence (and that are not already a ``cc_*``
   call) are wrapped in ``cond_chk(...)`` so both variants are forced to
   take the same path.

The transformer returns the rewritten AST together with a
:class:`~repro.transform.report.TransformationReport` whose per-category
counts reproduce the accounting of Section 4 (15 constants, 16 uid_value, 22
comparison, 20 cond_chk changes for Apache; our mini-httpd source yields
numbers of the same shape, recorded in EXPERIMENTS.md).
"""

from __future__ import annotations

import copy
from typing import Callable

from repro.transform.analysis import (
    UID_PARAMETER_FUNCTIONS,
    UIDAnalysis,
)
from repro.transform.ast_nodes import (
    Assignment,
    Binary,
    Call,
    COMPARISON_OPS,
    Declaration,
    Expr,
    ExprStmt,
    Function,
    If,
    IntLiteral,
    Return,
    Stmt,
    TranslationUnit,
    Unary,
    While,
    is_uid_type,
)
from repro.transform.report import ChangeCategory, TransformationReport

#: Comparison operator -> detection call name (Table 2).
_CC_CALLS = {
    "==": "cc_eq",
    "!=": "cc_neq",
    "<": "cc_lt",
    "<=": "cc_leq",
    ">": "cc_gt",
    ">=": "cc_geq",
}

#: Kernel-boundary functions: their UID arguments are decoded by the kernel
#: wrappers, so they are *not* wrapped in uid_value (the check happens in the
#: wrapper itself).  Everything else that receives a UID gets uid_value.
_KERNEL_UID_FUNCTIONS = frozenset(
    {"setuid", "seteuid", "setgid", "setegid", "setreuid", "setresuid", "chown"}
)

#: Detection calls themselves are never re-wrapped.
_DETECTION_CALLS = frozenset({"uid_value", "cond_chk"} | set(_CC_CALLS.values()))


class UIDVariationTransformer:
    """Applies the UID variation to a translation unit."""

    def __init__(self, reexpress: Callable[[int], int]):
        self.reexpress = reexpress

    # -- public API -------------------------------------------------------------

    def transform(self, unit: TranslationUnit) -> tuple[TranslationUnit, TransformationReport]:
        """Return the transformed copy of *unit* and the change report."""
        transformed = copy.deepcopy(unit)
        report = TransformationReport()
        analysis = UIDAnalysis(transformed)

        for variable in transformed.globals:
            if is_uid_type(variable.ctype) and isinstance(variable.init, IntLiteral):
                self._reexpress_literal(variable.init, report)
        for function in transformed.functions:
            self._transform_function(function, analysis, report)
        return transformed, report

    # -- per-function pass ----------------------------------------------------------

    def _transform_function(
        self, function: Function, analysis: UIDAnalysis, report: TransformationReport
    ) -> None:
        returns_uid = is_uid_type(function.return_type)
        function.body = [
            self._transform_statement(
                statement, function.name, analysis, report, returns_uid=returns_uid
            )
            for statement in function.body
        ]

    def _transform_statement(
        self,
        statement: Stmt,
        scope: str,
        analysis: UIDAnalysis,
        report: TransformationReport,
        *,
        returns_uid: bool = False,
    ) -> Stmt:
        if isinstance(statement, Declaration):
            if statement.init is not None:
                statement.init = self._transform_expression(
                    statement.init, scope, analysis, report,
                    uid_context=is_uid_type(statement.ctype)
                    or statement.name in analysis.uid_variables(scope),
                )
            return statement
        if isinstance(statement, Assignment):
            uid_target = analysis.is_uid_expression(statement.target, scope)
            statement.value = self._transform_expression(
                statement.value, scope, analysis, report, uid_context=uid_target
            )
            return statement
        if isinstance(statement, ExprStmt):
            statement.expr = self._transform_expression(statement.expr, scope, analysis, report)
            return statement
        if isinstance(statement, Return):
            if statement.value is not None:
                statement.value = self._transform_expression(
                    statement.value, scope, analysis, report, uid_context=returns_uid
                )
            return statement
        if isinstance(statement, If):
            statement.cond = self._transform_condition(statement.cond, scope, analysis, report)
            statement.then_body = [
                self._transform_statement(s, scope, analysis, report, returns_uid=returns_uid)
                for s in statement.then_body
            ]
            statement.else_body = [
                self._transform_statement(s, scope, analysis, report, returns_uid=returns_uid)
                for s in statement.else_body
            ]
            return statement
        if isinstance(statement, While):
            statement.cond = self._transform_condition(statement.cond, scope, analysis, report)
            statement.body = [
                self._transform_statement(s, scope, analysis, report, returns_uid=returns_uid)
                for s in statement.body
            ]
            return statement
        return statement

    # -- conditions -------------------------------------------------------------------------

    def _transform_condition(
        self, cond: Expr, scope: str, analysis: UIDAnalysis, report: TransformationReport
    ) -> Expr:
        influenced = analysis.is_uid_influenced(cond, scope)
        cond = self._transform_expression(cond, scope, analysis, report)
        if not influenced:
            return cond
        if isinstance(cond, Call) and cond.func in _DETECTION_CALLS:
            # A cc_* comparison already exposes the condition to the monitor.
            return cond
        wrapped = Call(line=cond.line, func="cond_chk", args=[cond])
        report.record(ChangeCategory.COND_CHK, cond.line, "wrapped condition in cond_chk()")
        return wrapped

    # -- expressions ---------------------------------------------------------------------------

    def _transform_expression(
        self,
        expr: Expr,
        scope: str,
        analysis: UIDAnalysis,
        report: TransformationReport,
        *,
        uid_context: bool = False,
    ) -> Expr:
        if expr is None:
            return expr

        if isinstance(expr, IntLiteral):
            if uid_context:
                self._reexpress_literal(expr, report)
            return expr

        if isinstance(expr, Unary):
            # Implicit comparison: !uid_expr  ->  (uid_expr == 0)
            if expr.op == "!" and analysis.is_uid_expression(expr.operand, scope):
                explicit = Binary(
                    line=expr.line,
                    op="==",
                    left=expr.operand,
                    right=IntLiteral(line=expr.line, value=0, original_text="0"),
                )
                report.record(
                    ChangeCategory.IMPLICIT_COMPARISON,
                    expr.line,
                    "made implicit UID comparison explicit (! -> == 0)",
                )
                return self._transform_expression(explicit, scope, analysis, report)
            expr.operand = self._transform_expression(expr.operand, scope, analysis, report)
            return expr

        if isinstance(expr, Binary):
            left_uid = analysis.is_uid_expression(expr.left, scope)
            right_uid = analysis.is_uid_expression(expr.right, scope)
            if expr.op in COMPARISON_OPS and (left_uid or right_uid):
                left = self._transform_expression(
                    expr.left, scope, analysis, report, uid_context=right_uid or left_uid
                )
                right = self._transform_expression(
                    expr.right, scope, analysis, report, uid_context=left_uid or right_uid
                )
                call = Call(line=expr.line, func=_CC_CALLS[expr.op], args=[left, right])
                report.record(
                    ChangeCategory.COMPARISON,
                    expr.line,
                    f"rewrote UID comparison '{expr.op}' as {_CC_CALLS[expr.op]}()",
                )
                return call
            expr.left = self._transform_expression(expr.left, scope, analysis, report)
            expr.right = self._transform_expression(expr.right, scope, analysis, report)
            return expr

        if isinstance(expr, Call):
            return self._transform_call(expr, scope, analysis, report)

        return expr

    def _transform_call(
        self, call: Call, scope: str, analysis: UIDAnalysis, report: TransformationReport
    ) -> Call:
        uid_positions = UID_PARAMETER_FUNCTIONS.get(call.func, ())
        new_args: list[Expr] = []
        for index, argument in enumerate(call.args):
            is_uid_argument = index in uid_positions or analysis.is_uid_expression(argument, scope)
            argument = self._transform_expression(
                argument, scope, analysis, report, uid_context=is_uid_argument
            )
            needs_exposure = (
                is_uid_argument
                and call.func not in _KERNEL_UID_FUNCTIONS
                and call.func not in _DETECTION_CALLS
                and not (isinstance(argument, Call) and argument.func in _DETECTION_CALLS)
            )
            if needs_exposure:
                argument = Call(line=argument.line, func="uid_value", args=[argument])
                report.record(
                    ChangeCategory.UID_VALUE,
                    argument.line,
                    f"exposed UID argument of {call.func}() with uid_value()",
                )
            new_args.append(argument)
        call.args = new_args
        return call

    # -- literals --------------------------------------------------------------------------------

    def _reexpress_literal(self, literal: IntLiteral, report: TransformationReport) -> None:
        original = literal.value
        literal.value = self.reexpress(original)
        if literal.value != original:
            literal.original_text = hex(literal.value)
            report.record(
                ChangeCategory.CONSTANT,
                literal.line,
                f"reexpressed UID constant {original} -> 0x{literal.value:08X}",
            )


def transform_source(
    source: str, reexpress: Callable[[int], int]
) -> tuple[TranslationUnit, TransformationReport]:
    """Parse *source*, apply the UID variation and return AST plus report."""
    from repro.transform.parser import parse_source

    unit = parse_source(source)
    return UIDVariationTransformer(reexpress).transform(unit)
