"""Symbolic terms and path conditions.

Values flowing through the engine are terms: `lang` expression nodes whose
leaves are constants (`Num`, or `Bool`, which only folding makes) and
`Var`s, each naming a declared symbolic input.  Equal terms are one node
(`lang.Expr`), so term equality is identity, and a term's `free` holds the
inputs it reads.  The constructors here constant-fold, so a term with no
input leaves is always a single constant node.  `lang.sort_of`,
`lang.expr_source` and `lang.evaluate` serve terms as they serve surface
expressions, and `lang.evaluate` over `TERMS` turns a surface expression
into its term.  A path condition is an append-only
conjunction of boolean-sorted terms.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Mapping, Tuple

from .lang import (ARITH_OPS, BINARY_OPS, Algebra, Binary, Bool, Expr, Num, Unary, evaluate,
                   expr_source, sort_of)

if TYPE_CHECKING:
    #: Conjunction of boolean terms; grown only by appending.
    PathCondition = Tuple[Expr, ...]


class SymbolicError(Exception):
    """Ill-sorted construction of a symbolic term."""


TRUE = Bool(True)
FALSE = Bool(False)

CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
LOGIC_OPS = ("&&", "||")

_NEGATED_CMP = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def unary(op: str, operand: Expr) -> Expr:
    if op == "-":
        if sort_of(operand) != "int":
            raise SymbolicError("unary '-' needs an integer operand")
        if isinstance(operand, Num):
            return Num(-operand.value)
        return Unary("-", operand)
    if op == "!":
        if sort_of(operand) != "bool":
            raise SymbolicError("'!' needs a boolean operand")
        return negate(operand)
    raise SymbolicError(f"unknown unary operator {op!r}")


def binary(op: str, left: Expr, right: Expr) -> Expr:
    if isinstance(left, Num) and isinstance(right, Num) and op in BINARY_OPS:
        # a Num is int-sorted, so the sort checks below cannot fail here
        v = BINARY_OPS[op](left.value, right.value)
        return Bool(v) if op in CMP_OPS else Num(v)
    if op in ARITH_OPS or op in CMP_OPS:
        want = "int"
    elif op in LOGIC_OPS:
        want = "bool"
    else:
        raise SymbolicError(f"unknown operator {op!r}")
    if sort_of(left) != want or sort_of(right) != want:
        raise SymbolicError(f"operands of {op!r} must be {want}-sorted")

    if op in LOGIC_OPS:
        # Fold through boolean identities so concrete guards disappear.
        if isinstance(left, Bool):
            if op == "&&":
                return right if left.value else FALSE
            return TRUE if left.value else right
        if isinstance(right, Bool):
            if op == "&&":
                return left if right.value else FALSE
            return TRUE if right.value else left
    return Binary(op, left, right)


def negate(e: Expr) -> Expr:
    """Boolean negation, pushed through comparisons for readable conditions."""
    if isinstance(e, Bool):
        return Bool(not e.value)
    if isinstance(e, Unary) and e.op == "!":
        return e.operand
    if isinstance(e, Binary) and e.op in CMP_OPS:
        return Binary(_NEGATED_CMP[e.op], e.left, e.right)
    if sort_of(e) != "bool":
        raise SymbolicError("negate needs a boolean operand")
    return Unary("!", e)


#: Folded terms: `evaluate(e, env, inputs, TERMS)` is the term of `e`, where
#: `env` binds locals, `rank` and `nprocs` to terms and `inputs` holds the
#: names of the declared inputs.  A constant or an input is the node it is.
TERMS = Algebra(lambda e, inputs: e, {op: partial(unary, op) for op in ("-", "!")},
                {op: partial(binary, op) for op in ARITH_OPS + CMP_OPS + LOGIC_OPS})


def pc_holds(pc: PathCondition, model: Mapping[str, int]) -> bool:
    return all(evaluate(c, model) for c in pc)


def pc_source(pc: PathCondition) -> str:
    return "[" + ", ".join(expr_source(c) for c in pc) + "]"
