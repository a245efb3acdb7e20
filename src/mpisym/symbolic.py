"""Symbolic integer/boolean expression trees and path conditions.

Values flowing through the engine are immutable trees whose leaves are
concrete scalars or references to declared symbolic inputs.  The
constructors constant-fold, so a tree with no symbolic leaves is always a
single constant node.  A path condition is an append-only conjunction of
boolean-sorted trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Tuple, Union

from .lang import BINARY_OPS, PREC, UNARY_PREC


class SymbolicError(Exception):
    """Ill-sorted construction or evaluation of a symbolic expression."""


@dataclass(frozen=True)
class IntConst:
    value: int


@dataclass(frozen=True)
class BoolConst:
    value: bool


@dataclass(frozen=True)
class SymRef:
    """Reference to a declared symbolic input (integer-sorted)."""

    name: str


@dataclass(frozen=True)
class UnaryOp:
    op: str  # "-" | "!"
    operand: "SymExpr"


@dataclass(frozen=True)
class BinaryOp:
    op: str
    left: "SymExpr"
    right: "SymExpr"


if TYPE_CHECKING:  # annotation-only: a runtime Union would pin these classes in typing's cache
    SymExpr = Union[IntConst, BoolConst, SymRef, UnaryOp, BinaryOp]

    #: Conjunction of boolean SymExprs; grown only by appending.
    PathCondition = Tuple[SymExpr, ...]

TRUE = BoolConst(True)
FALSE = BoolConst(False)

ARITH_OPS = ("+", "-", "*")
CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
LOGIC_OPS = ("&&", "||")

_NEGATED_CMP = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def sort_of(e: SymExpr) -> str:
    """Return "int" or "bool" for a well-formed expression."""
    if isinstance(e, (IntConst, SymRef)):
        return "int"
    if isinstance(e, BoolConst):
        return "bool"
    if isinstance(e, UnaryOp):
        return "int" if e.op == "-" else "bool"
    if e.op in ARITH_OPS:
        return "int"
    return "bool"


def _apply_binary(op: str, a: int, b: int):
    try:
        return BINARY_OPS[op](a, b)
    except KeyError:
        raise SymbolicError(f"unknown operator {op!r}") from None


def unary(op: str, operand: SymExpr) -> SymExpr:
    if op == "-":
        if sort_of(operand) != "int":
            raise SymbolicError("unary '-' needs an integer operand")
        if isinstance(operand, IntConst):
            return IntConst(-operand.value)
        return UnaryOp("-", operand)
    if op == "!":
        if sort_of(operand) != "bool":
            raise SymbolicError("'!' needs a boolean operand")
        return negate(operand)
    raise SymbolicError(f"unknown unary operator {op!r}")


def binary(op: str, left: SymExpr, right: SymExpr) -> SymExpr:
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
        if isinstance(left, BoolConst):
            if op == "&&":
                return right if left.value else FALSE
            return TRUE if left.value else right
        if isinstance(right, BoolConst):
            if op == "&&":
                return left if right.value else FALSE
            return TRUE if right.value else left
        return BinaryOp(op, left, right)

    if isinstance(left, IntConst) and isinstance(right, IntConst):
        v = _apply_binary(op, left.value, right.value)
        return BoolConst(v) if op in CMP_OPS else IntConst(v)
    return BinaryOp(op, left, right)


def negate(e: SymExpr) -> SymExpr:
    """Boolean negation, pushed through comparisons for readable conditions."""
    if isinstance(e, BoolConst):
        return BoolConst(not e.value)
    if isinstance(e, UnaryOp) and e.op == "!":
        return e.operand
    if isinstance(e, BinaryOp) and e.op in CMP_OPS:
        return BinaryOp(_NEGATED_CMP[e.op], e.left, e.right)
    if sort_of(e) != "bool":
        raise SymbolicError("negate needs a boolean operand")
    return UnaryOp("!", e)


def free_syms(e: SymExpr) -> frozenset:
    if isinstance(e, SymRef):
        return frozenset((e.name,))
    if isinstance(e, UnaryOp):
        return free_syms(e.operand)
    if isinstance(e, BinaryOp):
        return free_syms(e.left) | free_syms(e.right)
    return frozenset()


def evaluate(e: SymExpr, model: Mapping[str, int]):
    """Evaluate under a full assignment of symbolic inputs; int or bool."""
    if isinstance(e, IntConst):
        return e.value
    if isinstance(e, BoolConst):
        return e.value
    if isinstance(e, SymRef):
        try:
            return model[e.name]
        except KeyError:
            raise SymbolicError(f"model does not assign {e.name!r}") from None
    if isinstance(e, UnaryOp):
        v = evaluate(e.operand, model)
        return -v if e.op == "-" else not v
    a = evaluate(e.left, model)
    b = evaluate(e.right, model)
    if e.op == "&&":
        return a and b
    if e.op == "||":
        return a or b
    return _apply_binary(e.op, a, b)


def pc_holds(pc: PathCondition, model: Mapping[str, int]) -> bool:
    return all(evaluate(c, model) for c in pc)


def to_source(e: SymExpr) -> str:
    """Render with minimal parentheses; parseable by the surface grammar."""
    return _render(e, 0)


def _render(e: SymExpr, outer: int) -> str:
    if isinstance(e, IntConst):
        return str(e.value) if e.value >= 0 else f"(-{-e.value})" if outer else f"-{-e.value}"
    if isinstance(e, BoolConst):
        # No boolean literals in the surface language; encode as a comparison.
        return "0 == 0" if e.value else "0 != 0"
    if isinstance(e, SymRef):
        return e.name
    if isinstance(e, UnaryOp):
        inner = _render(e.operand, UNARY_PREC)
        text = f"{e.op}{inner}"
        return f"({text})" if outer > UNARY_PREC else text
    prec = PREC[e.op]
    # Left-associative grammar: the right child needs parens at equal level.
    text = f"{_render(e.left, prec)} {e.op} {_render(e.right, prec + 1)}"
    return f"({text})" if outer > prec else text


def pc_source(pc: PathCondition) -> str:
    return "[" + ", ".join(to_source(c) for c in pc) + "]"
