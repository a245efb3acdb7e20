import pytest

from mpisym import symbolic
from mpisym.lang import (Binary, Bool, LangError, Num, Unary, Var, evaluate,
                         expr_source)
from mpisym.symbolic import SymbolicError, binary, free_syms, negate, unary


X = Var("X")
Y = Var("Y")


def test_concrete_folding():
    assert binary("+", Num(5), Num(2)) == Num(7)
    assert binary("*", Num(-3), Num(4)) == Num(-12)
    assert binary("==", Num(97), Num(97)) == Bool(True)
    assert unary("-", Num(9)) == Num(-9)
    for op in ("+", "-", "*", "==", "!=", "<", "<=", ">", ">="):
        value = evaluate(Binary(op, Num(6), Num(-2)), {})
        assert binary(op, Num(6), Num(-2)) == (Num(value) if op in "+-*" else Bool(value))


def test_symbolic_trees_stay_symbolic():
    e = binary("==", X, Num(97))
    assert e == Binary("==", X, Num(97))
    assert free_syms(e) == {"X"}
    assert free_syms(binary("+", X, Y)) == {"X", "Y"}


def test_partial_folding_of_concrete_subtrees():
    # (2 + 3) folds even when a sibling stays symbolic
    e = binary("+", binary("+", Num(2), Num(3)), X)
    assert e == Binary("+", Num(5), X)


def test_logic_identities():
    c = binary("<", X, Num(3))
    assert binary("&&", Bool(True), c) == c
    assert binary("&&", c, Bool(False)) == Bool(False)
    assert binary("||", Bool(False), c) == c
    assert binary("||", c, Bool(True)) == Bool(True)


def test_sort_discipline():
    with pytest.raises(SymbolicError):
        binary("+", Bool(True), Num(1))
    with pytest.raises(SymbolicError):
        binary("&&", Num(1), Num(2))
    with pytest.raises(SymbolicError):
        binary("^", Num(1), Num(2))
    with pytest.raises(SymbolicError):
        unary("!", Num(1))
    with pytest.raises(SymbolicError):
        unary("-", Bool(False))


def test_negate_flips_comparisons():
    assert negate(binary("==", X, Num(97))) == Binary("!=", X, Num(97))
    assert negate(binary("<", X, Y)) == Binary(">=", X, Y)
    assert negate(Bool(True)) == Bool(False)
    inner = binary("&&", binary("<", X, Y), binary("<", Y, X))
    assert negate(negate(inner)) == inner


def test_evaluate():
    e = binary("&&", binary("==", X, Num(2)), binary("<", Y, Num(5)))
    assert evaluate(e, {"X": 2, "Y": 4}) is True
    assert evaluate(e, {"X": 2, "Y": 5}) is False
    assert evaluate(binary("*", X, Y), {"X": 6, "Y": 7}) == 42
    with pytest.raises(LangError):
        evaluate(X, {})


def test_to_source_minimal_parens():
    e = binary("*", binary("+", X, Num(1)), Num(2))
    assert expr_source(e) == "(X + 1) * 2"
    e2 = binary("+", X, binary("*", Y, Num(2)))
    assert expr_source(e2) == "X + Y * 2"
    e3 = binary("-", X, binary("-", Y, Num(1)))
    assert expr_source(e3) == "X - (Y - 1)"
    assert expr_source(Unary("!", binary("<", X, Y))) == "!(X < Y)"


def test_expr_source_of_folded_constants():
    assert expr_source(Num(-3)) == "-3"
    assert expr_source(binary("*", X, Num(-3))) == "X * (-3)"
    assert expr_source(symbolic.TRUE) == "0 == 0"
    assert expr_source(binary("<", Num(4), Num(2))) == "0 != 0"


def test_pc_source():
    pc = (binary("==", X, Num(97)), binary("<", Y, Num(3)))
    assert symbolic.pc_source(pc) == "[X == 97, Y < 3]"
    assert symbolic.pc_holds(pc, {"X": 97, "Y": 0})
    assert not symbolic.pc_holds(pc, {"X": 97, "Y": 3})
