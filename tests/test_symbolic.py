import random

import pytest

from mpisym import engine, lang, ops, symbolic
from mpisym.lang import (Binary, Bool, LangError, Num, Unary, Var, evaluate,
                         expr_source)
from mpisym.symbolic import SymbolicError, binary, negate, unary
from randprog import random_program_source


X = Var("X")
Y = Var("Y")


def free_syms(e) -> frozenset:
    """The recursive walk that each node's kept `free` replaced: the referee."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Unary):
        return free_syms(e.operand)
    if isinstance(e, Binary):
        return free_syms(e.left) | free_syms(e.right)
    return frozenset()


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
    assert e.free == {"X"}
    assert binary("+", X, Y).free == {"X", "Y"}


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


def fields_of(e) -> list:
    return [getattr(e, name) for name in type(e).__slots__]


def test_constants_of_each_sort_are_distinct_nodes():
    nodes = [Num(1), Bool(True), Num(0), Bool(False)]
    assert len({id(e) for e in nodes}) == 4
    assert [type(e) for e in nodes] == [Num, Bool, Num, Bool]
    assert Num(1) == Num(1) and Num(1) != Bool(True) and Num(0) != Bool(False)


def test_every_node_keeps_its_free_inputs_and_is_its_only_copy(corpus_entries):
    """Over every operand of the corpus programs and of 200 random ones,
    and every conjunct of their searches' path conditions, each node's
    `free` is the recursive walk's answer, and building a node from its own
    fields returns that node."""
    programs = [(e.program(), e.nprocs) for e in corpus_entries.values()]
    rng = random.Random(24)
    for _ in range(200):
        p = lang.parse_program(random_program_source(rng))
        programs.append((p, p.nprocs_default))
    assert len(programs) == 14 + 200
    nodes = {}
    for p, nprocs in programs:
        table = ops.lower(p).ops
        stack = [getattr(op, name) for op in table
                 for name in ("expr", "cond", "payload", "dest", "src") if hasattr(op, name)]
        stack += [c for rec in engine.search(p, nprocs).records for c in rec.pc]
        while stack:
            e = stack.pop()
            if isinstance(e, lang.Expr) and id(e) not in nodes:
                nodes[id(e)] = e
                stack += fields_of(e)
    kinds = {type(e) for e in nodes.values()}
    assert kinds == {Num, Var, Unary, Binary, lang.Rank, lang.Nprocs}  # no Bool is kept
    for e in nodes.values():
        assert e.free == free_syms(e), e
        assert type(e)(*fields_of(e)) is e
