import itertools
import random

import pytest

from mpisym import lang, symbolic
from mpisym.lang import Num, Var
from mpisym.solver import (SolverError, check_entailed_constant, get_model,
                           is_sat, enumerate_models)
from mpisym.symbolic import binary


X, Y, Z = Var("X"), Var("Y"), Var("Z")


def _hits(pc, domains):
    """Independent oracle: walk the full product domain in ascending
    lexicographic order and yield every model of pc."""
    names = list(domains)
    for values in itertools.product(*(range(lo, hi + 1) for lo, hi in domains.values())):
        model = dict(zip(names, values))
        if all(lang.evaluate(c, model) for c in pc):
            yield model


def brute_force(pc, domains):
    """Every model of pc, smallest first."""
    return list(_hits(pc, domains))


def first_hit(pc, domains):
    """The smallest model of pc, or None; stops at the first hit."""
    return next(_hits(pc, domains), None)


def test_is_sat_simple():
    d = {"X": (0, 255)}
    assert is_sat((binary("==", X, Num(97)),), d)
    assert not is_sat((binary("==", X, Num(97)),
                       binary("!=", X, Num(97))), d)


def test_is_sat_two_variable_arithmetic():
    d = {"X": (0, 255), "Y": (0, 255)}
    pc = (binary("==", binary("+", X, Y), Num(5)), binary(">", X, Y))
    assert is_sat(pc, d)
    # expected witnesses computed by enumeration: (3,2), (4,1), (5,0)
    assert brute_force(pc, d) == [{"X": 3, "Y": 2}, {"X": 4, "Y": 1}, {"X": 5, "Y": 0}]
    assert get_model(pc, d) == {"X": 3, "Y": 2}


def test_get_model_is_lexicographically_smallest():
    d = {"X": (0, 255)}
    assert get_model((), d) == {"X": 0}
    assert get_model((binary("==", X, Num(97)),), d) == {"X": 97}
    pc = (binary("!=", X, Num(0)), binary("<", X, Num(5)))
    assert get_model(pc, d) == {"X": 1}
    assert brute_force(pc, d)[0] == {"X": 1}


def test_get_model_unsat_raises():
    d = {"X": (0, 3)}
    with pytest.raises(SolverError):
        get_model((binary(">", X, Num(3)),), d)


def test_undeclared_symbol_raises():
    d = {"Y": (0, 3)}
    c = binary("==", X, Num(1))
    # also when the query is refuted before any search
    for pc in ((c,), (c, symbolic.negate(c)), (c, c), (binary("<", Y, Num(0)), c)):
        with pytest.raises(SolverError):
            is_sat(pc, d)
        with pytest.raises(SolverError):
            enumerate_models(pc, d, 1)


def test_domain_bounds_respected():
    # out-of-domain values are not models even when arithmetic would allow them
    d = {"X": (10, 20)}
    assert not is_sat((binary("<", X, Num(10)),), d)
    assert get_model((), d) == {"X": 10}


def test_entailed_constant():
    d = {"X": (0, 255)}
    pc = (binary("==", X, Num(3)),)
    assert check_entailed_constant(pc, binary("+", X, Num(1)), d) == 4
    assert check_entailed_constant((), X, d) is None
    pc2 = (binary("<", X, Num(2)), binary(">", X, Num(0)))
    assert check_entailed_constant(pc2, X, d) == 1  # single model by enumeration
    assert check_entailed_constant((), Num(9), d) == 9
    with pytest.raises(SolverError):
        check_entailed_constant((binary(">", X, Num(300)),), X, d)


def test_enumerate_models_ascending():
    d = {"X": (0, 5), "Y": (0, 1)}
    models = enumerate_models((binary(">", X, Num(3)),), d, 3)
    assert models == [{"X": 4, "Y": 0}, {"X": 4, "Y": 1}, {"X": 5, "Y": 0}]
    assert enumerate_models((), {}, 2) == [{}]


def test_components_interleaved_in_declaration_order():
    # X and Z are linked, Y stands alone and W is unused, so the groups
    # interleave in declaration order.
    d = {"W": (-2, 1), "X": (0, 9), "Y": (0, 9), "Z": (0, 9)}
    pc = (binary("==", binary("+", X, Z), Num(7)),
          binary(">=", Y, Num(4)),
          binary(">", X, Z),
          binary("!=", Y, Num(5)))
    assert get_model(pc, d) == first_hit(pc, d) == {"W": -2, "X": 4, "Y": 4, "Z": 3}
    models = enumerate_models(pc, d, 7)
    assert models == brute_force(pc, d)[:7]
    keys = [tuple(m.values()) for m in models]
    assert keys == sorted(set(keys))


def test_repeated_conjuncts_answer_like_the_deduplicated_query():
    d = {"X": (0, 31), "Y": (0, 31)}
    a = binary(">", X, binary("+", Y, Num(7)))
    b = binary("<", Y, Num(3))
    never = binary(">", Y, X)
    for pc, repeated in (((a, b), (a, b, a, binary("&&", b, a))),
                         ((a, never), (a, never, a, never))):
        assert is_sat(repeated, d) == is_sat(pc, d)
        assert enumerate_models(repeated, d, 5) == enumerate_models(pc, d, 5)
        if is_sat(pc, d):
            assert get_model(repeated, d) == get_model(pc, d) == first_hit(pc, d)
            assert check_entailed_constant(repeated, Y, d) == check_entailed_constant(pc, Y, d)


def test_conjunct_with_its_negation_is_unsat():
    d = {"X": (0, 255), "Y": (0, 255)}
    either = binary("||", binary("==", X, Num(3)), binary("<", Y, X))
    for c in (binary(">", X, Y), either, symbolic.negate(either)):
        pc = (binary("<", Y, Num(200)), c, binary(">", X, Num(1)),
              symbolic.negate(c))
        assert not is_sat(pc, d)
        assert enumerate_models(pc, d, 3) == []
        with pytest.raises(SolverError):
            get_model(pc, d)


def test_conflict_in_one_component_skips_the_others_box(monkeypatch):
    """Z > 40 and Z < 30 conflict; the X x Y box (4M points) must not be
    enumerated to find that out."""
    d = {"X": (0, 2047), "Y": (0, 2047), "Z": (0, 63)}
    pc = (binary(">", X, binary("+", Y, Num(7))), binary(">", Z, Num(40)),
          binary(">", X, Y), binary("<", Z, Num(30)))
    evaluate = lang.evaluate
    calls = 0

    def counted(e, model, *rest):
        nonlocal calls
        calls += 1
        if calls > 500_000:
            raise AssertionError("solver enumerated the X x Y box")
        return evaluate(e, model, *rest)

    monkeypatch.setattr(lang, "evaluate", counted)
    assert not is_sat(pc, d)
    assert calls > 0


def test_agreement_on_shared_conjunct_pool(rng):
    """300 queries drawn from a small pool of satisfiable conjuncts and two
    of their negations, so repeats, complementary pairs and groups that
    share no variables are common."""
    scopes = (("X",), ("Y",), ("Z",), ("X", "Z"))
    for case in range(300):
        domains = {}
        for n in ("X", "Y", "Z"):
            lo = rng.randint(-4, 8)
            domains[n] = (lo, lo + rng.randint(0, 9))
        pool = []
        while len(pool) < 5:
            c = random_condition(rng, rng.choice(scopes))
            if first_hit((c,), domains) is not None:
                pool.append(c)
        pool += [symbolic.negate(c) for c in pool[:2]]
        pc = tuple(rng.choice(pool) for _ in range(rng.randint(1, 5)))
        expected = brute_force(pc, domains)
        assert is_sat(pc, domains) == bool(expected), (pc, domains)
        if expected:
            model = get_model(pc, domains)
            assert symbolic.pc_holds(pc, model)
            assert model == expected[0], (pc, domains)
        assert enumerate_models(pc, domains, 4) == expected[:4], (pc, domains)


def test_monotone_under_strengthening(rng):
    d = {"X": (0, 63), "Y": (0, 63)}
    for _ in range(100):
        pc = tuple(random_condition(rng, ("X", "Y")) for _ in range(rng.randint(1, 3)))
        extra = random_condition(rng, ("X", "Y"))
        if is_sat(pc + (extra,), d):
            assert is_sat(pc, d)


def random_condition(rng: random.Random, names, depth=0):
    """Random boolean expression over the given symbolic names."""
    def term():
        roll = rng.random()
        if roll < 0.45:
            return Var(rng.choice(names))
        if roll < 0.8:
            return Num(rng.randint(-4, 70))
        op = rng.choice(("+", "-", "*"))
        return binary(op, term(), term())

    if depth < 1 and rng.random() < 0.25:
        op = rng.choice(("&&", "||"))
        return binary(op, random_condition(rng, names, depth + 1),
                      random_condition(rng, names, depth + 1))
    cmp_op = rng.choice(("==", "!=", "<", "<=", ">", ">="))
    cond = binary(cmp_op, term(), term())
    if isinstance(cond, lang.Bool):
        return binary("==", Var(names[0]), Num(rng.randint(0, 3)))
    if rng.random() < 0.15:
        return symbolic.negate(cond)
    return cond


@pytest.mark.slow
def test_brute_force_agreement_1000_cases(rng):
    """Solver agrees with full enumeration on 1000 random path conditions
    over up to 3 variables with domains of width up to 64."""
    agree = 0
    for case in range(1000):
        nvars = rng.randint(1, 3)
        names = ("X", "Y", "Z")[:nvars]
        domains = {}
        for n in names:
            lo = rng.randint(-8, 32)
            domains[n] = (lo, lo + rng.randint(0, 63))
        pc = tuple(random_condition(rng, names) for _ in range(rng.randint(1, 4)))
        expected = first_hit(pc, domains)
        assert is_sat(pc, domains) == (expected is not None), (pc, domains)
        if expected is not None:
            model = get_model(pc, domains)
            assert symbolic.pc_holds(pc, model)
            assert model == expected, (pc, domains)  # smallest model
        agree += 1
    assert agree == 1000
