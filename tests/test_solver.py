import itertools
import operator
import random

import pytest

from mpisym import lang, ops, solver, symbolic
from mpisym.lang import Bool, Num, Unary, Var
from mpisym.solver import (SolverError, check_entailed_constant,
                           enumerate_models, get_model, holds, is_sat)
from mpisym.symbolic import binary
from test_lang import random_term

try:
    import numpy as np
except ImportError:  # the Python walk then answers every case
    np = None


X, Y, Z = Var("X"), Var("Y"), Var("Z")


# -- independent oracles --------------------------------------------------------


def _python_hits(pc, domains):
    """Reference oracle: walk the full product domain in ascending
    lexicographic order and yield every model of pc."""
    names = list(domains)
    for values in itertools.product(*(range(lo, hi + 1) for lo, hi in domains.values())):
        model = dict(zip(names, values))
        if all(lang.evaluate(c, model) for c in pc):
            yield model


#: Largest magnitude an intermediate value may reach on the int64 path.
INT64_SAFE = 2 ** 62

_ARRAY_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "&&": operator.and_, "||": operator.or_,
}


def max_magnitude(e, domains) -> int:
    """An upper bound on the magnitude of every integer value that `e` and
    its sub-terms take over the domain box (exact Python arithmetic)."""
    if isinstance(e, Bool):
        return 0
    if isinstance(e, Num):
        return abs(e.value)
    if isinstance(e, Var):
        return max(abs(bound) for bound in domains[e.name])
    if isinstance(e, Unary):
        return max_magnitude(e.operand, domains)
    a = max_magnitude(e.left, domains)
    b = max_magnitude(e.right, domains)
    if e.op == "*":
        return max(a, b, a * b)
    if e.op in ("+", "-"):
        return a + b
    return max(a, b)  # comparison or connective: its operands' values


def array_evaluate(e, grid):
    """The value of `e` at every point of the box at once; `grid` maps each
    input to its coordinate array.  Independent of `lang.evaluate`."""
    if isinstance(e, (Num, Bool)):
        return e.value
    if isinstance(e, Var):
        return grid[e.name]
    if isinstance(e, Unary):
        v = array_evaluate(e.operand, grid)
        return -v if e.op == "-" else np.logical_not(v)
    return _ARRAY_OPS[e.op](array_evaluate(e.left, grid), array_evaluate(e.right, grid))


def _numpy_hits(pc, domains, limit):
    """Up to `limit` models of pc, smallest first: evaluate every conjunct
    over an `ij` meshgrid of the box, whose C order is ascending
    lexicographic order, and take the hits with `flatnonzero`."""
    names = list(domains)
    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in domains.values()]
    grid = dict(zip(names, np.meshgrid(*axes, indexing="ij", sparse=True)))
    shape = tuple(len(a) for a in axes)
    mask = np.ones(shape, dtype=bool)
    for c in pc:
        mask &= array_evaluate(c, grid)
    hits = np.flatnonzero(mask)[:limit]
    lows = [lo for lo, _ in domains.values()]
    return [{name: lo + int(i) for name, lo, i in zip(names, lows, point)}
            for point in zip(*np.unravel_index(hits, shape))]


def numpy_applies(pc, domains) -> bool:
    """The numpy oracle answers only when it exists, the box has a
    dimension and no intermediate value can leave int64."""
    return (np is not None and bool(domains)
            and all(max_magnitude(c, domains) <= INT64_SAFE for c in pc))


def brute_force(pc, domains):
    """Every model of pc, smallest first."""
    if numpy_applies(pc, domains):
        return _numpy_hits(pc, domains, None)
    return list(_python_hits(pc, domains))


def first_hit(pc, domains):
    """The smallest model of pc, or None."""
    if numpy_applies(pc, domains):
        return next(iter(_numpy_hits(pc, domains, 1)), None)
    return next(_python_hits(pc, domains), None)


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


def test_get_model_unsat_is_none():
    d = {"X": (0, 3)}
    assert get_model((binary(">", X, Num(3)),), d) is None


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
        assert get_model(pc, d) is None


def test_conflict_in_one_component_skips_the_others_box(monkeypatch):
    """Z > 40 and Z < 30 conflict; the X x Y box (4M points) must not be
    enumerated to find that out.  The walk tests each point with one call
    of a compiled bucket check, so those calls are counted."""
    d = {"X": (0, 2047), "Y": (0, 2047), "Z": (0, 63)}
    pc = (binary(">", X, binary("+", Y, Num(7))), binary(">", Z, Num(40)),
          binary(">", X, Y), binary("<", Z, Num(30)))
    compile_check = solver._check
    calls = 0

    def counted(bucket):
        check = compile_check(bucket)

        def counting(model):
            nonlocal calls
            calls += 1
            if calls > 500_000:
                raise AssertionError("solver enumerated the X x Y box")
            return check(model)
        return counting

    monkeypatch.setattr(solver, "_check", counted)
    assert not is_sat(pc, d)
    assert calls > 0


#: Input names that are Python keywords, builtins, the compiled check's own
#: parameter, a dunder and a non-ASCII word; the lexer accepts each.
AWKWARD_NAMES = ("a", "lambda", "None", "True", "__builtins__", "größe")


def any_term(rng, names, sort, depth):
    """A well-sorted expression built from the raw nodes, unfolded, so that
    it may hold `Bool` leaves, `!!c` and `--x`."""
    def sub(sort):
        return any_term(rng, names, sort, depth - 1)

    roll = rng.random()
    if sort == "int":
        if depth == 0 or roll < 0.3:
            return Var(rng.choice(names)) if rng.random() < 0.5 else Num(rng.randint(-9, 9))
        if roll < 0.45:
            return Unary("-", sub("int"))
        return lang.Binary(rng.choice("+-*"), sub("int"), sub("int"))
    if depth == 0 or roll < 0.1:
        return Bool(rng.random() < 0.5)
    if roll < 0.3:
        return Unary("!", sub("bool"))
    if roll < 0.55:
        return lang.Binary(rng.choice(("&&", "||")), sub("bool"), sub("bool"))
    return lang.Binary(rng.choice(("==", "!=", "<", "<=", ">", ">=")), sub("int"), sub("int"))


def test_compiled_check_agrees_with_evaluate(rng):
    """A compiled bucket check is `all(lang.evaluate(c, m) for c in bucket)`
    at every point of small boxes, for raw and folded terms over every
    operator, under input names Python reserves or uses itself."""
    seen = set()
    for case in range(400):
        names = rng.sample(AWKWARD_NAMES + ("X", "Y"), rng.randint(1, 3))
        domains = {}
        for n in names:
            lo = rng.randint(-4, 3)
            domains[n] = (lo, lo + rng.randint(0, 3))
        bucket = []
        for _ in range(rng.randint(0, 3)):
            t = any_term(rng, names, "bool", rng.randint(0, 4))
            if case % 2:  # folded, with the renaming random_term cannot do
                t = lang.evaluate(t, {}, domains, symbolic.TERMS)
            bucket.append(t)
        check = solver._check(tuple(bucket))
        for values in itertools.product(*(range(lo, hi + 1) for lo, hi in domains.values())):
            model = dict(zip(names, values))
            expected = all(lang.evaluate(c, model) for c in bucket)
            assert check(model) is expected, (bucket, model)
        for c in bucket:
            stack = [c]
            while stack:
                e = stack.pop()
                seen.add(e.op if isinstance(e, (Unary, lang.Binary)) else type(e))
                if isinstance(e, Num) and e.value < 0:
                    seen.add("negative")
                if isinstance(e, Unary) and isinstance(e.operand, Unary):
                    seen.add("nested " + e.op)
                stack.extend((e.operand,) if isinstance(e, Unary) else
                             (e.left, e.right) if isinstance(e, lang.Binary) else ())
    assert seen >= {"+", "-", "*", "==", "!=", "<", "<=", ">", ">=", "&&", "||", "!",
                    Num, Bool, Var, "negative", "nested !", "nested -"}


def test_awkward_input_names_solve_like_the_brute_force_walk(rng):
    """Declared through the parser and solved end to end: keyword-like,
    builtin and non-ASCII input names reach the compiled check as keys."""
    decls = " ".join(f"sym {n} : int[0..4];" for n in AWKWARD_NAMES)
    program = lang.parse_program(f"symbolic {decls} program {{ }}")
    domains = ops.lower(program).domains
    for _ in range(100):
        names = rng.sample(AWKWARD_NAMES, 3)
        pc = tuple(any_term(rng, names, "bool", rng.randint(1, 3)) for _ in range(2))
        expected = first_hit(pc, domains)
        assert is_sat(pc, domains) == (expected is not None), pc
        if expected is not None:
            assert get_model(pc, domains) == expected, pc


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


def test_known_model_answers_like_a_full_search(rng):
    """Given the smallest model of pc, a query on pc and one more conjunct
    answers with that model itself when the conjunct holds on it, and
    otherwise searches only the components that conjunct touches; the
    answers are those of the oracle, and so are the rank entailments.
    Draws go on until 151 cases are checked, at most 1,000 of them: about
    half of all draws have a model of pc, and seeds 1-60 and 1729 took
    278-344 draws."""
    scopes = (("X",), ("Y",), ("Z",), ("X", "Z"), ("X", "Y"))
    checked = 0
    for _ in range(1000):
        if checked > 150:
            break
        domains = {}
        for n in ("X", "Y", "Z"):
            lo = rng.randint(-4, 8)
            domains[n] = (lo, lo + rng.randint(0, 9))
        pc = tuple(random_condition(rng, rng.choice(scopes)) for _ in range(rng.randint(0, 3)))
        known = first_hit(pc, domains)
        if known is None:
            continue
        guard = random_condition(rng, rng.choice(scopes))
        expected = first_hit(pc + (guard,), domains)
        got = get_model(pc + (guard,), domains, known)
        assert got == expected, (pc, guard)
        if expected is not None:
            assert holds(guard, expected)
            assert (got is known) == holds(guard, known)
        e = binary("+", Var(rng.choice("XYZ")), Num(rng.randint(0, 3)))
        values = {lang.evaluate(e, m) for m in brute_force(pc, domains)}
        want = values.pop() if len(values) == 1 else None
        assert check_entailed_constant(pc, e, domains, known) == want, (pc, e)
        assert check_entailed_constant(pc, e, domains) == want, (pc, e)
        checked += 1
    assert checked > 150


def test_holds_rejects_an_integer_term():
    assert holds(binary(">", X, Num(2)), {"X": 3})
    with pytest.raises(SolverError):
        holds(binary("+", X, Num(1)), {"X": 3})
    with pytest.raises(SolverError):
        check_entailed_constant((binary(">", X, Num(300)),), X, {"X": (0, 255)})


def interval(e, domains):
    return lang.evaluate(e, {}, domains, solver.INTERVALS)


def test_interval_pass_is_sound_on_small_boxes(rng):
    """Every point of a box of at most 4 x 4 points gives a term a value
    inside its interval; a boolean's interval (holds everywhere, holds
    somewhere) bounds its truth value the same way."""
    decided = set()
    for _ in range(1500):
        sort = rng.choice(("int", "bool"))
        t = random_term(rng, sort, rng.randint(0, 4))
        domains = {}
        for name in "XY":
            lo = rng.randint(-6, 6)
            domains[name] = (lo, lo + rng.randint(0, 3))
        lo, hi = interval(t, domains)
        assert lo <= hi, (t, domains)
        for x, y in itertools.product(range(domains["X"][0], domains["X"][1] + 1),
                                      range(domains["Y"][0], domains["Y"][1] + 1)):
            value = lang.evaluate(t, {"X": x, "Y": y})
            assert lo <= value <= hi, (t, domains, x, y)
        if sort == "bool":
            decided.add((lo, hi))
    assert decided == {(False, False), (False, True), (True, True)}


def test_interval_pass_decides_each_comparison_both_ways():
    low, high, four = Var("L"), Var("H"), Var("F")
    d = {"L": (0, 3), "H": (3, 8), "F": (4, 4)}
    always = [binary("<", low, four), binary("<=", low, high), binary(">", high, Num(2)),
              binary(">=", high, low), binary("==", four, Num(4)), binary("!=", low, four)]
    never = [binary("<", four, low), binary("<=", four, low), binary(">", low, four),
             binary(">=", low, four), binary("==", low, four), binary("!=", four, Num(4))]
    for c in always:
        assert interval(c, d) == (True, True), c
        assert interval(symbolic.negate(c), d) == (False, False), c
    for c in never:
        assert interval(c, d) == (False, False), c
    assert interval(binary("<", low, high), d) == (False, True)  # they touch at 3
    assert interval(binary("==", low, high), d) == (False, True)
    assert interval(binary("*", Num(-2), binary("-", low, high)), d) == (0, 16)
    # queries through the pre-pass: a conjunct true on the whole box, one false on it
    assert get_model((binary("<", low, Num(4)),), d) == {"L": 0, "H": 3, "F": 4}
    assert not is_sat((binary("<=", binary("+", low, four), Num(3)),), d)


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


def test_oracle_takes_the_python_walk_past_int64():
    d = {"X": (-3, 3)}
    big = binary("*", binary("*", X, Num(2 ** 40)), Num(2 ** 40))
    pc = (binary(">", big, Num(2 ** 81)),)
    assert not numpy_applies(pc, d)
    assert first_hit(pc, d) == {"X": 3} and brute_force(pc, d) == [{"X": 3}]


def test_numpy_oracle_matches_the_python_walk(rng):
    """The numpy oracle itself, pinned against the Python walk on the
    agreement tests' case shape, with smaller domains."""
    if np is None:
        pytest.skip("numpy is not installed, so no oracle answer comes from it")
    for case in range(300):
        nvars = rng.randint(1, 3)
        names = ("X", "Y", "Z")[:nvars]
        domains = {}
        for n in names:
            lo = rng.randint(-8, 32)
            domains[n] = (lo, lo + rng.randint(0, 15))
        pc = tuple(random_condition(rng, names) for _ in range(rng.randint(1, 4)))
        assert numpy_applies(pc, domains)
        expected = list(_python_hits(pc, domains))
        assert _numpy_hits(pc, domains, None) == expected, (pc, domains)
        assert _numpy_hits(pc, domains, 1) == expected[:1], (pc, domains)
