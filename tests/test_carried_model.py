"""The model each engine state carries: always the smallest model of its
path condition, so the sat side of a branch, every terminal model and half
of each rank entailment need no search."""

import random

import pytest

from mpisym import engine, lang, report, solver, symbolic
from mpisym.engine import classify, expand, search
from mpisym.state import Verdict, assume, init_state
from randprog import random_program
from test_solver import random_condition

#: Inputs and domains of the multi-input programs below.
DOMAINS = {"X": (2, 9), "Y": (0, 7), "Z": (0, 5)}


def multi_input_source(rng: random.Random) -> str:
    """Two ranks whose branches and assertion test random conditions over
    three inputs, so guards touch one, two or all components, plus a
    send whose destination only the path condition pins (a rank
    entailment)."""
    def cond(names):
        return lang.expr_source(random_condition(rng, names))

    scopes = (("X",), ("Y",), ("Z",), ("X", "Z"), ("X", "Y", "Z"))
    q = rng.randint(0, 5)
    return "\n".join([
        "symbolic",
        *(f"sym {n} : int[{lo}..{hi}];" for n, (lo, hi) in DOMAINS.items()),
        "program (nprocs = 2) {",
        "  if (rank == 0) {",
        f"    if ({cond(rng.choice(scopes))}) {{ a = 1; }} else {{ a = 2; }}",
        f"    if (Z == {q}) {{ send a to Z - {q} + 1; }} else {{ send 0 to 1; }}",
        f"    assert ({cond(rng.choice(scopes))});",
        "  } else {",
        f"    if ({cond(rng.choice(scopes))}) {{ b = 1; }}",
        "    recv c from 0;",
        f"    if ({cond(rng.choice(scopes))}) {{ b = 2; }}",
        "  }",
        "}",
        "",
    ])


def walk_checking_models(program: lang.Program, nprocs: int, rng: random.Random) -> int:
    """Expand every state in a seeded random order; each carries the
    smallest model of its path condition.  Returns the states seen."""
    domains = init_state(program, nprocs).compiled.domains
    pending = [init_state(program, nprocs)]
    seen = 0
    while pending:
        s = pending.pop(rng.randrange(len(pending)))
        seen += 1
        assert s.model == solver.get_model(s.pc, domains), symbolic.pc_source(s.pc)
        if classify(s) is Verdict.RUNNING:
            pending.extend(expand(s))
    return seen


def check_records(program: lang.Program, nprocs: int):
    rep = search(program, nprocs)
    domains = rep.records[0].final_state.compiled.domains
    for rec in rep.records:
        assert rec.model == solver.get_model(rec.pc, domains)
        assert rec.model is rec.final_state.model


def test_every_state_carries_its_smallest_model_corpus(corpus_entries, rng):
    for entry in corpus_entries.values():
        assert walk_checking_models(entry.program(), entry.nprocs, rng) > 1
        check_records(entry.program(), entry.nprocs)


def test_every_state_carries_its_smallest_model_random_programs(rng):
    states = 0
    for _ in range(60):
        p = random_program(rng)
        states += walk_checking_models(p, p.nprocs_default, rng)
        check_records(p, p.nprocs_default)
    for _ in range(40):
        p = lang.parse_program(multi_input_source(rng))
        assert not lang.validate(p, 2)
        states += walk_checking_models(p, 2, rng)
        check_records(p, 2)
    assert states > 1000


def test_projected_records_carry_the_model_of_their_path(corpus_entries):
    """Each record of the projection onto X = 97 carries a model of its own
    path condition; the deadlock's is 97 itself, its guard's one value."""
    e = corpus_entries["fig1-motivating"]
    rep = search(e.program(), e.nprocs)
    projected = [rec for rec in rep.records if symbolic.pc_holds(rec.pc, {"X": 97})]
    assert len(projected) == 2
    assert all(symbolic.pc_holds(rec.pc, rec.model) for rec in projected)
    (deadlock,) = [rec for rec in projected if rec.verdict is Verdict.DEADLOCK]
    assert deadlock.model == {"X": 97}


REASKED = """\
symbolic
sym X : int[0..9];
program (nprocs = 2) {
  if (X > 4) { x = 1; } else { x = 2; }
}
"""


def test_reasked_guard_and_terminals_run_no_search(monkeypatch):
    """Rank 0 searches once, for the side of X > 4 that the first model
    (X = 0) fails.  Rank 1 re-asks the guard on both paths: the carried
    model answers one side and the pre-pass refutes the other, so no
    domain is walked.  The two terminal models cost nothing.  Every one
    of these still counts as a query."""
    solves, walks = [], []
    real_solve, real_models = solver._solve, solver._models

    def counted_solve(pc, *rest):
        solves.append(pc)
        return real_solve(pc, *rest)

    def counted_models(*args):
        walks.append(args)
        return real_models(*args)

    monkeypatch.setattr(solver, "_solve", counted_solve)
    monkeypatch.setattr(solver, "_models", counted_models)
    rep = search(lang.parse_program(REASKED), 2)
    assert [rec.model for rec in rep.records] == [{"X": 5}, {"X": 0}]
    assert len(solves) == 3 and len(walks) == 1
    assert rep.solver_queries == 2 + 2 * 2 + 2  # two branches, two terminals
    assert "solver queries: 8\n" in report.render(rep)


def test_assume_outside_the_model_then_answers_stay_correct():
    p = lang.parse_program("""\
symbolic
sym X : int[0..9];
sym Y : int[0..9];
program (nprocs = 2) {
  if (rank == 0) {
    if (X < 6) { a = 1; }
    if (X + Y == 9) { a = 2; }
  }
}
""")
    s = init_state(p, 2)
    cond = lang.Binary(">", lang.Var("X"), lang.Num(7))  # fails on the carried model
    assume(s, cond, solver.get_model((cond,), s.compiled.domains))
    [t] = expand(expand(s)[0])  # rank 0 at X < 6, refuted by X > 7
    assert t.model == {"X": 8, "Y": 0}


def test_non_boolean_guard_is_rejected_before_the_fast_path():
    p = lang.parse_program("symbolic sym X : int[0..3]; program { x = 1; }")
    s = init_state(p, 1)
    with pytest.raises(solver.SolverError):
        engine._model_with(s, lang.Binary("+", lang.Var("X"), lang.Num(1)), None)
