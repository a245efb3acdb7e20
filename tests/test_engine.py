import hashlib
import random
from collections import deque

import pytest

from mpisym import engine, lang, ops, solver, symbolic
from mpisym.engine import (SearchStrategy, ValidationFailure, classify,
                           expand, scheduler, se_step, search)
from mpisym.state import MatchEvent, StepEvent, Verdict, fork, init_state, waiting_in
from randprog import pipeline_source, random_program, random_program_source


def program(text: str) -> lang.Program:
    return lang.parse_program(text)


def run_until_blocked(s):
    """Expand while exactly one successor exists and the state is running;
    the state returned with the successors is left as it was."""
    while classify(s) is Verdict.RUNNING:
        succs = expand(fork(s))
        if len(succs) != 1:
            return s, succs
        s = succs[0]
    return s, None


FIG1 = """\
symbolic
sym X : int[0..255];

program (nprocs = 3) {
  if (rank == 0) {
    x = 0;
    send x to 1;
  } else {
    if (rank == 1) {
      if (X != 'a') {
        recv x from 0;
      } else {
        recv x from any;
      }
      recv y from 2;
    } else {
      x = 20;
      send x to 1;
    }
  }
}
"""


# -- scheduler ------------------------------------------------------------------


def test_scheduler_smallest_active():
    s = init_state(program("program (nprocs = 3) { x = rank; }"), 3)
    assert scheduler(s) == 0


def test_scheduler_prefers_candidate():
    s = init_state(program("program (nprocs = 3) { x = rank; }"), 3)
    s.next_proc_candidate = 1
    assert scheduler(s) == 1
    # expand consumes the candidate
    succs = expand(s)
    assert s.next_proc_candidate is None
    first = tuple(succs[0].trace)[0]
    assert isinstance(first, StepEvent)
    assert first.rank == 1


def test_scheduler_skips_non_active_candidate():
    p = program("program (nprocs = 3) { if (rank == 0) { recv a from 1; } }")
    s = init_state(p, 3)
    s, _ = run_until_blocked(s)  # rank 0 blocks, ranks 1/2 exit -> deadlock
    assert classify(s) is Verdict.DEADLOCK


def test_scheduler_keeps_non_active_candidate():
    p = program("program (nprocs = 3) { if (rank == 0) { recv a from 1; } x = 1; }")
    s = init_state(p, 3)
    s = se_step(se_step(s, 0)[0], 0)[0]  # rank 0 sleeps on rank 1
    s.next_proc_candidate = 0
    assert scheduler(s) == 1
    expand(s)
    assert s.next_proc_candidate == 0  # only running the candidate clears it


def test_scheduler_wildcard_fork_fig1():
    p = program(FIG1)
    s = init_state(p, 3)
    # deterministic walk to the input branch of rank 1
    s, succs = run_until_blocked(s)
    assert succs is not None and len(succs) == 2  # the X != 'a' fork
    wild = succs[1]  # false side: X == 'a', wildcard receive
    wild, succs = run_until_blocked(wild)
    assert succs is not None
    pairs = scheduler(wild)
    assert pairs == [(1, 0), (1, 2)]
    succs = expand(wild, what=pairs)
    assert len(succs) == 2
    for t, (receiver, sender) in zip(succs, pairs):
        assert tuple(t.trace)[-1] == MatchEvent(sender, receiver, True)


def test_scheduler_deadlock_on_exited_partner():
    p = program("program (nprocs = 2) { if (rank == 0) { recv a from 1; } }")
    s = init_state(p, 2)
    s, _ = run_until_blocked(s)
    assert classify(s) is Verdict.DEADLOCK
    assert scheduler(s) is Verdict.DEADLOCK


def test_scheduler_returns_verdict_expand_raises():
    s = init_state(program("program {}"), 1)
    assert scheduler(s) is Verdict.TERMINATED
    with pytest.raises(engine.EngineError):
        expand(s)
    s.fail_loc = 0
    assert scheduler(s) is Verdict.ASSERT_FAIL
    with pytest.raises(engine.EngineError):
        expand(s)


# -- se_step --------------------------------------------------------------------


def test_se_step_send_blocks_and_sets_candidate():
    p = program("program (nprocs = 2) { if (rank == 0) { send 7 to 1; } }")
    s = init_state(p, 2)
    s = se_step(s, 0)[0]  # branch
    t = se_step(s, 0)[0]  # send
    assert t.procs[0].asleep
    assert t.procs[0].blocked_on == 1
    assert waiting_in(t, 0, lang.Send, 1)
    assert t.next_proc_candidate == 1


def test_se_step_recv_matches_blocked_send():
    p = program("""\
program (nprocs = 2) {
  if (rank == 0) {
    send 7 to 1;
  } else {
    recv m from 0;
    assert (m == 7);
  }
}
""")
    rep = search(p, 2)
    assert [r.verdict for r in rep.records] == [Verdict.TERMINATED]


def test_se_step_recv_any_always_blocks():
    p = program("program (nprocs = 2) { if (rank == 0) { recv m from any; } }")
    s = init_state(p, 2)
    s = se_step(s, 0)[0]
    t = se_step(s, 0)[0]
    assert t.procs[0].asleep
    assert t.procs[0].blocked_on is None
    assert waiting_in(t, 0, lang.Recv, None)
    assert t.next_proc_candidate is None


def test_se_step_symbolic_branch_forks():
    p = program("symbolic sym X : int[0..255]; program { if (X == 97) { x = 1; } }")
    s = init_state(p, 1)
    succs = se_step(s, 0)
    assert len(succs) == 2
    x = lang.Var("X")
    assert succs[0].pc == (symbolic.binary("==", x, lang.Num(97)),)
    assert succs[1].pc == (symbolic.binary("!=", x, lang.Num(97)),)


def test_se_step_infeasible_branch_not_explored():
    p = program("""\
symbolic
sym X : int[0..255];
program {
  if (X < 100) {
    if (X >= 100) {
      x = 1;
    }
  }
}
""")
    rep = search(p, 1)
    assert len(rep.records) == 2  # X<100 (inner branch only false side), X>=100
    assert all(r.verdict is Verdict.TERMINATED for r in rep.records)


def test_se_step_barrier_counts_all_ranks():
    p = program("program (nprocs = 3) { barrier; }")
    s = init_state(p, 3)
    s = se_step(s, 0)[0]
    assert [p.asleep for p in s.procs] == [True, False, False]
    s = se_step(s, 1)[0]
    assert [p.asleep for p in s.procs] == [True, True, False]
    assert all(waiting_in(s, r, lang.Barrier, None) for r in (0, 1))
    t = se_step(s, 2)[0]
    assert [(p.pc_loc, p.asleep) for p in t.procs] == [(t.compiled.end, False)] * 3
    from mpisym.state import BarrierRelease
    assert BarrierRelease(0) in t.trace


def test_se_step_barrier_single_process():
    p = program("program { barrier; x = 1; }")
    rep = search(p, 1)
    assert [r.verdict for r in rep.records] == [Verdict.TERMINATED]


def test_missing_barrier_participant_deadlocks():
    p = program("program (nprocs = 2) { if (rank == 0) { barrier; } }")
    rep = search(p, 2)
    assert [r.verdict for r in rep.records] == [Verdict.DEADLOCK]


def test_se_step_assert_forks_failure_witness():
    p = program("symbolic sym X : int[0..255]; program { assert (X < 100); }")
    rep = search(p, 1)
    verdicts = {r.verdict for r in rep.records}
    assert verdicts == {Verdict.TERMINATED, Verdict.ASSERT_FAIL}
    fail = [r for r in rep.records if r.verdict is Verdict.ASSERT_FAIL][0]
    assert fail.model == {"X": 100}  # smallest failing witness
    assert fail.fail_loc is not None


def test_se_step_concrete_assert():
    rep = search(program("program { assert (1 < 2); }"), 1)
    assert [r.verdict for r in rep.records] == [Verdict.TERMINATED]
    rep = search(program("program { assert (2 < 1); }"), 1)
    assert [r.verdict for r in rep.records] == [Verdict.ASSERT_FAIL]


def test_explicit_exit_stops_process():
    p = program("program { exit; }")
    rep = search(p, 1)
    assert [r.verdict for r in rep.records] == [Verdict.TERMINATED]


def test_unresolvable_destination_is_error_path():
    p = program("symbolic sym X : int[0..1]; program (nprocs = 2) { send 1 to X; }")
    rep = search(p, 2)
    assert [r.verdict for r in rep.records] == [Verdict.ERROR]
    assert "not constant" in rep.records[0].error


def test_entailed_destination_is_resolved():
    p = program("""\
symbolic
sym X : int[0..1];
program (nprocs = 2) {
  if (rank == 0) {
    if (X == 1) {
      send 5 to X;
    }
  } else {
    if (X == 1) {
      recv m from 0;
    }
  }
}
""")
    rep = search(p, 2)
    assert sorted(r.verdict.value for r in rep.records) == ["terminated", "terminated"]


def test_self_send_is_error():
    p = program("program (nprocs = 2) { send 1 to rank; }")
    rep = search(p, 2)
    assert all(r.verdict is Verdict.ERROR for r in rep.records)


# -- classify -------------------------------------------------------------------


def test_classify_cases():
    s = init_state(program("program {}"), 1)
    assert classify(s) is Verdict.TERMINATED
    t = init_state(program("program (nprocs = 2) { x = 1; }"), 2)
    assert classify(t) is Verdict.RUNNING


# -- search: the motivating example and rewriting counterexamples ----------------


def test_search_fig1_three_paths(corpus_entries):
    e = corpus_entries["fig1-motivating"]
    rep = search(e.program(), 3)
    assert len(rep.records) == 3
    domains = ops.lower(e.program()).domains
    x = lang.Var("X")
    is97 = symbolic.binary("==", x, lang.Num(97))
    not97 = symbolic.binary("!=", x, lang.Num(97))

    def entails(pc, cond):
        return not solver.is_sat(pc + (symbolic.negate(cond),), domains)

    t1, t2, dl = rep.records
    assert t1.verdict is Verdict.TERMINATED and entails(t1.pc, not97)
    assert t2.verdict is Verdict.TERMINATED and entails(t2.pc, is97)
    assert MatchEvent(0, 1, True) in t2.trace
    assert dl.verdict is Verdict.DEADLOCK and entails(dl.pc, is97)
    assert MatchEvent(2, 1, True) in dl.trace


def test_search_fig4a_no_false_deadlock(corpus_entries):
    rep = search(corpus_entries["fig4a-blind"].program(), 3)
    assert [r for r in rep.records if r.verdict is Verdict.DEADLOCK] == []
    assert len([r for r in rep.records if r.verdict is Verdict.TERMINATED]) == len(rep.records) == 1


def test_search_fig4b_both_outcomes(corpus_entries):
    rep = search(corpus_entries["fig4b-eager"].program(), 3)
    deadlocks = [r for r in rep.records if r.verdict is Verdict.DEADLOCK]
    assert len(deadlocks) == 1
    assert MatchEvent(2, 0, True) in deadlocks[0].trace
    assert len([r for r in rep.records if r.verdict is Verdict.TERMINATED]) == 1


def test_search_fig6_multi_wildcard(corpus_entries):
    rep = search(corpus_entries["fig6-multi-wildcard"].program(), 4)
    assert len([r for r in rep.records if r.verdict is Verdict.DEADLOCK]) >= 1
    assert len([r for r in rep.records if r.verdict is Verdict.TERMINATED]) >= 1


def test_search_validates_first():
    p = program("program (nprocs = 2) { send 1 to 9; }")
    with pytest.raises(ValidationFailure):
        search(p, 2)


def test_search_deterministic(corpus_entries):
    e = corpus_entries["fig6-multi-wildcard"]

    def fingerprint(rep):
        return [(r.verdict, r.pc, tuple(sorted(r.model.items())), r.trace)
                for r in rep.records]

    a = search(e.program(), 4)
    b = search(e.program(), 4)
    assert fingerprint(a) == fingerprint(b)
    assert a.states_created == b.states_created
    assert a.solver_queries == b.solver_queries


def test_search_bfs_same_verdict_multiset(corpus_entries):
    for name in ("fig1-motivating", "fig4b-eager", "recv-any-deadlock"):
        e = corpus_entries[name]
        dfs = search(e.program(), e.nprocs, SearchStrategy(order="dfs"))
        bfs = search(e.program(), e.nprocs, SearchStrategy(order="bfs"))
        assert sorted(r.verdict.value for r in dfs.records) == \
            sorted(r.verdict.value for r in bfs.records)


def test_search_max_states_truncates(corpus_entries):
    e = corpus_entries["fig1-motivating"]
    rep = search(e.program(), 3, SearchStrategy(max_states=4))
    assert rep.truncated


def test_search_max_depth_truncates(corpus_entries):
    e = corpus_entries["fig1-motivating"]
    rep = search(e.program(), 3, SearchStrategy(max_depth=3))
    assert rep.truncated
    full = search(e.program(), 3)
    assert not full.truncated


def test_projection_onto_a_model_restricts_paths(corpus_entries):
    e = corpus_entries["fig1-motivating"]
    rep = search(e.program(), 3)

    def projected(model):
        return [r.verdict.value for r in rep.records if symbolic.pc_holds(r.pc, model)]

    assert projected({"X": 0}) == ["terminated"]
    assert sorted(projected({"X": 97})) == ["deadlock", "terminated"]


def test_every_model_satisfies_its_path_condition(corpus_entries, rng):
    programs = [e.program() for e in corpus_entries.values()]
    nprocs = [e.nprocs for e in corpus_entries.values()]
    for _ in range(10):
        programs.append(random_program(rng))
        nprocs.append(programs[-1].nprocs_default)
    for p, n in zip(programs, nprocs):
        for rec in search(p, n).records:
            assert symbolic.pc_holds(rec.pc, rec.model)


def test_sat_only_worklist(corpus_entries, rng, monkeypatch):
    """Every state the engine ever expands has a satisfiable PC."""
    original = engine.scheduler
    checked = []

    def checking_scheduler(s):
        assert solver.is_sat(s.pc, s.compiled.domains)
        checked.append(1)
        return original(s)

    monkeypatch.setattr(engine, "scheduler", checking_scheduler)
    e = corpus_entries["fig1-motivating"]
    search(e.program(), 3)
    for _ in range(15):
        p = random_program(rng)
        search(p, p.nprocs_default)
    assert checked


# -- the wait record at every corpus deadlock -------------------------------------

# Per corpus program: the witness model of its one deadlock, and each rank's
# wait record there, as (call, peer, line) of the statement at its cursor
# with `blocked_on` as the peer, or None for a rank that exited.
DEADLOCK_WAITS = {
    "head-to-head": ({"X": 5}, [("send", 1, 7), ("send", 0, 11)]),
    "rr-deadlock": ({"X": 0}, [("send", 1, 8), ("send", 2, 13), ("send", 0, 21)]),
    "waitall-deadlock": ({"X": 0}, [("recv", 1, 8), None, ("send", 0, 16)]),
    "barrier-deadlock": ({"X": 0}, [None, ("barrier", None, 13), ("barrier", None, 13)]),
    "recv-any-deadlock": ({"X": 7}, [None, None, ("send", 0, 17)]),
    "collect-misorder": ({"X": 0}, [("barrier", None, 8), ("recv", 0, 12)]),
    "cond-bcast": ({"X": 0}, [None, ("recv", 0, 12), ("recv", 0, 12)]),
    "fig1-motivating": ({"X": 97}, [("send", 1, 9), ("recv", 2, 17), None]),
    "fig4b-eager": ({}, [("recv", 2, 6), ("send", 0, 9), None]),
    "fig6-multi-wildcard": ({}, [("send", 1, 6), ("recv", 3, 10), None, None]),
}


def wait_records(s):
    rows = []
    for p in s.procs:
        if p.pc_loc == s.compiled.end:
            rows.append(None)
            continue
        assert p.asleep
        op = s.compiled.ops[p.pc_loc]
        call = type(op).__name__.lower()
        assert waiting_in(s, p.rank, type(op), p.blocked_on)
        rows.append((call, p.blocked_on, op.line))
    return rows


def test_wait_record_at_every_corpus_deadlock(corpus_entries):
    seen = {}
    for name, e in corpus_entries.items():
        deadlocks = [r for r in search(e.program(), e.nprocs).records
                     if r.verdict is Verdict.DEADLOCK]
        if deadlocks:
            [rec] = deadlocks
            seen[name] = (rec.model, wait_records(rec.final_state))
    assert seen == DEADLOCK_WAITS


# -- the pinned search digest -----------------------------------------------------

# sha256 over every search below; a change that alters any verdict, path
# condition, model, step count, failure location, error text, trace, state
# count, query count or truncation flag changes it.
SEARCH_DIGEST = "b913f1c2c3e5832bb0e9257945001b6b5b361261f390fb843a973229d2092492"


def test_search_digest_is_pinned(corpus_entries):
    programs = [(e.program(), e.nprocs) for e in corpus_entries.values()]
    rng = random.Random(18)
    for _ in range(200):
        p = lang.parse_program(random_program_source(rng))
        programs.append((p, p.nprocs_default))
    programs += [(lang.parse_program(pipeline_source(n)), n) for n in range(2, 7)]
    h = hashlib.sha256()
    for p, nprocs in programs:
        for order in ("dfs", "bfs"):
            for bound in ({}, {"max_states": 7}, {"max_depth": 9}):
                rep = search(p, nprocs, SearchStrategy(order=order, **bound))
                h.update(repr((rep.states_created, rep.solver_queries, rep.truncated)).encode())
                for r in rep.records:
                    h.update(repr((r.verdict, r.pc, r.model, r.steps, r.fail_loc,
                                   r.error, r.trace)).encode())
    assert len(programs) == 14 + 200 + 5
    assert h.hexdigest() == SEARCH_DIGEST


# -- the search loop against the plain worklist loop --------------------------------


def reference_search(p, nprocs, strategy, model=None):
    """The worklist loop `search` replaced: every successor is pushed and
    popped again, and the bounds are checked on each popped state; the
    referee for the loop that keeps a DFS state in hand.  A `model` pins
    every input: the path condition starts as `X == v` for each, so the
    search is over match non-determinism only."""
    s0 = init_state(p, nprocs)
    if model is not None:
        s0.pc = tuple(lang.Binary("==", lang.Var(name), lang.Num(model[name]))
                      for name in s0.compiled.domains)
        s0.model = dict(model)
    stats = engine.SolverStats()
    records, states_created, truncated = [], 1, False
    dfs = strategy.order == "dfs"
    worklist = [s0] if dfs else deque([s0])
    while worklist:
        s = worklist.pop() if dfs else worklist.popleft()
        what = scheduler(s)
        if isinstance(what, Verdict):
            stats.queries += 1
            records.append((what, s.pc, s.model, s.depth, s.fail_loc, s.error, tuple(s.trace)))
            continue
        if strategy.max_depth is not None and s.depth >= strategy.max_depth:
            truncated = True
            continue
        if strategy.max_states is not None and states_created >= strategy.max_states:
            truncated = True
            continue
        succs = expand(s, stats, what)
        states_created += len(succs)
        worklist.extend(reversed(succs) if dfs else succs)
    return (states_created, stats.queries, truncated), records


def test_search_matches_worklist_reference_under_every_bound(corpus_entries):
    programs = [(e.program(), e.nprocs) for e in corpus_entries.values()]
    rng = random.Random(19)
    for _ in range(40):
        p = random_program(rng)
        programs.append((p, p.nprocs_default))
    programs += [(lang.parse_program(pipeline_source(n)), n) for n in range(2, 7)]
    searches = 0
    for p, nprocs in programs:
        for order in ("dfs", "bfs"):
            full = search(p, nprocs, SearchStrategy(order=order)).states_created
            bounds = [{}] + [{"max_states": n} for n in range(1, min(full, 40) + 1)] \
                + [{"max_depth": n} for n in range(1, 31)]
            for bound in bounds:
                strategy = SearchStrategy(order=order, **bound)
                rep = search(p, nprocs, strategy)
                got = [(r.verdict, r.pc, r.model, r.steps, r.fail_loc, r.error, r.trace)
                       for r in rep.records]
                want = reference_search(p, nprocs, strategy)
                assert ((rep.states_created, rep.solver_queries, rep.truncated), got) == want, \
                    (lang.pretty_print(p), order, bound)
                searches += 1
    assert searches == 5084


# -- the traced layers stay separate calls -------------------------------------------


def test_scheduler_and_se_step_called_once_per_state(corpus_entries, monkeypatch):
    """The bench times `scheduler` and `se_step` by rebinding them in the
    engine module; `search` must keep calling both through it, once per
    state and once per scheduled rank."""
    calls = {"scheduler": 0, "ranks": 0, "se_step": 0}
    schedule, step = engine.scheduler, engine.se_step

    def counting_scheduler(s):
        calls["scheduler"] += 1
        what = schedule(s)
        calls["ranks"] += type(what) is int
        return what

    def counting_se_step(*args):
        calls["se_step"] += 1
        return step(*args)

    monkeypatch.setattr(engine, "scheduler", counting_scheduler)
    monkeypatch.setattr(engine, "se_step", counting_se_step)
    for e in corpus_entries.values():
        for order in ("dfs", "bfs"):
            calls.update(scheduler=0, ranks=0, se_step=0)
            rep = search(e.program(), e.nprocs, SearchStrategy(order=order))
            assert calls["scheduler"] == rep.states_created, (e.name, order)
            assert calls["se_step"] == calls["ranks"] > 0, (e.name, order)

