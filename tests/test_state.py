import pytest

from mpisym import engine, lang, ops, replay, report, symbolic
from mpisym.state import (BarrierRelease, BranchChoice, EngineError, MatchEvent,
                          StepEvent, Trace, Verdict, advance, assume,
                          eval_expr, fork, init_state, match_transfer, new_tuple,
                          waiting_in)
from randprog import random_program

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


@pytest.fixture()
def fig1():
    return lang.parse_program(FIG1)


def test_init_state(fig1):
    s = init_state(fig1, 3)
    assert [p.asleep for p in s.procs] == [False] * 3
    assert [p.pc_loc for p in s.procs] == [0, 0, 0]
    assert s.pc == ()
    assert tuple(s.trace) == ()
    assert all(p.blocked_on is None for p in s.procs)
    assert s.next_proc_candidate is None


def test_init_state_empty_body_exits_immediately():
    s = init_state(lang.parse_program("program {}"), 1)
    assert s.compiled.end == 0
    assert [(p.pc_loc, p.asleep) for p in s.procs] == [(0, False)]
    assert engine.classify(s) is Verdict.TERMINATED


def proc_snapshot(p):
    return (p.rank, p.pc_loc, tuple(sorted(p.env.items(), key=lambda kv: kv[0])), p.asleep,
            p.blocked_on)


def snapshot(s):
    """Structural fingerprint of a state, to see a fork leak into its parent."""
    return (tuple(map(proc_snapshot, s.procs)), s.pc, s.next_proc_candidate, s.barrier_epochs,
            tuple(s.trace), s.fail_loc, s.error, tuple(s.model.items()))


def test_init_state_four_processes():
    p = lang.parse_program("program (nprocs = 4) { barrier; }")
    s = init_state(p, 4)
    assert len(s.procs) == 4
    assert not any(q.asleep for q in s.procs)


def test_fork_is_structurally_equal(fig1):
    s = init_state(fig1, 3)
    t = fork(s)
    assert snapshot(t) == snapshot(s)


def test_fork_then_advance_leaves_parent_unchanged(fig1):
    s = init_state(fig1, 3)
    before = snapshot(s)
    t = fork(s)
    engine.se_step(t, 0)
    assert snapshot(s) == before


def test_fork_independence_under_random_mutation(rng):
    for _ in range(75):
        program = random_program(rng)
        s = init_state(program, program.nprocs_default)
        # walk a few steps so states carry traces/envs
        for _ in range(rng.randrange(4)):
            if engine.classify(s) is not Verdict.RUNNING:
                break
            s = engine.expand(s)[0]
        before = snapshot(s)
        t = fork(s)
        # the fork owns its process records and environments: writing them
        # in place, and extending its trace and path condition, leaves s as
        # it was
        for proc in rng.sample(t.procs, rng.randint(1, len(t.procs))):
            for name in list(proc.env)[:1] + ["zz"]:
                proc.env[name] = lang.Num(rng.randrange(100))
            proc.pc_loc = rng.randrange(t.compiled.end + 1)
            proc.asleep = rng.choice((False, True))
            proc.blocked_on = rng.choice((None, 0, 1))
        t.trace.append(MatchEvent(0, 1, False))
        t.pc = t.pc + (lang.Bool(True),)
        assert snapshot(t) != before
        assert snapshot(s) == before


def test_fork_at_branch_differs_only_in_pc(fig1):
    s = init_state(fig1, 3)
    cond = symbolic.binary("==", lang.Var("X"), lang.Num(97))
    a = assume(fork(s), cond, {"X": 97})
    b = assume(fork(s), symbolic.negate(cond), {"X": 0})
    assert a.pc == (cond,)
    assert b.pc == (symbolic.negate(cond),)
    assert snapshot(a)[:1] == snapshot(b)[:1]  # procs identical


def test_eval_expr_concrete_fold(fig1):
    s = init_state(fig1, 3)
    s.procs[0].env["x"] = lang.Num(5)
    e = lang.Binary("+", lang.Var("x"), lang.Num(2))
    assert eval_expr(s, 0, e) == lang.Num(7)


def test_eval_expr_symbolic_comparison(fig1):
    s = init_state(fig1, 3)
    e = lang.Binary("==", lang.Var("X"), lang.Num(97))
    assert eval_expr(s, 1, e) == lang.Binary(
        "==", lang.Var("X"), lang.Num(97))
    # a constant and an input reference are terms as they are, not copies
    assert eval_expr(s, 1, e.left) is e.left and eval_expr(s, 1, e.right) is e.right


def test_eval_expr_builtins(fig1):
    s = init_state(fig1, 3)
    assert eval_expr(s, 2, lang.Var("rank")) == lang.Num(2)
    assert eval_expr(s, 2, lang.Var("nprocs")) == lang.Num(3)


def test_eval_expr_unbound_is_engine_bug(fig1):
    s = init_state(fig1, 3)
    with pytest.raises(EngineError):
        eval_expr(s, 0, lang.Var("nope"))


def table_operands(compiled):
    """Every operand in the statement table, in table order."""
    out = []
    for op in compiled.ops:
        if isinstance(op, ops.OpBranch):
            out.append(op.cond)
        elif isinstance(op, lang.Assign):
            out.append(op.expr)
        elif isinstance(op, lang.Send):
            out += [op.payload, op.dest]
        elif isinstance(op, lang.Recv) and op.src is not None:
            out.append(op.src)
    return out


def test_closed_operands_of_fig1(fig1):
    compiled = ops.lower(fig1)
    operands = table_operands(compiled)
    closed = [lang.expr_source(e) for e in operands if e in compiled.closed]
    assert closed == ["rank == 0", "0", "1", "rank == 1", "X != 97", "0", "2", "20", "1"]
    assert [lang.expr_source(e) for e in operands if e not in compiled.closed] == ["x", "x"]
    assert compiled.closed == {e for e in operands if lang.expr_source(e) != "x"}
    assert len(compiled.closed) == 7  # "0" and "1" are each one node


def test_operands_over_rank_and_nprocs_are_closed():
    p = lang.parse_program("program (nprocs = 3) {\n"
                           "  if (rank < nprocs - 1) { send rank to rank + 1; }\n"
                           "  x = nprocs - 1;\n"
                           "  y = x + rank;\n"
                           "}\n")
    compiled = ops.lower(p)
    by_source = {lang.expr_source(e): e for e in table_operands(compiled)}
    assert {lang.expr_source(e) for e in compiled.closed} == {
        "rank < nprocs - 1", "rank", "rank + 1", "nprocs - 1"}
    assert by_source["x + rank"] not in compiled.closed
    s = init_state(p, 3)
    assert [eval_expr(s, r, by_source["rank + 1"]) for r in range(3)] == [
        lang.Num(1), lang.Num(2), lang.Num(3)]
    assert set(s.terms) == {(by_source["rank + 1"], r) for r in range(3)}


def test_eval_expr_serves_no_stored_term_to_a_temporary(fig1):
    s = init_state(fig1, 3)
    compiled = s.compiled
    for e in table_operands(compiled):  # fill the table
        if e in compiled.closed:
            for r in range(3):
                eval_expr(s, r, e)
    stored = dict(s.terms)
    assert len(stored) == 7 * 3  # equal operands are one node, with one entry per rank
    seen = set()
    for i in range(500):
        s.procs[i % 3].env["x"] = lang.Num(i)
        for e in (lang.Binary("+", lang.Var("X"), lang.Num(i)),
                  lang.Binary("*", lang.Var("rank"), lang.Num(i)),
                  lang.Binary("-", lang.Var("x"), lang.Num(i % 7))):
            seen.add(id(e))
            want = lang.evaluate(e, s.procs[i % 3].env, compiled.domains, symbolic.TERMS)
            assert eval_expr(s, i % 3, e) == want
        del e
    assert len(seen) < 3 * 500  # freed temporaries' ids were reused
    assert s.terms == stored


def test_eval_expr_rereads_an_operand_that_reads_a_local(fig1):
    s = init_state(fig1, 3)
    payload = next(op.payload for op in s.compiled.ops if isinstance(op, lang.Send))
    s.procs[0].env["x"] = lang.Num(5)
    assert eval_expr(s, 0, payload) == lang.Num(5)
    s.procs[0].env["x"] = lang.Num(6)
    assert eval_expr(s, 0, payload) == lang.Num(6)
    assert s.terms == {}


def test_eval_expr_builds_a_closed_operand_once_per_rank(fig1):
    s = init_state(fig1, 3)
    by_source = {lang.expr_source(e): e for e in table_operands(s.compiled)}
    is_rank0, is_input = by_source["rank == 0"], by_source["X != 97"]
    term = eval_expr(s, 1, is_input)
    assert term == lang.Binary("!=", lang.Var("X"), lang.Num(97))
    assert eval_expr(s, 1, is_input) is term
    t = fork(s)
    assert eval_expr(t, 1, is_input) is term
    built_in_fork = eval_expr(t, 2, is_input)
    assert eval_expr(s, 2, is_input) is built_in_fork  # the fork shares the table
    assert eval_expr(s, 0, is_rank0) == lang.Bool(True)
    assert eval_expr(s, 1, is_rank0) == lang.Bool(False)  # each rank its own term
    rep = engine.search(fig1, 3)
    a, b = (r.final_state for r in rep.records[:2])
    assert a is not b
    assert eval_expr(a, 0, is_input) is eval_expr(b, 0, is_input)


def test_assume_appends(fig1):
    s = init_state(fig1, 3)
    c = symbolic.binary("==", lang.Var("X"), lang.Num(97))
    assume(s, c, {"X": 97})
    assert s.pc == (c,) and s.model == {"X": 97}
    # contradictory conjuncts are recorded verbatim; deciding them is the
    # solver's job
    assume(s, symbolic.negate(c), s.model)
    assert s.pc == (c, symbolic.negate(c))
    with pytest.raises(EngineError):
        assume(s, lang.Num(1), s.model)


def test_advance_to_exit():
    p = lang.parse_program("program { x = 1; }")
    s = init_state(p, 1)
    advance(s, [0])
    assert s.procs[0].pc_loc == s.compiled.end
    assert engine.classify(s) is Verdict.TERMINATED


def test_match_transfer_binds_and_advances(fig1):
    s = init_state(fig1, 3)
    # drive rank 0 to its blocked send, rank 1 to its concrete receive
    s = engine.expand(s)[0]  # r0 branch
    s = engine.expand(s)[0]  # r0 assign
    s = engine.expand(s)[0]  # r0 send -> blocked
    assert s.procs[0].blocked_on == 1 and waiting_in(s, 0, lang.Send, 1)
    assert s.next_proc_candidate == 1
    s = engine.expand(s)[0]  # r1 outer branch
    s = engine.expand(s)[0]  # r1 rank==1 branch
    branches = engine.expand(s)  # input test: true side first
    t = branches[0]
    before_len = len(t.trace)
    t = engine.expand(t)[0]  # r1 recv from 0: matches the blocked send
    assert t.procs[1].env["x"] == lang.Num(0)
    assert t.procs[0].pc_loc == t.compiled.end  # advanced past its last stmt
    assert not t.procs[0].asleep
    assert not t.procs[1].asleep and t.procs[1].pc_loc < t.compiled.end
    events = tuple(t.trace)[before_len:]
    assert MatchEvent(0, 1, False) in events


def test_match_transfer_wildcard_flag(fig1):
    s = init_state(fig1, 3)
    run = engine.search(fig1, 3)
    deadlock = [r for r in run.records if r.verdict is Verdict.DEADLOCK][0]
    assert MatchEvent(2, 1, True) in deadlock.trace


def test_match_transfer_mismatch_is_engine_bug(fig1):
    s = init_state(fig1, 3)
    with pytest.raises(EngineError):
        match_transfer(s, 0, 0)
    with pytest.raises(EngineError):
        match_transfer(s, 0, 1)  # nobody is at a send/recv yet


REFUSALS = """\
program (nprocs = 3) {
  send 1 to 1;
  recv x from 0;
  x = 1;
}
"""


def _refusal(case):
    """A state of REFUSALS set by hand so that `case` is refused: rank 0
    rests at the send (entry 0) and rank 1 at the receive (entry 1)."""
    s = init_state(lang.parse_program(REFUSALS), 3)
    s.procs[1].pc_loc = 1
    sender, receiver = s.procs[0], s.procs[1]
    if case == "asleep":
        sender.asleep = True
    elif case in ("exited", "advance past end"):
        sender.pc_loc = s.compiled.end
    elif case == "failed assertion":
        s.fail_loc = 0
    elif case == "error":
        s.error = "L2: rank 5 out of range [0, 3)"
    elif case == "receiver not at a receive":
        receiver.pc_loc = 2
    elif case == "sender blocked on another rank":
        sender.asleep, sender.blocked_on = True, 2
    elif case == "receiver expects another source":
        receiver.asleep, receiver.blocked_on = True, 2
    return s


@pytest.mark.parametrize("case, refuse, message", [
    ("asleep", lambda s: engine.se_step(s, 0), "se_step on rank 0 in a state where it cannot run"),
    ("exited", lambda s: engine.se_step(s, 0), "se_step on rank 0 in a state where it cannot run"),
    ("failed assertion", lambda s: engine.se_step(s, 0),
     "se_step on rank 0 in a state where it cannot run"),
    ("error", lambda s: engine.se_step(s, 0), "se_step on rank 0 in a state where it cannot run"),
    ("advance past end", lambda s: advance(s, [0]), r"advance past end of body \(rank 0\)"),
    ("receiver not at a receive", lambda s: match_transfer(s, 0, 1),
     "receiver is not at a receive"),
    ("sender blocked on another rank", lambda s: match_transfer(s, 0, 1),
     "sender is blocked on a different destination"),
    ("receiver expects another source", lambda s: match_transfer(s, 0, 1),
     "receiver expects a different source"),
    ("no process", lambda s: init_state(lang.parse_program(REFUSALS), 0),
     "nprocs must be positive"),
])
def test_the_engine_refuses_a_step_it_cannot_take(case, refuse, message):
    """Each refusal is an EngineError, an engine bug rather than a verdict,
    and leaves the scheduler's reading of the state as it was."""
    s = _refusal(case)
    before = engine.scheduler(s)
    with pytest.raises(EngineError, match=f"^{message}$"):
        refuse(s)
    assert engine.scheduler(s) == before
    ended = {"failed assertion": Verdict.ASSERT_FAIL, "error": Verdict.ERROR}
    assert engine.classify(s) is ended.get(case, Verdict.RUNNING)


def test_partition_invariant_random_walks(rng):
    for _ in range(60):
        program = random_program(rng)
        s = init_state(program, program.nprocs_default)
        for _ in range(30):
            if engine.classify(s) is not Verdict.RUNNING:
                break
            succs = engine.expand(s)
            for t in succs:
                for proc in t.procs:
                    assert type(proc.asleep) is bool and 0 <= proc.pc_loc <= t.compiled.end
                    op = t.compiled.ops[proc.pc_loc] if proc.pc_loc < t.compiled.end else None
                    if proc.asleep:
                        assert isinstance(op, (lang.Send, lang.Recv, lang.Barrier))
                    named = isinstance(op, lang.Send) or isinstance(op, lang.Recv) and op.src is not None
                    assert (proc.blocked_on is not None) == (proc.asleep and named)
                    assert proc.blocked_on != proc.rank
            s = succs[rng.randrange(len(succs))]


def test_trace_and_pc_are_prefix_monotone(rng):
    for _ in range(60):
        program = random_program(rng)
        s = init_state(program, program.nprocs_default)
        for _ in range(30):
            if engine.classify(s) is not Verdict.RUNNING:
                break
            parent_trace = tuple(s.trace)
            parent_pc = s.pc
            succs = engine.expand(s)
            for t in succs:
                assert tuple(t.trace)[:len(parent_trace)] == parent_trace
                assert len(t.trace) > len(parent_trace)
                assert t.pc[:len(parent_pc)] == parent_pc
            s = succs[rng.randrange(len(succs))]


# -- cheap fork: shared frozen trace chunks and owned process states ------------


def test_fork_shares_frozen_trace_chunks(fig1):
    s = init_state(fig1, 3)
    for _ in range(5):
        s = engine.expand(s)[0]
    before = tuple(s.trace)
    t = fork(s)
    assert len(before) > 5 and len(t.trace) == len(s.trace) == len(before)
    # the fork froze the parent's events into one chunk that both share
    assert t.trace.chunks is s.trace.chunks and s.trace.chunks == (before,)
    assert t.trace.tail == [] and s.trace.tail == []
    # an append on either side never shows on the other
    t.trace.append(MatchEvent(0, 1, False))
    s.trace.append(BarrierRelease(9))
    assert tuple(t.trace) == before + (MatchEvent(0, 1, False),) and len(t.trace) == len(before) + 1
    assert tuple(s.trace) == before + (BarrierRelease(9),) and len(s.trace) == len(before) + 1
    # a fork of the fork freezes only the one event since, on that side alone
    u = fork(t)
    assert u.trace.chunks is t.trace.chunks and u.trace.chunks[0] is s.trace.chunks[0]
    assert u.trace.chunks[1:] == ((MatchEvent(0, 1, False),),) and s.trace.chunks == (before,)
    assert tuple(u.trace) == tuple(t.trace) and tuple(s.trace)[-1] == BarrierRelease(9)


def test_fork_at_depth_copies_no_prefix(fig1):
    s = init_state(fig1, 3)
    for i in range(10_000):
        s.trace.append(StepEvent(0, i))
    t = fork(s)
    [prefix] = s.trace.chunks
    assert len(prefix) == 10_000 and t.trace.chunks[0] is prefix
    forks = [t]
    for i in range(50):  # each later fork freezes the one event since the last
        s.trace.append(StepEvent(1, i))
        forks.append(fork(s))
    assert [len(c) for c in s.trace.chunks] == [10_000] + [1] * 50
    for k, f in enumerate(forks):
        assert all(c is d for c, d in zip(f.trace.chunks, s.trace.chunks))
        assert len(f.trace.chunks) == k + 1 and len(f.trace) == 10_000 + k
        assert tuple(f.trace)[-1] == (StepEvent(1, k - 1) if k else StepEvent(0, 9_999))


def test_traces_match_plain_lists_under_random_appends_and_copies(rng):
    traces, models = [Trace()], [[]]
    for i in range(3000):
        k = rng.randrange(len(traces))
        if rng.random() < 0.2:
            traces.append(traces[k].copy())
            models.append(list(models[k]))
        else:
            traces[k].append(StepEvent(k, i))
            models[k].append(StepEvent(k, i))
    assert len(traces) > 400
    for trace, model in zip(traces, models):
        assert tuple(trace) == tuple(model) and len(trace) == len(model)


EVENTS = [(StepEvent(0, 3), "StepEvent(rank=0, loc=3)"),
          (MatchEvent(2, 1, True), "MatchEvent(sender=2, receiver=1, wildcard=True)"),
          (BranchChoice(4, False), "BranchChoice(loc=4, taken=False)"),
          (BarrierRelease(7), "BarrierRelease(epoch=7)")]


@pytest.mark.parametrize("event,text", EVENTS)
def test_event_is_an_immutable_value_of_its_kind(event, text):
    assert repr(event) == text
    twin = new_tuple(type(event), tuple(event))  # as the engine and the loader build it
    assert twin == event and not twin != event and hash(twin) == hash(event)
    assert event != tuple(event) and tuple(event) != event and not event == tuple(event)
    for other, _ in EVENTS:
        if type(other) is not type(event):
            assert event != other and not event == other
    with pytest.raises(AttributeError):
        setattr(event, event._fields[0], 5)
    with pytest.raises(AttributeError):
        event.extra = 1


def test_events_of_different_kinds_with_equal_fields_differ():
    assert StepEvent(3, 1) != BranchChoice(3, True)
    assert not StepEvent(3, 1) == BranchChoice(3, True)
    assert BarrierRelease(1) != (1,) and (1,) != BarrierRelease(1)
    assert len({StepEvent(3, 1), BranchChoice(3, True), (3, 1), StepEvent(3, 1)}) == 3


def _replaced(s, t):
    return {r for r in range(s.nprocs) if proc_snapshot(t.procs[r]) != proc_snapshot(s.procs[r])}


def _involved(s, events):
    """Ranks a step may replace: the stepping rank, both sides of a match,
    every participant of a barrier release."""
    ranks = set()
    for ev in events:
        if isinstance(ev, StepEvent):
            ranks.add(ev.rank)
        elif isinstance(ev, MatchEvent):
            ranks |= {ev.sender, ev.receiver}
        elif isinstance(ev, BarrierRelease):
            ranks |= {p.rank for p in s.procs if waiting_in(s, p.rank, lang.Barrier, None)}
    return ranks


STEP_KINDS = """\
symbolic
sym X : int[0..9];

program (nprocs = 4) {
  if (rank == 0) { x = 5; send x to 1; recv a from any; }
  if (rank == 1) { recv m from 0; recv n from 2; }
  if (rank == 2) { if (X > 3) { y = 1; } send 7 to 1; send 8 to 0; }
  barrier;
}
"""


def test_step_replaces_only_involved_processes(rng):
    programs = [lang.parse_program(STEP_KINDS)]
    programs += [random_program(rng, weights=(4, 2, 4, 3), trailing_barrier=True)
                 for _ in range(40)]
    kinds = set()
    for program in programs:
        stack = [init_state(program, program.nprocs_default)]
        while stack:
            s = stack.pop()
            if engine.classify(s) is not Verdict.RUNNING:
                continue
            what = engine.scheduler(s)
            if type(what) is int:
                op = s.compiled.ops[s.procs[what].pc_loc]
                kinds.add(type(op).__name__)
            succs = engine.expand(fork(s))
            for t in succs:
                events = tuple(t.trace)[len(s.trace):]
                if any(isinstance(ev, BarrierRelease) for ev in events):
                    kinds.add("release")
                # a failed assertion ends the path where it stands
                involved = set() if t.fail_loc is not None else _involved(s, events)
                assert _replaced(s, t) == involved, events
            stack.extend(succs)
    assert {"Assign", "OpBranch", "Send", "Recv", "Barrier", "release"} <= kinds


def test_wildcard_fork_replaces_only_the_pair(fig1):
    s = init_state(fig1, 3)
    while True:
        pairs = engine.scheduler(s)
        if isinstance(pairs, list):
            break
        s = engine.expand(s)[-1]  # the X == 'a' side reaches the wildcard
    for t, (receiver, sender) in zip(engine.expand(fork(s)), pairs):
        assert _replaced(s, t) == {receiver, sender}
        # each pair's successor shares s's frozen events and adds only its match
        assert t.trace.chunks is s.trace.chunks and s.trace.tail == []
        assert t.trace.tail == [MatchEvent(sender, receiver, True)]


def test_deep_path_has_no_recursion_limit(monkeypatch):
    forks = []
    monkeypatch.setattr(engine, "fork", lambda s: forks.append(s) or fork(s))
    program = lang.parse_program(
        "symbolic sym X : int[0..9];\n"
        "program (nprocs = 8) {\n"
        "  repeat 500 {\n"
        "    v = X * 2;\n"
        "    if (rank < nprocs - 1) { send v to rank + 1; }\n"
        "    if (rank > 0) { recv w from rank - 1; }\n"
        "    barrier;\n"
        "  }\n"
        "}\n")
    rep = engine.search(program, 8)
    [rec] = rep.records
    assert rec.verdict is Verdict.TERMINATED
    assert forks == []  # no step along the one path has a second successor
    trace = rec.trace
    assert isinstance(trace, tuple) and len(trace) > 20000
    final = rec.final_state
    assert len(final.trace) == len(trace) and tuple(final.trace) == trace
    assert tuple(fork(final).trace) == trace
    assert snapshot(final)[4] == trace
    assert isinstance(trace[0], StepEvent) and trace[0].rank == 0
    text = report.render(rep, detail=2)
    assert text.count(";") >= len(trace) - 1
    tc = replay.loads(replay.dumps(replay.make_testcase(rec, program, 8)))
    assert tc.trace == trace and replay.replay_testcase(program, tc).ok
    del rep, rec, final, trace, tc  # freeing the chain must not recurse either


def test_expand_writes_into_its_state_and_forks_only_further_successors(fig1, rng,
                                                                         monkeypatch):
    forks = []
    monkeypatch.setattr(engine, "fork", lambda s: forks.append(s) or fork(s))
    fanouts = set()
    programs = [fig1] + [random_program(rng, weights=(4, 1, 4, 1), min_procs=3)
                         for _ in range(60)]
    for program in programs:  # fig1 has the wildcard receive with two senders
        stack = [init_state(program, program.nprocs_default)]
        while stack:
            s = stack.pop()
            if engine.classify(s) is not Verdict.RUNNING:
                continue
            what = engine.scheduler(s)
            forks.clear()
            succs = engine.expand(s)
            assert succs[0] is s
            assert len(forks) == len(succs) - 1
            records = [p for t in succs for p in t.procs]
            assert len({id(p) for p in records}) == len(records)
            assert len({id(p.env) for p in records}) == len(records)
            fanouts.add((type(what) is int, len(succs) > 1))
            stack.extend(succs)
    assert fanouts == {(True, False), (True, True), (False, False), (False, True)}
