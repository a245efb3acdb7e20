import random
from collections import deque

import pytest

from mpisym import cli, engine, lang, ops, oracle, replay, report, solver
from mpisym.oracle import (B, OracleError, apply, check_theorem, deadlock_path_lengths,
                           enabled, explore_full, make_initial)
from mpisym.engine import SearchStrategy
from mpisym.state import MatchEvent, StepEvent, Verdict
from mpisym.symbolic import pc_holds
from randprog import random_program
from test_engine import reference_search


def program(text: str) -> lang.Program:
    return lang.parse_program(text)


def drain_locals(s):
    """Apply local steps (lowest rank first) until none is enabled."""
    while True:
        locals_ = [a for a in enabled(s) if isinstance(a, StepEvent)]
        if not locals_:
            return s
        s = apply(s, locals_[0])


FIG4B = """\
program (nprocs = 3) {
  if (rank == 0) {
    recv x from any;
    recv y from 2;
  } else {
    if (rank == 1) {
      send 1 to 0;
    } else {
      send 2 to 0;
    }
  }
}
"""


def test_enabled_wildcard_pairs():
    s = make_initial(program(FIG4B), 3, {})
    s = drain_locals(s)
    assert enabled(s) == [MatchEvent(1, 0, True), MatchEvent(2, 0, True)]


def test_enabled_barrier_needs_every_process():
    p = program("program (nprocs = 3) { barrier; }")
    s = make_initial(p, 3, {})
    assert enabled(s) == [B()]
    q = program("program (nprocs = 2) { if (rank == 0) { barrier; } }")
    t = make_initial(q, 2, {})
    t = drain_locals(t)
    # rank 1 exited without the barrier: nothing is enabled, rank 0 wedges
    assert enabled(t) == []
    assert not t.all_exited()


def test_enabled_concrete_pair():
    p = program("""\
program (nprocs = 2) {
  if (rank == 0) {
    send 3 to 1;
  } else {
    recv m from 0;
  }
}
""")
    s = drain_locals(make_initial(p, 2, {}))
    assert enabled(s) == [MatchEvent(0, 1, False)]
    t = apply(s, MatchEvent(0, 1, False))
    assert t.envs[1]["m"] == 3
    assert t.all_exited()


def test_apply_barrier_advances_everyone():
    p = program("program (nprocs = 3) { barrier; x = rank; }")
    s = make_initial(p, 3, {})
    t = apply(s, B())
    assert [op is not None for op in map(t.current_op, range(3))] == [True] * 3
    assert enabled(t) == [StepEvent(0, 1), StepEvent(1, 1), StepEvent(2, 1)]


def test_apply_wildcard_transfers_payload():
    e = """\
symbolic
sym X : int[0..255];

program (nprocs = 3) {
  if (rank == 0) {
    send 0 to 1;
  } else {
    if (rank == 1) {
      recv x from any;
    } else {
      send 20 to 1;
    }
  }
}
"""
    s = drain_locals(make_initial(program(e), 3, {"X": 97}))
    assert enabled(s) == [MatchEvent(0, 1, True), MatchEvent(2, 1, True)]
    t = apply(s, MatchEvent(2, 1, True))
    assert t.envs[1]["x"] == 20


def test_apply_leaves_its_input_unchanged(corpus_entries):
    """Successors share environments copy-on-write with their parent."""
    for e in corpus_entries.values():
        p = e.program()
        stack, seen = [make_initial(p, e.nprocs, {d.name: d.hi for d in p.decls})], set()
        while stack:
            s = stack.pop()
            key = s.canonical()
            if key in seen:
                continue
            seen.add(key)
            for a in enabled(s):
                stack.append(apply(s, a))
                assert s.canonical() == key, (e.name, a)


MIXED_RECEIVES = """\
program (nprocs = 3) {
  if (rank == 0) {
    send 5 to 1;
  } else {
    if (rank == 1) {
      recv v from 0;
    } else {
      recv w from any;
    }
  }
}
"""


def test_apply_requires_enabled_action():
    s = make_initial(program("program (nprocs = 2) { x = 1; }"), 2, {})
    t = make_initial(program(MIXED_RECEIVES), 3, {})
    u = drain_locals(t)
    assert enabled(u) == [MatchEvent(0, 1, False)]
    f = drain_locals(make_initial(program(FIG4B), 3, {}))
    assert enabled(f) == [MatchEvent(1, 0, True), MatchEvent(2, 0, True)]
    rows = [
        (s, MatchEvent(0, 1, False)),  # no send or receive at all
        (u, MatchEvent(0, 2, True)),  # rank 0 sends to rank 1, not to the wildcard at 2
        (u, MatchEvent(0, 2, False)),
        (u, MatchEvent(0, 1, True)),  # rank 1's receive names rank 0: not a wildcard match
        (u, StepEvent(0, u.cursors[0])),  # a step at a send posts; it is no action
        (t, StepEvent(0, t.cursors[0] + 1)),  # not rank 0's cursor
        # a rank outside [0, nprocs) names no process, not one counted from the end
        (s, StepEvent(-1, 0)),
        (s, StepEvent(2, 0)),
        (f, MatchEvent(-2, 0, True)),
        (f, MatchEvent(1, -3, True)),
        (f, MatchEvent(3, 0, True)),
        (f, MatchEvent(1, 3, True)),
    ]
    for state, action in rows:
        assert action not in enabled(state)
        with pytest.raises(OracleError):
            apply(state, action)


def test_enabled_independent_pairs():
    s = drain_locals(make_initial(program(TWO_PAIRS), 4, {}))
    assert enabled(s) == [MatchEvent(0, 1, False), MatchEvent(2, 3, False)]


def test_explore_full_fig4b():
    result = explore_full(program(FIG4B), 3, {})
    tags = sorted(tag for tag, _ in result.terminals.values())
    assert tags == ["deadlock", "terminated"]
    assert any(tag == "deadlock" for tag, _ in result.terminals.values())


def test_explore_full_fig4a(corpus_entries):
    e = corpus_entries["fig4a-blind"]
    result = explore_full(e.program(), 3, {})
    tags = {tag for tag, _ in result.terminals.values()}
    assert tags == {"terminated"}


def test_explore_full_fig1_by_model(corpus_entries):
    e = corpus_entries["fig1-motivating"]
    with_a = explore_full(e.program(), 3, {"X": 97})
    assert sorted(t for t, _ in with_a.terminals.values()) == ["deadlock", "terminated"]
    without_a = explore_full(e.program(), 3, {"X": 0})
    assert {t for t, _ in without_a.terminals.values()} == {"terminated"}


def test_explore_full_dedups_states():
    # two independent local assigns: diamond graph, 4 distinct states
    p = program("""\
program (nprocs = 2) {
  if (rank == 0) {
    a = 1;
  } else {
    b = 2;
  }
}
""")
    result = explore_full(p, 2, {})
    assert result.visited == 9
    assert len(result.terminals) == 1


def test_explore_full_bound():
    p = program("program (nprocs = 4) { barrier; barrier; barrier; }")
    with pytest.raises(oracle.BoundExceeded):
        explore_full(p, 4, {}, state_bound=2)


def test_explore_full_reports_assertion_failure(corpus_entries):
    """A failed assertion is a state of its own, with an `assertfail` tag."""
    p = corpus_entries["assert-payload"].program()
    for x, tags in ((0, {"terminated"}), (99, {"terminated"}),
                    (100, {"assertfail"}), (200, {"assertfail"})):
        result = explore_full(p, 2, {"X": x})
        assert {tag for tag, _ in result.terminals.values()} == tags, x
        assert deadlock_path_lengths(p, 2, {"X": x}) == ({}, result.visited)


def test_state_bound_boundary(corpus_entries):
    """A bound equal to the visited count succeeds; one less raises."""
    for name, model in (("fig6-multi-wildcard", {}), ("assert-payload", {"X": 200}),
                        ("barrier-deadlock", {"X": 0})):
        e = corpus_entries[name]
        p = e.program()
        visited = explore_full(p, e.nprocs, model).visited
        assert explore_full(p, e.nprocs, model, state_bound=visited).visited == visited
        assert deadlock_path_lengths(p, e.nprocs, model, state_bound=visited)[1] == visited
        with pytest.raises(oracle.BoundExceeded):
            explore_full(p, e.nprocs, model, state_bound=visited - 1)
        with pytest.raises(oracle.BoundExceeded):
            deadlock_path_lengths(p, e.nprocs, model, state_bound=visited - 1)


def all_paths_reference(p, nprocs, model):
    """Terminals over every path from the initial state, by a depth-first
    walk over `enabled` / `apply` that shares no code with the oracle's
    search: terminal canonical -> (tag, set of path lengths), and the number
    of distinct (cursors, envs, fail_loc) states.  A state's suffixes are
    memoised, so every path counts without being walked one by one (forty
    random programs of this size can have over a million paths between
    them)."""
    memo = {}

    def suffixes(s):
        ident = (tuple(s.cursors), tuple(tuple(sorted(env.items())) for env in s.envs),
                 s.fail_loc)
        if ident not in memo:
            acts = enabled(s)
            if not acts:
                tag = ("assertfail" if s.fail_loc is not None
                       else "terminated" if s.all_exited() else "deadlock")
                memo[ident] = {s.canonical(): (tag, {0})}
            else:
                out = {}
                for a in acts:
                    for term, (tag, lens) in suffixes(apply(s, a)).items():
                        out.setdefault(term, (tag, set()))[1].update(n + 1 for n in lens)
                memo[ident] = out
        return memo[ident]

    return suffixes(make_initial(p, nprocs, model)), len(memo)


REBIND = """\
program (nprocs = 3) {
  if (rank == 0) {
    x = 0;
    recv x from any;
    recv x from any;
  } else {
    x = rank;
    send x to 0;
  }
}
"""


WIDE_PROGRAMS = 12


def test_search_matches_all_paths_reference(corpus_entries, rng):
    # REBIND overwrites a variable, so a changed env keeps its size
    cases = [("rebind", program(REBIND), 3, {})]
    for e in corpus_entries.values():
        p = e.program()
        for pick in (lambda d: d.lo, lambda d: d.hi):
            cases.append((e.name, p, e.nprocs, {d.name: pick(d) for d in p.decls}))
    # the default size, then the size of the benchmark's oracle-differential
    # programs: 4-5 ranks and up to 8 communication statements
    for shape in [{}] * 40 + [dict(min_procs=4, max_procs=5, max_comm=8)] * WIDE_PROGRAMS:
        p = random_program(rng, **shape)
        cases.append((lang.pretty_print(p), p, p.nprocs_default,
                      {d.name: rng.randint(d.lo, d.hi) for d in p.decls}))

    tags = set()
    for name, p, nprocs, model in cases:
        terms, states = all_paths_reference(p, nprocs, model)
        deadlocks = {k: frozenset(lens) for k, (tag, lens) in terms.items()
                     if tag == "deadlock"}
        assert deadlock_path_lengths(p, nprocs, model) == (deadlocks, states), name
        full = explore_full(p, nprocs, model)
        assert full.terminals == {k: (tag, min(lens)) for k, (tag, lens) in terms.items()}, name
        assert full.visited == states, name
        tags.update(tag for tag, _ in terms.values())
    assert tags == {"terminated", "deadlock", "assertfail"}


def test_model_must_cover_declared_inputs(corpus_entries):
    e = corpus_entries["fig1-motivating"]
    with pytest.raises(OracleError):
        make_initial(e.program(), 3, {})


@pytest.mark.parametrize("model,message", [
    ({"X": 1, "Z": 2}, "model assigns undeclared input 'Z'"),
    ({}, "model does not assign 'X'"),
    ({"X": 999}, "model value X=999 outside [0, 255]"),
])
def test_pinned_model_faults_read_the_same_in_engine_and_oracle(corpus_entries, model, message):
    """One check of a pinned model: `check_theorem` checks it before it
    runs the engine, and the oracle checks it again; both raise OracleError
    with the same words."""
    p = corpus_entries["fig1-motivating"].program()
    for run in (lambda: check_theorem(p, 3, model), lambda: make_initial(p, 3, model)):
        with pytest.raises(OracleError) as exc:
            run()
        assert str(exc.value) == message


def referee_state_graph(program, nprocs, model, state_bound):
    """Referee for the oracle's walk over interned keys: the plain
    breadth-first walk, in which every edge applies its action to a copied
    state and diffs the environments.  Yields (id, state, depth, successor
    ids) for every state."""
    env_ids = {}

    def env_id(env):
        return env_ids.setdefault(tuple(sorted(env.items())), len(env_ids))

    init = make_initial(program, nprocs, model)
    envs0 = tuple(env_id(env) for env in init.envs)
    ids = {(tuple(init.cursors), envs0, None): 0}
    queue = deque([(0, init, 0, envs0)])
    while queue:
        sid, s, depth, envs = queue.popleft()
        if sid >= state_bound:
            raise oracle.BoundExceeded(f"oracle state bound {state_bound} exceeded")
        targets = []
        for a in enabled(s):
            t = apply(s, a)
            # equal envs have equal ids, and step replaces only the dicts it
            # writes: every other rank keeps its parent's env id
            tenvs = envs if t.envs == s.envs else tuple(
                k if env is penv else env_id(env)
                for env, penv, k in zip(t.envs, s.envs, envs))
            key = (tuple(t.cursors), tenvs, t.fail_loc)
            tid = ids.get(key)
            if tid is None:
                tid = ids[key] = len(ids)
                queue.append((tid, t, depth + 1, tenvs))
            targets.append(tid)
        yield sid, s, depth, targets


def referee_summary(program, nprocs, model):
    """What the referee's walk decides whatever order it visits states in:
    the state count, every terminal as (canonical key, tag, BFS depth), and
    the deadlock path-length sets, propagated over the referee's edges in
    topological order (Kahn) as bitsets."""
    edges, terminals, deadlocks = [], [], []
    for sid, s, depth, targets in referee_state_graph(program, nprocs, model, 200_000):
        edges.append(targets)
        if not targets:
            tag = oracle._terminal_tag(s)
            terminals.append((s.canonical(), tag, depth))
            if tag == "deadlock":
                deadlocks.append((sid, s.canonical()))
    indeg = [0] * len(edges)
    for targets in edges:
        for t in targets:
            indeg[t] += 1
    lengths = [0] * len(edges)
    lengths[0] = 1
    ready = [0]
    while ready:
        k = ready.pop()
        for t in edges[k]:
            lengths[t] |= lengths[k] << 1
            indeg[t] -= 1
            if not indeg[t]:
                ready.append(t)
    lengths_of = {key: frozenset(n for n in range(lengths[sid].bit_length())
                                 if lengths[sid] >> n & 1)
                  for sid, key in deadlocks}
    return len(edges), terminals, lengths_of


def test_state_graph_matches_referee(corpus_entries, rng):
    """The one walk in cursor-sum order agrees with the breadth-first
    per-edge referee on everything the visiting order does not decide: the
    state count, the terminals with their shortest depths, the deadlock
    path-length sets and where the bound falls.  A send to no valid rank
    (which validation cannot see when the destination is not a literal)
    raises at the first state that holds one, ranks checked in rank order."""
    cases = [(program(REBIND), 3, {}), (program(MEMO_NEEDS_ENV), 3, {}),
             (program(TWO_LENGTHS), 3, {}), (program(TWO_FAIL_AT_ONCE), 3, {}),
             (program(TWELVE_RANKS), 12, {})]
    for e in corpus_entries.values():
        p = e.program()
        for pick in (lambda d: d.lo, lambda d: d.hi):
            cases.append((p, e.nprocs, {d.name: pick(d) for d in p.decls}))
    for _ in range(100):
        p = random_program(rng)
        cases.append((p, p.nprocs_default, {d.name: rng.randint(d.lo, d.hi) for d in p.decls}))

    terminals, several_lengths = 0, 0
    for p, nprocs, model in cases:  # each walked at its exact count: the narrowest keys
        count, want, lengths = referee_summary(p, nprocs, model)
        full = explore_full(p, nprocs, model, count)
        assert full.visited == count, lang.pretty_print(p)
        assert full.terminals == {key: (tag, depth) for key, tag, depth in want}, \
            lang.pretty_print(p)
        assert deadlock_path_lengths(p, nprocs, model, count) == (lengths, count), \
            lang.pretty_print(p)
        terminals += len(want)
        several_lengths += sum(len(lens) > 1 for lens in lengths.values())
        for bound in {count, count - 1, count // 2} - {0}:
            if count > bound:
                with pytest.raises(oracle.BoundExceeded):
                    oracle._terminals(p, nprocs, model, bound)
            else:
                assert oracle._terminals(p, nprocs, model, bound)[1] == count
    assert terminals > len(cases)
    assert several_lengths

    errors = []
    for bad in ("x = rank; if (rank == 0) { recv y from any; } else { send x to rank + 1; }",
                "if (rank == 2) { send 1 to rank; } else { send 1 to 2 - rank; recv z from any; }",
                "send 1 to 1 + rank * rank - rank;"):
        p = program(f"program (nprocs = 3) {{ {bad} }}")
        with pytest.raises(OracleError):
            referee_summary(p, 3, {})
        with pytest.raises(OracleError) as exc:
            oracle._terminals(p, 3, {}, 200_000)
        errors.append(str(exc.value))
    # rank 2's send sits at a lower cursor than rank 1's in the second
    # program; in the third, ranks 1 and 2 both send to no valid rank
    assert errors == ["send destination 3 invalid at rank 2",
                      "send destination 2 invalid at rank 2",
                      "send destination 1 invalid at rank 1"]


#: Ranks 1 and 2 fail the first assertion at one location in every state
#: where both are still at it, the initial one included; rank 0 fails the
#: second.
TWO_FAIL_AT_ONCE = """\
program (nprocs = 3) {
  assert (rank < 1);
  x = rank;
  assert (x > 0);
}
"""


#: Ranks 10 and 11 fail their assertion at one location wherever they are
#: both at it, and the barrier is never released.
TWELVE_RANKS = """\
program (nprocs = 12) {
  assert (rank < 10);
  barrier;
}
"""


#: Both wildcard orders reach one deadlock (rank 0 waits for a second
#: message from rank 1), by paths of 8 and of 9 actions: rank 0 assigns
#: once more when rank 1's message comes first.
TWO_LENGTHS = """\
program (nprocs = 3) {
  if (rank == 0) {
    recv x from any;
    if (x == 1) {
      x = 0;
    }
    x = 0;
    recv x from any;
    x = 0;
    recv q from 1;
  } else {
    send rank to 0;
  }
}
"""


#: Rank 0 reaches the same cursor, after its wildcard receive, with x = 1
#: or x = 2; the branch it takes there and the destination of its send
#: both depend on x.  Ranks 1 and 2 each send to 0 and wait for its answer,
#: so whichever sender rank 0 does not match stays stuck in its send.
MEMO_NEEDS_ENV = """\
program (nprocs = 3) {
  if (rank == 0) {
    recv x from any;
    if (x == 1) {
      y = 10;
    } else {
      y = 20;
    }
    send y to x;
  } else {
    send rank to 0;
    recv y from 0;
  }
}
"""


def test_move_memo_is_keyed_on_the_environment():
    p = program(MEMO_NEEDS_ENV)
    terms, states = all_paths_reference(p, 3, {})
    deadlocks = {k: frozenset(lens) for k, (tag, lens) in terms.items() if tag == "deadlock"}
    # one deadlock per stuck sender: rank 2 stays in its send when rank 0
    # took rank 1's message (and answered 10), rank 1 in the other order
    table = ops.lower(p)
    end = table.end
    stuck = next(i for i, op in enumerate(table.ops) if isinstance(op, lang.Send) and op.line == 11)
    assert sorted((key[0], key[1][0]) for key in deadlocks) == [
        ((end, stuck, end), (("nprocs", 3), ("rank", 0), ("x", 2), ("y", 20))),
        ((end, end, stuck), (("nprocs", 3), ("rank", 0), ("x", 1), ("y", 10)))]
    assert deadlock_path_lengths(p, 3, {}) == (deadlocks, states)
    full = explore_full(p, 3, {})
    assert full.terminals == {k: (tag, min(lens)) for k, (tag, lens) in terms.items()}
    assert full.visited == states


TWO_PAIRS = """\
program (nprocs = 4) {
  if (rank == 0) {
    send 1 to 1;
  } else {
    if (rank == 1) {
      recv a from 0;
    } else {
      if (rank == 2) {
        send 1 to 3;
      } else {
        recv b from 2;
      }
    }
  }
}
"""


def test_independence_commutativity(corpus_entries, rng):
    """Distinct source-specific rendezvous enabled at the same state commute."""
    cases = [(program(TWO_PAIRS), 4, {})]
    for e in corpus_entries.values():
        p = e.program()
        cases.append((p, e.nprocs, {d.name: d.lo for d in p.decls}))
    for _ in range(20):
        p = random_program(rng)
        cases.append((p, p.nprocs_default,
                      {d.name: d.lo for d in p.decls}))

    checked = 0
    for p, nprocs, model in cases:
        seen = set()
        stack = [make_initial(p, nprocs, model)]
        # walk the full graph, checking SR/SR commutation at each state
        while stack:
            s = stack.pop()
            key = s.canonical()
            if key in seen:
                continue
            seen.add(key)
            acts = enabled(s)
            srs = [a for a in acts if type(a) is MatchEvent and not a.wildcard]
            for i in range(len(srs)):
                for j in range(i + 1, len(srs)):
                    ab = apply(apply(s, srs[i]), srs[j]).canonical()
                    ba = apply(apply(s, srs[j]), srs[i]).canonical()
                    assert ab == ba
                    checked += 1
            for a in acts:
                stack.append(apply(s, a))
    assert checked  # at least some states exercised both orders


def test_path_length_sets():
    # both wildcard orders reach the same deadlock through equal-length paths
    p = program(FIG4B)
    lengths, visited = deadlock_path_lengths(p, 3, {})
    assert len(lengths) == 1
    (only,) = lengths.values()
    assert only  # non-empty set of achievable lengths
    assert visited > 0


# -- the equivalence check -------------------------------------------------------


def test_check_theorem_fig6(corpus_entries):
    e = corpus_entries["fig6-multi-wildcard"]
    verdict = check_theorem(e.program(), 4, {})
    assert verdict.holds, verdict.issues
    assert len(verdict.oracle_deadlocks) == 1


def test_check_theorem_fig1_both_models(corpus_entries):
    e = corpus_entries["fig1-motivating"]
    v97 = check_theorem(e.program(), 3, {"X": 97})
    assert v97.holds, v97.issues
    assert len(v97.engine_deadlocks) == 1
    v0 = check_theorem(e.program(), 3, {"X": 0})
    assert v0.holds, v0.issues
    assert not v0.engine_deadlocks


def test_check_theorem_all_corpus(corpus_entries):
    from mpisym import solver
    for e in corpus_entries.values():
        p = e.program()
        domains = ops.lower(p).domains
        models = solver.enumerate_models((), domains, 2)
        # always include the interesting region boundary when there is input
        if "X" in domains:
            models.append({"X": domains["X"][1]})
        for m in models:
            verdict = check_theorem(p, e.nprocs, m)
            assert verdict.holds, (e.name, m, verdict.issues)


def test_reduction_bound_engine_leq_oracle(corpus_entries):
    """The reduced engine, pinned to one model, never creates more states
    than the oracle visits under it.  (The symbolic search covers every
    model at once, so its count is no bound: head-to-head's is 10 against
    the oracle's 8 at X = 0.)"""
    for e in corpus_entries.values():
        p = e.program()
        model = {d.name: d.lo for d in p.decls}
        (engine_states, _, _), _ = reference_search(p, e.nprocs, SearchStrategy(), model)
        _, oracle_states = deadlock_path_lengths(p, e.nprocs, model)
        assert engine_states <= oracle_states, e.name


def test_check_theorem_refuses_a_truncated_report(corpus_entries):
    """A truncated search has lost paths, so no projection of it is checked."""
    p = corpus_entries["fig1-motivating"].program()
    rep = engine.search(p, 3, SearchStrategy(max_states=4))
    with pytest.raises(oracle.BoundExceeded) as exc:
        check_theorem(p, 3, {"X": 97}, report=rep)
    assert str(exc.value) == "engine search truncated by its state or depth bound"


def test_symbolic_search_projects_onto_every_model(corpus_entries):
    """The paper's claim on the search `analyze` runs: for every model, the
    records whose path condition holds under it (the projection) reach
    exactly the oracle's deadlocked terminals, each by the same path
    lengths, and are the paths of the search pinned to that model.  An
    untruncated search covers every model.  Each corpus program runs under
    up to 64 models (its witness models first), each random program under
    every value of its input."""
    programs = [(e.program(), e.nprocs) for e in corpus_entries.values()]
    rng = random.Random(7)
    for _ in range(400):
        p = random_program(rng)
        programs.append((p, p.nprocs_default))
    pairs = 0
    for p, nprocs in programs:
        rep = engine.search(p, nprocs)
        assert not rep.truncated
        for model in cli._candidate_models(p, rep, 64):
            where = (lang.pretty_print(p), model)
            projection = [r for r in rep.records if pc_holds(r.pc, model)]
            assert projection, where
            verdict = check_theorem(p, nprocs, model, report=rep)
            assert verdict.holds, (where, verdict.issues)
            _, pinned = reference_search(p, nprocs, SearchStrategy(), model)
            assert [(r.verdict, r.steps, r.fail_loc, r.error, r.trace) for r in projection] \
                == [(v, steps, fail_loc, error, trace)
                    for v, _, _, steps, fail_loc, error, trace in pinned], where
            pairs += 1
    assert pairs == 2293


@pytest.mark.slow
def test_check_theorem_random_programs(rng):
    """Seeded differential test on small random programs, all models."""
    for case in range(150):
        p = random_program(rng)
        width = p.decls[0].hi + 1 if p.decls else 0
        models = [{p.decls[0].name: v} for v in range(width)] if p.decls else [{}]
        for m in models:
            verdict = check_theorem(p, p.nprocs_default, m)
            assert verdict.holds, (lang.pretty_print(p), m, verdict.issues)


# -- exit through the oracle, the printer and replay -------------------------------

EXIT_PROGRAMS = [
    # rank 0 exits under X > 1 before two wildcard receives; ranks 1-2 exit
    # under X == 3 after their send and before a barrier
    "symbolic sym X : int[0..3]; program (nprocs = 3) {"
    " if (rank == 0) { if (X > 1) { exit; } recv a from any; recv b from any; }"
    " else { send rank to 0; if (X == 3) { exit; } barrier; } }",
    # every rank exits before a send
    "program (nprocs = 2) { exit; send 1 to 1 - rank; }",
    # rank 1 exits under X == 1, before the receive rank 0's send waits on
    "symbolic sym X : int[0..2]; program (nprocs = 2) {"
    " if (rank == 0) { send 7 to 1; } else { if (X == 1) { exit; } recv v from 0; } }",
]


@pytest.mark.parametrize("source", EXIT_PROGRAMS)
def test_exit_programs_hold_replay_and_print_back(source):
    p = program(source)
    nprocs = p.nprocs_default
    for model in solver.enumerate_models((), ops.lower(p).domains, 100):
        verdict = check_theorem(p, nprocs, model)
        assert verdict.holds, (model, verdict.issues)
    for rec in engine.search(p, nprocs).records:
        result = replay.replay_testcase(p, replay.make_testcase(rec, p, nprocs))
        assert result.ok, (rec.index, result.divergences)
    text = lang.pretty_print(p)
    assert "exit;" in text
    again = program(text)
    assert again == p
    assert replay.program_hash(again) == replay.program_hash(p)


# -- the report of a failed check --------------------------------------------------


def _drop_deadlocks(search):
    def faulty(*args, **kwargs):
        rep = search(*args, **kwargs)
        rep.records = [r for r in rep.records if r.verdict is not Verdict.DEADLOCK]
        return rep
    return faulty


def _no_oracle_deadlocks(lengths):
    def faulty(*args, **kwargs):
        return {}, lengths(*args, **kwargs)[1]
    return faulty


def _one_more_action(count):
    return lambda trace, compiled: count(trace, compiled) + 1


FIG1_FAULTS = {
    "engine-length": ((oracle, "global_action_count", _one_more_action), [
        "path-length sets differ at cursors=(2, 9, 13): engine=[10] oracle=[9]"]),
    "engine-deadlocks-dropped": ((engine, "search", _drop_deadlocks), [
        "deadlock reachable only on the oracle side",
        "deadlocked terminal only reached by the oracle: cursors=(2, 9, 13)"]),
    "oracle-deadlocks-dropped": ((oracle, "deadlock_path_lengths", _no_oracle_deadlocks), [
        "deadlock reachable only on the engine side",
        "deadlocked terminal only reached by the engine: cursors=(2, 9, 13)"]),
}


@pytest.fixture(params=sorted(FIG1_FAULTS))
def fig1_fault(request, monkeypatch):
    """One injected fault on the engine or the oracle side, and the issue
    lines `check_theorem` reports for it on fig1-motivating under X=97."""
    (module, name, make), issues = FIG1_FAULTS[request.param]
    monkeypatch.setattr(module, name, make(getattr(module, name)))
    return issues


def test_check_theorem_reports_each_injected_fault(corpus_entries, fig1_fault):
    verdict = check_theorem(corpus_entries["fig1-motivating"].program(), 3, {"X": 97})
    assert not verdict.holds
    assert verdict.issues == fig1_fault
    text = report.render_compare(verdict)
    head, *rest = text.splitlines()
    assert head.startswith("THEOREM-CHECK FAIL model={X=97} ")
    assert rest == [f"  {issue}" for issue in fig1_fault]


def test_compare_exits_two_under_an_injected_fault(corpus_entries, fig1_fault, tmp_path, capsys):
    path = tmp_path / "fig1.mpisym"
    path.write_text(corpus_entries["fig1-motivating"].source)
    assert cli.main(["compare", str(path), "--set", "X=97"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("THEOREM-CHECK FAIL model={X=97} ")
    assert out.splitlines()[1:] == [f"  {issue}" for issue in fig1_fault]
