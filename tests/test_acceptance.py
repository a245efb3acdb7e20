"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.
"""

import random
import time
from contextlib import contextmanager

import pytest

from mpisym import engine, lang, oracle, ops, replay, solver, symbolic
from mpisym.state import (BarrierRelease, MatchEvent, Status, StepEvent,
                          Verdict, init_state)
from randprog import pipeline_source, random_program
from test_solver import first_hit, random_condition


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE C{number} {title}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE C{number} {title}: PASS", flush=True)


def entails(pc, cond, domains):
    return not solver.is_sat(pc + (symbolic.negate(cond),), domains)


def wildcard_senders(trace):
    return [ev.sender for ev in trace if isinstance(ev, MatchEvent) and ev.wildcard]


def test_c1_motivating_example(corpus_entries):
    with criterion(1, "motivating-example reproduction"):
        e = corpus_entries["fig1-motivating"]
        program = e.program()
        domains = ops.lower(program).domains
        started = time.perf_counter()
        rep = engine.search(program, 3)
        elapsed = time.perf_counter() - started

        assert len(rep.records) == 3
        x = lang.Var("X")
        is97 = symbolic.binary("==", x, lang.Num(97))
        not97 = symbolic.binary("!=", x, lang.Num(97))

        first, second, third = rep.records
        assert first.verdict is Verdict.TERMINATED
        assert entails(first.pc, not97, domains)
        assert wildcard_senders(first.trace) == []

        assert second.verdict is Verdict.TERMINATED
        assert entails(second.pc, is97, domains)
        assert wildcard_senders(second.trace) == [0]

        assert third.verdict is Verdict.DEADLOCK
        assert entails(third.pc, is97, domains)
        assert wildcard_senders(third.trace) == [2]

        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_c2_lazy_matching_soundness(corpus_entries):
    with criterion(2, "lazy-matching soundness"):
        blind = engine.search(corpus_entries["fig4a-blind"].program(), 3)
        assert len([r for r in blind.records if r.verdict is Verdict.DEADLOCK]) == 0

        eager = engine.search(corpus_entries["fig4b-eager"].program(), 3)
        deadlocks = [r for r in eager.records if r.verdict is Verdict.DEADLOCK]
        terminated = [r for r in eager.records if r.verdict is Verdict.TERMINATED]
        assert len(deadlocks) >= 1 and len(terminated) >= 1
        assert len(eager.records) == 2  # exactly one of each
        assert wildcard_senders(deadlocks[0].trace) == [2]


def test_c3_input_dependent_suite(corpus_entries):
    with criterion(3, "input-dependent deadlock suite"):
        for e in corpus_entries.values():
            started = time.perf_counter()
            rep = engine.search(e.program(), e.nprocs)
            elapsed = time.perf_counter() - started
            deadlocks = len([r for r in rep.records if r.verdict is Verdict.DEADLOCK])
            asserts = len([r for r in rep.records if r.verdict is Verdict.ASSERT_FAIL])
            if e.deadlock_reachable:
                assert deadlocks >= 1, e.name
            else:
                assert deadlocks == 0, e.name
            assert (asserts >= 1) == e.assertfail_reachable, e.name
            assert elapsed < 2.0, f"{e.name} took {elapsed:.3f}s"


@pytest.mark.slow
def test_c4_theorem_differential(corpus_entries, seed):
    with criterion(4, "engine/oracle equivalence"):
        started = time.perf_counter()

        for e in corpus_entries.values():
            program = e.program()
            domains = ops.lower(program).domains
            models = []
            rep = engine.search(program, e.nprocs)
            seen = set()
            for rec in rep.records:
                key = tuple(sorted(rec.model.items()))
                if key not in seen and len(models) < 4:
                    seen.add(key)
                    models.append(rec.model)
            for extra in solver.enumerate_models((), domains, 4):
                key = tuple(sorted(extra.items()))
                if key not in seen and len(models) < 4:
                    seen.add(key)
                    models.append(extra)
            for model in models:
                verdict = oracle.check_theorem(program, e.nprocs, model)
                assert verdict.holds, (e.name, model, verdict.issues)

        rng = random.Random(seed + 4)
        for case in range(1000):
            program = random_program(rng, max_procs=4, max_comm=6, max_width=8)
            if program.decls:
                d = program.decls[0]
                models = [{d.name: v} for v in range(d.lo, d.hi + 1)]
            else:
                models = [{}]
            for model in models:
                verdict = oracle.check_theorem(program, program.nprocs_default, model)
                assert verdict.holds, (lang.pretty_print(program), model,
                                       verdict.issues)

        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_c4_random_programs_reach_failed_assertions(seed):
    """C4's random programs (the same seeded stream) hold assertions that
    fail on some paths, so the differential check covers `assertfail`."""
    rng = random.Random(seed + 4)
    programs_with_failures = 0
    for _ in range(100):
        program = random_program(rng, max_procs=4, max_comm=6, max_width=8)
        rep = engine.search(program, program.nprocs_default)
        programs_with_failures += any(r.verdict is Verdict.ASSERT_FAIL for r in rep.records)
    assert programs_with_failures >= 5


def test_c5_reduction_growth_shape():
    with criterion(5, "on-the-fly reduction growth shape"):
        engine_states = {}
        for n in (2, 4, 8, 16):
            program = lang.parse_program(pipeline_source(n))
            rep = engine.search(program, n)
            assert not rep.truncated
            assert [r.verdict for r in rep.records] == [Verdict.TERMINATED]
            engine_states[n] = rep.states_created
        assert engine_states[16] / engine_states[2] <= 16.0, engine_states

        oracle_states = {}
        for n in (2, 3, 4):
            program = lang.parse_program(pipeline_source(n))
            result = oracle.explore_full(program, n, {})
            oracle_states[n] = result.visited
        # full interleaving of the same pipeline grows faster than linearly
        assert oracle_states[4] / oracle_states[2] > 4 / 2, oracle_states
        growth_23 = oracle_states[3] - oracle_states[2]
        growth_34 = oracle_states[4] - oracle_states[3]
        assert growth_34 > growth_23, oracle_states


def test_c6_replay_determinism(corpus_entries, tmp_path):
    with criterion(6, "replay determinism"):
        total = 0
        for e in corpus_entries.values():
            program = e.program()
            rep = engine.search(program, e.nprocs)
            for rec in rep.records:
                path = tmp_path / f"{e.name}.{rec.index}.testcase"
                replay.save_testcase(rec, program, e.nprocs, path)
                tc = replay.load_testcase(path)
                result = replay.replay_testcase(program, tc)
                assert result.ok, (e.name, rec.index,
                                   [str(d) for d in result.divergences])
                assert result.verdict is rec.verdict
                total += 1
        assert total >= 25  # every path of every entry, 100% reproduced


@pytest.mark.slow
def test_c7_solver_oracle_agreement(seed):
    with criterion(7, "solver agreement with exhaustive enumeration"):
        rng = random.Random(seed + 7)
        for case in range(1000):
            nvars = rng.randint(1, 3)
            names = ("X", "Y", "Z")[:nvars]
            domains = {}
            for name in names:
                lo = rng.randint(-8, 32)
                domains[name] = (lo, lo + rng.randint(0, 63))
            pc = tuple(random_condition(rng, names)
                       for _ in range(rng.randint(1, 4)))
            expected = first_hit(pc, domains)
            assert solver.is_sat(pc, domains) == (expected is not None), (pc, domains)
            if expected is not None:
                model = solver.get_model(pc, domains)
                assert model == expected, (pc, domains)
                assert symbolic.pc_holds(pc, model)


def _states_with_outcomes(rng, want_wildcard, want_run, want_release):
    """Random engine states bucketed by scheduling outcome, plus release
    events harvested from full traces."""
    from mpisym.state import fork

    wildcard_states, run_states, release_traces = [], [], []
    for _ in range(3000):
        if (len(wildcard_states) >= want_wildcard
                and len(run_states) >= want_run
                and len(release_traces) >= want_release):
            break
        # biased toward wildcard receives and barriers so the interesting
        # scheduling outcomes appear often enough to sample
        program = random_program(rng, weights=(4, 2, 4, 3),
                                 trailing_barrier=rng.random() < 0.5)
        nprocs = program.nprocs_default
        stack = [init_state(program, nprocs)]
        while stack:
            s = stack.pop()
            what = engine.scheduler(s)
            if isinstance(what, Verdict):
                for ev in s.trace:
                    if isinstance(ev, BarrierRelease):
                        release_traces.append((tuple(s.trace), s.compiled, nprocs))
                        break
                continue
            if isinstance(what, list):
                wildcard_states.append(fork(s))
            elif len(run_states) < want_run * 3:
                run_states.append(fork(s))
            stack.extend(reversed(engine.expand(s)))
    return wildcard_states, run_states, release_traces


def test_c8_scheduler_properties(seed):
    with criterion(8, "scheduler unit properties"):
        rng = random.Random(seed + 8)
        wildcard_states, run_states, release_traces = _states_with_outcomes(
            rng, want_wildcard=200, want_run=200, want_release=200)

        # wildcard forks happen only when nothing is runnable
        assert len(wildcard_states) >= 200
        for s in wildcard_states:
            assert [p.rank for p in s.procs if p.status is Status.ACTIVE] == []
            pairs = engine.scheduler(s)
            assert isinstance(pairs, list) and pairs
            n = len(s.trace)
            succs = engine.expand(s)
            assert len(succs) == len(pairs)
            for succ, (receiver, sender) in zip(succs, pairs):
                assert tuple(succ.trace)[n:] == (MatchEvent(sender, receiver, True),)

        # one process per expansion: every successor steps the same rank
        assert len(run_states) >= 200
        for s in run_states[:400]:
            rank = engine.scheduler(s)
            n = len(s.trace)
            succs = engine.expand(s)
            new_events = [tuple(t.trace)[n:] for t in succs]
            for events in new_events:
                assert events, "expansion recorded no step"
                assert isinstance(events[0], StepEvent)
                assert events[0].rank == rank

        # barrier atomicity: exactly one barrier arrival per rank per release
        assert len(release_traces) >= 200
        for trace, compiled, nprocs in release_traces[:400]:
            arrivals = {r: 0 for r in range(nprocs)}
            for ev in trace:
                if isinstance(ev, StepEvent) and ev.loc < compiled.end \
                        and isinstance(compiled.ops[ev.loc], lang.Barrier):
                    arrivals[ev.rank] += 1
                elif isinstance(ev, BarrierRelease):
                    assert all(count == 1 for count in arrivals.values()), arrivals
                    arrivals = {r: 0 for r in range(nprocs)}
