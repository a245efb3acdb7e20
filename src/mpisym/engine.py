"""Worklist symbolic execution with on-the-fly scheduling and lazy
wildcard matching.

One process is symbolically executed at a time: `scheduler`, the one
scheduling decision, keeps running the designated next process (set when a
communication blocked) or the smallest-ranked active process, and switches
only at unmatched communication points.  `search` asks it once per state
and `expand` acts on its answer, so from any state the expansion yields the
successors of exactly one process, never the cross-product of all of them.
Under DFS a step's first successor stays in hand and only the others go on
the worklist, which is the order the worklist alone would give.

Wildcard receives are matched lazily.  A Recv(any) puts its process to
sleep, a send targeting a sleeping wildcard receiver also blocks, and only
when no process can run at all does the scheduler fork one successor per
(wildcard receiver, blocked sender) pair.  Matching eagerly instead is
unsound in both directions: rewriting a wildcard to a source that never
sends invents a deadlock, and committing to the first sender that shows up
hides the deadlocks the other senders lead to.

A state with no runnable process and no wildcard pair, in which some
process has not exited, is a deadlock.

Each state carries the smallest model of its path condition, so a branch
side whose guard holds on it, every terminal's witness model and half of
each rank entailment need no search (`solver`, stage 4); each still counts
as one solver query.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, List, Optional, Tuple, Union

from . import lang, ops, solver, symbolic
from .solver import Model
from .state import (ACTIVE, EXITED, INACTIVE, RUNNING, BranchChoice, BarrierRelease,
                    EngineError, GlobalState, StepEvent, TraceEvent, Verdict, advance,
                    assume, eval_expr, fork, init_state, match_transfer, new_tuple,
                    waiting_in)


class ValidationFailure(Exception):
    """Raised when search is asked to run a program that fails validation."""

    def __init__(self, findings):
        super().__init__("; ".join(f.message for f in findings))
        self.findings = findings


class SearchStrategy(lang.Record):
    __slots__ = ("order", "max_states", "max_depth")
    __hash__ = None

    def __init__(self, order: str = "dfs", max_states: Optional[int] = None,
                 max_depth: Optional[int] = None):
        if order not in ("dfs", "bfs"):
            raise ValueError("order must be 'dfs' or 'bfs'")
        if max_states is not None and max_states < 1:
            raise ValueError("max_states must be positive")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be positive")
        self.order, self.max_states, self.max_depth = order, max_states, max_depth


class SolverStats(lang.Record):
    __slots__ = ("queries",)
    __hash__ = None
    _defaults = {"queries": 0}


#: What happens next in a state: the rank to run, the (receiver, sender)
#: wildcard pairs to fork over, or the state's terminal verdict.
Schedule = Union[int, List[Tuple[int, int]], Verdict]


class PathRecord(lang.Record):
    # final_state: the terminal state, which holds the trace
    __slots__ = ("index", "verdict", "pc", "model", "steps", "final_state", "fail_loc", "error")
    __hash__ = None
    _defaults = {"fail_loc": None, "error": None}

    @property
    def trace(self) -> Tuple[TraceEvent, ...]:
        """The schedule trace, oldest event first."""
        return tuple(self.final_state.trace)


class AnalysisReport(lang.Record):
    __slots__ = ("records", "states_created", "solver_queries", "wall_time", "truncated")
    __hash__ = None
    _defaults = {"truncated": False}

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for rec in self.records:
            out[rec.verdict.value] = out.get(rec.verdict.value, 0) + 1
        return out


# -- scheduling ---------------------------------------------------------------


def scheduler(s: GlobalState) -> Schedule:
    """Decide what happens next in a state, without changing it.

    A state that ended keeps its verdict.  Otherwise the designated next
    process runs when it is active, else the first active rank.  When none
    is active, one pass collects the wildcard pairs: every receiver asleep
    on a wildcard with every sender asleep on it, receiver-ascending, then
    sender-ascending.  With no pair either, the state is terminated when
    every rank exited and deadlocked when some rank sleeps.
    """
    if s.verdict is not RUNNING:
        return s.verdict
    procs = s.procs
    cand = s.next_proc_candidate
    if cand is not None and procs[cand].status is ACTIVE:
        return cand
    for p in procs:
        if p.status is ACTIVE:
            return p.rank
    table = s.compiled.ops
    receivers = []
    senders = {}
    asleep = False
    for p in procs:
        if p.status is INACTIVE:
            asleep = True
            op = table[p.pc_loc]
            if type(op) is lang.Send:
                senders.setdefault(p.blocked_on, []).append(p.rank)
            elif type(op) is lang.Recv and op.src is None:
                receivers.append(p.rank)
    pairs = [(r, q) for r in receivers for q in senders.get(r, ())]
    if pairs:
        return pairs
    return Verdict.DEADLOCK if asleep else Verdict.TERMINATED


def classify(s: GlobalState) -> Verdict:
    """The verdict `scheduler` gives a state, or RUNNING while it goes on."""
    return v if type(v := scheduler(s)) is Verdict else RUNNING


# -- per-statement symbolic execution ----------------------------------------


def _model_with(s: GlobalState, guard: lang.Expr,
                stats: Optional[SolverStats]) -> Optional[Model]:
    """The smallest model of `s.pc` and `guard`, or None when there is none:
    one query, which the carried model answers when `guard` holds on it."""
    if stats is not None:
        stats.queries += 1
    return solver.get_model(s.pc + (guard,), s.compiled.domains, s.model)


def _resolve_rank(s: GlobalState, rank: int, e: lang.Expr,
                  stats: Optional[SolverStats]):
    """Concrete value of a destination/source expression, or an error string
    when the path condition does not pin it down."""
    v = eval_expr(s, rank, e)
    if type(v) is lang.Num:
        value = v.value
    else:
        if stats is not None:
            stats.queries += 1
        value = solver.check_entailed_constant(s.pc, v, s.compiled.domains, s.model)
        if value is None:
            return None, f"rank expression {lang.expr_source(v)} is not constant under the path condition"
    if not 0 <= value < s.nprocs:
        return None, f"rank {value} out of range [0, {s.nprocs})"
    if value == rank:
        return None, f"process {rank} cannot communicate with itself"
    return value, None


def _take_side(t: GlobalState, p: int, op: ops.OpBranch, loc: int, taken: bool) -> GlobalState:
    """Write one side of the branch at `loc` into t: record the choice, then
    move rank p to the side's target, or fail the assertion if it is None."""
    t.trace.append(new_tuple(BranchChoice, (loc, taken)))
    target = op.true_target if taken else op.false_target
    if target is None:
        t.verdict = Verdict.ASSERT_FAIL
        t.fail_loc = loc
    else:
        proc = t.procs[p]
        proc.pc_loc = target
        if target >= t.compiled.end:  # past the end of the body: the process exits
            proc.status = EXITED
    return t


def se_step(s: GlobalState, p: int, stats: Optional[SolverStats] = None) -> List[GlobalState]:
    """Execute exactly one statement of process p in s, writing into s, and
    return s followed by at most one more successor.  That second successor
    exists only when both sides of a symbolic branch are feasible: it is
    the false side, a `fork` of s made once the step is recorded and before
    either side is written."""
    proc = s.procs[p]
    if proc.status is not ACTIVE:
        raise EngineError(f"se_step on non-active process {p}")
    if s.verdict is not RUNNING:
        raise EngineError("se_step on a non-running state")
    loc = proc.pc_loc
    op = s.compiled.ops[loc]
    kind = type(op)
    s.depth += 1
    s.trace.append(new_tuple(StepEvent, (p, loc)))

    if kind is lang.Assign:
        proc.env[op.var] = eval_expr(s, p, op.expr)
        advance(s, (p,))
        return [s]

    if kind is ops.OpBranch:
        # One rule for `if` and `assert`.  A concrete condition takes its one
        # side in s.  A symbolic one asks the solver once per side, before
        # either side is written; the true side is explored first under DFS.
        cond = eval_expr(s, p, op.cond)
        if type(cond) is lang.Bool:
            return [_take_side(s, p, op, loc, cond.value)]
        sides = []
        for taken in (True, False):
            guard = cond if taken else symbolic.negate(cond)
            model = _model_with(s, guard, stats)
            if model is not None:
                sides.append((taken, guard, model))
        if not sides:
            raise EngineError("no side of a guarded step is satisfiable on a live path")
        succs = [s] if len(sides) == 1 else [s, fork(s)]
        for t, (taken, guard, model) in zip(succs, sides):
            _take_side(assume(t, guard, model), p, op, loc, taken)
        return succs

    if kind is lang.Recv and op.src is None:
        proc.status = INACTIVE
        return [s]

    if kind is lang.Send or kind is lang.Recv:
        # One rendezvous rule for both roles: match when the peer already
        # waits in the other call naming p, otherwise sleep on the peer.
        sending = kind is lang.Send
        peer, err = _resolve_rank(s, p, op.dest if sending else op.src, stats)
        snd, rcv = (p, peer) if sending else (peer, p)
        if err is not None:
            s.verdict = Verdict.ERROR
            s.error = f"L{op.line}: {err}"
        elif waiting_in(s, peer, lang.Recv if sending else lang.Send, p):
            match_transfer(s, snd, rcv)
        else:
            # A sleeping wildcard receiver does NOT match a send; the sender
            # blocks so the scheduler can later fork over all candidates.
            proc.status = INACTIVE
            proc.blocked_on = peer
            s.next_proc_candidate = peer
        return [s]

    if kind is lang.Barrier:
        # The barrier releases when every other rank is asleep at one; a
        # rank that exited never arrives, which (correctly) wedges it.
        # Ranks mostly arrive in rank order, so the scan starts at the top.
        if all(q.rank == p or waiting_in(s, q.rank, lang.Barrier, None)
               for q in reversed(s.procs)):
            for q in s.procs:
                q.status = ACTIVE
            s.trace.append(new_tuple(BarrierRelease, (s.barrier_epochs,)))
            s.barrier_epochs += 1
            advance(s, range(s.nprocs))
        else:
            proc.status = INACTIVE
        return [s]

    if kind is lang.Exit:
        proc.pc_loc = s.compiled.end
        proc.status = EXITED
        return [s]

    raise EngineError(f"cannot execute {op!r}")


def expand(s: GlobalState, stats: Optional[SolverStats] = None,
           what: Optional[Schedule] = None) -> List[GlobalState]:
    """One exploration step in s: run the scheduled rank (`se_step`), or
    match one wildcard pair per successor.  `what`, when given, is
    `scheduler(s)`.  Like `se_step`, it writes into s and returns it first;
    each pair after the first matches in a `fork` of s made before s is
    written.  Successors are in exploration-priority order (the first
    element is explored first under DFS)."""
    if what is None:
        what = scheduler(s)
    if type(what) is int:
        if s.next_proc_candidate == what:
            s.next_proc_candidate = None
        return se_step(s, what, stats)
    if type(what) is Verdict:
        raise EngineError(f"expand called on a {what.value} state")
    succs = [s] + [fork(s) for _ in what[1:]]
    for t, (receiver, sender) in zip(succs, what):
        t.depth += 1
        match_transfer(t, sender, receiver)
    return succs


# -- the search loop ----------------------------------------------------------


def search(program: lang.Program, nprocs: int,
           strategy: Optional[SearchStrategy] = None) -> AnalysisReport:
    """Explore every path of the program under `nprocs` processes.

    Each terminal state becomes one PathRecord carrying a witness model for
    its path condition and its schedule trace as a tuple.  Inputs stay
    symbolic: the records whose path condition holds under a concrete model
    are the search's paths under that model, which is what the differential
    theorem check (`oracle.check_theorem`) compares.  Under DFS the state
    just stepped is expanded next without a worklist round trip.
    """
    strategy = strategy or SearchStrategy()
    findings = lang.validate(program, nprocs)
    if findings:
        raise ValidationFailure(findings)
    s = init_state(program, nprocs)
    stats = SolverStats()
    t_start = time.perf_counter()
    records: List[PathRecord] = []
    states_created = 1
    truncated = False

    dfs = strategy.order == "dfs"
    worklist = [] if dfs else deque()
    pop = worklist.pop if dfs else worklist.popleft
    max_depth, max_states = strategy.max_depth, strategy.max_states

    while True:
        what = scheduler(s)
        if type(what) is Verdict:  # terminal: record it
            s.verdict = what
            stats.queries += 1
            records.append(PathRecord(len(records), what, s.pc, s.model, s.depth, s,
                                      s.fail_loc, s.error))
        elif (max_depth is not None and s.depth >= max_depth
              or max_states is not None and states_created >= max_states):
            truncated = True
        else:
            succs = expand(s, stats, what)
            states_created += len(succs)
            if dfs:  # keep the first successor in hand: DFS would pop it next
                worklist += succs[:0:-1]
                s = succs[0]
                continue
            worklist.extend(succs)
        if not worklist:
            break
        s = pop()

    return AnalysisReport(records=records, states_created=states_created,
                          solver_queries=stats.queries,
                          wall_time=time.perf_counter() - t_start,
                          truncated=truncated)
