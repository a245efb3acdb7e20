"""Full-interleaving explicit-state exploration, as ground truth for the
reduced engine.

The oracle runs a closed system: all symbolic inputs are pinned to a
concrete model, and every interleaving of global actions is explored with
visited-state deduplication.  Global actions are the composition of one
step per participating process; all but the barrier are the engine's own
trace events (the paper's names in brackets):

  * ``MatchEvent(i, j, False)``  [SR] Send at i, source-specific Recv at j
  * ``MatchEvent(i, j, True)``   [SR*] Send at i, wildcard Recv at j
  * ``StepEvent(i, loc)``        [Local] the non-communication statement at
    process i's cursor, loc
  * ``B()``                      [B] all processes step past a barrier

The oracle counts no barrier epochs (replay checks a recorded one), so the
barrier is ``B()``, not a ``BarrierRelease``.  A barrier needs every
process of the program to arrive; a process that ran off its body without
reaching one disables B forever, so the remaining processes wedge, exactly
like a missing collective call does.

``step`` applies one action in place and is the package's only concrete
interpreter: ``apply`` wraps it for the search, and replay walks recorded
traces over it.  Environments bind ``rank``, ``nprocs`` and the locals to
ints and are copy-on-write: ``copy`` copies the cursor and environment
lists, and ``step`` replaces an environment dict instead of mutating it.

``check_theorem`` is the differential test: for a concrete model, the set
of deadlocked terminal states (canonicalized) and, per terminal, the set of
reachable global-action path lengths must coincide between this oracle and
the projection of the engine's one symbolic search onto the model, the
records whose path condition the model satisfies.  ``explore_full`` and
``deadlock_path_lengths`` read one walk of the deduplicated state graph,
``_terminals``.

That walk runs over integer keys, not states (SPIN's recursive indexing):
a local id interns one rank's (rank, cursor, sorted environment items), and
a key holds each rank's local id in a fixed-width field of one integer.
With the inputs and the process count pinned, what a rank does next
depends on its local id alone, so ``_move``, and ``step`` for a local
successor, run once per local id, and a local move keeps the change it
makes to a key.  ``_compose``, the composition rule ``enabled`` uses too,
turns the moves into actions: a local edge costs an addition and a dict
probe; only match and B edges, and terminals, build a ``ConcreteState``.
A failed assertion moves no cursor and writes nothing, so its state, a
terminal, is counted at its edge, once per failing location.  The walk
visits states in order of their cursor sum, which every other action
raises, ORing each state's path-length bitset (bit n: some path of n
actions reaches it) into its successors: a terminal's bitset is its set of
path lengths.  Only terminals get a ``canonical_key``, the engine's form.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from . import engine, lang, ops
from .solver import Model
from .state import BarrierRelease, MatchEvent, StepEvent, Verdict, new_tuple
from .symbolic import pc_holds


class OracleError(Exception):
    pass


class BoundExceeded(OracleError):
    pass


# -- global actions -----------------------------------------------------------


class B(lang.Record):
    __slots__ = ()


_LOCAL_OPS = (lang.Assign, ops.OpBranch, lang.Exit)


# -- concrete states ----------------------------------------------------------


class ConcreteState:
    __slots__ = ("compiled", "nprocs", "inputs", "cursors", "envs", "fail_loc")

    def __init__(self, compiled: ops.CompiledProgram, nprocs: int, inputs: Model):
        self.compiled = compiled
        self.nprocs = nprocs
        self.inputs = inputs
        self.cursors = [0] * nprocs
        self.envs: List[Dict[str, int]] = [{"rank": r, "nprocs": nprocs} for r in range(nprocs)]
        self.fail_loc: Optional[int] = None

    def copy(self) -> "ConcreteState":
        t = ConcreteState.__new__(ConcreteState)
        t.compiled = self.compiled
        t.nprocs = self.nprocs
        t.inputs = self.inputs
        t.cursors = list(self.cursors)
        t.envs = list(self.envs)  # the dicts are shared: step never mutates one
        t.fail_loc = self.fail_loc
        return t

    def all_exited(self) -> bool:
        return all(pc >= self.compiled.end for pc in self.cursors)

    def current_op(self, r: int):
        pc = self.cursors[r]
        return self.compiled.ops[pc] if pc < len(self.compiled.ops) else None

    def eval(self, r: int, e: lang.Expr):
        return lang.evaluate(e, self.envs[r], self.inputs)

    def canonical(self):
        return canonical_key(self.cursors, self.envs)


def canonical_key(cursors, envs):
    """Identity of a state for the theorem comparison: cursors and concrete
    environments.  Exit flags and barrier waiting follow from the cursors,
    and traces are deliberately excluded."""
    return tuple(cursors), tuple(tuple(sorted(env.items())) for env in envs)


# -- transition relation -------------------------------------------------------


def _move(s: ConcreteState, r: int) -> tuple:
    """What rank r does next in s, which depends on its cursor and environment
    alone: (StepEvent, None) for a local step, (B, None) at a barrier,
    (lang.Send, destination), (lang.Recv, source or None for any), or
    (None, None) once it has exited."""
    op = s.current_op(r)
    if isinstance(op, _LOCAL_OPS):
        return StepEvent, None
    if isinstance(op, lang.Barrier):
        return B, None
    if isinstance(op, lang.Send):
        j = s.eval(r, op.dest)
        if not 0 <= j < s.nprocs or j == r:
            raise OracleError(f"send destination {j} invalid at rank {r}")
        return lang.Send, j
    if isinstance(op, lang.Recv):
        return lang.Recv, None if op.src is None else s.eval(r, op.src)
    return None, None


def _compose(moves) -> Tuple[list, List[int]]:
    """The composition rule over every rank's move: the enabled B, then the
    source-specific matches by sender, then the wildcard matches by sender,
    and the ranks with an enabled local step."""
    joint, stars, locals_, barriers = [], [], [], 0
    for i, (kind, peer) in enumerate(moves):
        if kind is StepEvent:
            locals_.append(i)
        elif kind is B:
            barriers += 1
        elif kind is lang.Send and moves[peer] == (lang.Recv, None):
            stars.append(new_tuple(MatchEvent, (i, peer, True)))
        elif kind is lang.Send and moves[peer] == (lang.Recv, i):
            joint.append(new_tuple(MatchEvent, (i, peer, False)))
    joint[:0] = [B()] if barriers == len(moves) > 0 else ()
    return joint + stars, locals_


def enabled(s: ConcreteState) -> list:
    """Every composition-rule-enabled action in s, deterministically ordered:
    B, then source-specific matches by sender, then wildcard matches by
    sender, then local steps by rank."""
    joint, locals_ = _compose([_move(s, r) for r in range(s.nprocs if s.fail_loc is None else 0)])
    return joint + [new_tuple(StepEvent, (r, s.cursors[r])) for r in locals_]


def step(s: ConcreteState, action) -> Optional[bool]:
    """Apply one enabled global action to s in place (OracleError for one
    not enabled).  Returns the outcome of a branch or assertion step, None
    for every other action."""
    cursors = s.cursors
    next_of = s.compiled.next_of
    kind = type(action)
    if kind is StepEvent:
        r, loc = action
        table = s.compiled.ops
        op = table[loc] if 0 <= r < s.nprocs and cursors[r] == loc < len(table) else None
        op_kind = type(op)
        if op_kind is ops.OpBranch:
            taken = bool(s.eval(r, op.cond))
            target = op.true_target if taken else op.false_target
            if target is None:  # a failed assertion moves no cursor
                s.fail_loc = loc
            else:
                cursors[r] = target
            return taken
        elif op_kind is lang.Assign:
            s.envs[r] = {**s.envs[r], op.var: s.eval(r, op.expr)}
            cursors[r] = next_of[loc]
        elif op_kind is lang.Exit:
            cursors[r] = s.compiled.end
        else:
            raise OracleError(f"{action!r} not enabled")
    elif kind is MatchEvent:
        i, j, wildcard = action
        send_op = s.current_op(i) if 0 <= i < s.nprocs else None
        recv_op = s.current_op(j) if 0 <= j < s.nprocs else None
        if type(send_op) is not lang.Send or type(recv_op) is not lang.Recv \
                or s.eval(i, send_op.dest) != j or wildcard != (recv_op.src is None) \
                or not wildcard and s.eval(j, recv_op.src) != i:
            raise OracleError(f"{action!r} not enabled")
        s.envs[j] = {**s.envs[j], recv_op.var: s.eval(i, send_op.payload)}
        cursors[i] = next_of[cursors[i]]
        cursors[j] = next_of[cursors[j]]
    elif kind is B:
        if not all(type(s.current_op(r)) is lang.Barrier for r in range(s.nprocs)):
            raise OracleError("barrier applied while some process is elsewhere")
        for r in range(s.nprocs):
            cursors[r] = next_of[cursors[r]]
    else:
        raise OracleError(f"unknown action {action!r}")
    return None


def apply(s: ConcreteState, action) -> ConcreteState:
    """Successor state under one enabled global action; s is unchanged."""
    t = s.copy()
    step(t, action)
    return t


# -- exhaustive exploration -----------------------------------------------------


class OracleResult(lang.Record):
    __slots__ = ("terminals", "visited")  # terminals: canonical -> (tag, shortest length)
    __hash__ = None


def _terminal_tag(s: ConcreteState) -> str:
    return "assertfail" if s.fail_loc is not None else "terminated" if s.all_exited() else "deadlock"


def make_initial(program: lang.Program, nprocs: int, model: Model) -> ConcreteState:
    compiled = ops.lower(program)
    compiled.check_model(model, OracleError)
    return ConcreteState(compiled, nprocs, dict(model))


def _terminals(program: lang.Program, nprocs: int, model: Model, state_bound: int):
    """The terminal states, each with its path-length bitset, and the state
    count.  A key holds rank r's local id in its ``width`` bits from ``width
    * r``; a local id is in a counted state or is one of at most ``nprocs``
    made as the bound is exceeded: at most ``nprocs * (state_bound + 1)``."""
    init = make_initial(program, nprocs, model)
    width = (nprocs * (state_bound + 1)).bit_length()
    local_ids: Dict[tuple, int] = {}  # (rank, cursor, sorted env items) -> local id
    local_of: List[tuple] = []  # local id -> (cursor, env)
    moves: List[Optional[tuple]] = []  # local id -> _move, a local step's with its successor

    def local_id(r: int, cursor: int, env: Dict[str, int]) -> int:
        k = local_ids.setdefault((r, cursor, tuple(sorted(env.items()))), len(local_of))
        if k == len(local_of):
            local_of.append((cursor, env))
            moves.append(None)
        return k

    def key_of(t: ConcreteState) -> tuple:
        lids = tuple(map(local_id, range(nprocs), t.cursors, t.envs))
        return sum(k << width * r for r, k in enumerate(lids)), lids

    def state(lids: tuple, fail_loc: Optional[int] = None) -> ConcreteState:
        s = init.copy()
        s.cursors, s.envs = map(list, zip(*(local_of[k] for k in lids)))
        s.fail_loc = fail_loc
        return s

    def count(shifted: int) -> int:
        if len(bits) >= state_bound:
            raise BoundExceeded(f"oracle state bound {state_bound} exceeded")
        bits.append(shifted)
        return len(bits) - 1

    start, lids = key_of(init)
    ids = {start: 0}
    bits = [1]  # id -> path-length bitset; the empty path reaches the initial state
    buckets: List[List[tuple]] = [[] for _ in range(nprocs * init.compiled.end + 1)]
    buckets[sum(init.cursors)].append((0, start, lids))
    terminals = []
    for level, bucket in enumerate(buckets):
        for sid, key, lids in bucket:
            s, known = None, [moves[k] for k in lids]
            for r, move in enumerate(known):
                if move is None:
                    s = s or state(lids)
                    move = _move(s, r)
                    if move[0] is StepEvent:  # with its successor (local id, key delta, level rise)
                        t = apply(s, new_tuple(StepEvent, (r, s.cursors[r])))
                        k = local_id(r, t.cursors[r], t.envs[r])
                        move = (StepEvent, (k, (k - lids[r]) << width * r,
                                            t.cursors[r] - s.cursors[r]))
                    known[r] = moves[lids[r]] = move
            joint, locals_ = _compose(known)
            if not joint and not locals_:
                terminals.append((s or state(lids), bits[sid]))
                continue
            shifted, failed = bits[sid] << 1, ()
            for a in joint:
                t = apply(s or state(lids), a)
                succ, succ_lids = key_of(t)
                if succ not in ids:
                    ids[succ] = count(shifted)
                    buckets[sum(t.cursors)].append((ids[succ], succ, succ_lids))
                bits[ids[succ]] |= shifted
            for r in locals_:
                k, delta, rise = known[r][1]
                if not rise:  # a failed assertion: its state's one predecessor is this one
                    if local_of[k][0] not in failed:
                        failed += (local_of[k][0],)
                        terminals.append((state(lids, local_of[k][0]), bits[count(shifted)]))
                    continue
                succ = key + delta
                tid = ids.get(succ)
                if tid is None:
                    ids[succ] = tid = len(bits)
                    if tid >= state_bound:
                        raise BoundExceeded(f"oracle state bound {state_bound} exceeded")
                    bits.append(shifted)
                    buckets[level + rise].append((tid, succ, lids[:r] + (k,) + lids[r + 1:]))
                else:
                    bits[tid] |= shifted
        bucket.clear()
    return terminals, len(bits)


def explore_full(program: lang.Program, nprocs: int, model: Model,
                 state_bound: int = 200_000) -> OracleResult:
    """Exhaustive walk over all interleavings with state dedup: every
    terminal's tag and shortest path length (its bitset's lowest bit)."""
    terminals, visited = _terminals(program, nprocs, model, state_bound)
    shortest = {s.canonical(): (_terminal_tag(s), (bits & -bits).bit_length() - 1)
                for s, bits in terminals}
    return OracleResult(terminals=shortest, visited=visited)


def deadlock_path_lengths(program: lang.Program, nprocs: int, model: Model,
                          state_bound: int = 200_000) -> Tuple[Dict[tuple, FrozenSet[int]], int]:
    """For every deadlocked terminal, the set of path lengths (in global
    actions) over ALL executions reaching it, plus the visited-state count."""
    terminals, visited = _terminals(program, nprocs, model, state_bound)
    out = {s.canonical(): frozenset(n for n in range(bits.bit_length()) if bits >> n & 1)
           for s, bits in terminals if _terminal_tag(s) == "deadlock"}
    return out, visited


# -- engine-side correspondence --------------------------------------------------


def global_action_count(trace, compiled: ops.CompiledProgram) -> int:
    """Length of an engine trace measured in oracle global actions: each
    match and each barrier release is one action, each executed
    non-communication statement is one local step, and blocking steps
    contribute nothing (a rendezvous is a single action, not two)."""
    return sum(type(ev) is MatchEvent or type(ev) is BarrierRelease or type(ev) is StepEvent
               and isinstance(compiled.ops[ev.loc], _LOCAL_OPS) for ev in trace)


def engine_terminal_canonical(record: engine.PathRecord, model: Model) -> tuple:
    """Canonicalize an engine terminal state under a model its path
    condition holds on, making it comparable with oracle terminals."""
    procs = record.final_state.procs
    envs = [{name: lang.evaluate(v, model) for name, v in p.env.items()} for p in procs]
    return canonical_key([p.pc_loc for p in procs], envs)


class TheoremVerdict(lang.Record):
    __slots__ = ("holds", "model", "issues", "engine_deadlocks", "oracle_deadlocks",
                 "engine_states", "oracle_states")
    __hash__ = None

    def __init__(self, holds: bool, model: Model, issues: Optional[List[str]] = None,
                 engine_deadlocks: Optional[Dict[tuple, FrozenSet[int]]] = None,
                 oracle_deadlocks: Optional[Dict[tuple, FrozenSet[int]]] = None,
                 engine_states: int = 0, oracle_states: int = 0):
        self.holds, self.model = holds, model
        self.issues = [] if issues is None else issues
        self.engine_deadlocks = {} if engine_deadlocks is None else engine_deadlocks
        self.oracle_deadlocks = {} if oracle_deadlocks is None else oracle_deadlocks
        self.engine_states, self.oracle_states = engine_states, oracle_states


def check_theorem(program: lang.Program, nprocs: int, model: Model, state_bound: int = 200_000,
                  report: Optional[engine.AnalysisReport] = None) -> TheoremVerdict:
    """Differential equivalence check for one concrete model.

    `report` is a complete symbolic search of the program (one unbounded
    `engine.search` when None); its projection onto `model` is the records
    whose path condition holds under it.  Holds iff (a) the projection
    reaches a deadlock exactly when the full-interleaving graph does, (b)
    the canonical deadlocked terminal states coincide, and (c) for each
    such terminal the sets of reachable path lengths (in global actions)
    coincide.  `state_bound` bounds the oracle.
    """
    ops.lower(program).check_model(model, OracleError)
    if report is None:
        report = engine.search(program, nprocs)
    if report.truncated:
        raise BoundExceeded("engine search truncated by its state or depth bound")
    eng: Dict[tuple, Set[int]] = {}
    for rec in report.records:
        if not pc_holds(rec.pc, model):
            continue
        if rec.verdict is Verdict.ERROR:
            raise OracleError(f"engine reported an analysis error: {rec.error}")
        if rec.verdict is Verdict.DEADLOCK:
            key = engine_terminal_canonical(rec, model)
            eng.setdefault(key, set()).add(
                global_action_count(rec.trace, rec.final_state.compiled))
    engine_deadlocks = {k: frozenset(v) for k, v in eng.items()}

    oracle_deadlocks, visited = deadlock_path_lengths(program, nprocs, model, state_bound)

    issues: List[str] = []
    if bool(engine_deadlocks) != bool(oracle_deadlocks):
        side = "engine" if engine_deadlocks else "oracle"
        issues.append(f"deadlock reachable only on the {side} side")
    for side, ours, theirs in (("engine", engine_deadlocks, oracle_deadlocks),
                               ("oracle", oracle_deadlocks, engine_deadlocks)):
        for key in sorted(set(ours) - set(theirs)):
            issues.append(f"deadlocked terminal only reached by the {side}: cursors={key[0]}")
    for key in sorted(set(engine_deadlocks) & set(oracle_deadlocks)):
        if engine_deadlocks[key] != oracle_deadlocks[key]:
            issues.append(
                f"path-length sets differ at cursors={key[0]}: "
                f"engine={sorted(engine_deadlocks[key])} oracle={sorted(oracle_deadlocks[key])}")

    return TheoremVerdict(holds=not issues, model=dict(model), issues=issues,
                          engine_deadlocks=engine_deadlocks,
                          oracle_deadlocks=oracle_deadlocks,
                          engine_states=report.states_created,
                          oracle_states=visited)
