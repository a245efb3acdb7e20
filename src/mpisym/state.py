"""Per-process and global execution state for the symbolic engine.

A GlobalState is owned by whoever holds it: `se_step` and `expand` write
into the state they are given and return it as the first successor.  Only a
second successor is a copy, made with `fork` before the two successors
differ.  A fork copies the process records (`ProcState`) and their
environments, and shares the rest: the compiled program, the path-condition
tuple, the model and the frozen chunks of the schedule trace (`Trace`),
none of which is ever written in place.  The trace's tail, the events since
the previous fork, is frozen into one more shared chunk.  So a fork never
copies a long prefix, and a write into one state never shows in another.

A rank that is asleep (INACTIVE) rests on the send, receive or barrier it
is waiting in, so the statement at its cursor says which call it is;
`blocked_on` adds only the peer that a send or a named receive names, and
is None everywhere else.  `waiting_in` asks the one question the rules
need of that record.

A state also carries `model`, the smallest model of its path condition;
the initial one sets every input to the low end of its domain.  Forks
share the dict and nothing mutates it.

A process's environment binds its locals to terms, and `rank` and `nprocs`
to constants.  `eval_expr` turns an expression into its term with
`lang.evaluate` over `symbolic.TERMS`.  The term of an operand that reads no
local (`CompiledProgram.closed`) depends on the rank alone, so it is built
once per rank and kept in `terms`, keyed by the operand's node and the rank:
the one table a fork shares and writes in place, as every entry holds for
every state of the search.  Equal operands are one node and share an entry.

The `Status` members and `Verdict.RUNNING` are also bound to module names
(`ACTIVE`, `INACTIVE`, `EXITED`, `RUNNING`), and this module and the
engine read them only through those names.  On Python 3.11 `EnumType`
defines `__getattr__`, so `Status.ACTIVE` costs about 100 ns against 12 ns
for a module name (timeit, 2-vCPU VM), paid a few times per engine state.
"""

from __future__ import annotations

import collections
import enum
import itertools
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from . import lang, ops, symbolic
from .lang import Expr

if TYPE_CHECKING:
    from .solver import Model


class EngineError(Exception):
    """Internal invariant violation; indicates a bug, not a program verdict."""


class Status(enum.Enum):
    ACTIVE = "active"
    INACTIVE = "inactive"
    EXITED = "exited"


class Verdict(enum.Enum):
    RUNNING = "running"
    TERMINATED = "terminated"
    DEADLOCK = "deadlock"
    ASSERT_FAIL = "assertfail"
    ERROR = "error"


ACTIVE, INACTIVE, EXITED = Status
RUNNING = Verdict.RUNNING

# Schedule trace events.  Replay consumes these in order, so the engine
# must append them in a fixed discipline: a StepEvent precedes any
# BranchChoice/MatchEvent/BarrierRelease it causes; wildcard matches are
# standalone MatchEvents with wildcard=True.  Every field is an int except
# `wildcard` and `taken`, which are bools.


def _event_kind(name: str, fields: str) -> type:
    """An immutable named tuple that equals only an event of its own kind
    (`StepEvent(3, 1) != BranchChoice(3, True)`, and no event equals a plain
    tuple); equal events hash equal."""
    kind = collections.namedtuple(name, fields, module=__name__)
    kind.__eq__ = lambda a, b: type(a) is type(b) and tuple.__eq__(a, b)
    kind.__ne__ = lambda a, b: type(a) is not type(b) or tuple.__ne__(a, b)
    kind.__hash__ = tuple.__hash__
    return kind


StepEvent = _event_kind("StepEvent", "rank loc")
MatchEvent = _event_kind("MatchEvent", "sender receiver wildcard")
BarrierRelease = _event_kind("BarrierRelease", "epoch")
BranchChoice = _event_kind("BranchChoice", "loc taken")
new_tuple = tuple.__new__  # `new_tuple(Kind, fields)` skips a named tuple's Python-level __new__

TraceEvent = object


class Trace:
    """The schedule trace of one state: a list tail over a tuple of frozen
    chunks, oldest first.

    ``append`` is the tail list's own bound method, so an event costs one C
    call.  ``copy`` freezes the tail into one more chunk that the trace and
    its copy share, each with an empty tail of its own: a copy costs the
    events since the last copy and one reference per chunk, never the whole
    prefix.  A live trace only appends, copies, reports its length and
    iterates; a reader of a finished path takes ``tuple(trace)``.
    """

    __slots__ = ("chunks", "tail", "append")

    def __init__(self, chunks: tuple = ()):
        self.chunks = chunks
        self.tail: List[TraceEvent] = []
        self.append = self.tail.append

    def copy(self) -> "Trace":
        """A trace sharing every frozen chunk, which the copy can extend alone."""
        if self.tail:
            self.chunks += (tuple(self.tail),)
            self.tail.clear()
        return Trace(self.chunks)

    def __len__(self) -> int:
        return sum(map(len, self.chunks)) + len(self.tail)

    def __iter__(self):
        return itertools.chain(*self.chunks, self.tail)


class ProcState(lang.Record):
    """One process: a record that its state owns and writes in place.  Each
    fork copies it, so `__init__` sets one field a statement, which on
    Python 3.11 is faster than unpacking a tuple of five."""

    __slots__ = ("rank", "pc_loc", "env", "status", "blocked_on")
    __hash__ = None

    def __init__(self, rank: int, pc_loc: int, env: Dict[str, Expr], status: Status,
                 blocked_on: Optional[int]):
        self.rank = rank
        self.pc_loc = pc_loc
        self.env = env
        self.status = status
        self.blocked_on = blocked_on  # the peer of a sleeping send or named receive

    def copy(self) -> "ProcState":
        return ProcState(self.rank, self.pc_loc, self.env.copy(), self.status, self.blocked_on)


class GlobalState:
    __slots__ = ("compiled", "nprocs", "procs", "pc", "model", "next_proc_candidate",
                 "barrier_epochs", "trace", "verdict", "fail_loc", "error", "depth", "terms")

    def __init__(self, compiled: ops.CompiledProgram, nprocs: int):
        self.compiled = compiled
        self.nprocs = nprocs
        status = ACTIVE if compiled.ops else EXITED
        self.procs: List[ProcState] = [
            ProcState(r, 0, {"rank": lang.Num(r), "nprocs": lang.Num(nprocs)}, status, None)
            for r in range(nprocs)]
        self.pc: symbolic.PathCondition = ()
        self.model: Model = {name: lo for name, (lo, _) in compiled.domains.items()}
        self.next_proc_candidate: Optional[int] = None
        self.barrier_epochs = 0
        self.trace = Trace()
        self.verdict = RUNNING
        self.fail_loc: Optional[int] = None
        self.error: Optional[str] = None
        self.depth = 0
        self.terms: Dict[tuple, Expr] = {}  # (closed operand, rank) -> its term


def init_state(program: lang.Program, nprocs: int) -> GlobalState:
    """Initial state: every process active at the first statement, empty
    path condition and trace."""
    if nprocs < 1:
        raise EngineError("nprocs must be positive")
    return GlobalState(ops.lower(program), nprocs)


def fork(s: GlobalState) -> GlobalState:
    """An independent copy, for a second successor: it copies the process
    records and their environments, freezes the trace's tail into a chunk
    that both states share, and shares the path-condition tuple, the model
    and the term table, so the cost is the events since the last fork, not
    the path depth.  The term table is written in place, but only with
    terms that are the same in every state of the search."""
    t = GlobalState.__new__(GlobalState)
    for name in GlobalState.__slots__:  # shared: `terms` only gains search-wide entries
        setattr(t, name, getattr(s, name))
    t.procs = [p.copy() for p in s.procs]
    t.trace = s.trace.copy()
    return t


def eval_expr(s: GlobalState, rank: int, e: Expr) -> Expr:
    """The folded term of a surface expression in a process context
    (`lang.evaluate` over `symbolic.TERMS`); an operand that reads no local
    is evaluated once per rank and then read from `s.terms`."""
    key = (e, rank)
    term = s.terms.get(key)
    if term is None:
        try:
            term = lang.evaluate(e, s.procs[rank].env, s.compiled.domains, symbolic.TERMS)
        except lang.LangError as exc:
            raise EngineError(f"{exc} (validation should reject this)") from None
        if e in s.compiled.closed:
            s.terms[key] = term
    return term


def assume(s: GlobalState, cond: Expr, model: Model) -> GlobalState:
    """Append a boolean constraint to the path condition (no solver call);
    `model` is the smallest model of the new path condition."""
    if lang.sort_of(cond) != "bool":
        raise EngineError("assume needs a boolean-sorted expression")
    s.pc = s.pc + (cond,)
    s.model = model
    return s


def advance(s: GlobalState, ranks: Iterable[int]) -> GlobalState:
    """Move cursors past the current statement; running off the end of the
    body exits the process."""
    compiled = s.compiled
    end = compiled.end
    for r in ranks:
        p = s.procs[r]
        if p.pc_loc >= end:
            raise EngineError(f"advance past end of body (rank {r})")
        p.pc_loc = compiled.next_of[p.pc_loc]
        if p.pc_loc >= end:
            p.status = EXITED
    return s


def waiting_in(s: GlobalState, r: int, call: type, peer: Optional[int]) -> bool:
    """Whether rank r is asleep in a `call` (lang.Send, lang.Recv or
    lang.Barrier) naming rank `peer`; peer None stands for a wildcard
    receive or a barrier."""
    p = s.procs[r]
    return (p.status is INACTIVE and p.blocked_on == peer
            and type(s.compiled.ops[p.pc_loc]) is call)


def match_transfer(s: GlobalState, sender: int, receiver: int) -> GlobalState:
    """Synchronize a send with a receive: the receiver binds the sender's
    payload, both processes wake and advance, and a MatchEvent is recorded.

    Either side may be asleep or currently executing its statement; the
    pairing must be consistent (mismatches are engine bugs).  The payload
    is evaluated here: a sleeping sender's environment cannot change.
    """
    if sender == receiver:
        raise EngineError("a process cannot match with itself")
    sp = s.procs[sender]
    rp = s.procs[receiver]
    send = s.compiled.ops[sp.pc_loc]
    recv = s.compiled.ops[rp.pc_loc]
    if not isinstance(send, lang.Send):
        raise EngineError("sender is not at a send")
    if not isinstance(recv, lang.Recv):
        raise EngineError("receiver is not at a receive")
    if sp.blocked_on not in (None, receiver):
        raise EngineError("sender is blocked on a different destination")
    if rp.blocked_on not in (None, sender):
        raise EngineError("receiver expects a different source")

    rp.env[recv.var] = eval_expr(s, sender, send.payload)
    sp.status = rp.status = ACTIVE
    sp.blocked_on = rp.blocked_on = None
    s.trace.append(new_tuple(MatchEvent, (sender, receiver, recv.src is None)))
    advance(s, (sender, receiver))
    return s
