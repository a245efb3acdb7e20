"""Recording explored paths as portable test cases and re-executing them.

A test case is the recorded input model plus the schedule trace of one
path.  Replay pins the recorded input and walks the trace over the
oracle's transition relation (``oracle.step``), so reproduction is
deterministic and needs no solver; any disagreement between an event and
the concrete semantics is reported as a divergence.

A step at an assignment, branch, assertion or exit is the action
``Local(r)``; a source-specific match is ``SR``, a wildcard match
``SRStar`` and a barrier release ``B``.  A step at a send, receive or
barrier is the engine's blocking half of a rendezvous and is no action: it
*posts* the rank, which then waits for the match or release.  The posted
ranks, each with the rank its call names, are all the state replay keeps
besides the oracle's, and they carry the engine's own rules: a posted rank
takes no step, a call whose partner already posted the matching call is
matched at once, and a trace ends only where no rank can run and no
wildcard pair is left.

File format (one event per line, LF, UTF-8)::

    mpisym-testcase v1
    program-hash <sha256 of the canonical pretty-printed source>
    nprocs <N>
    INPUT
    <name>=<int>
    TRACE
    step rank=<r> loc=<op index>
    match sender=<r> receiver=<r> wildcard=<yes|no>
    branch loc=<op index> taken=<yes|no>
    release epoch=<k>
    VERDICT
    terminated | deadlock | assertfail loc=<op index>

Replaying many cases of one program in one process prepares the program
once (its hash, findings and lowered form are kept on it, ``lang.derived``),
and ``loads`` parses each distinct line of a trace once.  Nothing here is
user-settable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from . import engine, lang, oracle, ops
from .state import (BarrierRelease, BranchChoice, MatchEvent, StepEvent,
                    Verdict)

FORMAT_HEADER = "mpisym-testcase v1"


class ReplayError(Exception):
    pass


def program_hash(program: lang.Program) -> str:
    """Whitespace-insensitive program identity: hash of the canonical form
    (computed once per program)."""
    return lang.derived(program, _sha256)


def _sha256(program: lang.Program) -> str:
    return hashlib.sha256(lang.pretty_print(program).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TestCase:
    program_hash: str
    nprocs: int
    model: Tuple[Tuple[str, int], ...]
    trace: Tuple
    verdict: Verdict
    fail_loc: Optional[int] = None
    version: int = 1

    def model_dict(self) -> Dict[str, int]:
        return dict(self.model)


def make_testcase(record: engine.PathRecord, program: lang.Program,
                  nprocs: int) -> TestCase:
    if record.verdict is Verdict.ERROR:
        raise ReplayError("analysis-error paths are not replayable")
    return TestCase(
        program_hash=program_hash(program),
        nprocs=nprocs,
        model=tuple(record.model.items()),
        trace=tuple(record.trace),
        verdict=record.verdict,
        fail_loc=record.fail_loc,
    )


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def dumps(tc: TestCase) -> str:
    lines = [FORMAT_HEADER,
             f"program-hash {tc.program_hash}",
             f"nprocs {tc.nprocs}",
             "INPUT"]
    for name, value in tc.model:
        lines.append(f"{name}={value}")
    lines.append("TRACE")
    for ev in tc.trace:
        if isinstance(ev, StepEvent):
            lines.append(f"step rank={ev.rank} loc={ev.loc}")
        elif isinstance(ev, MatchEvent):
            lines.append(f"match sender={ev.sender} receiver={ev.receiver} "
                         f"wildcard={_yn(ev.wildcard)}")
        elif isinstance(ev, BranchChoice):
            lines.append(f"branch loc={ev.loc} taken={_yn(ev.taken)}")
        elif isinstance(ev, BarrierRelease):
            lines.append(f"release epoch={ev.epoch}")
        else:
            raise ReplayError(f"unknown trace event {ev!r}")
    lines.append("VERDICT")
    if tc.verdict is Verdict.ASSERT_FAIL:
        lines.append(f"assertfail loc={tc.fail_loc}")
    else:
        lines.append(tc.verdict.value)
    return "\n".join(lines) + "\n"


def _fields(parts: List[str], expect: Tuple[str, ...], line_no: int) -> List[str]:
    values = []
    if len(parts) != len(expect):
        raise ReplayError(f"line {line_no}: malformed event")
    for part, key in zip(parts, expect):
        if not part.startswith(key + "="):
            raise ReplayError(f"line {line_no}: expected field {key!r}")
        values.append(part[len(key) + 1:])
    return values


#: Per event kind: its field names, and the event made from the field texts.
_EVENTS = {
    "step": (("rank", "loc"), lambda r, loc: StepEvent(int(r), int(loc))),
    "match": (("sender", "receiver", "wildcard"),
              lambda snd, rcv, wc: MatchEvent(int(snd), int(rcv), wc == "yes")),
    "branch": (("loc", "taken"), lambda loc, taken: BranchChoice(int(loc), taken == "yes")),
    "release": (("epoch",), lambda epoch: BarrierRelease(int(epoch))),
}


def _event(entry: str, line_no: int):
    kind, *parts = entry.split()
    if kind not in _EVENTS:
        raise ReplayError(f"line {line_no}: unknown event {kind!r}")
    keys, make = _EVENTS[kind]
    return make(*_fields(parts, keys, line_no))


def loads(text: str) -> TestCase:
    """Parse the v1 text; each distinct trace line is parsed once."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise ReplayError(f"not a test case file (expected {FORMAT_HEADER!r})")
    if len(lines) < 3 or not lines[1].startswith("program-hash ") \
            or not lines[2].startswith("nprocs "):
        raise ReplayError("missing program-hash/nprocs header")
    phash = lines[1].split(None, 1)[1].strip()
    nprocs = int(lines[2].split(None, 1)[1])

    sections = {"INPUT": [], "TRACE": [], "VERDICT": []}
    current = None
    for i, raw in enumerate(lines[3:], start=4):
        text_line = raw.strip()
        if not text_line:
            continue
        if text_line in sections:
            current = text_line
            continue
        if current is None:
            raise ReplayError(f"line {i}: content before INPUT section")
        sections[current].append((i, text_line))

    model = {}
    for i, entry in sections["INPUT"]:
        if "=" not in entry:
            raise ReplayError(f"line {i}: malformed input binding")
        name, value = entry.split("=", 1)
        name = name.strip()
        if name in model:
            raise ReplayError(f"line {i}: input {name!r} bound twice")
        model[name] = int(value)

    trace = []
    events = {}  # trace line -> its event, shared by the lines equal to it
    for i, entry in sections["TRACE"]:
        ev = events.get(entry)
        if ev is None:
            ev = events[entry] = _event(entry, i)
        trace.append(ev)

    if not sections["VERDICT"]:
        raise ReplayError("missing VERDICT section")
    vline_no, vline = sections["VERDICT"][0]
    kind, *rest = vline.split()
    fail_loc = None
    if kind == "assertfail":
        verdict = Verdict.ASSERT_FAIL
        (loc,) = _fields(rest, ("loc",), vline_no)
        fail_loc = int(loc)
    elif kind in ("terminated", "deadlock") and not rest:
        verdict = Verdict(kind)
    else:  # a test case never ends running or in an analysis error
        raise ReplayError(f"line {vline_no}: unknown verdict {vline!r}")

    return TestCase(program_hash=phash, nprocs=nprocs, model=tuple(model.items()),
                    trace=tuple(trace), verdict=verdict, fail_loc=fail_loc)


def save_testcase(record: engine.PathRecord, program: lang.Program,
                  nprocs: int, path) -> TestCase:
    tc = make_testcase(record, program, nprocs)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(tc))
    return tc


def load_testcase(path) -> TestCase:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


# -- concrete replay ------------------------------------------------------------


@dataclass(frozen=True)
class Divergence:
    event_index: int  # number of events consumed when replay diverged
    expected: str
    observed: str

    def __str__(self):
        return f"event {self.event_index}: expected {self.expected}, observed {self.observed}"


@dataclass
class ReplayResult:
    verdict: Optional[Verdict]
    expected: Verdict
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences and self.verdict is self.expected


def _posted_on(s: oracle.ConcreteState, posted, r: int, call: type, peer: Optional[int]) -> bool:
    """`state.waiting_in` asked of the posted map: whether rank r is posted
    in a `call` (lang.Send or lang.Recv) naming rank `peer`; peer None
    stands for a wildcard receive."""
    return posted.get(r, -1) == peer and isinstance(s.current_op(r), call)


def _walk(s: oracle.ConcreteState, events) -> Union[Verdict, Divergence]:
    """Follow the recorded events over oracle.step, in place: the verdict
    of the final state, or the first divergence."""
    n = s.nprocs
    cursors = s.cursors
    end = s.compiled.end
    op_at = s.compiled.op_at
    local = [oracle.Local(r) for r in range(n)]
    barrier = oracle.B()
    posted = {}  # posted rank -> the rank its call names (None: wildcard receive, barrier)
    arrivals = 0  # ranks posted at the open barrier
    epoch = 0
    count = len(events)
    i = 0
    while i < count:
        ev = events[i]
        i += 1
        nxt = events[i] if i < count else None
        if isinstance(ev, StepEvent):
            r = ev.rank
            if not 0 <= r < n:
                return Divergence(i, "a valid rank", f"rank {r}")
            if r in posted or cursors[r] >= end:
                return Divergence(i, f"rank {r} runnable",
                                  "blocked" if r in posted else "exited")
            if cursors[r] != ev.loc:
                return Divergence(i, f"rank {r} at loc {ev.loc}", f"loc {cursors[r]}")
            op = op_at(ev.loc)
            if isinstance(op, ops.OpBranch):
                if not isinstance(nxt, BranchChoice) or nxt.loc != ev.loc:
                    return Divergence(i, "a branch-choice event", repr(nxt))
                i += 1
                if oracle.step(s, local[r]) != nxt.taken:
                    what = "branch" if op.false_target is not None else "assertion"
                    return Divergence(i, f"{what} at loc {ev.loc} taken={_yn(nxt.taken)}",
                                      f"condition evaluated to {_yn(not nxt.taken)}")
                if s.fail_loc is not None and i < count:
                    return Divergence(i + 1, "end of trace after the assertion failure",
                                      repr(events[i]))
            elif isinstance(op, (lang.Assign, lang.Exit)):
                oracle.step(s, local[r])
            elif isinstance(op, lang.Barrier):
                posted[r] = None
                arrivals += 1
                if arrivals == n:
                    if not isinstance(nxt, BarrierRelease):
                        return Divergence(i, "a barrier-release event", repr(nxt))
                    if nxt.epoch != epoch:
                        return Divergence(i, f"barrier epoch {epoch}", f"epoch {nxt.epoch}")
                    i += 1
                    oracle.step(s, barrier)
                    posted.clear()
                    arrivals = 0
                    epoch += 1
            elif isinstance(op, lang.Recv) and op.src is None:
                posted[r] = None  # a wildcard receive waits for a wildcard match
            else:
                sending = isinstance(op, lang.Send)
                peer = s.eval(r, op.dest if sending else op.src)
                if not 0 <= peer < n or peer == r:
                    return Divergence(i, f"a peer rank for rank {r}", f"rank {peer}")
                snd, rcv = (r, peer) if sending else (peer, r)
                if _posted_on(s, posted, peer, lang.Recv if sending else lang.Send, r):
                    if not (isinstance(nxt, MatchEvent) and not nxt.wildcard
                            and nxt.sender == snd and nxt.receiver == rcv):
                        call = f"send to {peer}" if sending else f"receive from {peer}"
                        return Divergence(i, f"rank {r} blocking on {call}",
                                          f"a matching {'receive' if sending else 'send'} "
                                          "was already posted")
                    i += 1
                    oracle.step(s, oracle.SR(snd, rcv))
                    del posted[peer]
                else:
                    posted[r] = peer
        elif isinstance(ev, MatchEvent):
            snd, rcv = ev.sender, ev.receiver
            for q in (snd, rcv):
                if not 0 <= q < n:
                    return Divergence(i, "a valid rank", f"rank {q}")
            if not ev.wildcard:
                return Divergence(i, "a step before any source-specific match",
                                  f"standalone {ev}")
            if not (_posted_on(s, posted, snd, lang.Send, rcv)
                    and _posted_on(s, posted, rcv, lang.Recv, None)):
                return Divergence(i, f"rank {snd} blocked sending to {rcv} and rank {rcv} "
                                  "blocked on a wildcard receive", "not both posted on that pair")
            oracle.step(s, oracle.SRStar(snd, rcv))
            del posted[snd], posted[rcv]
        else:
            return Divergence(i, "step or wildcard match event", repr(ev))

    if s.fail_loc is not None:
        return Verdict.ASSERT_FAIL
    if s.all_exited():
        return Verdict.TERMINATED
    for r in range(n):
        if r not in posted and cursors[r] < end:
            return Divergence(count, "trace covering every runnable process",
                              f"rank {r} still runnable at end of trace")
    acts = oracle.enabled(s)  # the checks above leave only wildcard matches possible
    if acts:
        return Divergence(count, "a deadlocked final state",
                          f"wildcard match {acts[0].sender}->{acts[0].receiver} still possible")
    return Verdict.DEADLOCK


def replay_testcase(program: lang.Program, tc: TestCase) -> ReplayResult:
    """Re-execute a recorded path concretely, checking every event against
    the actual semantics; no solver is involved."""
    if program_hash(program) != tc.program_hash:
        raise ReplayError("program hash mismatch: test case was recorded for a different program")
    findings = lang.validate(program, tc.nprocs)
    if findings:
        raise ReplayError(f"program fails validation: {findings[0].message}")
    try:
        s = oracle.make_initial(program, tc.nprocs, tc.model_dict())
    except oracle.OracleError as exc:
        raise ReplayError(f"test case input: {exc}") from None

    outcome = _walk(s, tc.trace)
    if isinstance(outcome, Divergence):
        return ReplayResult(verdict=None, expected=tc.verdict, divergences=[outcome])
    return ReplayResult(verdict=outcome, expected=tc.verdict)
