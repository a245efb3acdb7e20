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
once (its hash, findings and lowered form are kept on it, ``lang.derived``).
``loads`` strips each line once, finds the section headers by index and
reads the trace where it lies, with no per-line tuples; it builds each
distinct trace line's event once, from the groups of one compiled pattern.
Only a line it cannot read is split into fields, to say what is wrong with
it.  Nothing here is user-settable.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from . import engine, lang, oracle, ops
from .state import (BarrierRelease, BranchChoice, MatchEvent, StepEvent,
                    Verdict, new_tuple)

FORMAT_HEADER = "mpisym-testcase v1"


class ReplayError(Exception):
    pass


def program_hash(program: lang.Program) -> str:
    """Whitespace-insensitive program identity: hash of the canonical form
    (computed once per program)."""
    return lang.derived(program, _sha256)


def _sha256(program: lang.Program) -> str:
    return hashlib.sha256(lang.pretty_print(program).encode("utf-8")).hexdigest()


class TestCase(lang.Record):
    __slots__ = ("program_hash", "nprocs", "model", "trace", "verdict", "fail_loc")

    def __init__(self, program_hash: str, nprocs: int, model: Tuple[Tuple[str, int], ...],
                 trace: Tuple, verdict: Verdict, fail_loc: Optional[int] = None):
        self.program_hash, self.nprocs, self.model = program_hash, nprocs, model
        self.trace, self.verdict, self.fail_loc = trace, verdict, fail_loc

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
        trace=record.trace,
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
        kind = type(ev)
        if kind is StepEvent:
            lines.append("step rank=%s loc=%s" % ev)
        elif kind is MatchEvent:
            lines.append("match sender=%s receiver=%s wildcard=%s"
                         % (ev.sender, ev.receiver, _yn(ev.wildcard)))
        elif kind is BranchChoice:
            lines.append("branch loc=%s taken=%s" % (ev.loc, _yn(ev.taken)))
        elif kind is BarrierRelease:
            lines.append("release epoch=%s" % ev)
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


#: Each event kind by its name in the text, which writes its fields in order.
_KINDS = {"step": StepEvent, "match": MatchEvent, "branch": BranchChoice,
          "release": BarrierRelease}

#: Any stripped trace line: one group per field, numbered across the kinds,
#: so the last group that took part (2, 5, 7 or 8) names the kind, and
#: `_EVENT_OF` makes the event from the match.
_TRACE_LINE = re.compile("|".join(name + "".join(rf"\s+{key}=(\S*)" for key in kind._fields)
                                  for name, kind in _KINDS.items()))
_EVENT_OF = {2: lambda m: new_tuple(StepEvent, (int(m[1]), int(m[2]))),
             5: lambda m: new_tuple(MatchEvent, (int(m[3]), int(m[4]), m[5] == "yes")),
             7: lambda m: new_tuple(BranchChoice, (int(m[6]), m[7] == "yes")),
             8: lambda m: new_tuple(BarrierRelease, (int(m[8]),))}


def _int(text: str, what: str, line_no: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ReplayError(f"line {line_no}: {what} {text!r} is not an integer") from None


def _malformed(entry: str, line_no: int) -> ReplayError:
    """What is wrong with a trace line that `_TRACE_LINE` rejects, or whose
    event `_EVENT_OF` cannot make because a field is not an integer."""
    name, *parts = entry.split()
    if name not in _KINDS:
        return ReplayError(f"line {line_no}: unknown event {name!r}")
    keys = _KINDS[name]._fields
    values = _fields(parts, keys, line_no)  # raises on every line the pattern rejects
    for key, value in zip(keys, values):
        if key not in ("wildcard", "taken"):
            _int(value, key, line_no)
    return ReplayError(f"line {line_no}: malformed event")


def loads(text: str) -> TestCase:
    """Parse the v1 text; each distinct trace line is parsed once."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise ReplayError(f"not a test case file (expected {FORMAT_HEADER!r})")
    if len(lines) < 3 or not lines[1].startswith("program-hash ") \
            or not lines[2].startswith("nprocs "):
        raise ReplayError("missing program-hash/nprocs header")
    phash = lines[1][len("program-hash "):].strip()
    if not phash:
        raise ReplayError("line 2: empty program-hash")
    nprocs_text = lines[2][len("nprocs "):].strip()
    try:
        nprocs = int(nprocs_text)
    except ValueError:
        raise ReplayError(f"line 3: bad nprocs {nprocs_text!r}") from None

    body = list(map(str.strip, lines[3:]))  # line k of the text is body[k - 4]
    spans = {None: [], "INPUT": [], "TRACE": [], "VERDICT": []}  # None: before any header
    heads = [(k, line) for k, line in enumerate(body) if line in spans]
    for (k, name), (end, _) in zip([(-1, None)] + heads, heads + [(len(body), None)]):
        spans[name].append((k + 1, end))

    def numbered(name):  # the non-blank lines of a short section, with their numbers
        return [(k + 4, body[k]) for a, b in spans[name] for k in range(a, b) if body[k]]

    for i, _ in numbered(None):  # the first line before any header
        raise ReplayError(f"line {i}: content before INPUT section")
    model = {}
    for i, entry in numbered("INPUT"):
        if "=" not in entry:
            raise ReplayError(f"line {i}: malformed input binding")
        name, value = entry.split("=", 1)
        name = name.strip()
        if name in model:
            raise ReplayError(f"line {i}: input {name!r} bound twice")
        model[name] = _int(value, f"input {name}", i)

    trace = []
    events = {}  # trace line -> its event, shared by the lines equal to it
    match = _TRACE_LINE.fullmatch
    for a, b in spans["TRACE"]:
        for entry in filter(None, body[a:b]):
            ev = events.get(entry)
            if ev is None:
                m = match(entry)
                if m is None:
                    raise _malformed(entry, body.index(entry, a, b) + 4)
                try:
                    ev = events[entry] = _EVENT_OF[m.lastindex](m)
                except ValueError:
                    raise _malformed(entry, body.index(entry, a, b) + 4) from None
            trace.append(ev)

    verdict_lines = numbered("VERDICT")
    if not verdict_lines:
        raise ReplayError("missing VERDICT section")
    vline_no, vline = verdict_lines[0]
    kind, *rest = vline.split()
    fail_loc = None
    if kind == "assertfail":
        verdict = Verdict.ASSERT_FAIL
        (loc,) = _fields(rest, ("loc",), vline_no)
        fail_loc = _int(loc, "loc", vline_no)
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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ReplayError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ReplayError(f"{path} is not UTF-8 text") from None
    return loads(text)


# -- concrete replay ------------------------------------------------------------


class Divergence(lang.Record):
    __slots__ = ("event_index", "expected", "observed")

    def __init__(self, event_index: int, expected: str, observed: str):
        # event_index: the number of events consumed when replay diverged
        self.event_index, self.expected, self.observed = event_index, expected, observed

    def __str__(self):
        return f"event {self.event_index}: expected {self.expected}, observed {self.observed}"


class ReplayResult(lang.Record):
    __slots__ = ("verdict", "expected", "divergences")
    __hash__ = None

    def __init__(self, verdict: Optional[Verdict], expected: Verdict,
                 divergences: Optional[List[Divergence]] = None):
        self.verdict, self.expected = verdict, expected
        self.divergences = [] if divergences is None else divergences

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
    table = s.compiled.ops
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
        kind = type(ev)
        if kind is StepEvent:
            r, loc = ev
            if not 0 <= r < n:
                return Divergence(i, "a valid rank", f"rank {r}")
            if r in posted or cursors[r] >= end:
                return Divergence(i, f"rank {r} runnable",
                                  "blocked" if r in posted else "exited")
            if cursors[r] != loc:
                return Divergence(i, f"rank {r} at loc {loc}", f"loc {cursors[r]}")
            op = table[loc]
            op_kind = type(op)
            if op_kind is ops.OpBranch:
                if type(nxt) is not BranchChoice or nxt.loc != loc:
                    return Divergence(i, "a branch-choice event", repr(nxt))
                i += 1
                if oracle.step(s, local[r]) != nxt.taken:
                    what = "branch" if op.false_target is not None else "assertion"
                    return Divergence(i, f"{what} at loc {loc} taken={_yn(nxt.taken)}",
                                      f"condition evaluated to {_yn(not nxt.taken)}")
                if s.fail_loc is not None and i < count:
                    return Divergence(i + 1, "end of trace after the assertion failure",
                                      repr(events[i]))
            elif op_kind is lang.Assign or op_kind is lang.Exit:
                oracle.step(s, local[r])
            elif op_kind is lang.Barrier:
                posted[r] = None
                arrivals += 1
                if arrivals == n:
                    if type(nxt) is not BarrierRelease:
                        return Divergence(i, "a barrier-release event", repr(nxt))
                    if nxt.epoch != epoch:
                        return Divergence(i, f"barrier epoch {epoch}", f"epoch {nxt.epoch}")
                    i += 1
                    oracle.step(s, barrier)
                    posted.clear()
                    arrivals = 0
                    epoch += 1
            elif op_kind is lang.Recv and op.src is None:
                posted[r] = None  # a wildcard receive waits for a wildcard match
            else:
                sending = op_kind is lang.Send
                peer = s.eval(r, op.dest if sending else op.src)
                if not 0 <= peer < n or peer == r:
                    return Divergence(i, f"a peer rank for rank {r}", f"rank {peer}")
                snd, rcv = (r, peer) if sending else (peer, r)
                if _posted_on(s, posted, peer, lang.Recv if sending else lang.Send, r):
                    if not (type(nxt) is MatchEvent and not nxt.wildcard
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
        elif kind is MatchEvent:
            snd, rcv, wildcard = ev
            for q in (snd, rcv):
                if not 0 <= q < n:
                    return Divergence(i, "a valid rank", f"rank {q}")
            if not wildcard:
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
