import pytest

from mpisym import engine, lang, replay, solver
from mpisym.replay import (ReplayError, dumps, loads, load_testcase,
                           make_testcase, program_hash, replay_testcase,
                           save_testcase)
from mpisym.state import BarrierRelease, BranchChoice, MatchEvent, StepEvent, Verdict
from randprog import random_program


def search_records(entry):
    p = entry.program()
    return p, engine.search(p, entry.nprocs)


def test_fig1_deadlock_testcase_contents(corpus_entries):
    p, rep = search_records(corpus_entries["fig1-motivating"])
    deadlock = [r for r in rep.records if r.verdict is Verdict.DEADLOCK][0]
    tc = make_testcase(deadlock, p, 3)
    assert tc.model_dict() == {"X": 97}
    assert tc.verdict is Verdict.DEADLOCK
    assert MatchEvent(2, 1, True) in tc.trace
    assert tc.program_hash == program_hash(p)


def test_empty_program_testcase_roundtrip(tmp_path):
    p = lang.parse_program("program {}")
    rep = engine.search(p, 1)
    assert len(rep.records) == 1
    tc = make_testcase(rep.records[0], p, 1)
    assert tc.trace == ()
    path = tmp_path / "empty.testcase"
    saved = save_testcase(rep.records[0], p, 1, path)
    assert load_testcase(path) == saved == tc
    result = replay_testcase(p, tc)
    assert result.ok and result.verdict is Verdict.TERMINATED


def test_fig4b_deadlock_records_wildcard_sender(corpus_entries):
    p, rep = search_records(corpus_entries["fig4b-eager"])
    deadlock = [r for r in rep.records if r.verdict is Verdict.DEADLOCK][0]
    tc = make_testcase(deadlock, p, 3)
    assert MatchEvent(2, 0, True) in tc.trace


def test_serialization_round_trips_every_corpus_path(corpus_entries):
    for entry in corpus_entries.values():
        p, rep = search_records(entry)
        for rec in rep.records:
            tc = make_testcase(rec, p, entry.nprocs)
            assert loads(dumps(tc)) == tc, entry.name


def test_fig1_deadlock_testcase_matches_golden(corpus_entries):
    from pathlib import Path
    p, rep = search_records(corpus_entries["fig1-motivating"])
    deadlock = [r for r in rep.records if r.verdict is Verdict.DEADLOCK][0]
    text = dumps(make_testcase(deadlock, p, 3))
    golden = Path(__file__).parent / "golden" / "fig1_deadlock.testcase"
    assert text == golden.read_text()


def test_file_format_is_versioned(tmp_path, corpus_entries):
    p, rep = search_records(corpus_entries["fig1-motivating"])
    path = tmp_path / "case.testcase"
    save_testcase(rep.records[0], p, 3, path)
    text = path.read_text()
    assert text.startswith("mpisym-testcase v1\n")
    assert "INPUT" in text and "TRACE" in text and "VERDICT" in text
    with pytest.raises(ReplayError):
        loads("bogus v9\n")


def test_replay_reproduces_every_corpus_path(corpus_entries):
    for entry in corpus_entries.values():
        p, rep = search_records(entry)
        for rec in rep.records:
            tc = make_testcase(rec, p, entry.nprocs)
            result = replay_testcase(p, tc)
            assert result.ok, (entry.name, rec.index, result.divergences)
            assert result.verdict is rec.verdict


def test_replay_mutated_input_diverges_at_branch(corpus_entries):
    """A changed input turns a recorded guard the other way; the divergence
    names an `if` a branch and an `assert` an assertion."""
    for name, verdict, what in (("fig1-motivating", Verdict.DEADLOCK, "branch at loc"),
                                ("assert-payload", Verdict.ASSERT_FAIL, "assertion at loc")):
        p, tc = corpus_case(corpus_entries, name, verdict)
        result = replay_testcase(p, with_trace(tc, tc.trace, model=(("X", 0),)))
        assert not result.ok
        assert result.divergences
        assert result.divergences[0].expected.startswith(what)


def test_replay_hash_mismatch(corpus_entries):
    p, rep = search_records(corpus_entries["fig1-motivating"])
    tc = make_testcase(rep.records[0], p, 3)
    other = lang.parse_program("program {}")
    with pytest.raises(ReplayError):
        replay_testcase(other, tc)


def test_replay_truncated_trace_is_divergence(corpus_entries):
    p, rep = search_records(corpus_entries["fig1-motivating"])
    deadlock = [r for r in rep.records if r.verdict is Verdict.DEADLOCK][0]
    tc = make_testcase(deadlock, p, 3)
    truncated = replay.TestCase(
        program_hash=tc.program_hash, nprocs=tc.nprocs, model=tc.model,
        trace=tc.trace[:3], verdict=tc.verdict, fail_loc=tc.fail_loc)
    result = replay_testcase(p, truncated)
    assert not result.ok


def test_replay_uses_no_solver(corpus_entries, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("solver consulted during replay")

    p, rep = search_records(corpus_entries["assert-payload"])
    cases = [make_testcase(rec, p, 2) for rec in rep.records]
    for name in ("is_sat", "get_model", "check_entailed_constant",
                 "enumerate_models", "holds", "_solve", "_models"):
        monkeypatch.setattr(solver, name, boom)
    for tc in cases:
        assert replay_testcase(p, tc).ok


def test_error_paths_are_not_replayable():
    p = lang.parse_program(
        "symbolic sym X : int[0..1]; program (nprocs = 2) { send 1 to X; }")
    rep = engine.search(p, 2)
    assert rep.records[0].verdict is Verdict.ERROR
    with pytest.raises(ReplayError):
        make_testcase(rep.records[0], p, 2)


def test_random_program_paths_replay(rng):
    checked = failed_assertions = 0
    for _ in range(100):
        p = random_program(rng)
        rep = engine.search(p, p.nprocs_default)
        for rec in rep.records:
            if rec.verdict is Verdict.ERROR:
                continue
            tc = loads(dumps(make_testcase(rec, p, p.nprocs_default)))
            result = replay_testcase(p, tc)
            assert result.ok, (lang.pretty_print(p), rec.index,
                               [str(d) for d in result.divergences])
            checked += 1
            failed_assertions += rec.verdict is Verdict.ASSERT_FAIL
    assert checked > 100
    assert failed_assertions > 0


# -- engine-specific checks on edited traces -------------------------------------

TWO_RANK_RECV_FIRST = """\
program (nprocs = 2) {
  if (rank == 0) {
    recv m from 1;
  } else {
    send 5 to 0;
  }
}
"""


def corpus_case(corpus_entries, name, verdict):
    entry = corpus_entries[name]
    p, rep = search_records(entry)
    return p, make_testcase([r for r in rep.records if r.verdict is verdict][0], p, entry.nprocs)


def with_trace(tc, trace, model=None):
    return replay.TestCase(
        program_hash=tc.program_hash, nprocs=tc.nprocs,
        model=tc.model if model is None else model, trace=tuple(trace),
        verdict=tc.verdict, fail_loc=tc.fail_loc)


def first_divergence(p, tc):
    result = replay_testcase(p, tc)
    assert not result.ok
    assert result.verdict is None
    assert result.divergences
    return result.divergences[0]


def test_replay_step_of_blocked_rank_diverges(corpus_entries):
    p, tc = corpus_case(corpus_entries, "fig4b-eager", Verdict.DEADLOCK)
    t = tc.trace
    k = t.index(StepEvent(0, 1))  # rank 0 posts its wildcard receive
    d = first_divergence(p, with_trace(tc, t[:k + 1] + (StepEvent(0, 1),) + t[k + 1:]))
    assert d.event_index == k + 2
    assert d.observed == "blocked"


def test_replay_receive_posted_after_matching_send_diverges(corpus_entries):
    p, tc = corpus_case(corpus_entries, "rr-deadlock", Verdict.TERMINATED)
    t = tc.trace
    k = t.index(MatchEvent(0, 1, False))
    d = first_divergence(p, with_trace(tc, t[:k] + t[k + 1:]))
    assert d.event_index == k
    assert d.observed == "a matching send was already posted"
    # the rendezvous is recorded, but with sender and receiver swapped
    d = first_divergence(p, with_trace(tc, t[:k] + (MatchEvent(1, 0, False),) + t[k + 1:]))
    assert d.event_index == k


def test_replay_send_posted_after_matching_receive_diverges():
    p = lang.parse_program(TWO_RANK_RECV_FIRST)
    tc = make_testcase(engine.search(p, 2).records[0], p, 2)
    t = tc.trace
    k = t.index(MatchEvent(1, 0, False))
    assert isinstance(t[k - 1], StepEvent) and t[k - 1].rank == 1
    d = first_divergence(p, with_trace(tc, t[:k]))
    assert d.event_index == k
    assert d.observed == "a matching receive was already posted"


def test_replay_source_specific_match_without_step_diverges(corpus_entries):
    p, tc = corpus_case(corpus_entries, "fig4b-eager", Verdict.TERMINATED)
    t = tc.trace
    k = t.index(MatchEvent(2, 0, False))
    assert t[k - 1] == StepEvent(0, 2)
    d = first_divergence(p, with_trace(tc, t[:k - 1] + t[k:]))
    assert d.event_index == k
    assert "step" in d.expected


def test_replay_wildcard_match_of_unposted_pair_diverges(corpus_entries):
    p, tc = corpus_case(corpus_entries, "fig4b-eager", Verdict.DEADLOCK)
    t = tc.trace
    k = t.index(MatchEvent(2, 0, True))
    j = t.index(StepEvent(2, 7))  # rank 2 posts its send
    # the sender has not posted its send yet
    early = t[:j] + (MatchEvent(2, 0, True),) + t[j:k] + t[k + 1:]
    assert first_divergence(p, with_trace(tc, early)).event_index == j + 1
    # roles swapped: rank 0 waits on a wildcard receive, it does not send
    swapped = t[:k] + (MatchEvent(0, 2, True),) + t[k + 1:]
    assert first_divergence(p, with_trace(tc, swapped)).event_index == k + 1

    # the receiver is posted, but on a send rather than a wildcard receive
    p, tc = corpus_case(corpus_entries, "rr-deadlock", Verdict.DEADLOCK)
    t = tc.trace + (MatchEvent(0, 1, True),)
    assert first_divergence(p, with_trace(tc, t)).event_index == len(t)


def test_replay_wrong_barrier_epoch_diverges(corpus_entries):
    p, tc = corpus_case(corpus_entries, "barrier-deadlock", Verdict.TERMINATED)
    t = tc.trace
    k = t.index(BarrierRelease(0))
    d = first_divergence(p, with_trace(tc, t[:k] + (BarrierRelease(1),) + t[k + 1:]))
    assert d.event_index == k
    assert "epoch 0" in d.expected
    d = first_divergence(p, with_trace(tc, t[:k]))
    assert d.event_index == k
    assert "release" in d.expected


def test_replay_end_of_trace_with_runnable_rank_diverges(corpus_entries):
    p, tc = corpus_case(corpus_entries, "fig1-motivating", Verdict.DEADLOCK)
    d = first_divergence(p, with_trace(tc, tc.trace[:3]))
    assert d.event_index == 3
    assert "still runnable" in d.observed


def test_replay_end_of_trace_with_wildcard_pair_diverges(corpus_entries):
    p, tc = corpus_case(corpus_entries, "fig4b-eager", Verdict.DEADLOCK)
    k = tc.trace.index(MatchEvent(2, 0, True))
    d = first_divergence(p, with_trace(tc, tc.trace[:k]))
    assert d.event_index == k
    assert d.observed == "wildcard match 1->0 still possible"


# -- hand-edited test cases: out-of-range ranks, out-of-domain inputs ------------


@pytest.mark.parametrize("sender", [9, 3, -1])
def test_replay_wildcard_match_rank_out_of_range_diverges(corpus_entries, sender):
    p, tc = corpus_case(corpus_entries, "fig4b-eager", Verdict.DEADLOCK)
    t = tc.trace
    k = t.index(MatchEvent(2, 0, True))
    d = first_divergence(p, with_trace(tc, t[:k] + (MatchEvent(sender, 0, True),) + t[k + 1:]))
    assert d.event_index == k + 1
    assert d.observed == f"rank {sender}"


@pytest.mark.parametrize("event", [StepEvent(-1, 0), StepEvent(3, 0),
                                   MatchEvent(0, -2, False)])
def test_replay_rank_out_of_range_diverges(corpus_entries, event):
    p, tc = corpus_case(corpus_entries, "fig4b-eager", Verdict.DEADLOCK)
    d = first_divergence(p, with_trace(tc, (event,) + tc.trace))
    assert d.event_index == 1


def test_replay_step_at_the_wrong_loc_diverges(corpus_entries):
    p, tc = corpus_case(corpus_entries, "fig4b-eager", Verdict.DEADLOCK)
    assert tc.trace[2] == StepEvent(0, 1)
    d = first_divergence(p, with_trace(tc, tc.trace[:2] + (StepEvent(0, 2),) + tc.trace[3:]))
    assert (d.event_index, d.expected, d.observed) == (3, "rank 0 at loc 2", "loc 1")


def test_replay_branch_step_without_its_choice_diverges(corpus_entries):
    p, tc = corpus_case(corpus_entries, "fig1-motivating", Verdict.DEADLOCK)
    assert tc.trace[:2] == (StepEvent(0, 0), BranchChoice(0, True))
    d = first_divergence(p, with_trace(tc, tc.trace[:1] + tc.trace[2:]))
    assert (d.event_index, d.expected, d.observed) == (
        1, "a branch-choice event", "StepEvent(rank=0, loc=1)")


PEER_FROM_PAYLOAD = """\
program (nprocs = 4) {
  if (rank == 0) {
    recv d from any;
    send 7 to d;
  } else {
    if (rank == 1) { send 1 to 0; recv v from 0; }
    if (rank == 2) { send 0 to 0; }
    if (rank == 3) { send 9 to 0; }
  }
}
"""


@pytest.mark.parametrize("sender, peer", [(2, 0), (3, 9)])
def test_replay_peer_out_of_range_or_self_diverges(sender, peer):
    """Rank 0 sends to the payload of its wildcard match: matching rank 2 or 3
    instead of rank 1 names itself or a rank that does not exist."""
    p = lang.parse_program(PEER_FROM_PAYLOAD)
    [rec] = [r for r in engine.search(p, 4).records if r.verdict is Verdict.DEADLOCK]
    tc = make_testcase(rec, p, 4)
    t = tc.trace
    k = t.index(MatchEvent(1, 0, True))
    assert t[k + 1] == StepEvent(0, 2)  # rank 0's send
    d = first_divergence(p, with_trace(tc, t[:k] + (MatchEvent(sender, 0, True),) + t[k + 1:]))
    assert (d.event_index, d.expected, d.observed) == (k + 2, "a peer rank for rank 0",
                                                        f"rank {peer}")


@pytest.mark.parametrize("event", [BranchChoice(0, True), BarrierRelease(0)])
def test_replay_trace_opening_with_a_caused_event_diverges(corpus_entries, event):
    p, tc = corpus_case(corpus_entries, "fig1-motivating", Verdict.DEADLOCK)
    d = first_divergence(p, with_trace(tc, (event,) + tc.trace))
    assert (d.event_index, d.expected, d.observed) == (1, "step or wildcard match event",
                                                        repr(event))


def test_replay_input_outside_domain_is_an_error(corpus_entries):
    p, tc = corpus_case(corpus_entries, "fig1-motivating", Verdict.TERMINATED)
    with pytest.raises(ReplayError, match="outside"):
        replay_testcase(p, with_trace(tc, tc.trace, model=(("X", 100000),)))
    with pytest.raises(ReplayError):
        replay_testcase(p, with_trace(tc, tc.trace, model=()))


def test_replay_input_undeclared_or_repeated_is_an_error(corpus_entries):
    p, tc = corpus_case(corpus_entries, "fig1-motivating", Verdict.TERMINATED)
    with pytest.raises(ReplayError) as err:
        replay_testcase(p, with_trace(tc, tc.trace, model=tc.model + (("Z", 7),)))
    assert str(err.value) == "test case input: model assigns undeclared input 'Z'"
    with pytest.raises(ReplayError) as err:
        loads(TRACE_HEAD.replace("X=1\n", "X=1\nX=97\n") + "VERDICT\nterminated\n")
    assert str(err.value) == "line 6: input 'X' bound twice"


def test_replay_event_after_assertion_failure_diverges(corpus_entries):
    p, tc = corpus_case(corpus_entries, "assert-payload", Verdict.ASSERT_FAIL)
    assert replay_testcase(p, tc).verdict is Verdict.ASSERT_FAIL
    d = first_divergence(p, with_trace(tc, tc.trace + tc.trace[-2:]))
    assert d.event_index == len(tc.trace) + 1
    assert "end of trace" in d.expected


# -- the v1 text ------------------------------------------------------------------


def random_testcase(rng):
    def rank():
        return rng.randint(-2, 40)

    makers = (lambda: StepEvent(rank(), rank()),
              lambda: MatchEvent(rank(), rank(), rng.random() < 0.5),
              lambda: BranchChoice(rank(), rng.random() < 0.5),
              lambda: BarrierRelease(rank()))
    verdict = rng.choice((Verdict.TERMINATED, Verdict.DEADLOCK, Verdict.ASSERT_FAIL))
    return replay.TestCase(
        program_hash=f"{rng.getrandbits(256):064x}", nprocs=rng.randint(1, 40),
        model=tuple((f"X{i}", rng.randint(-9, 300)) for i in range(rng.randint(0, 3))),
        trace=tuple(rng.choice(makers)() for _ in range(rng.randint(0, 60))),
        verdict=verdict,
        fail_loc=rng.randint(0, 40) if verdict is Verdict.ASSERT_FAIL else None)


def test_random_testcases_round_trip(rng):
    for _ in range(300):
        tc = random_testcase(rng)
        assert loads(dumps(tc)) == tc


TRACE_HEAD = "mpisym-testcase v1\nprogram-hash abc\nnprocs 2\nINPUT\nX=1\nTRACE\nstep rank=0 loc=0\n"


@pytest.mark.parametrize("line,error,message", [
    ("step rank=1", ReplayError, "line 8: malformed event"),
    ("step rank=1 loc=2 loc=3", ReplayError, "line 8: malformed event"),
    ("step rnk=1 loc=2", ReplayError, "line 8: expected field 'rank'"),
    ("step rank=1 pos=2", ReplayError, "line 8: expected field 'loc'"),
    ("step rank=x loc=2", ReplayError, "line 8: rank 'x' is not an integer"),
    ("step rank= loc=2", ReplayError, "line 8: rank '' is not an integer"),
    ("match sender=1 receiver=0", ReplayError, "line 8: malformed event"),
    ("match sender=1 recv=0 wildcard=yes", ReplayError, "line 8: expected field 'receiver'"),
    ("branch loc=3 taken", ReplayError, "line 8: expected field 'taken'"),
    ("branch loc=3 taken=perhaps", ReplayError, "line 8: taken 'perhaps' is not yes or no"),
    ("branch loc=3 taken=", ReplayError, "line 8: taken '' is not yes or no"),
    ("match sender=1 receiver=0 wildcard=YES", ReplayError,
     "line 8: wildcard 'YES' is not yes or no"),
    ("match sender=x receiver=0 wildcard=YES", ReplayError,
     "line 8: sender 'x' is not an integer"),
    ("release", ReplayError, "line 8: malformed event"),
    ("release epoch=1 extra=2", ReplayError, "line 8: malformed event"),
    ("release epoch=1.5", ReplayError, "line 8: epoch '1.5' is not an integer"),
    ("jump to=3", ReplayError, "line 8: unknown event 'jump'"),
    ("STEP rank=1 loc=2", ReplayError, "line 8: unknown event 'STEP'"),
])
def test_malformed_trace_line_messages(line, error, message):
    with pytest.raises(error) as err:
        loads(TRACE_HEAD + line + "\nVERDICT\nterminated\n")
    assert str(err.value) == message


@pytest.mark.parametrize("verdict,message", [
    ("assertfail lc=3", "line 9: expected field 'loc'"),
    ("assertfail", "line 9: malformed event"),
    ("assertfail loc=3 loc=4", "line 9: malformed event"),
    ("running", "line 9: unknown verdict 'running'"),
    ("error", "line 9: unknown verdict 'error'"),
    ("deadlock extra", "line 9: unknown verdict 'deadlock extra'"),
    ("terminated loc=3", "line 9: unknown verdict 'terminated loc=3'"),
    ("Deadlock", "line 9: unknown verdict 'Deadlock'"),
])
def test_malformed_verdict_line_messages(verdict, message):
    with pytest.raises(ReplayError) as err:
        loads(TRACE_HEAD + "VERDICT\n" + verdict + "\n")
    assert str(err.value) == message


def test_trace_lines_with_other_spacing_still_load():
    tc = loads(TRACE_HEAD + "  step   rank=1\tloc=2  \nmatch\tsender=1 receiver=0 wildcard=no\n"
               "step rank=0 loc=0\nVERDICT\nterminated\n")
    assert tc.trace == (StepEvent(0, 0), StepEvent(1, 2), MatchEvent(1, 0, False),
                        StepEvent(0, 0))


@pytest.mark.parametrize("line_no,header,message", [
    (2, "program-hash ", "line 2: empty program-hash"),
    (2, "program-hash \t ", "line 2: empty program-hash"),
    (3, "nprocs ", "line 3: bad nprocs ''"),
    (3, "nprocs x", "line 3: bad nprocs 'x'"),
    (3, "nprocs 1.5", "line 3: bad nprocs '1.5'"),
    (2, "program-hash", "missing program-hash/nprocs header"),
    (3, "INPUT", "missing program-hash/nprocs header"),
])
def test_malformed_header_messages(line_no, header, message):
    lines = (TRACE_HEAD + "VERDICT\nterminated\n").split("\n")
    lines[line_no - 1] = header
    with pytest.raises(ReplayError) as err:
        loads("\n".join(lines))
    assert str(err.value) == message


def test_testcase_not_utf8_is_a_replay_error(tmp_path):
    path = tmp_path / "bad.testcase"
    path.write_bytes(TRACE_HEAD.encode() + b"\xff")
    with pytest.raises(ReplayError) as err:
        load_testcase(path)
    assert str(err.value) == f"{path} is not UTF-8 text"


# -- the loader against the line parser it replaced ----------------------------------


def _reference_fields(parts, expect, line_no):
    values = []
    if len(parts) != len(expect):
        raise ReplayError(f"line {line_no}: malformed event")
    for part, key in zip(parts, expect):
        if not part.startswith(key + "="):
            raise ReplayError(f"line {line_no}: expected field {key!r}")
        values.append(part[len(key) + 1:])
    return values


def _reference_flag(text, what, line_no):
    if text not in ("yes", "no"):
        raise ReplayError(f"line {line_no}: {what} {text!r} is not yes or no")
    return text


def _reference_int(text, what, line_no):
    try:
        return int(text)
    except ValueError:
        raise ReplayError(f"line {line_no}: {what} {text!r} is not an integer") from None


_REFERENCE_EVENTS = {
    "step": (("rank", "loc"), lambda r, loc: StepEvent(int(r), int(loc))),
    "match": (("sender", "receiver", "wildcard"),
              lambda snd, rcv, wc: MatchEvent(int(snd), int(rcv), wc == "yes")),
    "branch": (("loc", "taken"), lambda loc, taken: BranchChoice(int(loc), taken == "yes")),
    "release": (("epoch",), lambda epoch: BarrierRelease(int(epoch))),
}


def reference_loads(text):
    """The line-by-line parser `loads` replaced (split each line, check each
    field's name, one event per line); the referee for the one pattern."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != replay.FORMAT_HEADER:
        raise ReplayError(f"not a test case file (expected {replay.FORMAT_HEADER!r})")
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
        model[name] = _reference_int(value, f"input {name}", i)
    trace = []
    for i, entry in sections["TRACE"]:
        kind, *parts = entry.split()
        if kind not in _REFERENCE_EVENTS:
            raise ReplayError(f"line {i}: unknown event {kind!r}")
        keys, make = _REFERENCE_EVENTS[kind]
        values = _reference_fields(parts, keys, i)
        trace.append(make(*(_reference_flag(value, key, i) if key in ("wildcard", "taken")
                            else _reference_int(value, key, i)
                            for key, value in zip(keys, values))))
    if not sections["VERDICT"]:
        raise ReplayError("missing VERDICT section")
    vline_no, vline = sections["VERDICT"][0]
    kind, *rest = vline.split()
    fail_loc = None
    if kind == "assertfail":
        verdict = Verdict.ASSERT_FAIL
        (loc,) = _reference_fields(rest, ("loc",), vline_no)
        fail_loc = _reference_int(loc, "loc", vline_no)
    elif kind in ("terminated", "deadlock") and not rest:
        verdict = Verdict(kind)
    else:
        raise ReplayError(f"line {vline_no}: unknown verdict {vline!r}")
    return replay.TestCase(program_hash=phash, nprocs=nprocs, model=tuple(model.items()),
                           trace=tuple(trace), verdict=verdict, fail_loc=fail_loc)


def corpus_testcase_texts(corpus_entries):
    for entry in corpus_entries.values():
        p, rep = search_records(entry)
        for rec in rep.records:
            yield dumps(make_testcase(rec, p, entry.nprocs))


def _mutate_field(rng, line):
    words = line.split(" ")
    j = rng.randrange(1, len(words)) if len(words) > 1 else 0
    key, eq, value = words[j].partition("=")
    choice = rng.randrange(7)
    if choice == 0:  # a renamed field
        words[j] = key[:-1] + eq + value
    elif choice == 1:  # a missing field
        del words[j]
    elif choice == 2:  # an extra field
        words.insert(rng.randrange(1, len(words) + 1), "extra=1")
    elif choice == 3:  # an unknown or miscased kind
        words[0] = rng.choice(("jump", "STEP", "steps", "stepx"))
    elif choice == 4:
        words[j] = f"{key}=maybe" if key in ("wildcard", "taken") else f"{key}=yes"
    else:
        words[j] = f"{key}={rng.choice(('x', '', '1.5', '+1', '1_0', '-0', '=1', '٣'))}"
    return " ".join(words)


def _mutate(rng, text):
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(3, len(lines))
        choice = rng.randrange(8)
        if choice == 0:  # tabs, runs of spaces and other whitespace
            lines[i] = lines[i].replace(" ", rng.choice(("\t", "   ", " \t ", "\x0c")))
        elif choice == 1:
            lines[i] = rng.choice((" ", "\t", "  ")) + lines[i] + rng.choice(("", " ", "\t"))
        elif choice == 2:  # blank lines
            lines.insert(i, rng.choice(("", "  ", "\t")))
        elif choice == 3:  # a repeated section header
            lines.insert(i, rng.choice(("INPUT", "TRACE", "VERDICT")))
        elif choice == 4:  # a missing section header
            headers = [k for k in range(3, len(lines))
                       if lines[k] in ("INPUT", "TRACE", "VERDICT")]
            del lines[rng.choice(headers)]
        elif choice == 5:  # a line moved
            lines.insert(rng.randrange(3, len(lines)), lines.pop(i))
        else:
            lines[i] = _mutate_field(rng, lines[i])
    return "\n".join(lines)


def _outcome(parse, text):
    try:
        return parse(text)
    except (ReplayError, ValueError) as exc:
        return type(exc), str(exc)


def test_loads_agrees_with_the_line_parser_on_mutated_testcases(corpus_entries, rng):
    texts = list(corpus_testcase_texts(corpus_entries))
    errors = 0
    for _ in range(3000):
        text = _mutate(rng, rng.choice(texts))
        want = _outcome(reference_loads, text)
        assert _outcome(loads, text) == want, text
        errors += isinstance(want, tuple)
    assert 1000 < errors < 2900  # both outcomes are well represented


def test_dumps_of_loads_is_the_same_text(corpus_entries):
    from pathlib import Path
    golden = (Path(__file__).parent / "golden" / "fig1_deadlock.testcase").read_text()
    for text in [golden, *corpus_testcase_texts(corpus_entries)]:
        assert dumps(loads(text)) == text
        assert loads(text) == reference_loads(text)
