"""The records of `src/mpisym` are plain classes on `lang.Record`, each
built from its ``__slots__`` by `Record`'s one constructor; they print,
compare and hash as the frozen (or, for the ones changed in place, plain)
dataclasses they replace did."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mpisym import corpus, engine, lang, ops, oracle, replay, state
from mpisym.lang import Assign, Binary, Bool, Num, Var
from mpisym.state import BranchChoice, StepEvent, Verdict

X, ONE = Var("x"), Num(1)


def records():
    """One record of each of the 30 kinds, with the text its dataclass
    printed; each call builds them anew."""
    return [
        (Num(1), "Num(value=1)"),
        (Bool(True), "Bool(value=True)"),
        (X, "Var(name='x')"),
        (lang.Unary("-", X), "Unary(op='-', operand=Var(name='x'))"),
        (Binary("+", X, ONE), "Binary(op='+', left=Var(name='x'), right=Num(value=1))"),
        (Assign("x", ONE, 3), "Assign(var='x', expr=Num(value=1), line=3)"),
        (lang.If(Bool(True), (lang.Barrier(4),), (), 3),
         "If(cond=Bool(value=True), then_body=(Barrier(line=4),), else_body=(), line=3)"),
        (lang.Send(X, ONE, 5), "Send(payload=Var(name='x'), dest=Num(value=1), line=5)"),
        (lang.Recv("v", None, 6), "Recv(var='v', src=None, line=6)"),
        (lang.Barrier(7), "Barrier(line=7)"),
        (lang.Assert(Binary("<", X, ONE), 8),
         "Assert(cond=Binary(op='<', left=Var(name='x'), right=Num(value=1)), line=8)"),
        (lang.Exit(9), "Exit(line=9)"),
        (lang.SymDecl("X", 0, 3, 2), "SymDecl(name='X', lo=0, hi=3, line=2)"),
        (lang.Program((lang.SymDecl("X", 0, 3, 2),), 2, (Assign("x", ONE, 3),)),
         "Program(decls=(SymDecl(name='X', lo=0, hi=3, line=2),), nprocs_default=2, "
         "body=(Assign(var='x', expr=Num(value=1), line=3),))"),
        (lang.Finding("type", "expected a bool expression", 4),
         "Finding(kind='type', message='expected a bool expression', line=4)"),
        (ops.OpBranch(X, 1, None, 3),
         "OpBranch(cond=Var(name='x'), true_target=1, false_target=None, line=3)"),
        (ops._Jump(4), "_Jump(target=4)"),
        (ops.CompiledProgram((lang.Exit(1),), (1,), {"X": (0, 3)}, frozenset({Num(7)})),
         "CompiledProgram(ops=(Exit(line=1),), next_of=(1,), domains={'X': (0, 3)}, "
         "closed=frozenset({Num(value=7)}))"),
        (oracle.B(), "B()"),
        (oracle.OracleResult({((0,), ((),)): ("deadlock", 2)}, 5),
         "OracleResult(terminals={((0,), ((),)): ('deadlock', 2)}, visited=5)"),
        (oracle.TheoremVerdict(holds=True, model={"X": 1}),
         "TheoremVerdict(holds=True, model={'X': 1}, issues=[], engine_deadlocks={}, "
         "oracle_deadlocks={}, engine_states=0, oracle_states=0)"),
        (engine.SearchStrategy(), "SearchStrategy(order='dfs', max_states=None, max_depth=None)"),
        (engine.SolverStats(), "SolverStats(queries=0)"),
        (engine.PathRecord(0, Verdict.DEADLOCK, (Binary("<", X, ONE),), {"X": 0}, 4, None),
         "PathRecord(index=0, verdict=<Verdict.DEADLOCK: 'deadlock'>, "
         "pc=(Binary(op='<', left=Var(name='x'), right=Num(value=1)),), model={'X': 0}, "
         "steps=4, final_state=None, fail_loc=None, error=None)"),
        (engine.AnalysisReport([], 1, 0, 0.5),
         "AnalysisReport(records=[], states_created=1, solver_queries=0, wall_time=0.5, "
         "truncated=False)"),
        (replay.TestCase("ab", 2, {"X": 1}, (StepEvent(0, 1), BranchChoice(1, True)),
                         Verdict.ASSERT_FAIL, 3),
         "TestCase(program_hash='ab', nprocs=2, model={'X': 1}, "
         "trace=(StepEvent(rank=0, loc=1), BranchChoice(loc=1, taken=True)), "
         "verdict=<Verdict.ASSERT_FAIL: 'assertfail'>, fail_loc=3)"),
        (replay.Divergence(2, "rank 1", "rank 0"),
         "Divergence(event_index=2, expected='rank 1', observed='rank 0')"),
        (replay.ReplayResult(None, Verdict.DEADLOCK),
         "ReplayResult(verdict=None, expected=<Verdict.DEADLOCK: 'deadlock'>, divergences=[])"),
        (state.ProcState(0, 2, {"x": ONE}, False, None),
         "ProcState(rank=0, pc_loc=2, env={'x': Num(value=1)}, "
         "asleep=False, blocked_on=None)"),
        (corpus.CorpusEntry("fig1", "program {}\n", 3, True, False),
         "CorpusEntry(name='fig1', source='program {}\\n', nprocs=3, deadlock_reachable=True, "
         "assertfail_reachable=False)"),
    ]


#: The records that have no hash: those their owner changes in place, and
#: `CompiledProgram` and `TestCase`, whose `domains` and `model` are dicts.
UNHASHABLE = (oracle.OracleResult, oracle.TheoremVerdict, engine.SearchStrategy,
              engine.SolverStats, engine.PathRecord, engine.AnalysisReport,
              replay.ReplayResult, replay.TestCase, state.ProcState, ops.CompiledProgram)


def test_every_record_kind_prints_as_its_dataclass_did():
    assert len({type(record) for record, _ in records()}) == 30
    for record, text in records():
        assert isinstance(record, lang.Record)
        assert repr(record) == text


def test_records_equal_and_hash_by_their_fields():
    for (record, _), (twin, _) in zip(records(), records()):
        assert twin == record and not twin != record
        if isinstance(record, UNHASHABLE):
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(twin) == hash(record)
    assert Num(1) != Bool(True) and not Num(1) == Bool(True)
    assert Num(1) != 1 and Binary("+", X, ONE) != Binary("-", X, ONE)


def test_only_located_records_ignore_their_line():
    moved = [(Assign("x", ONE, 3), Assign("x", ONE, 30)),
             (lang.Barrier(1), lang.Barrier(2)),
             (lang.SymDecl("X", 0, 3, 2), lang.SymDecl("X", 0, 3, 9))]
    for a, b in moved:
        assert a == b and hash(a) == hash(b)
    assert lang.Barrier(1) != lang.Exit(1)
    assert lang.Finding("type", "m", 1) != lang.Finding("type", "m", 2)
    assert ops.OpBranch(X, 1, None, 3) != ops.OpBranch(X, 1, None, 4)


def test_search_strategy_validates_its_fields():
    for bad in ({"max_states": 0}, {"max_depth": 0}, {"order": "random"}):
        with pytest.raises(ValueError):
            engine.SearchStrategy(**bad)


def record_classes():
    found, todo = [], [lang.Record]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def test_a_record_takes_its_fields_in_order_by_name_or_by_default():
    built = [Assign("x", ONE, 3), Assign("x", ONE, line=3), Assign(var="x", expr=ONE, line=3),
             Assign("x", line=3, expr=ONE)]
    assert all(repr(a) == "Assign(var='x', expr=Num(value=1), line=3)" for a in built)
    assert Assign("x", ONE).line == 0 and lang.Barrier().line == 0
    assert lang.Recv("v", src=None).src is None
    rec = engine.PathRecord(0, Verdict.DEADLOCK, (), {}, 4, None, error="e")
    assert (rec.fail_loc, rec.error) == (None, "e")
    assert engine.SolverStats().queries == 0 and engine.SolverStats(7).queries == 7
    assert replay.TestCase("ab", 2, {}, (), Verdict.DEADLOCK).fail_loc is None
    assert oracle.B() == oracle.B()


def test_a_record_rejects_a_missing_unknown_doubled_or_surplus_field():
    bad = [
        (lambda: Assign("x"), "lacks field 'expr'"),
        (lambda: lang.Finding("type", "m"), "lacks field 'line'"),  # no default line here
        (lambda: Assign("x", ONE, colour=1), "has no field 'colour'"),
        (lambda: Assign("x", ONE, var="y"), "got field 'var' twice"),
        (lambda: lang.Barrier(1, line=2), "got field 'line' twice"),
        (lambda: Assign("x", ONE, 3, 4), "takes 3 fields, not 4"),
        (lambda: oracle.B(1), "takes 0 fields, not 1"),
        (lambda: lang.Program((), 2, (), {}), "takes 3 fields, not 4"),  # "_derived" is no field
        (lambda: lang.Program((), 2, (), _derived={}), "has no field '_derived'"),
    ]
    for make, message in bad:
        with pytest.raises(TypeError, match=message):
            make()


def test_defaults_are_immutable():
    """Every record of a class shares its `_defaults`, so none may be a
    container that one record could change under another."""
    for cls in record_classes():
        for name, value in cls._defaults.items():
            assert not isinstance(value, (list, dict, set)), (cls, name)


def test_only_records_that_do_more_keep_their_own_init():
    """`SearchStrategy` validates, and `ProcState`, on the fork path, sets
    one field a statement; an `Expr` is built in `__new__`.  Fresh lists,
    dicts and memos come from callable `_defaults`."""
    own = {cls for cls in record_classes() if "__init__" in vars(cls)}
    assert own == {lang.Record, lang.Expr, engine.SearchStrategy, state.ProcState}
    assert lang.Expr.__init__ is object.__init__


def test_derived_is_computed_once_per_program():
    program = lang.parse_program("program { x = 1; }")
    calls = []

    def make(p, n):
        calls.append(n)
        return [n]

    assert lang.derived(program, make, 3) is lang.derived(program, make, 3)
    assert lang.derived(program, make, 4) == [4] and calls == [3, 4]
    twin = lang.Program(program.decls, program.nprocs_default, program.body)
    assert twin == program and lang.derived(twin, make, 3) is not lang.derived(program, make, 3)


def test_default_lists_and_dicts_are_fresh_per_record():
    a, b = oracle.TheoremVerdict(True, {}), oracle.TheoremVerdict(True, {})
    a.issues.append("x")
    a.engine_deadlocks[()] = frozenset()
    assert (b.issues, b.engine_deadlocks, b.oracle_deadlocks) == ([], {}, {})
    assert a.oracle_deadlocks is not b.oracle_deadlocks
    r, s = replay.ReplayResult(None, Verdict.DEADLOCK), replay.ReplayResult(None, Verdict.DEADLOCK)
    r.divergences.append(replay.Divergence(0, "a", "b"))
    assert s.divergences == []


def test_an_expression_hash_does_not_recurse():
    """A node is built once per class and fields, so two equal sums built
    apart are one node, and `==` and `hash` are identity's: a sum far
    deeper than the recursion limit compares and hashes without recursing.
    Once the sums are dropped, the node table forgets their nodes."""
    depth = 10_000
    assert depth > sys.getrecursionlimit()

    def long_sum():
        acc = Num(0)
        for i in range(depth):
            acc = Binary("+", acc, Var("X") if i % 2 else Num(i))
        return acc

    live = len(lang._NODES)
    a, b = long_sum(), long_sum()
    assert a is b and a == b and {a: 1}[b] == 1
    assert a != Binary("-", a.left, a.right) and a.free == {"X"}
    assert len(lang._NODES) > live + depth
    del a, b
    assert len(lang._NODES) == live


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Each command is a fresh process, so import time is paid on every run.
    Run without `site`, whose hooks in an installation may import either."""
    package_root = str(Path(lang.__file__).resolve().parent.parent)
    code = ("import sys, mpisym.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": package_root})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
