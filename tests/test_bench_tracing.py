"""The bench calls into mpisym by name: the traced run (`bench/run.py
--trace 1`) rebinds the functions named in `bench/tracing.py`'s TARGETS,
and the workload checkers in `bench/workloads/` call
`mpisym.<module>.<name>`.  A renamed or removed one would break a bench
run with an AttributeError, so each must still resolve."""

import importlib
import importlib.util
import re
from pathlib import Path

import mpisym
from mpisym import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_a_callable_in_mpisym():
    targets = load_tracing().TARGETS
    assert targets
    for module_name, attr, span in targets:
        module = getattr(mpisym, module_name, None)
        assert module is not None, f"{span}: mpisym has no module {module_name!r}"
        assert callable(getattr(module, attr, None)), f"{span}: {module_name}.{attr} is not callable"


def test_every_name_a_workload_checker_calls_resolves():
    called = set()
    for path in sorted((BENCH / "workloads").glob("*.py")):
        called |= set(re.findall(r"\bmpisym\.(\w+)\.(\w+)", path.read_text()))
    assert called
    for module_name, attr in sorted(called):
        module = importlib.import_module(f"mpisym.{module_name}")
        assert callable(getattr(module, attr, None)), f"mpisym.{module_name}.{attr} is not callable"


#: Traced targets that no command reaches, with the reason; every other
#: target must be called when the commands below run.
BENCH_ONLY = {
    "solver.is_sat": "no caller in src: a branch side is feasible when "
                     "`solver.get_model` finds it a model",
    "engine.classify": "no caller in src: the search calls `scheduler` itself",
    "oracle.explore_full": "called by the solver-branchy checker; `compare` walks "
                           "with `deadlock_path_lengths`",
}

#: Rank 0's send destination is pinned only by the path condition, so the
#: search makes a rank-entailment query; no corpus program does.
PINNED_DEST = """symbolic
sym X : int[0..3];

program (nprocs = 2) {
  if (X == 1) { if (rank == 0) { send 7 to X; } else { recv v from 0; } }
}
"""


def test_every_traced_target_is_called_through_the_cli(tmp_path, monkeypatch, corpus_entries):
    """Each span the traced bench run reads is fed by some command: `analyze
    --out` and `replay` of each case it writes, `compare` and `corpus`, on
    the corpus and on one program that needs a rank entailment.  A span
    whose function loses its caller would read 0 unnoticed."""
    tracing = load_tracing()
    for module_name, attr, _ in tracing.TARGETS:  # put back when the test ends
        module = getattr(mpisym, module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer = tracing.install(mpisym)
    sources = {name: (e.source, e.nprocs) for name, e in corpus_entries.items()}
    sources["pinned-dest"] = (PINNED_DEST, 2)
    for name, (source, nprocs) in sources.items():
        program = tmp_path / f"{name}.mpisym"
        program.write_text(source)
        argv = [str(program), "--nprocs", str(nprocs)]
        assert cli.main(["analyze", *argv, "--out", str(tmp_path / "cases")]) in (0, 2)
        assert cli.main(["compare", *argv, "--enumerate-models", "64"]) == 0, name
        for case in sorted((tmp_path / "cases").glob(f"{name}.path*.testcase")):
            assert cli.main(["replay", str(program), str(case)]) == 0, case
    assert cli.main(["corpus"]) == 0
    spans = {f"{module}.{attr}": span for module, attr, span in tracing.TARGETS}
    assert set(BENCH_ONLY) <= set(spans)
    called = set(tracer.aggregate())
    assert {name for name, span in spans.items() if span not in called} == set(BENCH_ONLY)
