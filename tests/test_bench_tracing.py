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
