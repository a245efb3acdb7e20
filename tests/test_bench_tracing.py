"""The traced bench run (`bench/run.py --trace 1`) rebinds the functions
named in `bench/tracing.py`'s TARGETS; a renamed or removed one would
break that run with an AttributeError, so each must still resolve."""

import importlib.util
from pathlib import Path

import mpisym

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
