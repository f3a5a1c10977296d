"""The benchmark's tracer wraps histmatch functions at the names their callers
bind (``perfbench/tracing.py``), and a traced run fails on the first name that
is gone.  This checks every such name without editing or running the tracer,
so a deletion that would break ``perfbench/run.py --trace 1`` fails here."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_bindings_resolve_to_callables():
    tracing = _tracing_module()
    bindings = [binding for binding, _, _ in tracing.HARNESS_TARGETS + tracing.CLI_TARGETS]
    assert bindings
    missing = []
    for binding in bindings:
        module_name, attr = binding.split(":")
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.append(binding)
    assert missing == []
