"""The benchmark tracer wraps nemflow callables by name (benchmarks/tracing.py,
TRACED); every name must still resolve, so that deleting or renaming one
fails here instead of crashing a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"nemflow.{layer}")
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"nemflow.{layer}.{name}")
    assert not missing, f"traced names not found: {missing}"
