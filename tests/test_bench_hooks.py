"""The benchmark's span tracer must find every library name it wraps.

`bench/run.py` only warns when a hook is missing and then reports zero calls
for that layer, so a renamed or inlined function would silently blind the
per-layer metrics.
"""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_trace_hook_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    with tracer:
        pass
    assert tracer.missing == []
