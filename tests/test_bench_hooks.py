"""The benchmark's span tracer must find every library name it wraps.

`bench/run.py` only warns when a hook is missing and then reports zero calls
for that layer, so a renamed or inlined function would silently blind the
per-layer metrics.
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from heli import builtin_scenario, run_scenario

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_trace_hook_resolves():
    tracer = _tracing().Tracer()
    with tracer:
        pass
    assert tracer.missing == []


@pytest.mark.parametrize("controller", ["hinf", "pid", "open_loop"])
def test_plant_calls_pass_through_the_hooks(params, artifacts, controller):
    # a step that reached the plant by another name would read as fewer
    # derivative calls and less plant time in the traced metrics
    tracing = _tracing()
    cfg = builtin_scenario("paper-hover-climb", seed=4)
    cfg.controller = controller
    cfg.duration = 0.1
    n_steps = 50
    tracer = tracing.Tracer()
    with tracer:
        run_scenario(cfg, params, artifacts)
    counts = np.bincount(tracer.spans()["names"],
                         minlength=len(tracing.SPAN_NAMES))
    assert counts[tracing.SPAN_NAMES.index("sim.rk4_step")] == n_steps
    assert counts[tracing.SPAN_NAMES.index("dynamics.derivative")] == 4 * n_steps


@pytest.mark.parametrize("controller", ["hinf", "pid"])
def test_every_layer_passes_through_its_hook(params, artifacts, controller):
    # the loop evaluates the controller on each of the n + 1 logged steps and
    # steps the observer after each of the n plant steps, and the run takes
    # its metrics once; a layer reached by another name would read as zero
    # calls in its per-layer metric
    tracing = _tracing()
    cfg = builtin_scenario("paper-hover-climb", seed=4)
    cfg.controller = controller
    cfg.duration = 0.1
    n = 50
    tracer = tracing.Tracer()
    with tracer:
        run_scenario(cfg, params, artifacts)
    counts = np.bincount(tracer.spans()["names"],
                         minlength=len(tracing.SPAN_NAMES))
    hinf = controller == "hinf"
    expected = {
        "outer.horizontal_control": n + 1,
        "outer.altitude_control": n + 1,
        "hinf.control_law": n + 1 if hinf else 0,
        "observer.assemble_state_estimate": n + 1 if hinf else 0,
        "observer.observer_step": n,
        "sim.compute_metrics": 1,
    }
    got = {name: int(counts[tracing.SPAN_NAMES.index(name)])
           for name in expected}
    assert got == expected
