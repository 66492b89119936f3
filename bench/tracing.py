"""Span tracing from outside the library.

The tracer replaces module-level names that `heli.sim`, `heli.trim`,
`heli.hinf` and friends look up at call time with wrappers that record one
span per call: name, start, end and the span that was open when the call
began.  Spans live in flat arrays in memory and are written out once, when
the run ends.  Nothing under `src/` knows about it.
"""
from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# (span name, module, attribute path).  A dotted attribute path names a
# method or static method on a class defined in that module.  Several hooks
# may share a span name when the same function is reached through several
# modules.
HOOKS = (
    ("dynamics.derivative", "heli.sim", "_state_derivative_flat"),
    ("dynamics.derivative", "heli.trim", "_state_derivative_flat"),
    ("sim.compare_controllers", "heli.sim", "compare_controllers"),
    ("sim.run_scenario", "heli.sim", "run_scenario"),
    ("sim.rk4_step", "heli.sim", "rk4_step"),
    ("sim.reference_at", "heli.sim", "reference_at"),
    ("sim.compute_metrics", "heli.sim", "compute_metrics"),
    ("sim.to_csv", "heli.sim", "ScenarioLog.to_csv"),
    ("sim.pid_step", "heli.sim", "PidAttitudeController.step"),
    ("state.from_vector", "heli.state", "FullState.from_vector"),
    ("hinf.control_law", "heli.sim", "control_law"),
    ("hinf.synthesize", "heli.hinf", "synthesize"),
    ("hinf.check_feasibility", "heli.hinf", "check_feasibility"),
    ("hinf.gamma_star", "heli.hinf", "gamma_star"),
    ("hinf.solve_riccati", "heli.hinf", "solve_riccati"),
    ("hinf.hinf_norm", "heli.hinf", "hinf_norm"),
    ("observer.design_reduced_observer", "heli.observer", "design_reduced_observer"),
    ("observer.observer_step", "heli.sim", "observer_step"),
    ("observer.assemble_state_estimate", "heli.sim", "assemble_state_estimate"),
    ("outer.horizontal_control", "heli.sim", "horizontal_control"),
    ("outer.altitude_control", "heli.sim", "altitude_control"),
    ("wind.realize", "heli.wind", "WindModel.realize"),
    ("wind.at", "heli.wind", "WindSequence.at"),
    ("trim.find_trim", "heli.trim", "find_trim"),
    ("trim.linearize", "heli.trim", "linearize"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in HOOKS))


class Tracer:
    """Installs the hooks, records spans, and takes the hooks out again.

    Use as a context manager; spans accumulate across every `with` block so
    one tracer can cover several traced iterations.
    """

    def __init__(self):
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._open = -1
        self._saved = []
        self.missing = []

    def _wrap(self, name_id, fn):
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        tracer = self

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(tracer._open)
            starts.append(0)
            ends.append(0)
            prev = tracer._open
            tracer._open = i
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                starts[i] = t0
                tracer._open = prev

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        self.missing = []
        for name, module_name, path in HOOKS:
            name_id = SPAN_NAMES.index(name)
            *outer, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in outer:
                    owner = getattr(owner, part)
                raw = (owner.__dict__[attr] if isinstance(owner, type)
                       else getattr(owner, attr))
            except (ImportError, AttributeError, KeyError):
                # the library no longer has this name (inlined or renamed);
                # the layer then reports zero calls instead of failing the run
                self.missing.append(f"{module_name}.{path}")
                print(f"warning: trace hook {module_name}.{path} not found; "
                      f"{name} reports zero calls", file=sys.stderr)
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name_id, raw.__func__))
            else:
                new = self._wrap(name_id, raw)
            setattr(owner, attr, new)
            self._saved.append((owner, attr, raw))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        return False

    def spans(self) -> dict:
        return {
            "names": np.frombuffer(self.names, dtype=np.int32).copy(),
            "parents": np.frombuffer(self.parents, dtype=np.int64).copy(),
            "starts": np.frombuffer(self.starts, dtype=np.int64).copy(),
            "ends": np.frombuffer(self.ends, dtype=np.int64).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, span_names=np.array(SPAN_NAMES),
                            **self.spans())


class SpanStats:
    """Per-name call counts, total and self times from a span table.

    A span's self time is its duration minus the durations of its direct
    children.  Wrapper cost around a child call lands in the parent's self
    time.
    """

    def __init__(self, spans: dict):
        names = spans["names"]
        parents = spans["parents"]
        dur = (spans["ends"] - spans["starts"]).astype(float) * 1e-9
        has_parent = parents >= 0
        child_sum = np.zeros(names.size)
        np.add.at(child_sum, parents[has_parent], dur[has_parent])
        self_time = dur - child_sum
        n = len(SPAN_NAMES)
        self.calls = np.bincount(names, minlength=n)
        self.total_s = np.bincount(names, weights=dur, minlength=n)
        self.self_s = np.bincount(names, weights=self_time, minlength=n)

        # spans nested (at any depth) inside a run_scenario span
        run_id = SPAN_NAMES.index("sim.run_scenario")
        up = np.where(has_parent, parents, 0)
        inside = has_parent & (names[up] == run_id)
        while True:  # depth of the call tree is small; a few passes suffice
            grown = inside | (has_parent & inside[up])
            if np.array_equal(grown, inside):
                break
            inside = grown
        self.calls_in_runs = np.bincount(names[inside], minlength=n)
        self.run_total_s = float(self.total_s[run_id])
        self.run_subtree_self_s = float(self_time[inside].sum()
                                        + self.self_s[run_id])

    def count(self, name: str) -> int:
        return int(self.calls[SPAN_NAMES.index(name)])

    def per_call(self, name: str, scale: float, self_time=False) -> float:
        k = SPAN_NAMES.index(name)
        if self.calls[k] == 0:
            return 0.0
        times = self.self_s if self_time else self.total_s
        return float(times[k]) * scale / float(self.calls[k])

    def self_total(self, name: str) -> float:
        return float(self.self_s[SPAN_NAMES.index(name)])

    def count_in_runs(self, name: str) -> int:
        return int(self.calls_in_runs[SPAN_NAMES.index(name)])
