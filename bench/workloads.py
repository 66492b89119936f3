"""The three benchmark workloads and the checks on their outputs.

Each workload turns the seed into its inputs, builds what a CLI command
builds before its first step (`prepare`), and then runs iterations.  One
iteration is one unit of user-visible work:

* hover-climb-hinf: `paper-hover-climb` under hinf with the outer loop on,
  then the log written as CSV -- the `heli simulate` path.  It is the only
  workload where the outer loop, `reference_at`, per-step `FullState`
  construction and log writing do real work.
* gust-sweep: `compare_controllers` (hinf vs PID) on `gust-attitude-hold`
  for one seed of a small seed set derived from the workload seed, with no
  CSV.  The outer loop and `to_csv` do nothing here and the plant RK4
  dominates, so outer-loop or CSV changes should not move it.
* design-sweep: the full design -- trim, linearize, synthesize, observer,
  `hinf_norm`, as `heli synthesize` computes it -- over seeded parameter
  sets with mass and inertias perturbed by up to 10 %.  Trim, the Riccati
  solves, the bisection and `hinf_norm` dominate; the plant derivative is
  called one point at a time.

An operation is one scenario run or one design.  It fails when it raises or
when its output check fails; the failure is counted and the run goes on.
"""
from __future__ import annotations

import hashlib
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

import heli
import heli.config
import heli.hinf
import heli.sim

from setup_probe import default_artifacts, design

SMOKE_DURATION = 2.0       # simulated seconds of a smoke-mode scenario
N_GUST_SEEDS = 3           # seeds in one gust sweep
N_DESIGNS = 20             # parameter sets in one design sweep
N_SMOKE_DESIGNS = 2
PERTURBATION = 0.10        # largest relative change of mass and inertias

# acceptance gates the outputs must meet on every seed (A2, A3, A5, A7)
ENVELOPE_LIMITS = {"horizontal_envelope_m": 1.2, "altitude_envelope_m": 0.5}
ATT_ERR_LIMIT_DEG = 3.0
ATT_ERR_RATIO = 0.5
NORM_SLACK = 1.001
TRIM_RESIDUAL_LIMIT = 1e-8
RICCATI_GATE = 1e-8


@dataclass
class Iteration:
    """What one iteration did, measured with the clock off during checks."""

    start: float = 0.0                           # perf_counter around the work
    end: float = 0.0
    ops: list = field(default_factory=list)      # (start, end) of timed calls
    ops_per_call: int = 1                        # operations in one timed call
    attempted: int = 0
    failed: int = 0
    steps: int = 0                               # simulated RK4 steps
    runs: int = 0                                # scenario runs
    sat_steps: int = 0                           # logged steps with a sat bit
    csv_bytes: int = 0
    quality: dict = field(default_factory=dict)
    searches: list = field(default_factory=list)  # GammaSearchResult

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def _report_failure(it: Iteration, what: str, problems=None, count=1):
    it.failed += count
    if problems is None:
        print(f"operation failed: {what}", file=sys.stderr)
        traceback.print_exc()
    else:
        for problem in problems:
            print(f"check failed: {what}: {problem}", file=sys.stderr)


def _log_problems(log) -> list:
    arrays = (log.t, log.states, log.inputs, log.wind, log.att_ref,
              log.estimates)
    if all(np.all(np.isfinite(a)) for a in arrays):
        return []
    return ["log holds non-finite values"]


def _reference_problems(values: dict, reference: dict | None,
                        rel_tol: float) -> list:
    problems = []
    for key, ref in (reference or {}).items():
        value = values[key]
        if not abs(value - ref) <= rel_tol * abs(ref):
            problems.append(f"{key} = {value!r}, reference {ref!r} "
                            f"(relative tolerance {rel_tol:g})")
    return problems


def _n_steps(scenario) -> int:
    return int(round(scenario.duration / scenario.dt))


def _att_err(metrics) -> float:
    return max(metrics.max_phi_err_deg, metrics.max_theta_err_deg)


class HoverClimb:
    name = "hover-climb-hinf"

    def __init__(self, seed, smoke, out_dir, reference):
        scenario = heli.builtin_scenario("paper-hover-climb", seed=seed)
        if smoke:
            scenario = replace(scenario, duration=SMOKE_DURATION)
        self.scenario = scenario
        self.full = not smoke
        self.min_iters = 1
        self.csv_path = out_dir / f"{self.name}.csv"
        self.reference = reference["workloads"][self.name].get(str(seed))
        self.rel_tol = reference["rel_tol"]
        self.first_digest = None

    def prepare(self):
        self.cfg = heli.config.ToolkitConfig()
        self.artifacts, search = default_artifacts(self.cfg)
        return [search]

    def iterate(self) -> Iteration:
        it = Iteration(attempted=1, runs=1)
        it.start = perf_counter()
        try:
            log, metrics = heli.sim.run_scenario(self.scenario, self.cfg.params,
                                                 self.artifacts)
            t1 = perf_counter()
            log.to_csv(self.csv_path)
        except Exception:  # counted as a failed operation; the run goes on
            it.end = perf_counter()
            _report_failure(it, f"{self.name} seed {self.scenario.seed}")
            return it
        it.end = perf_counter()
        it.ops.append((it.start, t1))
        it.steps = _n_steps(self.scenario)
        it.sat_steps = int(np.count_nonzero(log.sat_flags))
        it.quality = {"horizontal_envelope_m": metrics.horizontal_envelope,
                      "altitude_envelope_m": metrics.altitude_envelope}

        data = self.csv_path.read_bytes()
        self.csv_path.unlink()
        it.csv_bytes = len(data)
        digest = hashlib.sha256(data).hexdigest()
        problems = _log_problems(log)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("log CSV differs from the first iteration's")
        if self.full:
            for key, limit in ENVELOPE_LIMITS.items():
                if not it.quality[key] <= limit:
                    problems.append(f"{key} = {it.quality[key]:.4f} > {limit}")
            problems += _reference_problems(it.quality, self.reference,
                                            self.rel_tol)
        if problems:
            _report_failure(it, f"{self.name} seed {self.scenario.seed}",
                            problems)
        return it

    def summary(self, iterations) -> dict:
        done = [it for it in iterations if it.quality]
        if not done:
            return {}
        return dict(done[0].quality)


class GustSweep:
    name = "gust-sweep"

    def __init__(self, seed, smoke, out_dir, reference):
        rng = np.random.default_rng(seed)
        seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=N_GUST_SEEDS)]
        self.seeds = seeds[:1] if smoke else seeds
        self.smoke = smoke
        self.min_iters = len(self.seeds)
        self.reference = reference["workloads"][self.name].get(str(seed), {})
        self.rel_tol = reference["rel_tol"]
        self.k = 0
        self.first = {}   # derived seed -> quality of its first run

    def prepare(self):
        self.cfg = heli.config.ToolkitConfig()
        self.artifacts, search = default_artifacts(self.cfg)
        return [search]

    def iterate(self) -> Iteration:
        seed = self.seeds[self.k % len(self.seeds)]
        self.k += 1
        scenario = heli.builtin_scenario("gust-attitude-hold", seed=seed)
        if self.smoke:
            scenario = replace(scenario, duration=SMOKE_DURATION)
        what = f"{self.name} seed {seed}"
        it = Iteration(attempted=2, runs=2, ops_per_call=2)
        it.start = perf_counter()
        try:
            report, log_h, log_p = heli.sim.compare_controllers(
                scenario, self.cfg.params, self.artifacts)
        except Exception:  # both runs count as failed; the run goes on
            it.end = perf_counter()
            _report_failure(it, what, count=2)
            return it
        it.end = perf_counter()
        it.ops.append((it.start, it.end))
        it.steps = 2 * _n_steps(scenario)
        it.sat_steps = int(np.count_nonzero(log_h.sat_flags)
                           + np.count_nonzero(log_p.sat_flags))
        q = {"hinf_att_err_deg": _att_err(report.metrics_a),
             "pid_att_err_deg": _att_err(report.metrics_b)}
        it.quality = dict(q, seed=seed)

        first = self.first.setdefault(seed, q)
        reference = self.reference.get(str(seed), {})
        for label, log, key in (("hinf", log_h, "hinf_att_err_deg"),
                                ("pid", log_p, "pid_att_err_deg")):
            problems = _log_problems(log)
            if q[key] != first[key]:
                problems.append(f"{key} differs from the first run of this "
                                f"seed ({q[key]!r} vs {first[key]!r})")
            if not self.smoke:
                if key in reference:
                    problems += _reference_problems(
                        q, {key: reference[key]}, self.rel_tol)
                if label == "hinf" and not (
                        q[key] <= ATT_ERR_LIMIT_DEG
                        and q[key] <= ATT_ERR_RATIO * q["pid_att_err_deg"]):
                    problems.append(
                        f"hinf attitude error {q[key]:.3f} deg exceeds "
                        f"{ATT_ERR_LIMIT_DEG} deg or {ATT_ERR_RATIO} x PID "
                        f"({q['pid_att_err_deg']:.3f} deg)")
            if problems:
                _report_failure(it, f"{what} ({label})", problems)
        return it

    def summary(self, iterations) -> dict:
        by_seed = {}
        for it in iterations:
            if it.quality:
                by_seed.setdefault(it.quality["seed"], it.quality)
        if not by_seed:
            return {}
        runs = list(by_seed.values())
        return {
            "hinf_att_err_deg": statistics.median(
                r["hinf_att_err_deg"] for r in runs),
            "pid_att_err_deg": statistics.median(
                r["pid_att_err_deg"] for r in runs),
            "per_seed": {str(r["seed"]): {k: v for k, v in r.items()
                                          if k != "seed"} for r in runs},
        }


def riccati_residual(p, a, b, c, d, e, gamma) -> float:
    """Max-norm of the game Riccati equation at P, computed independently."""
    rtr = d.T @ d
    s = c.T @ d
    lhs = (p @ a + a.T @ p + c.T @ c + p @ e @ e.T @ p / gamma ** 2
           - (p @ b + s) @ np.linalg.solve(rtr, s.T + b.T @ p))
    return float(np.max(np.abs(lhs)))


class DesignSweep:
    name = "design-sweep"

    def __init__(self, seed, smoke, out_dir, reference):
        rng = np.random.default_rng(seed)
        base = heli.HelicopterParams()
        n = N_SMOKE_DESIGNS if smoke else N_DESIGNS
        self.param_sets = []
        for _ in range(n):
            f = 1.0 + rng.uniform(-PERTURBATION, PERTURBATION, 4)
            self.param_sets.append(base.replace(
                m=base.m * f[0], jx=base.jx * f[1], jy=base.jy * f[2],
                jz=base.jz * f[3]))
        self.min_iters = 1
        self.smoke = smoke
        self.reference = reference["workloads"][self.name].get(str(seed))
        self.rel_tol = reference["rel_tol"]
        self.first = None

    def prepare(self):
        self.cfg = heli.config.ToolkitConfig()
        self.out_map = heli.hinf.build_output_map(self.cfg.weights)
        return []

    def iterate(self) -> Iteration:
        it = Iteration(attempted=len(self.param_sets))
        outputs = []
        it.start = perf_counter()
        for i, params in enumerate(self.param_sets):
            t0 = perf_counter()
            try:
                trim, plant, result, search, _ = design(params, self.cfg)
                a_cl = plant.a + plant.b @ result.f
                c_cl = self.out_map.c + self.out_map.d @ result.f
                norm = heli.hinf.hinf_norm(a_cl, plant.e, c_cl)
            except Exception:  # counted as a failed operation; the run goes on
                _report_failure(it, f"{self.name} design {i}")
                outputs.append(None)
                continue
            it.ops.append((t0, perf_counter()))
            outputs.append((trim, plant, result, search, norm, a_cl))
        it.end = perf_counter()

        gammas = []
        problems = {}
        for i, out in enumerate(outputs):
            if out is None:
                gammas.append(None)
                continue
            trim, plant, result, search, norm, a_cl = out
            it.searches.append(search)
            gammas.append({"gamma_star": search.gamma_star,
                           "gamma_used": result.gamma})
            problems[i] = self._check(i, trim, plant, result, search, norm,
                                      a_cl)
        if self.first is None:
            self.first = gammas
        for i, found in problems.items():
            if gammas[i] != self.first[i]:
                found.append("gamma differs from the first iteration's")
            if found:
                _report_failure(it, f"{self.name} design {i}", found)
        done = [g for g in gammas if g is not None]
        if done:
            it.quality = {
                "gamma_used": statistics.median(g["gamma_used"] for g in done),
                "gammas": gammas,
            }
        return it

    def _check(self, i, trim, plant, result, search, norm, a_cl) -> list:
        problems = []
        if not trim.residual < TRIM_RESIDUAL_LIMIT:
            problems.append(f"trim residual {trim.residual:.3e}")
        p = result.riccati.p
        residual = riccati_residual(p, plant.a, plant.b, self.out_map.c,
                                    self.out_map.d, plant.e, result.gamma)
        if not residual < RICCATI_GATE * (1.0 + np.max(np.abs(p))):
            problems.append(f"Riccati residual {residual:.3e}")
        if not np.max(np.linalg.eigvals(a_cl).real) < 0.0:
            problems.append("closed loop not Hurwitz")
        if not norm <= result.gamma * NORM_SLACK:
            problems.append(f"closed-loop norm {norm:.6g} exceeds gamma "
                            f"{result.gamma:.6g}")
        margin = 1.0 + self.cfg.gamma_margin
        if not result.gamma >= search.gamma_star * margin * (1.0 - 1e-12):
            problems.append(f"gamma used {result.gamma!r} below "
                            f"{margin} x gamma* {search.gamma_star!r}")
        if self.reference is not None and not self.smoke:
            values = {"gamma_star": search.gamma_star,
                      "gamma_used": result.gamma}
            problems += _reference_problems(values, self.reference[i],
                                            self.rel_tol)
        return problems

    def summary(self, iterations) -> dict:
        done = [it for it in iterations if it.quality]
        if not done:
            return {}
        return dict(done[0].quality)


WORKLOADS = {w.name: w for w in (HoverClimb, GustSweep, DesignSweep)}
