"""Benchmark of the heli toolkit: one workload per run, closed loop.

    python3 bench/run.py --workload hover-climb-hinf --seed 2026 --seconds 35 --trace 0
    python3 bench/run.py --smoke

Run from anywhere; the library is imported from `src/` of the checkout that
holds this file.  The process runs one thread with BLAS pinned to one
thread, and each operation starts after the previous one finished.

With `--trace 0` the run measures the end-to-end metrics untraced, scaled
to a reference host speed by gauge.py.  With `--trace 1` it spends half its
time untraced and half traced, and reports the per-layer split plus the
tracing overhead (traced minus untraced `wall_s`).  Either way the last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the line before it,
prefixed `report `, holds the workload-specific figures, the control-quality
numbers, the environment and the sample count of each metric.  Both are also
written to `.bench_out/` in the checkout, with the span table of a traced run.

`--smoke` runs shortened versions of every workload, traced and untraced,
and checks that every metric named in BENCHMARK.json is emitted with its
unit.  See bench/README.md for the metric table.
"""
import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:  # must happen before numpy is first imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from gauge import SpeedGauge  # noqa: E402
from tracing import SPAN_NAMES, SpanStats, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("hover-climb-hinf", "gust-sweep", "design-sweep")
N_SETUP_PROBES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "setup.import_s": "s",
    "setup.artifacts_ms": "ms",
    "dynamics.derivative.us_per_call": "us",
    "dynamics.derivative.calls_per_step": "count",
    "dynamics.derivative.calls_per_design": "count",
    "sim.run_scenario.us_per_step": "us",
    "sim.loop.self_us_per_step": "us",
    "sim.rk4_step.us_per_call": "us",
    "sim.rk4_step.self_us": "us",
    "sim.reference_at.us_per_call": "us",
    "sim.reference_at.calls": "count",
    "sim.compute_metrics.ms": "ms",
    "sim.to_csv.s": "s",
    "sim.to_csv.mb": "MB",
    "sim.pid_step.us_per_call": "us",
    "sim.sat_steps": "count",
    "state.from_vector.us_per_call": "us",
    "hinf.control_law.us_per_call": "us",
    "hinf.solve_riccati.ms_per_call": "ms",
    "hinf.solve_riccati.calls_per_design": "count",
    "hinf.gamma_star.feasible_ratio": "ratio",
    "hinf.gamma_star.ms": "ms",
    "hinf.check_feasibility.ms": "ms",
    "hinf.hinf_norm.ms": "ms",
    "hinf.synthesize.ms": "ms",
    "observer.observer_step.us_per_call": "us",
    "observer.assemble_state_estimate.us_per_call": "us",
    "observer.design_reduced_observer.ms": "ms",
    "outer.horizontal_control.us_per_call": "us",
    "outer.altitude_control.us_per_call": "us",
    "wind.realize.ms": "ms",
    "wind.at.us_per_call": "us",
    "trim.find_trim.ms": "ms",
    "trim.linearize.ms": "ms",
    "trace.overhead_s": "s",
    "trace.missing_hooks": "count",
}


def import_heli():
    """Put the checkout's `src/` first on the path and import heli from it."""
    if not (SRC / "heli" / "__init__.py").is_file():
        sys.exit(f"error: no heli package under {SRC}")
    sys.path.insert(0, str(SRC))
    import heli
    if Path(heli.__file__).resolve().parent != (SRC / "heli").resolve():
        sys.exit(f"error: heli imported from {heli.__file__}, not {SRC}")


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "machine": platform.machine(),
    }


def probe_setup(n: int) -> list:
    """Time import + default artifacts in `n` fresh processes, one at a time."""
    samples = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py")],
                              capture_output=True, text=True, timeout=120,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_iterations(workload, seconds: float, min_iters: int) -> list:
    """Iterate back to back until the next iteration would overrun `seconds`."""
    iterations = []
    start = perf_counter()
    while True:
        it = workload.iterate()
        iterations.append(it)
        elapsed = perf_counter() - start
        if len(iterations) >= min_iters and elapsed + it.wall_s > seconds:
            return iterations


def p90(values) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def op_times(iterations, gauge) -> list:
    return [gauge.scaled(a, b) / it.ops_per_call
            for it in iterations for a, b in it.ops]


def figures(iterations, gauge) -> dict:
    """Workload-specific medians from untraced iterations.

    step_us and sweep_steps_per_s where the iterations simulated, design_ms
    and its 90th percentile where they designed.
    """
    if not any(it.runs for it in iterations):
        ops = op_times(iterations, gauge)
        return {"design_ms": 1e3 * median_or_zero(ops),
                "design_p90_ms": 1e3 * p90(ops)}
    done = [it for it in iterations if it.steps and it.ops]
    if not done:
        return {}
    run_s = [sum(gauge.scaled(a, b) for a, b in it.ops) for it in done]
    steps = [it.steps for it in done]
    return {
        "step_us": statistics.median(1e6 * r / s for r, s in zip(run_s, steps)),
        "sweep_steps_per_s": sum(steps) / sum(run_s),
    }


def end_to_end_metrics(probes, iterations, gauge) -> tuple[dict, dict, dict]:
    """Medians at the reference speed, sample counts, and unscaled medians."""
    ops = op_times(iterations, gauge)
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "wall_s": statistics.median(gauge.scaled(it.start, it.end)
                                    for it in iterations),
        "op_ms": 1e3 * median_or_zero(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "setup_s": statistics.median(p["import_s"] + p["artifacts_s"]
                                     for p in probes),
        "wall_s": statistics.median(it.wall_s for it in iterations),
        "op_ms": 1e3 * median_or_zero([(b - a) / it.ops_per_call
                                       for it in iterations
                                       for a, b in it.ops]),
        "mean_kernel_ms": 1e3 * gauge.mean_kernel_s(),
    }
    samples = {"setup_s": len(probes), "wall_s": len(iterations),
               "op_ms": len(ops), "peak_rss_mb": 1,
               "gauge_kernel_calls": len(gauge.times)}
    return values, samples, raw


def per_layer_metrics(stats, probes, plain, traced, searches,
                      missing) -> tuple[dict, dict]:
    us, ms = 1e6, 1e3
    steps = sum(it.steps for it in traced)
    runs = sum(it.runs for it in traced)
    designs = stats.count("trim.find_trim")
    deriv = stats.count("dynamics.derivative")
    deriv_in_runs = stats.count_in_runs("dynamics.derivative")
    attempts = sum(len(s.trace) for s in searches)
    feasible = sum(1 for s in searches for _, ok, _ in s.trace if ok)
    csv = [it.csv_bytes for it in traced if it.csv_bytes]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "setup.import_s": statistics.median(p["import_s"] for p in probes),
        "setup.artifacts_ms": ms * statistics.median(
            p["artifacts_s"] for p in probes),
        "dynamics.derivative.us_per_call": stats.per_call(
            "dynamics.derivative", us),
        "dynamics.derivative.calls_per_step": ratio(deriv_in_runs, steps),
        "dynamics.derivative.calls_per_design": ratio(deriv - deriv_in_runs,
                                                      designs),
        "sim.run_scenario.us_per_step": ratio(us * stats.run_total_s, steps),
        "sim.loop.self_us_per_step": ratio(
            us * stats.self_total("sim.run_scenario"), steps),
        "sim.rk4_step.us_per_call": stats.per_call("sim.rk4_step", us),
        "sim.rk4_step.self_us": stats.per_call("sim.rk4_step", us,
                                               self_time=True),
        "sim.reference_at.us_per_call": stats.per_call("sim.reference_at", us),
        "sim.reference_at.calls": ratio(stats.count("sim.reference_at"), runs),
        "sim.compute_metrics.ms": stats.per_call("sim.compute_metrics", ms),
        "sim.to_csv.s": stats.per_call("sim.to_csv", 1.0),
        "sim.to_csv.mb": statistics.median(csv) / 1e6 if csv else 0.0,
        "sim.pid_step.us_per_call": stats.per_call("sim.pid_step", us),
        "sim.sat_steps": traced[0].sat_steps,
        "state.from_vector.us_per_call": stats.per_call("state.from_vector", us),
        "hinf.control_law.us_per_call": stats.per_call("hinf.control_law", us),
        "hinf.solve_riccati.ms_per_call": stats.per_call("hinf.solve_riccati", ms),
        "hinf.solve_riccati.calls_per_design": ratio(
            stats.count("hinf.solve_riccati"), designs),
        "hinf.gamma_star.feasible_ratio": ratio(feasible, attempts),
        "hinf.gamma_star.ms": stats.per_call("hinf.gamma_star", ms),
        "hinf.check_feasibility.ms": stats.per_call("hinf.check_feasibility", ms),
        "hinf.hinf_norm.ms": stats.per_call("hinf.hinf_norm", ms),
        "hinf.synthesize.ms": stats.per_call("hinf.synthesize", ms),
        "observer.observer_step.us_per_call": stats.per_call(
            "observer.observer_step", us),
        "observer.assemble_state_estimate.us_per_call": stats.per_call(
            "observer.assemble_state_estimate", us),
        "observer.design_reduced_observer.ms": stats.per_call(
            "observer.design_reduced_observer", ms),
        "outer.horizontal_control.us_per_call": stats.per_call(
            "outer.horizontal_control", us),
        "outer.altitude_control.us_per_call": stats.per_call(
            "outer.altitude_control", us),
        "wind.realize.ms": stats.per_call("wind.realize", ms),
        "wind.at.us_per_call": stats.per_call("wind.at", us),
        "trim.find_trim.ms": stats.per_call("trim.find_trim", ms),
        "trim.linearize.ms": stats.per_call("trim.linearize", ms),
        "trace.overhead_s": (statistics.median(it.wall_s for it in traced)
                             - statistics.median(it.wall_s for it in plain)),
        "trace.missing_hooks": len(missing),
    }
    samples = {f"span.{name}": stats.count(name) for name in SPAN_NAMES}
    samples.update({"setup_probes": len(probes), "plain_iterations": len(plain),
                    "traced_iterations": len(traced), "traced_steps": steps,
                    "designs": designs, "gamma_attempts": attempts})
    return values, samples


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, reference: dict) -> tuple[dict, dict]:
    """One benchmark run; returns the result line and the report."""
    from workloads import WORKLOADS  # imports heli, so only after import_heli

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[name](seed, smoke, OUT_DIR, reference)
    probes = probe_setup(1 if smoke else N_SETUP_PROBES)
    gauge = SpeedGauge()   # entered only around untraced end-to-end runs
    min_iters = workload.min_iters
    correct = True
    report = {"workload": name, "seed": seed, "trace": int(trace),
              "seconds": seconds, "smoke": smoke}

    if not trace:
        workload.prepare()
        with gauge:
            iterations = timed = run_iterations(workload, seconds, min_iters)
        values, samples, raw = end_to_end_metrics(probes, iterations, gauge)
        report["unscaled"] = raw
        units = END_TO_END
    else:
        tracer = Tracer()
        with tracer:
            searches = workload.prepare()
        plain = run_iterations(workload, seconds / 2, 1)
        with tracer:
            traced = run_iterations(workload, seconds / 2, 1)
        tracer.save(OUT_DIR / f"{name}-spans.npz")
        stats = SpanStats(tracer.spans())
        for it in traced:
            searches += it.searches
        values, samples = per_layer_metrics(stats, probes, plain, traced,
                                            searches, tracer.missing)
        units = PER_LAYER
        iterations, timed = plain + traced, plain
        # self times inside run_scenario must add up to its span
        gap = abs(stats.run_subtree_self_s - stats.run_total_s)
        report["run_scenario_self_time_gap_s"] = gap
        if gap > 1e-9 * max(stats.run_total_s, 1.0):
            correct = False
            print(f"check failed: self times in run_scenario spans miss "
                  f"{gap:.3e} s", file=sys.stderr)
        report["missing_hooks"] = tracer.missing

    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    correct = correct and failed == 0
    report.update({
        "fail_ratio": failed / attempted,
        "figures": figures(timed, gauge),
        "quality": workload.summary(iterations),
        "samples": samples,
        "environment": environment(),
    })
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": float(values[key]), "unit": unit}
                    for key, unit in units.items()},
    }
    return result, report


def smoke(seed: int, reference: dict) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    if [w["name"] for w in spec["workloads"]] != list(WORKLOAD_NAMES):
        ok = False
        print("smoke: BENCHMARK.json workloads differ from the benchmark's")
    for name in WORKLOAD_NAMES:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run_workload(name, seed, 0.0, trace, True, reference)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            status = "ok"
            if got != want:
                status = (f"metric mismatch: missing {sorted(set(want) - set(got))}, "
                          f"extra {sorted(set(got) - set(want))}, wrong unit "
                          f"{sorted(k for k in got if k in want and got[k] != want[k])}")
            elif not result["correct"]:
                status = "outputs failed their checks"
            ok = ok and status == "ok"
            print(f"smoke {name} trace={int(trace)}: {len(got)} metrics, "
                  f"{result['attempted']} operations: {status}")
    print("smoke: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=reference["default_seed"])
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shortened run of every workload, traced and "
                        "untraced, checking every metric name and unit")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    import_heli()
    if args.smoke:
        return smoke(args.seed, reference)

    result, report = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), False, reference)
    record = dict(report, result=result)
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
