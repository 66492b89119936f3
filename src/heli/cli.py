"""Command-line interface: heli trim|linearize|synthesize|gamma-search|simulate|compare."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ToolkitConfig, load_scenario_file, load_toolkit_config
from .errors import ConfigError, HeliError
from .hinf import build_output_map, gamma_star, hinf_norm, synthesize
from .observer import design_reduced_observer
from .scenarios import builtin_names, builtin_scenario
from .sim import SimArtifacts, compare_controllers, run_scenario
from .state import (
    INPUT_LABELS,
    MEASURED_IDX,
    MODEL_INPUT_LABELS,
    MODEL_STATE_LABELS,
    N_STATES,
    REFERENCE_LABELS,
    STATE_LABELS,
    UNMEASURED_IDX,
    WIND_LABELS,
)
from .trim import (
    LinearPlant,
    TrimPoint,
    find_trim,
    linearize,
    verify_linearization,
)


def _write_matrix_csv(path: Path, matrix: np.ndarray, col_labels, row_labels=None):
    with open(path, "w", encoding="utf-8") as fh:
        if row_labels is None:
            fh.write(",".join(col_labels) + "\n")
            for row in np.atleast_2d(matrix):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        else:
            fh.write("," + ",".join(col_labels) + "\n")
            for label, row in zip(row_labels, np.atleast_2d(matrix)):
                fh.write(label + "," + ",".join(repr(float(v)) for v in row) + "\n")


def _load_config(args) -> ToolkitConfig:
    if getattr(args, "config", None):
        return load_toolkit_config(args.config)
    return ToolkitConfig()


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _trim_report(trim, path: Path):
    x = trim.state.as_vector()
    u = trim.inputs.as_vector()
    lines = ["hover trim", f"residual = {trim.residual:.3e}", ""]
    for label, value in zip(STATE_LABELS, x):
        lines.append(f"{label:8s} = {value: .6e}")
    lines.append("")
    for label, value in zip(INPUT_LABELS, u):
        lines.append(f"{label:8s} = {value: .6e}")
    lines.append(f"{'dped_out':8s} = {trim.dped_prime: .6e}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_trim(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    trim = find_trim(cfg.params)
    _trim_report(trim, out / "trim_report.txt")
    _write_matrix_csv(out / "trim_state.csv", trim.state.as_vector()[None, :],
                      STATE_LABELS)
    _write_matrix_csv(out / "trim_inputs.csv", trim.inputs.as_vector()[None, :],
                      INPUT_LABELS)
    print(f"trim residual {trim.residual:.3e}; report in {out}")
    return 0


def cmd_linearize(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    plant = _plant(cfg)
    trim = plant.trim
    _write_matrix_csv(out / "A.csv", plant.a, MODEL_STATE_LABELS,
                      MODEL_STATE_LABELS)
    _write_matrix_csv(out / "B.csv", plant.b, MODEL_INPUT_LABELS,
                      MODEL_STATE_LABELS)
    _write_matrix_csv(out / "E.csv", plant.e, WIND_LABELS, MODEL_STATE_LABELS)
    _write_matrix_csv(out / "trim_state.csv", trim.state.as_vector()[None, :],
                      STATE_LABELS)
    _write_matrix_csv(out / "trim_inputs.csv", trim.inputs.as_vector()[None, :],
                      INPUT_LABELS)
    _trim_report(trim, out / "trim_report.txt")
    err = verify_linearization(cfg.params, plant, 1e-4)
    print(f"linear model written to {out}; verification error {err:.3e}")
    return 0


def _read_matrix_csv(path: Path, shape: tuple) -> np.ndarray:
    """Read a matrix written by `_write_matrix_csv`; ConfigError unless it is
    readable, numeric and of `shape`."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
            labeled = header.startswith(",")
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                cells = line.split(",")
                if labeled:
                    cells = cells[1:]
                rows.append([float(v) for v in cells])
    except OSError as exc:
        raise ConfigError(f"cannot read plant file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: not a numeric CSV ({exc})") from exc
    if len(rows) != shape[0] or any(len(row) != shape[1] for row in rows):
        raise ConfigError(f"{path}: expected a {shape[0]}x{shape[1]} matrix")
    return np.array(rows)


def _load_plant_dir(path: Path, cfg: ToolkitConfig) -> LinearPlant:
    """Rebuild a LinearPlant from the CSV files written by `heli linearize`."""
    n, m = len(MODEL_STATE_LABELS), len(MODEL_INPUT_LABELS)
    a = _read_matrix_csv(path / "A.csv", (n, n))
    b = _read_matrix_csv(path / "B.csv", (n, m))
    e = _read_matrix_csv(path / "E.csv", (n, len(WIND_LABELS)))
    x = _read_matrix_csv(path / "trim_state.csv", (1, N_STATES))[0]
    u = _read_matrix_csv(path / "trim_inputs.csv", (1, len(INPUT_LABELS)))[0]
    return LinearPlant(a=a, b=b, e=e,
                       trim=TrimPoint.from_vectors(x, u, cfg.params))


def _plant(cfg: ToolkitConfig, plant_dir=None) -> LinearPlant:
    """The linear design model: read from `--plant` CSVs, else trim -> linearize."""
    if plant_dir is not None:
        return _load_plant_dir(Path(plant_dir), cfg)
    return linearize(cfg.params, find_trim(cfg.params))


def _artifacts(cfg: ToolkitConfig, plant: LinearPlant):
    """Inner-loop synthesis and observer design on `plant`, as SimArtifacts.

    Also returns the gamma search and the plant's invariant zeros.
    """
    result, search, zeros = synthesize(plant, cfg.weights,
                                        tol=cfg.gamma_tol,
                                        margin=cfg.gamma_margin)
    observer = design_reduced_observer(plant, cfg.observer_poles)
    artifacts = SimArtifacts(trim=plant.trim, synthesis=result,
                             observer=observer, pid_gains=cfg.pid,
                             outer_gains=cfg.outer)
    return artifacts, search, zeros


def cmd_synthesize(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    plant = _plant(cfg, getattr(args, "plant", None))
    artifacts, search, zeros = _artifacts(cfg, plant)
    result, observer = artifacts.synthesis, artifacts.observer

    measured = [MODEL_STATE_LABELS[i] for i in MEASURED_IDX]
    _write_matrix_csv(out / "F.csv", result.f, MODEL_STATE_LABELS)
    _write_matrix_csv(out / "G.csv", result.g, REFERENCE_LABELS)
    _write_matrix_csv(out / "P.csv", result.riccati.p, MODEL_STATE_LABELS,
                      MODEL_STATE_LABELS)
    _write_matrix_csv(out / "observer_A.csv", observer.a_obs,
                      [MODEL_STATE_LABELS[i] for i in UNMEASURED_IDX])
    _write_matrix_csv(out / "observer_B.csv", observer.b_obs, measured)
    _write_matrix_csv(out / "observer_H.csv", observer.h_obs, MODEL_INPUT_LABELS)
    _write_matrix_csv(out / "observer_K.csv", observer.k_obs, measured)

    out_map = build_output_map(cfg.weights)
    a_cl = plant.a + plant.b @ result.f
    c_cl = out_map.c + out_map.d @ result.f
    norm = hinf_norm(a_cl, plant.e, c_cl)
    eigs = np.linalg.eigvals(a_cl)
    lines = [
        "inner-loop synthesis report",
        f"gamma_star ~= {search.gamma_star:.6g}",
        f"gamma used  = {result.gamma:.6g}",
        f"riccati residual = {result.riccati.residual_norm:.3e}",
        f"closed-loop norm (wind -> weighted output) = {norm:.6g}",
        f"norm / gamma = {norm / result.gamma:.4f}",
        "closed-loop eigenvalues:",
    ]
    for lam in sorted(eigs, key=lambda z: z.real):
        lines.append(f"  {lam.real: .4f} {lam.imag:+.4f}j")
    lines.append("invariant zeros: " + ("none" if zeros.size == 0 else
                                        str(zeros)))
    (out / "synthesis_report.txt").write_text("\n".join(lines) + "\n",
                                              encoding="utf-8")
    print(f"gamma = {result.gamma:.6g} (boundary {search.gamma_star:.6g}), "
          f"norm check {norm:.6g}; files in {out}")
    return 0


def cmd_gamma_search(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    plant = _plant(cfg, getattr(args, "plant", None))
    out_map = build_output_map(cfg.weights)
    search, _ = gamma_star(plant.a, plant.b, out_map.c, out_map.d, plant.e,
                           tol=cfg.gamma_tol, margin=cfg.gamma_margin)
    with open(out / "gamma_trace.csv", "w", encoding="utf-8") as fh:
        fh.write("gamma,feasible,reason\n")
        for g, ok, reason in search.trace:
            fh.write(f"{g!r},{int(ok)},{reason}\n")
    print(f"gamma_star ~= {search.gamma_star:.6g} "
          f"({len(search.trace)} evaluations); trace in {out}")
    return 0


def _scenario_from_args(args):
    name = args.scenario
    if Path(name).exists():
        scenario = load_scenario_file(name)
    else:
        scenario = builtin_scenario(name, seed=args.seed or 0)
    if args.seed is not None:
        scenario.seed = args.seed
    return scenario


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    scenario = _scenario_from_args(args)
    if args.controller:
        scenario.controller = args.controller
    artifacts, _, _ = _artifacts(cfg, _plant(cfg))
    log, metrics = run_scenario(scenario, cfg.params, artifacts)
    log_path = out / f"{scenario.name}_{scenario.controller}.csv"
    log.to_csv(log_path)
    lines = [f"scenario {scenario.name} ({scenario.controller}), "
             f"seed {scenario.seed}"]
    for key, value in metrics.as_dict().items():
        lines.append(f"{key:24s} = {value:.6f}")
    (out / f"{scenario.name}_{scenario.controller}_metrics.txt").write_text(
        "\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(f"log written to {log_path}")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    scenario = _scenario_from_args(args)
    artifacts, _, _ = _artifacts(cfg, _plant(cfg))
    report, log_a, log_b = compare_controllers(scenario, cfg.params, artifacts)
    log_a.to_csv(out / f"{scenario.name}_hinf.csv")
    log_b.to_csv(out / f"{scenario.name}_pid.csv")
    table = report.table()
    (out / f"{scenario.name}_comparison.txt").write_text(table + "\n",
                                                         encoding="utf-8")
    print(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heli",
        description="Small-helicopter flight control toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=False):
        p.add_argument("--config", help="toolkit configuration file")
        p.add_argument("--out", help="output directory (default: current)")
        if scenario:
            p.add_argument("--scenario", required=True,
                           help="built-in name (%s) or a scenario file"
                           % ", ".join(builtin_names()))
            p.add_argument("--seed", type=int, default=None,
                           help="override the scenario seed")

    common(sub.add_parser("trim", help="solve the hover equilibrium"))
    common(sub.add_parser("linearize", help="write the linear attitude model"))
    p_syn = sub.add_parser("synthesize", help="design the inner loop and observer")
    common(p_syn)
    p_syn.add_argument("--plant", help="directory of CSVs from `heli linearize` "
                       "(default: recompute from the configuration)")
    p_gs = sub.add_parser("gamma-search", help="trace the attenuation bisection")
    common(p_gs)
    p_gs.add_argument("--plant", help="directory of CSVs from `heli linearize`")
    p_sim = sub.add_parser("simulate", help="run a closed-loop scenario")
    common(p_sim, scenario=True)
    p_sim.add_argument("--controller", choices=("hinf", "pid", "open_loop"),
                       help="override the scenario controller")
    p_cmp = sub.add_parser("compare", help="run a scenario under hinf and pid")
    common(p_cmp, scenario=True)
    return parser


_COMMANDS = {
    "trim": cmd_trim,
    "linearize": cmd_linearize,
    "synthesize": cmd_synthesize,
    "gamma-search": cmd_gamma_search,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except HeliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
