"""Command-line interface: heli trim|linearize|synthesize|gamma-search|simulate|compare."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ToolkitConfig, load_scenario_file, load_toolkit_config
from .errors import HeliError
from .hinf import build_output_map, gamma_star, hinf_norm
from .pipeline import PLANT_FILES, build_design, linear_plant
from .scenarios import builtin_names, builtin_scenario
from .sim import compare_controllers, run_scenario
from .state import (
    INPUT_LABELS,
    MEASURED_IDX,
    MODEL_INPUT_LABELS,
    MODEL_STATE_LABELS,
    REFERENCE_LABELS,
    STATE_LABELS,
    UNMEASURED_IDX,
)
from .trim import find_trim, verify_linearization


def _write_matrix_csv(path: Path, matrix: np.ndarray, col_labels, row_labels=None):
    matrix = np.atleast_2d(matrix)
    leads = ([""] * len(matrix) if row_labels is None
             else [label + "," for label in row_labels])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(("" if row_labels is None else ",") + ",".join(col_labels) + "\n")
        for lead, row in zip(leads, matrix):
            fh.write(lead + ",".join(repr(float(v)) for v in row) + "\n")


def _load_config(args) -> ToolkitConfig:
    return load_toolkit_config(args.config) if args.config else ToolkitConfig()


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_trim(trim, out: Path):
    x, u = trim.state.as_vector(), trim.inputs.as_vector()
    lines = ["hover trim", f"residual = {trim.residual:.3e}", ""]
    lines += [f"{label:8s} = {value: .6e}" for label, value in
              zip(STATE_LABELS, x)]
    lines += [""] + [f"{label:8s} = {value: .6e}" for label, value in
                     zip(INPUT_LABELS + ("dped_out",), (*u, trim.dped_prime))]
    (out / "trim_report.txt").write_text("\n".join(lines) + "\n",
                                         encoding="utf-8")
    for (name, cols, _), row in zip(PLANT_FILES[3:], (x, u)):
        _write_matrix_csv(out / name, row[None, :], cols)


def cmd_trim(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    trim = find_trim(cfg.params)
    _write_trim(trim, out)
    print(f"trim residual {trim.residual:.3e}; report in {out}")
    return 0


def cmd_linearize(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    plant = linear_plant(cfg)
    for (name, cols, rows), matrix in zip(PLANT_FILES,
                                          (plant.a, plant.b, plant.e)):
        _write_matrix_csv(out / name, matrix, cols, rows)
    _write_trim(plant.trim, out)
    err = verify_linearization(cfg.params, plant, 1e-4)
    print(f"linear model written to {out}; verification error {err:.3e}")
    return 0


def cmd_synthesize(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    plant, artifacts, search, zeros = build_design(cfg, args.plant)
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
    plant = linear_plant(cfg, args.plant)
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
    return scenario.validate()


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    scenario = _scenario_from_args(args)
    if args.controller:
        scenario.controller = args.controller
    _, artifacts, _, _ = build_design(cfg)
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
    _, artifacts, _, _ = build_design(cfg)
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
