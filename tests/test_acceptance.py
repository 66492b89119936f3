"""Acceptance suite: one test per shipping criterion, A1 through A9.

Each test prints a one-line verdict with the measured numbers (run pytest
with -s to see the lines for passing tests).  Tolerances are fixed here and
nowhere else.
"""
import math
import time

import numpy as np
import pytest

from heli import (
    RiccatiSolution,
    builtin_scenario,
    gamma_star,
    hinf_norm,
    observer_step,
    rk4_step,
    run_scenario,
    solve_riccati,
    verify_linearization,
)
from heli.hinf import feedback_gain
from heli.sim import reference_at, settled_mask, _rotation_rows
from heli.state import MODEL_STATE_LABELS

from oracles import observer_loop_matrix

IDX = {name: k for k, name in enumerate(MODEL_STATE_LABELS)}
SQRT2 = math.sqrt(2.0)


def _verdict(tag, ok, detail):
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def attitude_pair(params, artifacts):
    """Shared gusty attitude scenario under both controllers (A3, A9)."""
    t0 = time.perf_counter()
    logs = {}
    for ctrl in ("hinf", "pid"):
        cfg = builtin_scenario("gust-attitude-hold", seed=2026)
        cfg.controller = ctrl
        logs[ctrl] = run_scenario(cfg, params, artifacts)
    elapsed = time.perf_counter() - t0
    return logs, elapsed


def _ned_velocity_error(cfg, log):
    rot = _rotation_rows(log.states[:, 6], log.states[:, 7], log.states[:, 8])
    v_ned = np.einsum("nij,nj->ni", rot, log.states[:, 3:6])
    v_ref = np.empty((log.t.size, 3))
    for i, ti in enumerate(log.t):
        v_ref[i] = reference_at(cfg.references, ti)[1]
    return v_ned - v_ref


def _climb_mean_abs_vz_err(cfg, log):
    verr = _ned_velocity_error(cfg, log)
    climb = (log.t >= 18.0) & (log.t <= 22.0)
    return float(np.mean(np.abs(verr[climb, 2])))


class TestA1Riccati:
    def test_a1_riccati_correctness(self, plant, output_map):
        t0 = time.perf_counter()
        a = np.array([[-1.0]])
        b = np.array([[1.0]])
        c = np.array([[1.0], [0.0]])
        d = np.array([[0.0], [1.0]])
        s1 = solve_riccati(a, b, c, d, np.array([[0.0]]), 10.0)
        s2 = solve_riccati(a, b, c, d, np.array([[1.0]]), 1.0)
        err1 = abs(s1.p[0, 0] - (SQRT2 - 1.0))
        err2 = abs(s2.p[0, 0] - 0.5)

        gamma = 0.15
        sol = solve_riccati(plant.a, plant.b, output_map.c, output_map.d,
                            plant.e, gamma)
        assert isinstance(sol, RiccatiSolution)
        p = sol.p
        sym = np.max(np.abs(p - p.T))
        min_eig = np.min(np.linalg.eigvalsh(p))
        f = feedback_gain(p, plant.b, output_map.c, output_map.d)
        max_re = np.max(np.linalg.eigvals(plant.a + plant.b @ f).real)
        elapsed = time.perf_counter() - t0

        ok = (err1 < 1e-10 and err2 < 1e-10
              and sol.residual_norm < 1e-8 * (1.0 + np.max(np.abs(p)))
              and sym < 1e-10 and min_eig > -1e-10 and max_re < 0.0
              and elapsed < 1.0)
        _verdict("A1 riccati correctness", ok,
                 f"scalar errs {err1:.1e}/{err2:.1e}, residual "
                 f"{sol.residual_norm:.1e}, min eig {min_eig:.1e}, "
                 f"max Re(cl) {max_re:.3f}, {elapsed:.2f}s")


class TestA2GammaStar:
    def test_a2_gamma_star_correctness(self, plant, output_map, synthesis):
        t0 = time.perf_counter()
        a = np.array([[-1.0]])
        b = np.array([[1.0]])
        c = np.array([[1.0], [0.0]])
        d = np.array([[0.0], [1.0]])
        e = np.array([[1.0]])
        search, _ = gamma_star(a, b, c, d, e, tol=1e-6)
        scalar_err = abs(search.gamma_star - 1.0 / SQRT2)

        result, full_search, _ = synthesis
        ladder = np.concatenate([np.linspace(0.3, 0.95, 5),
                                 np.linspace(1.05, 4.0, 5)])
        ladder = ladder * full_search.gamma_star
        feas = [isinstance(solve_riccati(plant.a, plant.b, output_map.c,
                                         output_map.d, plant.e, g),
                           RiccatiSolution) for g in ladder]
        first = feas.index(True)
        monotone = all(feas[first:]) and not any(feas[:first])

        a_cl = plant.a + plant.b @ result.f
        c_cl = output_map.c + output_map.d @ result.f
        norm = hinf_norm(a_cl, plant.e, c_cl)
        elapsed = time.perf_counter() - t0

        ok = (scalar_err < 1e-4 and monotone
              and norm <= result.gamma * 1.001 and elapsed < 10.0)
        _verdict("A2 gamma-star correctness", ok,
                 f"scalar err {scalar_err:.1e}, ladder monotone {monotone}, "
                 f"norm {norm:.4f} <= {result.gamma:.4f}*1.001, {elapsed:.2f}s")


class TestA3AttitudeContrast:
    def test_a3_attitude_robustness_contrast(self, attitude_pair):
        logs, elapsed = attitude_pair
        _, met_h = logs["hinf"]
        _, met_p = logs["pid"]
        err_h = max(met_h.max_phi_err_deg, met_h.max_theta_err_deg)
        err_p = max(met_p.max_phi_err_deg, met_p.max_theta_err_deg)
        ok = err_h <= 0.5 * err_p and err_h <= 3.0 and elapsed < 30.0
        _verdict("A3 attitude robustness contrast", ok,
                 f"hinf {err_h:.3f} deg vs pid {err_p:.3f} deg "
                 f"(ratio {err_h / err_p:.3f}), {elapsed:.1f}s")


class TestA4HoverVelocity:
    def test_a4_hover_velocity_precision(self, hover_climb):
        cfg, log, _ = hover_climb
        verr = _ned_velocity_error(cfg, log)
        mask = settled_mask(log.t, cfg)
        vmax = np.max(np.abs(verr[mask]), axis=0)
        ok = vmax[2] <= 0.25 and vmax[0] <= 0.4 and vmax[1] <= 0.4
        _verdict("A4 hover velocity precision", ok,
                 f"|vz| {vmax[2]:.3f} <= 0.25, |vx| {vmax[0]:.3f}, "
                 f"|vy| {vmax[1]:.3f} <= 0.4 m/s")


class TestA5PositionEnvelope:
    def test_a5_position_envelope(self, hover_climb):
        _, _, metrics = hover_climb
        ok = (metrics.horizontal_envelope <= 1.2
              and metrics.altitude_envelope <= 0.5)
        _verdict("A5 position envelope", ok,
                 f"horizontal {metrics.horizontal_envelope:.3f} <= 1.2 m, "
                 f"altitude {metrics.altitude_envelope:.3f} <= 0.5 m")


class TestA6ClimbTracking:
    def test_a6_climb_tracking(self, hover_climb):
        cfg, log, _ = hover_climb
        mean_err = _climb_mean_abs_vz_err(cfg, log)
        ok = mean_err < 0.3
        _verdict("A6 climb tracking", ok,
                 f"mean |vz err| during climb {mean_err:.3f} < 0.3 m/s")


class TestA7TrimLinearization:
    def test_a7_trim_and_linearization(self, params, trim, plant):
        verify_err = verify_linearization(params, plant, 1e-4)
        flap_diag = plant.a[IDX["a_s"], IDX["a_s"]]
        flap_rel = abs(flap_diag + 1.0 / params.tau_mr) * params.tau_mr
        psi_r = plant.a[IDX["psi"], IDX["r"]]
        ok = (trim.residual < 1e-8 and verify_err < 1e-2
              and flap_rel < 5e-2 and abs(psi_r - 1.0) < 5e-2)
        _verdict("A7 trim + linearization", ok,
                 f"residual {trim.residual:.1e}, verify {verify_err:.1e}, "
                 f"flap diag {flap_diag:.3f} (~{-1.0 / params.tau_mr:.3f}), "
                 f"psi-r {psi_r:.4f}")


class TestA8Observer:
    def test_a8_observer(self, plant, synthesis, observer_design):
        result, _, _ = synthesis
        des = observer_design
        a_big = observer_loop_matrix(plant, result.f, des)
        got = np.sort_complex(np.linalg.eigvals(a_big))
        expect = np.sort_complex(np.concatenate([
            np.linalg.eigvals(plant.a + plant.b @ result.f),
            np.linalg.eigvals(des.a_obs)]))
        union_err = np.max(np.abs(got - expect))

        # the estimate starts at (0.05, 0, 0): x_obs = estimate - K y, y = 0
        x_obs = [0.05, 0.0, 0.0]
        dt = 0.002
        disc = des.discretize(dt)
        for _ in range(int(1.0 / dt)):
            x_obs, estimate = observer_step(disc, x_obs, np.zeros(6),
                                            np.zeros(3))
        final_err = np.linalg.norm(estimate)

        ok = union_err < 1e-6 and final_err < 1e-3
        _verdict("A8 observer", ok,
                 f"separation union err {union_err:.1e} < 1e-6, "
                 f"estimate err after 1 s {final_err:.1e} < 1e-3")


class TestA9Determinism:
    def test_a9_determinism_and_numerics(self, params, artifacts,
                                         attitude_pair, hover_climb,
                                         tmp_path):
        # byte-identical repeat of a logged run
        paths = []
        for k in range(2):
            cfg = builtin_scenario("gust-attitude-hold", seed=321)
            cfg.duration = 5.0
            log, _ = run_scenario(cfg, params, artifacts)
            p = tmp_path / f"rep{k}.csv"
            log.to_csv(p)
            paths.append(p)
        identical = paths[0].read_bytes() == paths[1].read_bytes()

        # fourth-order convergence of the integrator
        def global_err(dt):
            x = [1.0] * 15
            for _ in range(int(round(1.0 / dt))):
                x = rk4_step(lambda xv, u, w: [-v for v in xv], x, None, None,
                             dt)
            return abs(x[0] - math.exp(-1.0))
        ratio = global_err(0.01) / global_err(0.005)
        fourth_order = 12.0 < ratio < 20.0

        # halving dt moves every A3-A6 metric by < 2 percent
        logs, _ = attitude_pair
        cfg_hc, log_hc, met_hc = hover_climb
        coarse = {
            "att_hinf": max(logs["hinf"][1].max_phi_err_deg,
                            logs["hinf"][1].max_theta_err_deg),
            "att_pid": max(logs["pid"][1].max_phi_err_deg,
                           logs["pid"][1].max_theta_err_deg),
            "horiz": met_hc.horizontal_envelope,
            "alt": met_hc.altitude_envelope,
            "climb": _climb_mean_abs_vz_err(cfg_hc, log_hc),
        }
        verr = _ned_velocity_error(cfg_hc, log_hc)
        vmax = np.max(np.abs(verr[settled_mask(log_hc.t, cfg_hc)]), axis=0)
        coarse["vmax_n"], coarse["vmax_e"], coarse["vmax_d"] = vmax

        fine = {}
        for ctrl in ("hinf", "pid"):
            cfg = builtin_scenario("gust-attitude-hold", seed=2026)
            cfg.controller = ctrl
            cfg.dt = 0.001
            _, met = run_scenario(cfg, params, artifacts)
            fine[f"att_{ctrl}"] = max(met.max_phi_err_deg,
                                      met.max_theta_err_deg)
        cfg2 = builtin_scenario("paper-hover-climb", seed=2026)
        cfg2.dt = 0.001
        log2, met2 = run_scenario(cfg2, params, artifacts)
        fine["horiz"] = met2.horizontal_envelope
        fine["alt"] = met2.altitude_envelope
        fine["climb"] = _climb_mean_abs_vz_err(cfg2, log2)
        verr2 = _ned_velocity_error(cfg2, log2)
        vmax2 = np.max(np.abs(verr2[settled_mask(log2.t, cfg2)]), axis=0)
        fine["vmax_n"], fine["vmax_e"], fine["vmax_d"] = vmax2

        shifts = {k: abs(fine[k] - coarse[k]) / max(abs(coarse[k]), 1e-6)
                  for k in coarse}
        worst = max(shifts, key=shifts.get)
        cfl_ok = shifts[worst] < 0.02

        ok = identical and fourth_order and cfl_ok
        _verdict("A9 determinism + numerics", ok,
                 f"byte-identical {identical}, rk4 ratio {ratio:.1f}, "
                 f"worst dt-halving shift {shifts[worst] * 100:.2f}% ({worst})")
