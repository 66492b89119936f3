import math
import os
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import heli.sim
from heli import (
    ConfigError,
    Gust,
    HelicopterParams,
    OuterGains,
    PidGains,
    PidAttitudeController,
    ReferenceSegment,
    SimArtifacts,
    SimulationAbort,
    SingularAttitudeError,
    TrimPoint,
    WindModel,
    builtin_names,
    find_trim,
    builtin_scenario,
    compare_controllers,
    compute_metrics,
    rk4_step,
    run_scenario,
)
from heli.dynamics import (
    _state_derivative_flat,
    plant_constants,
    state_derivative,
    yaw_gyro_law,
)
from heli.errors import HeliError
from heli.sim import (
    CSV_BLOCK_ROWS,
    LOG_ARRAYS,
    LOG_COLUMNS,
    ScenarioConfig,
    ScenarioLog,
    _step_rows,
    read_log_csv,
    reference_at,
    reference_table,
    settled_mask,
)
from heli.state import MEASURED_STATES, SAT_GYRO

from rk4_reference import rk4_reference


class TestRk4:
    def test_exponential_single_step(self):
        f = lambda x, u, w: [-v for v in x]
        x1 = rk4_step(f, [1.0] * 15, None, None, 0.01)
        assert abs(x1[0] - math.exp(-0.01)) < 1e-10

    def test_zero_derivative_fixed_point(self):
        f = lambda x, u, w: np.zeros_like(x)
        x0 = np.linspace(3.0, -1.0, 15)
        assert np.array_equal(rk4_step(f, x0, None, None, 0.5), x0)

    def test_fourth_order_convergence(self):
        f = lambda x, u, w: [-v for v in x]

        def global_err(dt):
            x = [1.0] * 15
            for _ in range(int(round(1.0 / dt))):
                x = rk4_step(f, x, None, None, dt)
            return abs(x[0] - math.exp(-1.0))

        ratio = global_err(0.01) / global_err(0.005)
        assert 12.0 < ratio < 20.0

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            rk4_step(lambda x, u, w: x, np.zeros(15), None, None, 0.0)

    def test_nan_dt_rejected(self):
        # NaN passes a `dt <= 0.0` guard and would step to a NaN state
        with pytest.raises(ValueError):
            rk4_step(lambda x, u, w: list(x), [0.5] * 15, None, None,
                     float("nan"))

    @pytest.mark.parametrize("n", [0, 1, 3, 14, 16])
    def test_other_state_length_rejected(self, n):
        with pytest.raises(ValueError):
            rk4_step(lambda x, u, w: list(x), [0.5] * n, None, None, 0.01)

    @pytest.mark.parametrize("n", [14, 16])
    def test_other_derivative_length_rejected(self, n):
        with pytest.raises(ValueError):
            rk4_step(lambda x, u, w: [0.5] * n, [0.5] * 15, None, None, 0.01)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(-10.0, 10.0), min_size=225, max_size=225),
       st.lists(st.floats(-100.0, 100.0), min_size=15, max_size=15),
       st.floats(min_value=0.0, max_value=1e3, exclude_min=True))
def test_rk4_step_bit_equals_reference(entries, x, dt):
    # a random 15x15 linear derivative, each row summed left to right
    rows = [entries[15 * i:15 * i + 15] for i in range(15)]

    def f(xv, uv, wv):
        return [sum(a * v for a, v in zip(row, xv)) for row in rows]

    got = rk4_step(f, x, None, None, dt)
    want = rk4_reference(f, x, None, None, dt)
    assert all(type(v) is float for v in got)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def _rk4_array_oracle(x, u, w, dt, params):
    """The array RK4 step the list step replaced, on the array edge."""
    def f(xv):
        return state_derivative(xv, u, w, params)
    x = np.array(x)
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@st.composite
def plant_points(draw):
    x = draw(st.lists(st.floats(-5.0, 5.0), min_size=15, max_size=15))
    x[7] = draw(st.floats(-1.3, 1.3))  # every stage stays clear of pi/2
    u = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    w = draw(st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
    dt = draw(st.floats(1e-4, 0.02))
    return x, u, w, dt


@settings(deadline=None, max_examples=200)
@given(plant_points())
def test_plant_rk4_bit_equals_array_formula(point):
    x, u, w, dt = point
    par = HelicopterParams()
    consts = plant_constants(par)
    got = rk4_step(lambda xv, uv, wv: _state_derivative_flat(xv, uv, wv, consts),
                   x, u, w, dt)
    assert all(type(v) is float for v in got)
    want = _rk4_array_oracle(x, u, w, dt, par)
    assert np.array(got).tobytes() == want.tobytes()


class TestPidController:
    def test_equilibrium_returns_trim(self, trim):
        pid = PidAttitudeController(PidGains(), trim)
        out = pid.step(trim.state.as_vector(), trim.h_out_trim, 0.002)
        assert np.allclose(out, trim.inputs.as_vector()[0:3], atol=1e-14)

    def test_roll_step_converges_with_bounded_overshoot(self, params, trim):
        pid = PidAttitudeController(PidGains(), trim)
        x = trim.state.as_vector().copy()
        step = 0.05
        target = trim.h_out_trim + np.array([step, 0.0, 0.0])
        dt = 0.002
        hist = []
        for _ in range(int(5.0 / dt)):
            dlat, dlon, dped = pid.step(x, target, dt)
            u = np.clip([dlat, dlon, dped, trim.inputs.delta_col], -1.0, 1.0)
            x = rk4_step(lambda xv, uv, wv: _state_derivative_flat(
                xv, u, np.zeros(3), plant_constants(params)), x, None, None, dt)
            hist.append(x[6])
        hist = np.array(hist)
        final_err = abs(hist[-1] - target[0])
        overshoot = (hist.max() - target[0]) / step
        assert final_err < 0.01
        assert overshoot < 0.25

    def test_integrator_clamps(self, trim):
        gains = PidGains()
        pid = PidAttitudeController(gains, trim)
        x = trim.state.as_vector().copy()
        x[6] -= 1.0  # persistent huge roll error
        for _ in range(10000):
            pid.step(x, trim.h_out_trim, 0.01)
        assert pid.int_roll == gains.int_limit


class TestReferences:
    def test_segment_selection_and_ramp(self):
        segs = (
            ReferenceSegment(0.0, np.array([0.0, 0.0, -10.0]), np.zeros(3)),
            ReferenceSegment(18.0, np.array([0.0, 0.0, -10.0]),
                             np.array([0.0, 0.0, -2.5])),
            ReferenceSegment(22.0, np.array([0.0, 0.0, -20.0]), np.zeros(3)),
        )
        assert reference_at(segs, 5.0)[0][2] == -10.0
        assert reference_at(segs, 20.0)[0][2] == pytest.approx(-15.0)
        assert reference_at(segs, 40.0)[0][2] == -20.0
        assert reference_at(segs, 19.0)[1][2] == -2.5

    def test_settled_mask_excludes_event_windows(self):
        cfg = builtin_scenario("paper-hover-climb", seed=0)
        t = np.arange(0.0, 60.0, 0.1)
        mask = settled_mask(t, cfg)
        for ev in (0.0, 18.0, 22.0):
            assert not mask[np.argmin(np.abs(t - (ev + 1.0)))]
            assert mask[np.argmin(np.abs(t - (ev + 2.5)))]


def _step_tables(n, seed=5):
    """A wind table and p_ref, v_ref and psi_ref tables of n rows, with a
    negative zero, an inf and a NaN among the values."""
    rng = np.random.default_rng(seed)
    wind, p_ref, v_ref = (rng.standard_normal((n, 3)) for _ in range(3))
    psi_ref = rng.standard_normal(n)
    wind[-1] = (-0.0, math.inf, math.nan)
    return wind, p_ref, v_ref, psi_ref


class TestStepRows:
    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049, 30001])
    def test_rows_are_each_tables_rows(self, n):
        tables = _step_tables(n)
        rows = list(_step_rows(*tables))
        assert len(rows) == n
        for column, table in zip(zip(*rows), tables):
            assert np.array(column).tobytes() == table.tobytes()
            values = column if table.ndim == 1 else [v for r in column
                                                     for v in r]
            assert {type(v) for v in values} == {float}

    @pytest.mark.parametrize("n", [1, 1025])
    def test_missing_tables_give_none(self, n):
        wind = _step_tables(n)[0]
        rows = list(_step_rows(wind, None, None, None))
        assert [r[1:] for r in rows] == [(None, None, None)] * n
        assert np.array([r[0] for r in rows]).tobytes() == wind.tobytes()

    def test_holds_about_one_block(self):
        tables = _step_tables(30001)
        tracemalloc.start()
        try:
            block = [a[:CSV_BLOCK_ROWS].tolist() for a in tables]
            block_bytes = tracemalloc.get_traced_memory()[0]
            del block
            tracemalloc.reset_peak()
            rows = _step_rows(*tables)
            for _ in range(5):
                next(rows)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole table as Python floats would be ~30 blocks
        assert held < 1.5 * block_bytes
        assert peak < 1.5 * block_bytes


class TestScenarioValidation:
    def test_builtin_names_available(self):
        assert "paper-hover-climb" in builtin_names()
        assert "gust-attitude-hold" in builtin_names()

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ConfigError):
            builtin_scenario("no-such-scenario")

    def test_bad_dt_rejected(self):
        cfg = builtin_scenario("hover-hold")
        cfg.dt = 0.05
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_unordered_segments_rejected(self):
        cfg = builtin_scenario("paper-hover-climb")
        cfg.references = tuple(reversed(cfg.references))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_unknown_controller_rejected(self):
        cfg = builtin_scenario("hover-hold")
        cfg.controller = "lqr"
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_hinf_requires_artifacts(self, params, trim):
        cfg = builtin_scenario("gust-attitude-hold", seed=0)
        cfg.duration = 0.1
        with pytest.raises(ConfigError):
            run_scenario(cfg, params, SimArtifacts(trim=trim))

    @pytest.mark.parametrize("scenario, controller, field, gains", [
        # the collective would sit at -0.5 with SAT_DCOL on every step
        ("paper-hover-climb", "hinf", "outer_gains",
         OuterGains(col_limit=-0.5)),
        # every PID integrator would sit at -0.35 after one step
        ("gust-attitude-hold", "pid", "pid_gains",
         PidGains(int_limit=-0.35)),
    ])
    def test_bad_artifact_gains_rejected(self, params, artifacts, scenario,
                                         controller, field, gains):
        cfg = builtin_scenario(scenario, seed=0)
        cfg.controller = controller
        cfg.duration = 0.1
        with pytest.raises(ConfigError, match=f"artifacts.{field}"):
            run_scenario(cfg, params, replace(artifacts, **{field: gains}))

    def test_nan_outer_gain_rejected_before_run(self, params, artifacts):
        # a NaN gain would pass a `< 0.0` test and stop the run as a
        # SimulationAbort on the first non-finite state
        cfg = builtin_scenario("paper-hover-climb", seed=0)
        cfg.duration = 0.1
        with pytest.raises(ConfigError, match="artifacts.outer_gains"):
            run_scenario(cfg, params,
                         replace(artifacts, outer_gains=OuterGains(kp_z=math.nan)))

    def test_pid_gains_validate(self):
        assert PidGains(int_limit=0.0).validate() == PidGains(int_limit=0.0)
        for bad in (-0.35, math.nan):
            with pytest.raises(ValueError, match="int_limit"):
                PidGains(int_limit=bad).validate()


class TestRunScenario:
    def test_equilibrium_hold_open_loop(self, params, artifacts):
        cfg = builtin_scenario("hover-hold", seed=1)
        cfg.duration = 60.0
        log, _ = run_scenario(cfg, params, artifacts)
        dev = np.abs(log.states - artifacts.trim.state.as_vector()[None, :])
        assert np.max(dev) < 1e-6

    def test_equilibrium_hold_closed_loop(self, params, artifacts):
        cfg = builtin_scenario("hover-hold", seed=1)
        cfg.controller = "hinf"
        cfg.duration = 20.0
        log, _ = run_scenario(cfg, params, artifacts)
        dev = np.abs(log.states - artifacts.trim.state.as_vector()[None, :])
        assert np.max(dev) < 1e-6

    def test_log_shape_and_time_grid(self, params, artifacts):
        cfg = builtin_scenario("hover-hold", seed=1)
        cfg.duration = 1.0
        log, _ = run_scenario(cfg, params, artifacts)
        n = int(round(cfg.duration / cfg.dt)) + 1
        assert log.t.shape == (n,)
        assert log.states.shape == (n, 15)
        assert np.all(np.diff(log.t) > 0.0)
        assert log.t[0] == 0.0
        assert log.t[-1] == pytest.approx(cfg.duration)

    def test_deterministic_logs_byte_identical(self, params, artifacts,
                                               tmp_path):
        paths = []
        for k in range(2):
            cfg = builtin_scenario("gust-attitude-hold", seed=99)
            cfg.duration = 3.0
            log, _ = run_scenario(cfg, params, artifacts)
            p = tmp_path / f"run{k}.csv"
            log.to_csv(p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_header_contract(self, params, artifacts, tmp_path):
        cfg = builtin_scenario("hover-hold", seed=1)
        cfg.duration = 0.1
        log, _ = run_scenario(cfg, params, artifacts)
        path = tmp_path / "log.csv"
        log.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == ("t,pn,pe,pd,vx,vy,vz,phi,theta,psi,p,q,r,a_s,b_s,xi,"
                          "dlat,dlon,dped,dcol,wind_u,wind_v,wind_w,"
                          "phi_ref,theta_ref,psi_ref,"
                          "est_a_s,est_b_s,est_dped,sat_flags")
        assert header == LOG_COLUMNS

    def test_csv_round_trips_at_full_precision(self, params, artifacts,
                                               tmp_path):
        cfg = builtin_scenario("gust-attitude-hold", seed=5)
        cfg.duration = 1.0
        log, _ = run_scenario(cfg, params, artifacts)
        path = tmp_path / "log.csv"
        log.to_csv(path)
        cols = read_log_csv(path)
        assert np.array_equal(cols["phi"], log.states[:, 6])
        assert np.array_equal(cols["dlat"], log.inputs[:, 0])
        assert np.array_equal(cols["wind_u"], log.wind[:, 0])

    def test_metrics_recomputable_from_csv(self, params, artifacts, tmp_path):
        cfg = builtin_scenario("paper-hover-climb", seed=7)
        cfg.duration = 25.0
        log, metrics = run_scenario(cfg, params, artifacts)
        path = tmp_path / "log.csv"
        log.to_csv(path)
        cols = read_log_csv(path)
        states = np.column_stack([cols[k] for k in
                                  ("pn", "pe", "pd", "vx", "vy", "vz",
                                   "phi", "theta", "psi", "p", "q", "r",
                                   "a_s", "b_s", "xi")])
        att_ref = np.column_stack([cols["phi_ref"], cols["theta_ref"],
                                   cols["psi_ref"]])
        again = compute_metrics(cols["t"], states, att_ref, cfg)
        for key, value in metrics.as_dict().items():
            assert again.as_dict()[key] == pytest.approx(value, abs=1e-9)

    def test_csv_matches_per_value_repr(self, tmp_path):
        # rows span several write blocks and include awkward floats
        n = 2 * CSV_BLOCK_ROWS + 5
        rng = np.random.default_rng(12)
        vals = rng.standard_normal((n, 29)) * 10.0 ** rng.integers(-20, 20,
                                                                  (n, 29))
        special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-5,
                            3.0, -42.0, 1e22, 0.1, 1.7976931348623157e308,
                            math.inf, -math.inf, math.nan])
        pick = rng.random((n, 29)) < 0.3
        vals[pick] = rng.choice(special, size=int(pick.sum()))
        flags = rng.integers(0, 128, n)
        log = ScenarioLog(t=vals[:, 0], states=vals[:, 1:16],
                          inputs=vals[:, 16:20], wind=vals[:, 20:23],
                          att_ref=vals[:, 23:26], estimates=vals[:, 26:29],
                          sat_flags=flags, config=ScenarioConfig())
        path = tmp_path / "log.csv"
        log.to_csv(path)
        expected = LOG_COLUMNS + "\n" + "".join(
            ",".join(repr(float(v)) for v in row) + f",{int(bits)}\n"
            for row, bits in zip(vals, flags))
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("controller", ["hinf", "pid", "open_loop"])
    def test_plant_sees_only_python_floats(self, params, artifacts,
                                           monkeypatch, controller):
        # numpy scalars here give the same output, but every scalar
        # operation of the model on them costs several times more
        seen = []
        plant = heli.sim._state_derivative_flat

        def spy(x, u, w, par):
            seen.append({type(v) for v in (*x, *u, *w)})
            return plant(x, u, w, par)

        monkeypatch.setattr(heli.sim, "_state_derivative_flat", spy)
        for name in ("paper-hover-climb", "gust-attitude-hold"):
            cfg = builtin_scenario(name, seed=3)
            cfg.controller = controller
            cfg.duration = 0.2
            run_scenario(cfg, params, artifacts)
        assert len(seen) == 2 * 4 * 100
        assert set().union(*seen) == {float}

    def test_observer_sees_logged_deviations(self, params, artifacts,
                                             monkeypatch):
        # y is the logged state at MEASURED_STATES minus y_trim, and the
        # observer input the logged cyclic and pedal inputs minus trim
        seen = []
        step = heli.sim.observer_step

        def spy(disc, x_obs, y, u):
            seen.append((list(y), list(u)))
            return step(disc, x_obs, y, u)

        monkeypatch.setattr(heli.sim, "observer_step", spy)
        cfg = builtin_scenario("gust-attitude-hold", seed=3)
        cfg.duration = 0.2
        log, _ = run_scenario(cfg, params, artifacts)
        trim = artifacts.trim
        y_want = log.states[:-1, MEASURED_STATES] - trim.y_trim
        u_want = log.inputs[:-1, 0:3] - trim.inputs.as_vector()[0:3]
        assert len(seen) == 100
        assert np.array([y for y, _ in seen]).tobytes() == y_want.tobytes()
        assert np.array([u for _, u in seen]).tobytes() == u_want.tobytes()
        assert np.ptp(y_want, axis=0).min() > 0.0  # every channel moves

    def test_nonfinite_state_aborts_with_step(self, params, artifacts):
        cfg = builtin_scenario("hover-hold", seed=2)
        cfg.duration = 5.0
        # validation rejects a NaN wind, but two finite gusts can overflow
        # to an infinite vertical wind: step 0 turns the state non-finite
        gust = Gust(0.0, 5.0, np.array([0.0, 0.0, 1e308]))
        cfg.wind = WindModel(gusts=(gust, gust))
        with pytest.raises(SimulationAbort) as info, np.errstate(over="ignore"):
            run_scenario(cfg, params, artifacts)
        assert info.value.step == 1
        assert "step 1" in str(info.value)

    @pytest.mark.parametrize("wind", [
        WindModel(mean=np.array([0.0, 1.7e308, 0.0])),
        WindModel(gusts=2 * (Gust(0.0, 5.0, np.array([0.0, 1e308, 0.0])),)),
    ], ids=["finite-mean", "overlapping-gusts"])
    def test_math_domain_error_in_rk4_aborts(self, params, artifacts, wind):
        # the first derivative overflows the lateral speed; math.sin of the
        # next stage's infinite angle raises a bare ValueError.  Two gusts
        # first overflow to an infinite wind in WindSequence.table, which
        # must not leak numpy's overflow warning
        cfg = builtin_scenario("hover-hold", seed=2)
        cfg.duration = 5.0
        cfg.wind = wind
        with warnings.catch_warnings(), pytest.raises(SimulationAbort) as info:
            warnings.simplefilter("error")
            run_scenario(cfg, params, artifacts)
        err = info.value
        assert (err.step, err.stage) == (0, "plant RK4")
        assert type(err.__cause__) is ValueError
        assert str(err).startswith("plant RK4 failed at step 0")

    def test_overflowing_sum_of_finite_state_runs_on(self, params, artifacts):
        # pn + pe overflows to inf, so the quick sum test fails; the
        # element-wise test must then let the run go on.  Open loop without
        # the outer loop never reads the position.
        cfg = builtin_scenario("hover-hold", seed=2)
        cfg.duration = 0.02
        base, _ = run_scenario(cfg, params, artifacts)
        cfg.initial_offset = np.array([1e308, 1e308, 0.0])
        log, _ = run_scenario(cfg, params, artifacts)
        assert not math.isfinite(sum(log.states[0].tolist()))
        assert np.all(log.states[:, 0:2] == 1e308)
        assert log.states[:, 2:].tobytes() == base.states[:, 2:].tobytes()

    def test_midrun_error_aborts_with_step_time_and_stage(self, params, trim):
        # forced pitch-up: theta crosses pi/2 inside the second RK4 step
        x = trim.state.as_vector().copy()
        x[7], x[10] = 1.50, 20.0
        pitched = TrimPoint.from_vectors(x, trim.inputs.as_vector(), params)
        cfg = builtin_scenario("hover-hold", seed=2)
        cfg.controller = "open_loop"
        cfg.duration = 2.0
        with pytest.raises(SimulationAbort) as info:
            run_scenario(cfg, params, SimArtifacts(trim=pitched))
        err = info.value
        assert (err.step, err.stage) == (1, "plant RK4")
        assert err.time == pytest.approx(0.002, abs=1e-15)
        assert isinstance(err.__cause__, SingularAttitudeError)
        assert str(err).startswith("plant RK4 failed at step 1 (t = 0.0020 s)")

    def test_roll_reference_offset_tracked_in_closed_loop(self, params,
                                                          artifacts):
        cfg = builtin_scenario("hover-hold", seed=1)
        cfg.controller = "hinf"
        cfg.duration = 2.0
        offset = 0.02
        cfg.att_ref = artifacts.trim.h_out_trim + np.array([offset, 0.0, 0.0])
        log, _ = run_scenario(cfg, params, artifacts)
        target = artifacts.trim.h_out_trim[0] + offset
        assert abs(log.states[-1, 6] - target) < 2e-3

    def test_outer_loop_regulates_initial_offset(self, params, artifacts):
        cfg = builtin_scenario("step-offset", seed=3)
        log, _ = run_scenario(cfg, params, artifacts)
        target = np.array([0.0, 0.0, -10.0])
        err = np.linalg.norm(log.states[-1, 0:3] - target)
        assert err < 0.1
        # no sustained oscillation growth over the last two thirds
        tail = np.linalg.norm(log.states[log.t > 10.0][:, 0:3] - target,
                              axis=1)
        assert np.max(tail) < 2.0


    @pytest.mark.parametrize("kp_g, fired", [(1.0, 10), (3.0, 33)])
    def test_gyro_flag_is_the_law_on_each_logged_row(self, kp_g, fired):
        # PID toward a 1.5 rad heading: the pedal drives the tail servo
        # command into its clamp on a few steps
        par = HelicopterParams().replace(kp_g=kp_g)
        trim = find_trim(par)
        cfg = replace(builtin_scenario("gust-attitude-hold", seed=2026),
                      controller="pid", duration=5.0,
                      att_ref=np.array([*trim.h_out_trim[0:2], 1.5]))
        log, _ = run_scenario(cfg, par, SimArtifacts(trim=trim))
        logged = (log.sat_flags & SAT_GYRO) != 0
        law = [yaw_gyro_law(x[14], u[2], x[11], par.ka_g, par.kp_g,
                            par.ki_g)[2]
               for x, u in zip(log.states.tolist(), log.inputs.tolist())]
        assert logged.tolist() == law
        assert np.count_nonzero(logged) == fired

    def test_reference_table_built_once_per_run(self, params, artifacts,
                                                monkeypatch):
        # the loop's tables also serve the metrics
        calls = []
        table = heli.sim.reference_table

        def counted(*args):
            calls.append(None)
            return table(*args)

        monkeypatch.setattr(heli.sim, "reference_table", counted)
        cfg = builtin_scenario("step-offset", seed=3)
        cfg.duration = 1.0
        run_scenario(cfg, params, artifacts)
        assert len(calls) == 1


class TestCompare:
    def test_self_comparison_is_unity(self, params, artifacts):
        cfg = builtin_scenario("gust-attitude-hold", seed=21)
        cfg.duration = 5.0
        report, _, _ = compare_controllers(cfg, params, artifacts,
                                           controllers=("hinf", "hinf"))
        for key, value in report.ratios().items():
            if not math.isnan(value):
                assert value == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_denominator_reported_na(self, params, artifacts):
        cfg = builtin_scenario("hover-hold", seed=1)
        cfg.duration = 2.0
        report, _, _ = compare_controllers(cfg, params, artifacts,
                                           controllers=("open_loop",
                                                        "open_loop"))
        table = report.table()
        assert "n/a" in table

    def test_shared_wind_between_runs(self, params, artifacts):
        cfg = builtin_scenario("gust-attitude-hold", seed=13)
        cfg.duration = 2.0
        _, log_a, log_b = compare_controllers(cfg, params, artifacts)
        assert np.array_equal(log_a.wind, log_b.wind)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_same_log(log, expected):
    for name in LOG_ARRAYS:
        got, want = getattr(log, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert log.config == expected.config


def _assert_same_metrics(metrics, expected):
    assert metrics.as_dict() == expected.as_dict()
    assert metrics.rms_vel_err.tobytes() == expected.rms_vel_err.tobytes()
    assert metrics.max_vel_err.tobytes() == expected.max_vel_err.tobytes()


def _error_signature(exc):
    cause = exc.__cause__
    return (type(exc), str(exc), getattr(exc, "step", None),
            getattr(exc, "time", None), getattr(exc, "stage", None),
            type(cause), str(cause))


def _sequential_error(cfg, params, artifacts, controllers):
    try:
        for controller in controllers:
            run_scenario(replace(cfg, controller=controller), params,
                         artifacts)
    except HeliError as exc:
        return exc
    raise AssertionError("the sequential runs did not fail")


@pytest.fixture
def pid_fails_at_step_5(monkeypatch):
    """Every PID run raises a HeliError at loop step 5; a forked run
    inherits the patch."""
    step = PidAttitudeController.step

    def failing_step(self, x, att_ref, dt):
        self.calls = getattr(self, "calls", 0) + 1
        if self.calls > 5:
            raise HeliError("injected PID failure")
        return step(self, x, att_ref, dt)

    monkeypatch.setattr(PidAttitudeController, "step", failing_step)


class TestParallelCompare:
    """`compare_controllers` runs its first controller in a forked child."""

    @pytest.mark.parametrize("scenario, controllers", [
        ("gust-attitude-hold", ("hinf", "pid")),
        ("gust-attitude-hold", ("hinf", "hinf")),
        ("hover-hold", ("open_loop", "open_loop")),
    ])
    def test_equals_two_direct_runs(self, params, artifacts, scenario,
                                    controllers):
        cfg = builtin_scenario(scenario, seed=2026)
        cfg.duration = 2.0
        report, log_a, log_b = compare_controllers(cfg, params, artifacts,
                                                   controllers=controllers)
        _assert_no_child_left()
        for log, metrics, controller in (
                (log_a, report.metrics_a, controllers[0]),
                (log_b, report.metrics_b, controllers[1])):
            want_log, want_metrics = run_scenario(
                replace(cfg, controller=controller), params, artifacts)
            _assert_same_log(log, want_log)
            _assert_same_metrics(metrics, want_metrics)

    def test_first_run_leaves_the_calling_process(self, params, artifacts,
                                                  monkeypatch):
        # the child inherits the counting wrapper but not this list
        controllers = []
        run = heli.sim.run_scenario

        def counted(config, *args):
            controllers.append(config.controller)
            return run(config, *args)

        monkeypatch.setattr(heli.sim, "run_scenario", counted)
        cfg = builtin_scenario("gust-attitude-hold", seed=5)
        cfg.duration = 0.5
        compare_controllers(cfg, params, artifacts)
        _assert_no_child_left()
        assert controllers == ["pid"]

    def test_child_that_sends_nothing_is_rerun_here(self, params, artifacts,
                                                    monkeypatch):
        parent = os.getpid()
        run = heli.sim.run_scenario

        def quitting_child(*args):
            if os.getpid() != parent:
                os._exit(0)
            return run(*args)

        monkeypatch.setattr(heli.sim, "run_scenario", quitting_child)
        cfg = builtin_scenario("gust-attitude-hold", seed=5)
        cfg.duration = 0.5
        report, log_a, _ = compare_controllers(cfg, params, artifacts)
        _assert_no_child_left()
        want_log, want_metrics = run(replace(cfg, controller="hinf"), params,
                                     artifacts)
        _assert_same_log(log_a, want_log)
        _assert_same_metrics(report.metrics_a, want_metrics)

    def test_fork_failure_runs_both_here(self, params, artifacts,
                                         monkeypatch):
        def no_fork():
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        cfg = builtin_scenario("gust-attitude-hold", seed=5)
        cfg.duration = 0.5
        report, log_a, log_b = compare_controllers(cfg, params, artifacts)
        for log, metrics, controller in ((log_a, report.metrics_a, "hinf"),
                                         (log_b, report.metrics_b, "pid")):
            want_log, want_metrics = run_scenario(
                replace(cfg, controller=controller), params, artifacts)
            _assert_same_log(log, want_log)
            _assert_same_metrics(metrics, want_metrics)

    def test_interrupt_kills_and_reaps_child(self, params, artifacts,
                                             monkeypatch):
        parent = os.getpid()
        run = heli.sim.run_scenario

        def interrupted_here(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return run(*args)

        monkeypatch.setattr(heli.sim, "run_scenario", interrupted_here)
        cfg = builtin_scenario("gust-attitude-hold", seed=5)
        with pytest.raises(KeyboardInterrupt):
            compare_controllers(cfg, params, artifacts)
        _assert_no_child_left()

    @pytest.mark.parametrize("controllers", [
        ("pid", "hinf"), ("hinf", "pid"), ("pid", "pid")])
    def test_error_is_the_sequential_one(self, params, artifacts,
                                         pid_fails_at_step_5, controllers):
        cfg = builtin_scenario("gust-attitude-hold", seed=5)
        cfg.duration = 0.5
        want = _sequential_error(cfg, params, artifacts, controllers)
        with pytest.raises(SimulationAbort) as got:
            compare_controllers(cfg, params, artifacts,
                                controllers=controllers)
        _assert_no_child_left()
        assert _error_signature(got.value) == _error_signature(want)
        assert (want.step, want.stage) == (5, "inner loop")

    def test_first_runs_error_wins(self, params, artifacts,
                                   pid_fails_at_step_5):
        # the forked hinf run goes non-finite at step 1 while the PID run
        # here fails at step 5; sequential runs raise the hinf error
        nan_gains = replace(artifacts.synthesis,
                            g=artifacts.synthesis.g * math.nan)
        broken = replace(artifacts, synthesis=nan_gains)
        cfg = builtin_scenario("gust-attitude-hold", seed=5)
        cfg.duration = 0.5
        want = _sequential_error(cfg, params, broken, ("hinf", "pid"))
        with pytest.raises(SimulationAbort) as got:
            compare_controllers(cfg, params, broken)
        _assert_no_child_left()
        assert _error_signature(got.value) == _error_signature(want)
        assert want.stage == "state check"


def _single_process_csv(log, path):
    """The one-process writer `ScenarioLog.to_csv` replaced: the oracle."""
    columns = (log.t, log.states, log.inputs, log.wind, log.att_ref,
               log.estimates)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LOG_COLUMNS + "\n")
        for start in range(0, log.t.size, CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            rows = np.column_stack([c[block] for c in columns]).tolist()
            flags = log.sat_flags[block].astype(int).tolist()
            fh.writelines(f"{','.join(map(repr, row))},{bits}\n"
                          for row, bits in zip(rows, flags))


def _random_log(n, seed=3):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((n, 29)) * 10.0 ** rng.integers(-20, 20,
                                                              (n, 29))
    special = np.array([-0.0, 5e-324, 1e16, 1e-5, 3.0, 0.1, math.inf,
                        math.nan])
    pick = rng.random((n, 29)) < 0.2
    vals[pick] = rng.choice(special, size=int(pick.sum()))
    return ScenarioLog(t=vals[:, 0], states=vals[:, 1:16],
                       inputs=vals[:, 16:20], wind=vals[:, 20:23],
                       att_ref=vals[:, 23:26], estimates=vals[:, 26:29],
                       sat_flags=rng.integers(0, 128, n), config=ScenarioConfig())


def _assert_csv_is_the_oracles(log, tmp_path):
    log.to_csv(tmp_path / "log.csv")
    _single_process_csv(log, tmp_path / "oracle.csv")
    _assert_no_child_left()
    assert ((tmp_path / "log.csv").read_bytes()
            == (tmp_path / "oracle.csv").read_bytes())


@pytest.fixture
def fork_calls(monkeypatch):
    calls = []
    fork = os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.fixture
def csv_ranges(monkeypatch):
    """The `(start, stop)` of every `ScenarioLog._csv_blocks` call made in
    this process; a forked child appends to its own copy of the list."""
    ranges = []
    blocks = ScenarioLog._csv_blocks

    def recorded(self, start, stop):
        ranges.append((start, stop))
        return blocks(self, start, stop)

    monkeypatch.setattr(ScenarioLog, "_csv_blocks", recorded)
    return ranges


@pytest.fixture
def child_csv_blocks(monkeypatch):
    """Replaces `ScenarioLog._csv_blocks` in a forked child only, by the
    generator `replace(blocks)` makes from the child's own blocks."""
    parent = os.getpid()
    blocks = ScenarioLog._csv_blocks

    def install(replace_blocks):
        def patched(self, start, stop):
            if os.getpid() == parent:
                return blocks(self, start, stop)
            return replace_blocks(blocks(self, start, stop))
        monkeypatch.setattr(ScenarioLog, "_csv_blocks", patched)
    return install


class TestParallelCsv:
    """`ScenarioLog.to_csv` formats the second half of the rows in a forked
    child; the file is the one-process writer's, byte for byte."""

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2048, 2049])
    def test_bytes_equal_single_process(self, tmp_path, n):
        _assert_csv_is_the_oracles(_random_log(n), tmp_path)

    def test_full_hover_climb_log(self, params, artifacts, tmp_path):
        log, _ = run_scenario(builtin_scenario("paper-hover-climb", seed=2026),
                              params, artifacts)
        assert log.t.size == 30001
        _assert_csv_is_the_oracles(log, tmp_path)

    @pytest.mark.parametrize("n, mid", [
        (1, None), (1024, None), (1025, 1024), (2049, 1024), (3073, 2048),
        (30001, 15360)])
    def test_split_at_block_boundary_nearest_half(self, tmp_path, csv_ranges,
                                                  fork_calls, n, mid):
        _random_log(n).to_csv(tmp_path / "log.csv")
        _assert_no_child_left()
        assert csv_ranges == [(0, n if mid is None else mid)]
        assert len(fork_calls) == (0 if mid is None else 1)

    def test_fork_failure_writes_here(self, tmp_path, monkeypatch):
        def no_fork():
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        _assert_csv_is_the_oracles(_random_log(2049), tmp_path)

    def test_failing_child_is_redone_here(self, tmp_path, child_csv_blocks):
        def failing(blocks):
            yield next(blocks)
            raise RuntimeError("injected child failure")

        child_csv_blocks(failing)
        _assert_csv_is_the_oracles(_random_log(4100), tmp_path)

    def test_short_child_output_is_cut_and_redone(self, tmp_path,
                                                  child_csv_blocks):
        # the child sends one block of its two, then exits with status 0;
        # those rows are copied into the file, then cut off again
        child_csv_blocks(lambda blocks: [next(blocks)])
        _assert_csv_is_the_oracles(_random_log(4100), tmp_path)

    def test_long_child_output_is_cut_and_redone(self, tmp_path,
                                                 child_csv_blocks):
        child_csv_blocks(lambda blocks: [*blocks, b"1.0,2\n" * 3])
        _assert_csv_is_the_oracles(_random_log(4100), tmp_path)

    def test_child_exiting_non_zero_is_redone_here(self, tmp_path,
                                                   monkeypatch, csv_ranges):
        # the child sends every row, then leaves with status 3
        parent = os.getpid()
        leave = os._exit
        monkeypatch.setattr(
            os, "_exit", lambda status: leave(3 if os.getpid() != parent
                                              else status))
        _assert_csv_is_the_oracles(_random_log(2049), tmp_path)
        assert csv_ranges == [(0, 1024), (1024, 2049)]

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_path_raises_as_before(self, tmp_path, fork_calls,
                                              where):
        path = tmp_path if where == "directory" else tmp_path / "no" / "x.csv"
        log = _random_log(2049)
        with pytest.raises(OSError) as want:
            _single_process_csv(log, path)
        with pytest.raises(OSError) as got:
            log.to_csv(path)
        _assert_no_child_left()
        assert len(fork_calls) == 1
        assert type(got.value) is type(want.value)
        assert got.value.errno == want.value.errno


@st.composite
def reference_runs(draw):
    """Time-ordered reference segments and step times, with some segment
    starts exactly on a step time."""
    dt = draw(st.sampled_from([0.0005, 0.001, 0.002, 0.003, 0.01, 0.02]))
    n = draw(st.integers(1, 2000))
    starts = set()
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            starts.add(draw(st.integers(0, n)) * dt)
        else:
            starts.add(draw(st.floats(-0.5, n * dt + 0.5)))
    coord = st.floats(-20.0, 20.0)
    segments = tuple(
        ReferenceSegment(t_start=t0,
                         p0=np.array([draw(coord) for _ in range(3)]),
                         v=np.array([draw(coord) for _ in range(3)]),
                         psi=draw(coord))
        for t0 in sorted(starts))
    return segments, np.arange(n + 1) * dt


@settings(deadline=None, max_examples=60)
@given(reference_runs())
def test_reference_table_equals_reference_at(run):
    segments, times = run
    p_ref, v_ref, psi_ref = reference_table(segments, times)
    for k, t in enumerate(times):
        p_at, v_at, psi_at = reference_at(segments, t)
        assert list(p_ref[k]) == list(p_at)
        assert np.array_equal(v_ref[k], v_at)
        assert psi_ref[k] == psi_at
