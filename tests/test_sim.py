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
    build_design,
    builtin_names,
    find_trim,
    builtin_scenario,
    compare_controllers,
    compute_metrics,
    design_reduced_observer,
    linearize,
    rk4_step,
    run_scenario,
    synthesize,
)
from heli.config import ToolkitConfig
from heli.dynamics import (
    _state_derivative_flat,
    plant_constants,
    yaw_gyro_law,
)
from heli.errors import HeliError
from heli.sim import (
    CSV_BLOCK_ROWS,
    LOG_COLUMNS,
    LOG_WIDTH,
    ComparisonReport,
    ScenarioConfig,
    ScenarioLog,
    _reference_rows,
    _segment_arrays,
    _step_rows,
    reference_at,
    settled_mask,
)
from heli.state import (
    INPUT_LABELS,
    MEASURED_STATES,
    REFERENCE_LABELS,
    SAT_DCOL,
    SAT_GYRO,
    SAT_TILT,
    STATE_LABELS,
)

from oracles import read_log_csv, reference_table, state_derivative
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


B = CSV_BLOCK_ROWS
STEP_DT = 0.002


def _step_segments(seed=5, still=2):
    """Reference segments that start inside the first, second and third
    blocks of steps of STEP_DT, none on a step time; segment `still` has
    zero velocity."""
    rng = np.random.default_rng(seed)
    starts = (0.0, (B // 3) * STEP_DT + 0.0007, (B + 7) * STEP_DT + 0.0013,
              (2 * B + B // 2) * STEP_DT + 0.0001)
    return tuple(ReferenceSegment(t0, rng.standard_normal(3),
                                  np.zeros(3) if k == still
                                  else rng.standard_normal(3),
                                  float(rng.standard_normal()))
                 for k, t0 in enumerate(starts))


def _step_inputs(n, seed=5):
    """A wind table of n rows, with a negative zero, an inf and a NaN in its
    last row, the n step times and `_step_segments`."""
    rng = np.random.default_rng(seed)
    wind = rng.standard_normal((n, 3))
    wind[-1] = (-0.0, math.inf, math.nan)
    return wind, np.arange(n) * STEP_DT, _step_segments(seed)


class TestStepRows:
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B - 1, 2 * B,
                                   2 * B + 1, 4 * B + 1, 30001])
    def test_rows_are_each_tables_rows(self, n):
        wind, times, segments = _step_inputs(n)
        rows = list(_step_rows(wind, times, _segment_arrays(segments)))
        assert len(rows) == n
        refs = _reference_rows(_segment_arrays(segments), times)
        for got, want in zip(refs, reference_table(segments, times)):
            assert got.tobytes() == want.tobytes()
        tables = (times, wind, *refs)
        for column, table in zip(zip(*rows), tables):
            assert np.array(column).tobytes() == table.tobytes()
            values = column if table.ndim == 1 else [v for r in column
                                                     for v in r]
            assert {type(v) for v in values} == {float}

    @pytest.mark.parametrize("n", [1, 2 * B + 1])
    def test_missing_tables_give_none(self, n):
        wind, times, _ = _step_inputs(n)
        rows = list(_step_rows(wind, times, None))
        assert [r[2:] for r in rows] == [(None, None, None)] * n
        assert np.array([r[0] for r in rows]).tobytes() == times.tobytes()
        assert np.array([r[1] for r in rows]).tobytes() == wind.tobytes()

    def test_holds_about_one_block(self):
        wind, times, segments = _step_inputs(30001)
        tracemalloc.start()
        try:
            block = [a.tolist() for a in (
                times[:B], wind[:B],
                *_reference_rows(_segment_arrays(segments), times[:B]))]
            block_bytes = tracemalloc.get_traced_memory()[0]
            del block
            tracemalloc.reset_peak()
            rows = _step_rows(wind, times, _segment_arrays(segments))
            for _ in range(5):
                next(rows)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole wind and reference tables would be ~60 blocks
        assert held < 1.5 * block_bytes
        assert peak < 1.5 * block_bytes


def _full_array_metrics(t, states, att_ref, config):
    """`compute_metrics` as it was written over whole-run tables, with the
    (n, 3, 3) rotation stack: the oracle for the per-block metrics."""
    t, states, att_ref = map(np.asarray, (t, states, att_ref))
    phi_err = states[:, 6] - att_ref[:, 0]
    theta_err = states[:, 7] - att_ref[:, 1]
    max_phi = float(np.max(np.abs(phi_err))) * 180.0 / math.pi
    max_theta = float(np.max(np.abs(theta_err))) * 180.0 / math.pi
    if not config.references:
        return heli.sim.MetricsReport(max_phi, max_theta, np.zeros(3),
                                      np.zeros(3), 0.0, 0.0)
    p_ref, v_ref, _ = reference_table(config.references, t)
    rot = heli.sim._rotation_rows(states[:, 6], states[:, 7], states[:, 8])
    v_ned = np.einsum("nij,nj->ni", rot, states[:, 3:6])
    vel_err = v_ned - v_ref
    pos_err = states[:, 0:3] - p_ref
    mask = settled_mask(t, config)
    if not np.any(mask):
        mask = np.ones_like(t, dtype=bool)
    ve = vel_err[mask]
    rms = np.sqrt(np.mean(ve ** 2, axis=0))
    vmax = np.max(np.abs(ve), axis=0)
    hover = mask & np.all(v_ref == 0.0, axis=1)
    if not np.any(hover):
        hover = mask
    pe = pos_err[hover]
    horiz = float(np.max(np.hypot(pe[:, 0], pe[:, 1])))
    alt = float(np.max(np.abs(pe[:, 2])))
    return heli.sim.MetricsReport(max_phi, max_theta, rms, vmax, horiz, alt)


def _metrics_log(n, still=3, seed=8):
    """Times, states and attitude references of n random rows, and a
    scenario whose reference segments and gust edges fall inside blocks."""
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((n, 15)) * 10.0 ** rng.integers(-3, 2,
                                                                (n, 15))
    att_ref = rng.standard_normal((n, 3)) * 0.1
    gusts = (Gust((B + 100) * STEP_DT + 0.0005, 5.0003, np.ones(3)),
             Gust(20.0011, 22.5007, np.ones(3)))
    cfg = ScenarioConfig(duration=60.0, dt=STEP_DT,
                         references=_step_segments(seed, still),
                         wind=WindModel(gusts=gusts))
    return np.arange(n) * STEP_DT, states, att_ref, cfg


class TestBlockMetrics:
    """`compute_metrics` builds reference rows and rotations per block."""

    @staticmethod
    def _assert_oracles_bits(t, states, att_ref, cfg):
        got = compute_metrics(t, states, att_ref, cfg)
        want = _full_array_metrics(t, states, att_ref, cfg)
        for name in want._fields:
            assert (np.asarray(getattr(got, name)).tobytes()
                    == np.asarray(getattr(want, name)).tobytes()), name

    @pytest.mark.parametrize("still", [2, 3])
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 1, 30001])
    def test_bits_equal_full_array_metrics(self, n, still):
        # logs of up to 2B + 1 rows have no settled row, and segment 2 is
        # never settled: each mask fallback is taken
        self._assert_oracles_bits(*_metrics_log(n, still))

    def test_without_outer_loop(self):
        t, states, att_ref, cfg = _metrics_log(B + 1)
        self._assert_oracles_bits(t, states, att_ref,
                                  replace(cfg, references=()))

    def test_peak_memory_is_its_error_arrays_and_a_few_blocks(self):
        t, states, att_ref, cfg = _metrics_log(30001)
        n = t.size
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            compute_metrics(t, states, att_ref, cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # four (n, 3) float arrays: the velocity and position errors, the
        # settled velocity errors and their squares; eight (n,) masks; and
        # four blocks of 15 columns as per-block scratch.  Whole-run
        # reference tables or a rotation stack take several MB more.
        kept = 4 * n * 3 * 8 + 8 * n
        assert peak < kept + 4 * B * 15 * 8


class TestScenarioValidation:
    def test_builtin_names_available(self):
        assert "paper-hover-climb" in builtin_names()
        assert "gust-attitude-hold" in builtin_names()

    @pytest.mark.parametrize("name", builtin_names())
    def test_builtin_outer_loop_follows_references(self, name):
        # the outer loop flies exactly the built-ins with reference segments
        cfg = builtin_scenario(name)
        outer = {"paper-hover-climb": True, "step-offset": True,
                 "gust-attitude-hold": False, "hover-hold": False}
        assert bool(cfg.references) == outer[name]
        assert cfg.att_ref is None

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
            run_scenario(cfg, params, SimArtifacts(trim, None, None))

    def test_every_controller_requires_the_whole_design(self, params, trim):
        # the observer runs under pid and open loop too
        cfg = builtin_scenario("gust-attitude-hold", seed=0)
        cfg.duration = 0.1
        for controller in ("pid", "open_loop"):
            cfg.controller = controller
            with pytest.raises(ConfigError, match="synthesis and observer"):
                run_scenario(cfg, params, SimArtifacts(trim, None, None))

    @pytest.mark.parametrize("scenario, controller, field, gains", [
        # the collective would sit at -0.5 with SAT_DCOL on every step
        ("paper-hover-climb", "hinf", "outer_gains",
         OuterGains(col_limit=-0.5)),
        # every PID integrator would sit at -0.35 after one step
        ("gust-attitude-hold", "pid", "pid_gains",
         PidGains(int_limit=-0.35)),
        # an infinite or NaN gain would stop the run as a SimulationAbort on
        # the first non-finite state
        ("paper-hover-climb", "hinf", "outer_gains",
         OuterGains(kp_z=math.inf)),
        ("paper-hover-climb", "hinf", "outer_gains",
         OuterGains(kd_x=math.inf)),
        ("gust-attitude-hold", "pid", "pid_gains",
         PidGains(roll_kp=math.nan)),
        ("gust-attitude-hold", "pid", "pid_gains",
         PidGains(pitch_kd=math.inf)),
    ])
    def test_bad_artifact_gains_rejected(self, params, artifacts, scenario,
                                         controller, field, gains):
        cfg = builtin_scenario(scenario, seed=0)
        cfg.controller = controller
        cfg.duration = 0.1
        with pytest.raises(ConfigError, match=f"artifacts.{field}"):
            run_scenario(cfg, params, artifacts._replace(**{field: gains}))

    def test_nan_outer_gain_rejected_before_run(self, params, artifacts):
        # a NaN gain would pass a `< 0.0` test and stop the run as a
        # SimulationAbort on the first non-finite state
        cfg = builtin_scenario("paper-hover-climb", seed=0)
        cfg.duration = 0.1
        with pytest.raises(ConfigError, match="artifacts.outer_gains"):
            run_scenario(cfg, params,
                         artifacts._replace(outer_gains=OuterGains(kp_z=math.nan)))

    def test_pid_gains_validate(self):
        assert PidGains(int_limit=0.0).validate() == PidGains(int_limit=0.0)
        for bad in (-0.35, math.nan):
            with pytest.raises(ValueError, match="int_limit"):
                PidGains(int_limit=bad).validate()
        for name in PidGains._fields[:-1]:  # every gain before int_limit
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError,
                                   match=f"^pid gain {name} must be finite$"):
                    PidGains(**{name: bad}).validate()


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
        log = ScenarioLog(vals, flags)
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

    def test_midrun_error_aborts_with_step_time_and_stage(self, params, trim,
                                                          artifacts):
        # forced pitch-up: theta crosses pi/2 inside the second RK4 step
        x = trim.state.as_vector().copy()
        x[7], x[10] = 1.50, 20.0
        pitched = TrimPoint.from_vectors(x, trim.inputs.as_vector(), params)
        cfg = builtin_scenario("hover-hold", seed=2)
        cfg.controller = "open_loop"
        cfg.duration = 2.0
        with pytest.raises(SimulationAbort) as info:
            run_scenario(cfg, params, artifacts._replace(trim=pitched))
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
        _, artifacts, _, _ = build_design(ToolkitConfig(params=par))
        trim = artifacts.trim
        cfg = replace(builtin_scenario("gust-attitude-hold", seed=2026),
                      controller="pid", duration=5.0,
                      att_ref=np.array([*trim.h_out_trim[0:2], 1.5]))
        log, _ = run_scenario(cfg, par, artifacts)
        logged = (log.sat_flags & SAT_GYRO) != 0
        law = [yaw_gyro_law(x[14], u[2], x[11], par.ka_g, par.kp_g,
                            par.ki_g)[2]
               for x, u in zip(log.states.tolist(), log.inputs.tolist())]
        assert logged.tolist() == law
        assert np.count_nonzero(logged) == fired

    def test_reference_rows_built_one_block_at_a_time(self, params,
                                                      artifacts, monkeypatch):
        # the loop and then the metrics each cover the run's times once,
        # each from segment arrays it builds
        calls, built = [], []
        rows = heli.sim._reference_rows
        arrays = heli.sim._segment_arrays

        def recorded(segments, t):
            calls.append(np.array(t))
            return rows(segments, t)

        def counted(segments):
            built.append(segments)
            return arrays(segments)

        monkeypatch.setattr(heli.sim, "_reference_rows", recorded)
        monkeypatch.setattr(heli.sim, "_segment_arrays", counted)
        cfg = builtin_scenario("step-offset", seed=3)
        cfg.duration = 3.0
        log, _ = run_scenario(cfg, params, artifacts)
        assert log.t.size > 2 * CSV_BLOCK_ROWS
        assert max(c.size for c in calls) <= CSV_BLOCK_ROWS
        assert (np.concatenate(calls).tobytes()
                == np.concatenate([log.t, log.t]).tobytes())
        assert built == [cfg.references, cfg.references]


class TestCompare:
    def test_self_comparison_is_unity(self, params, artifacts):
        cfg = builtin_scenario("gust-attitude-hold", seed=21)
        cfg.duration = 5.0
        _, metrics = run_scenario(cfg, params, artifacts)
        report = ComparisonReport(metrics, metrics)
        for key, value in report.ratios().items():
            if not math.isnan(value):
                assert value == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_denominator_reported_na(self, params, artifacts):
        cfg = builtin_scenario("hover-hold", seed=1)
        cfg.duration = 2.0
        _, metrics = run_scenario(cfg, params, artifacts)
        table = ComparisonReport(metrics, metrics).table()
        assert "n/a" in table

    def test_shared_wind_between_runs(self, params, artifacts):
        cfg = builtin_scenario("gust-attitude-hold", seed=13)
        cfg.duration = 2.0
        _, log_a, log_b = compare_controllers(cfg, params, artifacts)
        assert np.array_equal(log_a.wind, log_b.wind)

    def test_both_controllers_fly_the_trim_collective(self):
        # a 20 kg design trims at a collective of ~1.62, outside the servo
        # range; with the outer loop off no clamp owns the collective, so
        # the pid run flies it unclamped, as the hinf run does.  The design
        # is built from the stages: `build_design` rejects such a trim
        params = HelicopterParams(m=20.0)
        plant = linearize(params, find_trim(params))
        result, _, _ = synthesize(plant)
        artifacts = SimArtifacts(plant.trim, result,
                                 design_reduced_observer(plant))
        col_trim = artifacts.trim.inputs.delta_col
        assert col_trim > 1.0
        cfg = builtin_scenario("gust-attitude-hold", seed=2026)
        cfg.duration = 2.0
        assert not cfg.references
        _, log_a, log_b = compare_controllers(cfg, params, artifacts)
        for log in (log_a, log_b):
            assert np.all(log.inputs[:, 3] == col_trim)
            assert not np.any(log.sat_flags & SAT_DCOL)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_same_log(log, expected):
    for name in ("table", "sat_flags"):
        got, want = getattr(log, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


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


@pytest.fixture
def hinf_fails_at_step_8(monkeypatch):
    """Every hinf run raises a HeliError at loop step 8; a forked run
    inherits the patch."""
    law = heli.sim.control_law
    calls = []

    def failing_law(*args):
        calls.append(None)
        if len(calls) > 8:
            calls.clear()  # the run ends here; the next one counts afresh
            raise HeliError("injected hinf failure")
        return law(*args)

    monkeypatch.setattr(heli.sim, "control_law", failing_law)


# controller: (the fixture that makes its runs fail, the step they fail at)
_FAILING = {"hinf": ("hinf_fails_at_step_8", 8),
            "pid": ("pid_fails_at_step_5", 5)}


_LOG_FIELDS = {
    "t": ["t"], "states": list(STATE_LABELS), "inputs": list(INPUT_LABELS),
    "wind": ["wind_u", "wind_v", "wind_w"], "att_ref": list(REFERENCE_LABELS),
    "estimates": ["est_a_s", "est_b_s", "est_dped"]}


class TestLogTable:
    """A log is one C-contiguous table of float columns in `LOG_COLUMNS`
    order, and its named arrays are views of it."""

    @pytest.mark.parametrize("controller", ["hinf", "pid", "open_loop"])
    def test_arrays_are_views_of_one_table(self, params, artifacts,
                                           tmp_path, controller):
        cfg = builtin_scenario("paper-hover-climb", seed=11)
        cfg.controller = controller
        cfg.duration = 1.5
        log, _ = run_scenario(cfg, params, artifacts)
        n = log.t.size
        header = LOG_COLUMNS.split(",")
        assert header[-1] == "sat_flags" and len(header) == LOG_WIDTH + 1
        assert log.table.shape == (n, LOG_WIDTH) == (751, 29)
        assert log.table.dtype == np.float64
        assert log.table.flags.c_contiguous
        for name, labels in _LOG_FIELDS.items():
            view = getattr(log, name)
            assert view.base is log.table, name
            cols = [header.index(label) for label in labels]
            want = log.table[:, cols[0]] if name == "t" else log.table[:, cols]
            assert cols == list(range(cols[0], cols[0] + len(cols))), name
            assert view.shape == want.shape, name
            assert view.tobytes() == want.tobytes(), name
            with pytest.raises(AttributeError):
                setattr(log, name, view)
        assert log.sat_flags.shape == (n,)
        assert log.t.tobytes() == (np.arange(n) * cfg.dt).tobytes()
        _assert_csv_is_the_oracles(log, tmp_path)

    def test_flags_are_those_of_each_step(self, params, artifacts,
                                          monkeypatch):
        # no clamp fires in this stretch of the run, but the tilt clamp
        # reports saturation on every third step and the collective clamp
        # on every fifth: a step's flags are stored when set, whichever
        # bits they are, and stay zero when not
        cfg = builtin_scenario("paper-hover-climb", seed=11)
        cfg.duration = 0.2
        log, _ = run_scenario(cfg, params, artifacts)
        assert not np.any(log.sat_flags)

        def reporting(law, every):
            calls = []

            def wrapped(*args):
                *out, _ = law(*args)
                calls.append(None)
                return (*out, len(calls) % every == 1)
            return wrapped

        monkeypatch.setattr(heli.sim, "horizontal_control",
                            reporting(heli.sim.horizontal_control, 3))
        monkeypatch.setattr(heli.sim, "altitude_control",
                            reporting(heli.sim.altitude_control, 5))
        flagged, _ = run_scenario(cfg, params, artifacts)
        steps = np.arange(log.t.size)
        assert flagged.sat_flags.dtype == np.dtype(int)
        assert np.array_equal(flagged.sat_flags,
                              np.where(steps % 3 == 0, SAT_TILT, 0)
                              | np.where(steps % 5 == 0, SAT_DCOL, 0))
        assert flagged.table.tobytes() == log.table.tobytes()


class TestParallelCompare:
    """`compare_controllers` runs hinf in a forked child and pid here."""

    @pytest.mark.parametrize("scenario", [
        "gust-attitude-hold", "hover-hold", "step-offset"])
    def test_equals_two_direct_runs(self, params, artifacts, scenario):
        cfg = builtin_scenario(scenario, seed=2026)
        cfg.duration = 2.0
        report, log_a, log_b = compare_controllers(cfg, params, artifacts)
        _assert_no_child_left()
        for log, metrics, controller in ((log_a, report.metrics_a, "hinf"),
                                         (log_b, report.metrics_b, "pid")):
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

    @pytest.mark.parametrize("how", ["short table", "no flags", "raises"])
    def test_bad_child_log_is_rerun_here(self, params, artifacts,
                                         monkeypatch, how):
        # the child's log is cut short, or its run fails after the loop;
        # either way the first run is redone here
        parent = os.getpid()
        run = heli.sim.run_scenario

        def bad_child(*args):
            log, metrics = run(*args)
            if os.getpid() != parent:
                if how == "raises":
                    raise RuntimeError("injected child failure")
                table, flags = log.table, log.sat_flags
                if how == "short table":
                    table = table[:-1]
                else:
                    flags = flags[:0]
                log = ScenarioLog(table, flags)
            return log, metrics

        monkeypatch.setattr(heli.sim, "run_scenario", bad_child)
        cfg = builtin_scenario("paper-hover-climb", seed=5)
        cfg.duration = 0.5
        report, log_a, log_b = compare_controllers(cfg, params, artifacts)
        _assert_no_child_left()
        for log, metrics, controller in ((log_a, report.metrics_a, "hinf"),
                                         (log_b, report.metrics_b, "pid")):
            want_log, want_metrics = run(replace(cfg, controller=controller),
                                         params, artifacts)
            _assert_same_log(log, want_log)
            _assert_same_metrics(metrics, want_metrics)

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

    # the controllers whose runs fail: the forked child's alone, this
    # process's alone, or both, where the hinf run fails later in simulated
    # time than the pid run and its error still wins
    @pytest.mark.parametrize("controllers", [
        ("hinf",), ("pid",), ("hinf", "pid")])
    def test_error_is_the_sequential_one(self, params, artifacts, request,
                                         controllers):
        for controller in controllers:
            request.getfixturevalue(_FAILING[controller][0])
        cfg = builtin_scenario("gust-attitude-hold", seed=5)
        cfg.duration = 0.5
        want = _sequential_error(cfg, params, artifacts, ("hinf", "pid"))
        with pytest.raises(SimulationAbort) as got:
            compare_controllers(cfg, params, artifacts)
        _assert_no_child_left()
        assert _error_signature(got.value) == _error_signature(want)
        assert (want.step, want.stage) == (_FAILING[controllers[0]][1],
                                           "inner loop")

    def test_first_runs_error_wins(self, params, artifacts,
                                   pid_fails_at_step_5):
        # the forked hinf run goes non-finite at step 1 while the PID run
        # here fails at step 5; sequential runs raise the hinf error
        nan_gains = artifacts.synthesis._replace(
            g=artifacts.synthesis.g * math.nan)
        broken = artifacts._replace(synthesis=nan_gains)
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
    return ScenarioLog(vals, rng.integers(0, 128, n))


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
        (1, None), (512, None), (513, 512), (1024, 512), (1025, 512),
        (2049, 1024), (3073, 1536), (30001, 14848)])
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
    _assert_table_is_reference_at(segments, times)


@settings(deadline=None, max_examples=60)
@given(reference_runs(), st.randoms(use_true_random=False))
def test_reference_table_equals_reference_at_out_of_order(run, rnd):
    # `reference_at` stops at the first segment not yet started, whatever
    # the order; the table searches the running maximum of the starts
    segments, times = run
    segments = list(segments)
    rnd.shuffle(segments)
    _assert_table_is_reference_at(segments, times)


def _assert_table_is_reference_at(segments, times):
    p_ref, v_ref, psi_ref = _reference_rows(_segment_arrays(segments), times)
    for k, t in enumerate(times):
        p_at, v_at, psi_at = reference_at(segments, t)
        assert list(p_ref[k]) == list(p_at)
        assert np.array_equal(v_ref[k], v_at)
        assert psi_ref[k] == psi_at
