"""Linear closed-loop oracle for the scenario loop.

The hinf loop of `run_scenario` is written out here in numpy over the
15-state central-difference Jacobians of the plant at trim: the measured
deviations, the state estimate, the control law with the synthesized F,
one RK4 step of the linear model under the scenario's own wind table, and
the observer's zero-order-hold step.  Under a small body gust of amplitude
eps the nonlinear run differs from this linear loop only by the model's
second-order terms, so the difference shrinks ~4x when eps halves.  Per-module
oracles cannot see a swapped index or a stale term in the wiring; this one
can.

Cases, each with the outer loop off, the attitude reference at trim, a
(eps, eps, 0) m/s body gust from 0.5 to 2 s, 4 s long, no mean wind or
turbulence:
- hinf, with the observer and the synthesized F;
- PID, whose integrators stay inside `int_limit` and whose servo commands
  stay inside the clamp, so the loop is linear too.
"""
import numpy as np
import pytest

from heli import Gust, ScenarioConfig, WindModel, run_scenario
from heli.state import MEASURED_STATES

from oracles import state_derivative

EPS = 0.1
DURATION = 4.0
ATTITUDE = slice(6, 12)   # phi, theta, psi, p, q, r in the flat state
# largest attitude-block error at EPS / 2 is 3.97e-8 rad or rad/s (measured,
# Python 3.11, numpy 2.4.6); the bound leaves a margin of 1.5x
ERROR_BOUND = 6e-8
# the same for PID: 2.62e-7 measured, a margin of 1.5x
PID_ERROR_BOUND = 4e-7


def _gust_scenario(eps: float, controller: str = "hinf") -> ScenarioConfig:
    wind = WindModel(gusts=(Gust(0.5, 2.0, np.array([eps, eps, 0.0])),))
    return ScenarioConfig(name="oracle-gust", duration=DURATION, dt=0.002,
                          controller=controller, wind=wind)


def _central_columns(fun, base, step=1e-5):
    columns = []
    for j in range(base.size):
        h = step * max(1.0, abs(base[j]))
        plus, minus = base.copy(), base.copy()
        plus[j] += h
        minus[j] -= h
        columns.append((fun(plus) - fun(minus)) / (2.0 * h))
    return np.column_stack(columns)


@pytest.fixture(scope="module")
def linear_model(params, trim):
    """(f0, A, B, E): the plant derivative at trim and its Jacobians with
    respect to the 15 states, 4 inputs and 3 body-axis wind components."""
    x0, u0, w0 = trim.state.as_vector(), trim.inputs.as_vector(), np.zeros(3)
    f0 = state_derivative(x0, u0, w0, params)
    a = _central_columns(lambda x: state_derivative(x, u0, w0, params), x0)
    b = _central_columns(lambda u: state_derivative(x0, u, w0, params), u0)
    e = _central_columns(lambda w: state_derivative(x0, u0, w, params), w0)
    return f0, a, b, e


def _linear_loop(model, artifacts, winds, dt, intended):
    """Deviation states of the loop on the linear model, one row per step.

    Per step, as `run_scenario` documents: measure, estimate, apply the
    control law, log, one RK4 step with input and wind held, one observer
    step on the same held measurements.  The as-implemented estimate is the
    observer's last output, x_obs(k) + K y(k-1); the intended one is
    x_obs(k) + K y(k).
    """
    f0, a, b, e = model
    f_gain = artifacts.synthesis.f
    phi, gamma_b, gamma_h, k_obs = (
        np.array(m) for m in artifacts.observer.discretize(dt))

    def rate(dx, du, w):
        return f0 + a @ dx + b[:, 0:3] @ du + e @ w

    dx = np.zeros(15)
    x_obs = np.zeros(3)
    estimate = np.zeros(3)
    rows = np.empty((len(winds), 15))
    for k, w in enumerate(winds):
        y = dx[MEASURED_STATES]
        z = x_obs + k_obs @ y if intended else estimate
        x_hat = np.array([y[0], y[1], y[2], y[3], z[0], z[1], y[4], z[2], y[5]])
        du = f_gain @ x_hat   # the attitude reference is the trim attitude
        rows[k] = dx
        k1 = rate(dx, du, w)
        k2 = rate(dx + 0.5 * dt * k1, du, w)
        k3 = rate(dx + 0.5 * dt * k2, du, w)
        k4 = rate(dx + dt * k3, du, w)
        dx = dx + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x_obs = phi @ x_obs + gamma_b @ y + gamma_h @ du
        estimate = x_obs + k_obs @ y
    return rows


@pytest.fixture(scope="module")
def runs(params, trim, artifacts, linear_model):
    """eps -> (logged, as-implemented oracle, intended oracle): deviation
    rows of the attitude block."""
    out = {}
    for eps in (EPS, EPS / 2):
        cfg = _gust_scenario(eps)
        log, _ = run_scenario(cfg, params, artifacts)
        assert not np.any(log.sat_flags)   # no clamp: the loop stays linear
        logged = (log.states - trim.state.as_vector())[:, ATTITUDE]
        out[eps] = (logged,) + tuple(
            _linear_loop(linear_model, artifacts, log.wind, cfg.dt,
                         intended)[:, ATTITUDE]
            for intended in (False, True))
    return out


def _max_error(runs, eps, intended=False):
    logged, *oracles = runs[eps]
    oracle = oracles[1] if intended else oracles[0]
    return float(np.max(np.abs(logged - oracle)))


def test_error_shrinks_with_the_square_of_the_gust(runs):
    # second-order remainder: 3.99999 measured
    ratio = _max_error(runs, EPS) / _max_error(runs, EPS / 2)
    assert 3.9 <= ratio <= 4.1


def test_loop_matches_linear_oracle(runs):
    # 1.59e-7 at EPS and 3.97e-8 at EPS / 2, against a response of 1.3e-3
    assert _max_error(runs, EPS / 2) < ERROR_BOUND


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="run_scenario hands control_law the stale estimate "
                          "x_obs(k) + K y(k-1): 2.6 % of the response apart")
def test_loop_matches_intended_estimate(runs):
    assert _max_error(runs, EPS / 2, intended=True) < ERROR_BOUND


def _linear_pid_loop(model, gains, winds, dt):
    """Deviation states of the PID loop on the linear model, one row per step.

    Per step, as `PidAttitudeController.step` documents: the attitude error
    about the trim reference, the integrators advanced by error * dt (their
    clamp never acts here), the three axis laws with derivative action on
    the measured rates p and q, then one RK4 step with input and wind held.
    The collective stays at trim.
    """
    f0, a, b, e = model
    kp = np.array([gains.roll_kp, gains.pitch_kp, gains.yaw_kp])
    ki = np.array([gains.roll_ki, gains.pitch_ki, gains.yaw_ki])
    kd = np.array([gains.roll_kd, gains.pitch_kd, 0.0])

    def rate(dx, du, w):
        return f0 + a @ dx + b[:, 0:3] @ du + e @ w

    dx = np.zeros(15)
    integral = np.zeros(3)
    rows = np.empty((len(winds), 15))
    for k, w in enumerate(winds):
        err = -dx[6:9]               # phi, theta, psi against the trim attitude
        integral = integral + err * dt
        du = kp * err + ki * integral - kd * dx[9:12]
        rows[k] = dx
        k1 = rate(dx, du, w)
        k2 = rate(dx + 0.5 * dt * k1, du, w)
        k3 = rate(dx + 0.5 * dt * k2, du, w)
        k4 = rate(dx + dt * k3, du, w)
        dx = dx + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rows


@pytest.fixture(scope="module")
def pid_runs(params, trim, artifacts, linear_model):
    """eps -> (logged, oracle): deviation rows of the attitude block."""
    gains = artifacts.pid_gains
    out = {}
    for eps in (EPS, EPS / 2):
        cfg = _gust_scenario(eps, "pid")
        log, _ = run_scenario(cfg, params, artifacts)
        assert not np.any(log.sat_flags)   # no clamp: the loop stays linear
        # the integrators, rebuilt from the log, never reach their clamp
        errors = log.att_ref - log.states[:, 6:9]
        assert np.max(np.abs(np.cumsum(errors * cfg.dt, axis=0))) \
            < gains.int_limit
        logged = (log.states - trim.state.as_vector())[:, ATTITUDE]
        out[eps] = (logged, _linear_pid_loop(linear_model, gains, log.wind,
                                             cfg.dt)[:, ATTITUDE])
    return out


def test_pid_error_shrinks_with_the_square_of_the_gust(pid_runs):
    # second-order remainder: 4.00003 measured
    ratio = _max_error(pid_runs, EPS) / _max_error(pid_runs, EPS / 2)
    assert 3.9 <= ratio <= 4.1


def test_pid_loop_matches_linear_oracle(pid_runs):
    # 1.05e-6 at EPS and 2.62e-7 at EPS / 2, against a response of 1.8e-3
    assert _max_error(pid_runs, EPS / 2) < PID_ERROR_BOUND
