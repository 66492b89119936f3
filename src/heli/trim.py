"""Hover trim and linearization of the attitude dynamics.

The linear design model is laid out in `heli.state`: nine states in the
order `MODEL_STATE_LABELS`,

    [phi, theta, p, q, a_s, b_s, r, dped, psi]

where `dped` is the tail servo command produced by the yaw-rate PI loop.
The nonlinear plant stores the loop's integrator xi instead, and
`MODEL_STATES` maps the dped slot to xi's flat row, so the model is obtained
by an affine change of coordinates after numerical differentiation.
Each Jacobian, per Newton iteration or of the design model, is one call of
the plant derivative on lanes that hold all its central-difference points.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dynamics import (
    LANE_OPS,
    _state_derivative_flat,
    plant_constants,
    yaw_gyro_law,
)
from .errors import TrimConvergenceError
from .params import HelicopterParams
from .state import (
    MEASURED_STATES,
    MODEL_STATE_LABELS,
    MODEL_STATES,
    N_STATES,
    TRACKED_STATES,
    ControlInputs,
    FullState,
)

_NONPOS = tuple(range(3, N_STATES))   # flat-state indices past position

# trim unknowns: delta_col, delta_lat, delta_lon, xi, phi, theta, a_s, b_s
_UNKNOWN_LABELS = ("dcol", "dlat", "dlon", "xi", "phi", "theta", "a_s", "b_s")
TRIM_TOL = 1e-10   # residual norm at which the Newton iteration stops


class TrimPoint(NamedTuple):
    """Hover equilibrium: state, inputs, the hover residual and the steady
    tail command; the measured and tracked outputs at trim are read from
    the state."""

    state: FullState
    inputs: ControlInputs
    residual: float
    dped_prime: float         # steady tail command

    @property
    def y_trim(self) -> np.ndarray:
        """Measured states at trim (`MEASURED_STATES`)."""
        return self.state.as_vector()[MEASURED_STATES]

    @property
    def h_out_trim(self) -> np.ndarray:
        """Tracked outputs at trim (`TRACKED_STATES`)."""
        return self.state.as_vector()[TRACKED_STATES]

    @staticmethod
    def from_vectors(x: np.ndarray, u: np.ndarray,
                     params: HelicopterParams) -> "TrimPoint":
        """Trim point at flat state `x` and inputs `u`, with its hover residual."""
        dped_prime, _, _ = yaw_gyro_law(x[14], u[2], x[11], params.ka_g,
                                        params.kp_g, params.ki_g)
        residual = _hover_residual(x, u, plant_constants(params))
        return TrimPoint(
            state=FullState.from_vector(x), inputs=ControlInputs.from_vector(u),
            residual=np.linalg.norm(residual), dped_prime=dped_prime)


class LinearPlant(NamedTuple):
    """Matrices of the linearized attitude model about a trim point."""

    a: np.ndarray
    b: np.ndarray
    e: np.ndarray
    trim: TrimPoint


def _hover_residual(x: np.ndarray, u: np.ndarray, consts: tuple) -> np.ndarray:
    """Still-air derivative of every state except position, at one point
    (1-D `x` and `u`) or on lanes (one column per point)."""
    if x.ndim == 1:
        xdot = _state_derivative_flat(x.tolist(), u.tolist(), (0.0, 0.0, 0.0),
                                      consts)
    else:
        xdot = _state_derivative_flat(x, u, (0.0, 0.0, 0.0), consts, *LANE_OPS)
    return np.array(xdot)[list(_NONPOS)]


def _residual(unknowns: np.ndarray, consts: tuple) -> np.ndarray:
    return _hover_residual(*_assemble(unknowns), consts)


def _assemble(unknowns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dcol, dlat, dlon, xi, phi, theta, a_s, b_s = unknowns
    lanes = unknowns.shape[1:]
    x = np.zeros((N_STATES, *lanes))
    x[6], x[7] = phi, theta
    x[12], x[13], x[14] = a_s, b_s, xi
    u = np.zeros((4, *lanes))
    u[0], u[1], u[3] = dlat, dlon, dcol
    return x, u


def find_trim(params: HelicopterParams, max_iter: int = 100) -> TrimPoint:
    """Solve the hover equilibrium with a damped Newton iteration.

    Unknowns are (delta_col, delta_lat, delta_lon, xi, phi, theta, a_s, b_s);
    velocities, rates, position, heading, and the pedal input are zero by
    convention.  Starts from the all-zero guess with the collective set so the
    rotor carries the full weight, and stops once the residual norm is below
    `TRIM_TOL`.
    """
    consts = plant_constants(params)
    z = np.zeros(len(_UNKNOWN_LABELS))
    z[0] = (params.m * params.g - params.thrust_trim) / params.k_col \
        if params.k_col > 0.0 else 0.0

    res = _residual(z, consts)
    norm = np.linalg.norm(res)
    for _ in range(max_iter):
        if norm < TRIM_TOL:
            break
        jac = _fd_jacobian(lambda v: _residual(v, consts), z, 1e-7)
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        alpha = 1.0
        while alpha > 1e-8:
            trial = z + alpha * step
            trial_res = _residual(trial, consts)
            trial_norm = np.linalg.norm(trial_res)
            if trial_norm < norm:
                z, res, norm = trial, trial_res, trial_norm
                break
            alpha *= 0.5
        else:
            break  # no descent direction left; report non-convergence below
    if norm >= TRIM_TOL:
        raise TrimConvergenceError(max_iter, norm)

    return TrimPoint.from_vectors(*_assemble(z), params)


def _fd_jacobian(fun, z: np.ndarray, step: float) -> np.ndarray:
    """Central-difference Jacobian of `fun` at `z`, from one call of `fun` on
    2n lanes: column j is z + h_j e_j and column n + j is z - h_j e_j, with
    h_j = step * max(1, |z_j|).  `fun` maps an (n, 2n) array of points, one
    per column, to their (m, 2n) values."""
    n = z.size
    h = step * np.maximum(1.0, np.abs(z))
    lanes = np.repeat(z[:, None], 2 * n, axis=1)
    j = np.arange(n)
    lanes[j, j] += h
    lanes[j, n + j] -= h
    f = fun(lanes)
    return (f[:, :n] - f[:, n:]) / (2.0 * h)


def _model_lanes(z: np.ndarray, trim: TrimPoint, consts: tuple) -> np.ndarray:
    """Derivative of the nine model states (gyro slot holds the integrator)
    on lanes, one column of `z` per point: the model states, then the three
    servo inputs and the body-axis wind.

    Velocities and position are frozen at their trim values, which truncates
    the slow translational modes out of the attitude model.
    """
    n = len(MODEL_STATES)
    x = np.repeat(trim.state.as_vector()[:, None], z.shape[1], axis=1)
    x[MODEL_STATES] = z[:n]
    u = np.repeat(trim.inputs.as_vector()[:, None], z.shape[1], axis=1)
    u[0:3] = z[n:n + 3]
    xdot = _state_derivative_flat(x, u, z[n + 3:], consts, *LANE_OPS)
    return np.array(xdot)[MODEL_STATES]


def _gyro_coordinate_change(params: HelicopterParams
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map from integrator to servo-command model coordinates: (M, M^-1, N).

    The gyro loop gives dped = xi + kp_g*(ka_g*dped_cmd - r).  Under a
    zero-order-held pedal command this is z = M w + N u with the input
    derivative term dropped.
    """
    n = len(MODEL_STATES)
    gyro, r = MODEL_STATE_LABELS.index("dped"), MODEL_STATE_LABELS.index("r")
    m_t = np.eye(n)
    m_t[gyro, r] = -params.kp_g
    m_inv = np.eye(n)
    m_inv[gyro, r] = params.kp_g
    n_t = np.zeros((n, 3))
    n_t[gyro, 2] = params.kp_g * params.ka_g
    return m_t, m_inv, n_t


def linearize(params: HelicopterParams, trim: TrimPoint,
              step: float = 1e-5) -> LinearPlant:
    """Central-difference linearization of the attitude dynamics at trim.

    Differentiates the nine modeled state derivatives with respect to states,
    the three fast servo inputs, and body-axis wind, then converts the gyro
    integrator coordinate into the tail servo command so the state ordering
    matches the design model.
    """
    consts = plant_constants(params)
    n = len(MODEL_STATES)
    z0 = np.concatenate([trim.state.as_vector()[MODEL_STATES],
                         trim.inputs.as_vector()[0:3], np.zeros(3)])
    jac = _fd_jacobian(lambda z: _model_lanes(z, trim, consts), z0, step)
    a_w, b_w, e_w = jac[:, :n], jac[:, n:n + 3], jac[:, n + 3:]

    m_t, m_inv, n_t = _gyro_coordinate_change(params)
    a = m_t @ a_w @ m_inv
    b = m_t @ b_w - a @ n_t
    e = m_t @ e_w
    return LinearPlant(a=a, b=b, e=e, trim=trim)


def verify_linearization(params: HelicopterParams, plant: LinearPlant,
                         perturbation_scale: float, n_samples: int = 100,
                         seed: int = 20260809) -> float:
    """Worst relative mismatch between the nonlinear and linear derivatives.

    Draws seeded random perturbations of the model states, servo inputs, and
    wind at the given scale and compares the nonlinear derivative against
    A x + B u + E v.
    """
    if not 0.0 < perturbation_scale <= 1e-2:
        raise ValueError("perturbation_scale must lie in (0, 1e-2]")
    rng = np.random.default_rng(seed)
    trim = plant.trim
    n = len(MODEL_STATES)
    m_t, m_inv, n_t = _gyro_coordinate_change(params)
    consts = plant_constants(params)

    w0 = trim.state.as_vector()[MODEL_STATES]
    u0 = trim.inputs.as_vector()[0:3]
    samples = []
    for _ in range(n_samples):
        dz = perturbation_scale * rng.standard_normal(n)
        du = perturbation_scale * rng.standard_normal(3)
        dv = perturbation_scale * rng.standard_normal(3)
        # map the model-state perturbation back to integrator coordinates
        dw = m_inv @ (dz - n_t @ du)
        samples.append((dz, du, dv, np.concatenate([w0 + dw, u0 + du, dv])))
    wdots = _model_lanes(np.column_stack([s[3] for s in samples]), trim, consts)
    worst = 0.0
    for (dz, du, dv, _), wdot in zip(samples, np.ascontiguousarray(wdots.T)):
        zdot_nl = m_t @ wdot
        zdot_lin = plant.a @ dz + plant.b @ du + plant.e @ dv
        denom = max(np.linalg.norm(zdot_nl), 1e-12)
        worst = max(worst, np.linalg.norm(zdot_nl - zdot_lin) / denom)
    return worst
