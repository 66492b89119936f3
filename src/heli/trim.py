"""Hover trim and linearization of the attitude dynamics.

The linear design model has nine states in the fixed order

    [phi, theta, p, q, a_s, b_s, r, dped, psi]

where `dped` is the tail servo command produced by the yaw-rate PI loop.
The nonlinear plant stores the loop's integrator instead, so the model is
obtained by an affine change of coordinates after numerical differentiation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _state_derivative_flat, plant_constants, yaw_gyro_output
from .errors import TrimConvergenceError
from .params import HelicopterParams
from .state import MEASURED_STATES, ControlInputs, FullState, N_STATES

# indices of the flat state vector
_POS = (0, 1, 2)
_NONPOS = tuple(i for i in range(N_STATES) if i not in _POS)

# the nine model states, as indices into the flat vector
MODEL_STATE_LABELS = ("phi", "theta", "p", "q", "a_s", "b_s", "r", "dped", "psi")
MODEL_INPUT_LABELS = ("dlat", "dlon", "dped")
WIND_LABELS = ("u_wind", "v_wind", "w_wind")
_MODEL_IDX = (6, 7, 9, 10, 12, 13, 11, 14, 8)  # xi sits in the dped slot
_GYRO_SLOT = 7   # position of dped / xi in the model ordering
_R_SLOT = 6

# trim unknowns: delta_col, delta_lat, delta_lon, xi, phi, theta, a_s, b_s
_UNKNOWN_LABELS = ("dcol", "dlat", "dlon", "xi", "phi", "theta", "a_s", "b_s")


@dataclass(frozen=True)
class TrimPoint:
    """Hover equilibrium: state, inputs, and measured outputs at trim."""

    state: FullState
    inputs: ControlInputs
    y_trim: np.ndarray        # (phi, theta, p, q, r, psi) at trim
    h_out_trim: np.ndarray    # (phi, theta, psi) at trim
    residual: float
    dped_prime: float         # steady tail command

    @staticmethod
    def from_vectors(x: np.ndarray, u: np.ndarray,
                     params: HelicopterParams) -> "TrimPoint":
        """Trim point at flat state `x` and inputs `u`, with its hover residual."""
        dped_prime, _, _ = yaw_gyro_output(x[14], u[2], x[11], params)
        residual = _hover_residual(x, u, plant_constants(params))
        return TrimPoint(
            state=FullState.from_vector(x), inputs=ControlInputs.from_vector(u),
            y_trim=x[MEASURED_STATES],
            h_out_trim=np.array([x[6], x[7], x[8]]),
            residual=np.linalg.norm(residual), dped_prime=dped_prime)


@dataclass(frozen=True)
class LinearPlant:
    """Matrices of the linearized attitude model about a trim point."""

    a: np.ndarray
    b: np.ndarray
    e: np.ndarray
    trim: TrimPoint


def _hover_residual(x: np.ndarray, u: np.ndarray, consts: tuple) -> np.ndarray:
    """Still-air derivative of every state except position (`consts` is
    `plant_constants(params)`)."""
    xdot = np.array(_state_derivative_flat(x.tolist(), u.tolist(),
                                           [0.0, 0.0, 0.0], consts))
    return xdot[list(_NONPOS)]


def _residual(unknowns: np.ndarray, consts: tuple) -> np.ndarray:
    return _hover_residual(*_assemble(unknowns), consts)


def _assemble(unknowns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dcol, dlat, dlon, xi, phi, theta, a_s, b_s = unknowns
    x = np.zeros(N_STATES)
    x[6], x[7] = phi, theta
    x[12], x[13], x[14] = a_s, b_s, xi
    u = np.array([dlat, dlon, 0.0, dcol])
    return x, u


def find_trim(params: HelicopterParams, max_iter: int = 100,
              tol: float = 1e-10) -> TrimPoint:
    """Solve the hover equilibrium with a damped Newton iteration.

    Unknowns are (delta_col, delta_lat, delta_lon, xi, phi, theta, a_s, b_s);
    velocities, rates, position, heading, and the pedal input are zero by
    convention.  Starts from the all-zero guess with the collective set so the
    rotor carries the full weight.
    """
    consts = plant_constants(params)
    z = np.zeros(len(_UNKNOWN_LABELS))
    z[0] = (params.m * params.g - params.thrust_trim) / params.k_col \
        if params.k_col > 0.0 else 0.0

    res = _residual(z, consts)
    norm = np.linalg.norm(res)
    for _ in range(max_iter):
        if norm < tol:
            break
        jac = _fd_jacobian(lambda v: _residual(v, consts), z)
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
    if norm >= tol:
        raise TrimConvergenceError(max_iter, norm)

    return TrimPoint.from_vectors(*_assemble(z), params)


def _fd_jacobian(fun, z: np.ndarray, step: float = 1e-7) -> np.ndarray:
    columns = []
    for j in range(z.size):
        h = step * max(1.0, abs(z[j]))
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        columns.append((fun(zp) - fun(zm)) / (2.0 * h))
    return np.column_stack(columns)


def _model_derivative(w: np.ndarray, u3: np.ndarray, wind: np.ndarray,
                      trim: TrimPoint, consts: tuple) -> np.ndarray:
    """Derivative of the nine model states (gyro slot holds the integrator);
    `consts` is `plant_constants(params)`.

    Velocities and position are frozen at their trim values, which truncates
    the slow translational modes out of the attitude model.
    """
    x = trim.state.as_vector()
    for k, idx in enumerate(_MODEL_IDX):
        x[idx] = w[k]
    u = trim.inputs.as_vector()
    u[0:3] = u3
    xdot = np.array(_state_derivative_flat(x.tolist(), u.tolist(),
                                           wind.tolist(), consts))
    return xdot[list(_MODEL_IDX)]


def _gyro_coordinate_change(params: HelicopterParams
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map from integrator to servo-command model coordinates: (M, M^-1, N).

    The gyro loop gives dped = xi + kp_g*(ka_g*dped_cmd - r).  Under a
    zero-order-held pedal command this is z = M w + N u with the input
    derivative term dropped.
    """
    n = len(_MODEL_IDX)
    m_t = np.eye(n)
    m_t[_GYRO_SLOT, _R_SLOT] = -params.kp_g
    m_inv = np.eye(n)
    m_inv[_GYRO_SLOT, _R_SLOT] = params.kp_g
    n_t = np.zeros((n, 3))
    n_t[_GYRO_SLOT, 2] = params.kp_g * params.ka_g
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
    w0 = trim.state.as_vector()[list(_MODEL_IDX)]
    u0 = trim.inputs.as_vector()[0:3]

    n = len(_MODEL_IDX)
    a_w = np.zeros((n, n))
    b_w = np.zeros((n, 3))
    e_w = np.zeros((n, 3))

    for j in range(n):
        h = step * max(1.0, abs(w0[j]))
        wp, wm = w0.copy(), w0.copy()
        wp[j] += h
        wm[j] -= h
        a_w[:, j] = (_model_derivative(wp, u0, np.zeros(3), trim, consts)
                     - _model_derivative(wm, u0, np.zeros(3), trim, consts)) / (2 * h)
    for j in range(3):
        h = step * max(1.0, abs(u0[j]))
        up, um = u0.copy(), u0.copy()
        up[j] += h
        um[j] -= h
        b_w[:, j] = (_model_derivative(w0, up, np.zeros(3), trim, consts)
                     - _model_derivative(w0, um, np.zeros(3), trim, consts)) / (2 * h)
    for j in range(3):
        h = step
        vp, vm = np.zeros(3), np.zeros(3)
        vp[j] += h
        vm[j] -= h
        e_w[:, j] = (_model_derivative(w0, u0, vp, trim, consts)
                     - _model_derivative(w0, u0, vm, trim, consts)) / (2 * h)

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
    n = len(_MODEL_IDX)
    m_t, m_inv, n_t = _gyro_coordinate_change(params)
    consts = plant_constants(params)

    w0 = trim.state.as_vector()[list(_MODEL_IDX)]
    u0 = trim.inputs.as_vector()[0:3]
    worst = 0.0
    for _ in range(n_samples):
        dz = perturbation_scale * rng.standard_normal(n)
        du = perturbation_scale * rng.standard_normal(3)
        dv = perturbation_scale * rng.standard_normal(3)
        # map the model-state perturbation back to integrator coordinates
        dw = m_inv @ (dz - n_t @ du)
        wdot = _model_derivative(w0 + dw, u0 + du, dv, trim, consts)
        zdot_nl = m_t @ wdot
        zdot_lin = plant.a @ dz + plant.b @ du + plant.e @ dv
        denom = max(np.linalg.norm(zdot_nl), 1e-12)
        worst = max(worst, np.linalg.norm(zdot_nl - zdot_lin) / denom)
    return worst
