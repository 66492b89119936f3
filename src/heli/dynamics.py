"""Continuous-time nonlinear helicopter model.

Four coupled pieces make up the state derivative: rigid-body kinematics and
dynamics, first-order main-rotor flapping, and the onboard yaw-rate PI loop.
The model is written once, in `_state_derivative_flat`, over the flat
15-vector; trim, linearization and the scenario loop all call it.
`state_derivative` is the shape-checking API edge that also accepts the
typed containers.  Two helpers are shared with other modules: the body-to-NED
rotation used by the outer loop and the yaw-gyro law used by trim and by the
scenario's saturation flag.  All functions are pure; repeated evaluation with
identical arguments is bit-identical.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import SingularAttitudeError
from .params import HelicopterParams
from .state import (
    EulerAngles,
    as_input_vector,
    as_state_vector,
    as_wind_vector,
    N_STATES,
)

THETA_LIMIT = math.pi / 2.0


def _check_theta(theta: float):
    if abs(theta) >= THETA_LIMIT:
        raise SingularAttitudeError(f"|theta| = {abs(theta):.4f} rad >= pi/2")


def rotation_body_to_ned(attitude: EulerAngles) -> np.ndarray:
    """ZYX (yaw-pitch-roll) direction cosine matrix mapping body vectors to NED."""
    _check_theta(attitude.theta)
    sphi, cphi = math.sin(attitude.phi), math.cos(attitude.phi)
    sth, cth = math.sin(attitude.theta), math.cos(attitude.theta)
    spsi, cpsi = math.sin(attitude.psi), math.cos(attitude.psi)
    return np.array([
        [cth * cpsi, sphi * sth * cpsi - cphi * spsi, cphi * sth * cpsi + sphi * spsi],
        [cth * spsi, sphi * sth * spsi + cphi * cpsi, cphi * sth * spsi - sphi * cpsi],
        [-sth,       sphi * cth,                      cphi * cth],
    ])


def flap_coupling(params: HelicopterParams) -> float:
    """Longitudinal/lateral flap cross-coupling coefficient.

    The lateral equation uses the negated value; a teetering head
    (zero hub stiffness) decouples the two axes.
    """
    return 8.0 * params.k_beta / (params.gamma_mr * params.omega_mr ** 2 * params.i_beta)


def yaw_gyro_output(xi: float, delta_ped: float, r: float,
                    params: HelicopterParams) -> tuple[float, float, bool]:
    """Tail servo command and integrator rate of the onboard yaw-rate PI loop.

    Returns (delta_ped_prime, xi_dot, saturated): the servo command is
    clamped to the actuator range before it reaches the tail rotor, and
    `saturated` tells whether the clamp was active.
    """
    err = params.ka_g * delta_ped - r
    out = params.kp_g * err + xi
    saturated = abs(out) > 1.0
    out = min(max(out, -1.0), 1.0)
    return out, params.ki_g * err, saturated


def state_derivative(state, inputs, wind, params: HelicopterParams) -> np.ndarray:
    """Flat 15-element time derivative of the full nonlinear state."""
    x = as_state_vector(state)
    u = as_input_vector(inputs)
    w = as_wind_vector(wind)
    return _state_derivative_flat(x, u, w, params)


def _state_derivative_flat(x: np.ndarray, u: np.ndarray, w: np.ndarray,
                           par: HelicopterParams) -> np.ndarray:
    vx, vy, vz = x[3], x[4], x[5]
    phi, theta, psi = x[6], x[7], x[8]
    p, q, r = x[9], x[10], x[11]
    a_s, b_s, xi = x[12], x[13], x[14]
    dlat, dlon, dped, dcol = u[0], u[1], u[2], u[3]

    _check_theta(theta)
    sphi, cphi = math.sin(phi), math.cos(phi)
    sth, cth = math.sin(theta), math.cos(theta)
    spsi, cpsi = math.sin(psi), math.cos(psi)
    tth = sth / cth

    # kinematics: NED position rate and Euler angle rates
    pn_dot = cth * cpsi * vx + (sphi * sth * cpsi - cphi * spsi) * vy \
        + (cphi * sth * cpsi + sphi * spsi) * vz
    pe_dot = cth * spsi * vx + (sphi * sth * spsi + cphi * cpsi) * vy \
        + (cphi * sth * spsi - sphi * cpsi) * vz
    pd_dot = -sth * vx + sphi * cth * vy + cphi * cth * vz

    phi_dot = p + tth * (sphi * q + cphi * r)
    theta_dot = cphi * q - sphi * r
    psi_dot = (sphi * q + cphi * r) / cth

    # forces and moments (body axes): rotor thrust tilted by the flap angles,
    # tail-rotor side force, linear drag on the wind-relative airspeed acting
    # at a centre of pressure above the CG, gravity, rotor reaction torque and
    # linear rate damping.  Wind enters only through the relative airspeed.
    thrust = par.thrust_trim + par.k_col * dcol
    sa, ca = math.sin(a_s), math.cos(a_s)
    sb, cb = math.sin(b_s), math.cos(b_s)

    dped_prime, xi_dot, _ = yaw_gyro_output(xi, dped, r, par)
    tail_y = -par.k_ped * dped_prime

    drag_x = -par.dx * (vx - w[0])
    drag_y = -par.dy * (vy - w[1])
    drag_z = -par.dz * (vz - w[2])

    mg = par.m * par.g
    fx = -thrust * sa + drag_x - mg * sth
    fy = thrust * sb + tail_y + drag_y + mg * sphi * cth
    fz = -thrust * ca * cb + drag_z + mg * cphi * cth

    hub = par.k_beta + thrust * par.h_mr
    mx = hub * b_s - par.lp * p + par.h_tr * tail_y + par.h_cp * drag_y
    my = hub * a_s - par.mq * q - par.h_cp * drag_x
    mz = -par.torque_scale * thrust + par.l_tr * par.k_ped * dped_prime - par.nr * r

    # rigid body: translational and rotational dynamics
    inv_m = 1.0 / par.m
    vx_dot = -(q * vz - r * vy) + fx * inv_m
    vy_dot = -(r * vx - p * vz) + fy * inv_m
    vz_dot = -(p * vy - q * vx) + fz * inv_m

    p_dot = (mx - (q * r * (par.jz - par.jy))) / par.jx
    q_dot = (my - (p * r * (par.jx - par.jz))) / par.jy
    r_dot = (mz - (p * q * (par.jy - par.jx))) / par.jz

    # flapping (the gyro integrator rate comes from the yaw-gyro law above)
    a_bs = flap_coupling(par)
    inv_tau = 1.0 / par.tau_mr
    a_s_dot = -q - inv_tau * a_s + a_bs * b_s + inv_tau * par.k_lon * dlon
    b_s_dot = -p - inv_tau * b_s - a_bs * a_s + inv_tau * par.k_lat * dlat

    out = np.empty(N_STATES)
    out[0] = pn_dot
    out[1] = pe_dot
    out[2] = pd_dot
    out[3] = vx_dot
    out[4] = vy_dot
    out[5] = vz_dot
    out[6] = phi_dot
    out[7] = theta_dot
    out[8] = psi_dot
    out[9] = p_dot
    out[10] = q_dot
    out[11] = r_dot
    out[12] = a_s_dot
    out[13] = b_s_dot
    out[14] = xi_dot
    return out
