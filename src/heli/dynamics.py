"""Continuous-time nonlinear helicopter model.

Four coupled pieces make up the state derivative: rigid-body kinematics and
dynamics, first-order main-rotor flapping, and the onboard yaw-rate PI loop.
The model is written once, in `_state_derivative_flat`, over the flat
15-vector; trim, linearization and the scenario loop all call it.  It takes
the state, input and wind as flat sequences of Python floats and returns the
derivative as a list, so the plant path of a scenario step stays in scalar
arithmetic.  `state_derivative` is the array edge: it checks shapes, also
accepts the typed containers, and returns an ndarray.  Two helpers are
shared with other modules: the body-to-NED rotation used by the outer loop
and the yaw-gyro law used by trim and by the scenario's saturation flag.
All functions are pure; repeated evaluation with identical arguments is
bit-identical.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import SingularAttitudeError
from .params import HelicopterParams
from .state import as_input_vector, as_state_vector, as_wind_vector

THETA_LIMIT = math.pi / 2.0


def _check_theta(theta: float):
    if abs(theta) >= THETA_LIMIT:
        raise SingularAttitudeError(f"|theta| = {abs(theta):.4f} rad >= pi/2")


def rotation_body_to_ned(phi: float, theta: float, psi: float) -> np.ndarray:
    """ZYX (yaw-pitch-roll) direction cosine matrix mapping body vectors to NED."""
    _check_theta(theta)
    sphi, cphi = math.sin(phi), math.cos(phi)
    sth, cth = math.sin(theta), math.cos(theta)
    spsi, cpsi = math.sin(psi), math.cos(psi)
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
    x = as_state_vector(state).tolist()
    u = as_input_vector(inputs).tolist()
    w = as_wind_vector(wind).tolist()
    return np.array(_state_derivative_flat(x, u, w, params))


def _state_derivative_flat(x, u, w, par: HelicopterParams) -> list:
    # x, u and w hold Python floats: scalar arithmetic on numpy scalars costs
    # several times more, so callers unpack arrays with `.tolist()` first
    _, _, _, vx, vy, vz, phi, theta, psi, p, q, r, a_s, b_s, xi = x
    dlat, dlon, dped, dcol = u
    w_u, w_v, w_w = w

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

    drag_x = -par.dx * (vx - w_u)
    drag_y = -par.dy * (vy - w_v)
    drag_z = -par.dz * (vz - w_w)

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

    return [pn_dot, pe_dot, pd_dot, vx_dot, vy_dot, vz_dot,
            phi_dot, theta_dot, psi_dot, p_dot, q_dot, r_dot,
            a_s_dot, b_s_dot, xi_dot]
