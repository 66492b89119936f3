"""Continuous-time nonlinear helicopter model.

Four coupled pieces make up the state derivative: rigid-body kinematics and
dynamics, first-order main-rotor flapping, and the onboard yaw-rate PI loop.
The model is written once, in `_state_derivative_flat`, over the flat
15-vector, and reaches sine, cosine, the pitch singularity check and the gyro
clamp through arguments.  With the defaults it runs on Python floats and
returns a list, the scenario loop's path; its clamp, `clamp`, is two
comparisons.  With `*LANE_OPS` (sine, cosine, theta check and clamp on
arrays) the same text runs on lanes, one `(N,)` array per element, each lane
bit for bit the float result while numpy's sine and cosine match `math`'s;
trim and linearization take all the points of a Jacobian in one such call.
It reads the parameters from `plant_constants(params)`, one tuple built once
per scenario run, trim solve or linearization.  Two helpers are shared with
other modules: the body-to-NED rotation rows (`dcm_rows`), used by the
scenario metrics on arrays (the derivative and the outer loop's
`attitude_terms` write the same rows inline, which saves building their
tuples each call), and the yaw-gyro law, which the derivative, the trim
point's steady tail command and the scenario's saturation flag (on the
logged columns, after the run, with `clamp_lanes`) call.  All functions are
pure; repeated evaluation with identical arguments gives bit-identical
finite results.  A NaN result is NaN again, but its sign bit can differ
between calls, since CPython's specialized float addition may take its
operands in another order than the generic one.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import SingularAttitudeError
from .params import HelicopterParams

THETA_LIMIT = math.pi / 2.0


def _check_theta(theta: float):
    if abs(theta) >= THETA_LIMIT:
        raise SingularAttitudeError(f"|theta| = {abs(theta):.4f} rad >= pi/2")


def _check_theta_lanes(theta: np.ndarray):
    if np.any(np.abs(theta) >= THETA_LIMIT):
        raise SingularAttitudeError("|theta| >= pi/2 on a lane")


def clamp(v, lo, hi):
    """`v` limited to [lo, hi]: bit for bit `min(max(v, lo), hi)` for every
    float `v`, NaN and signed zeros included, whenever lo <= hi, at the cost
    of two comparisons."""
    return lo if v < lo else (hi if v > hi else v)


def clamp_lanes(v, lo, hi):
    """`clamp` on arrays of points."""
    return np.minimum(np.maximum(v, lo), hi)


# sin, cos, theta check and clamp of the lane derivative
LANE_OPS = (np.sin, np.cos, _check_theta_lanes, clamp_lanes)


def dcm_rows(sphi, cphi, sth, cth, spsi, cpsi) -> tuple:
    """Rows of the ZYX (yaw-pitch-roll) direction cosine matrix mapping body
    vectors to NED, from the sines and cosines of phi, theta and psi; each
    entry is formed the same way from floats or from numpy arrays."""
    return ((cth * cpsi, sphi * sth * cpsi - cphi * spsi, cphi * sth * cpsi + sphi * spsi),
            (cth * spsi, sphi * sth * spsi + cphi * cpsi, cphi * sth * spsi - sphi * cpsi),
            (-sth,       sphi * cth,                      cphi * cth))


def flap_coupling(params: HelicopterParams) -> float:
    """Longitudinal/lateral flap cross-coupling coefficient.

    The lateral equation uses the negated value; a teetering head
    (zero hub stiffness) decouples the two axes.
    """
    return 8.0 * params.k_beta / (params.gamma_mr * params.omega_mr ** 2 * params.i_beta)


def yaw_gyro_law(xi, delta_ped, r, ka_g: float, kp_g: float, ki_g: float,
                 clamp=clamp) -> tuple:
    """Tail servo command and integrator rate of the onboard yaw-rate PI loop.

    Returns (delta_ped_prime, xi_dot, saturated): the servo command is
    clamped to the actuator range before it reaches the tail rotor, and
    `saturated` tells whether the clamp was active.  On arrays of points
    pass `clamp_lanes`.
    """
    err = ka_g * delta_ped - r
    out = kp_g * err + xi
    saturated = abs(out) > 1.0
    out = clamp(out, -1.0, 1.0)
    return out, ki_g * err, saturated


def plant_constants(params: HelicopterParams) -> tuple:
    """Everything `_state_derivative_flat` reads of `params`, as one tuple.

    It holds the parameter fields the derivative uses and the products it
    forms of them (m g, 1/m, 1/tau, the cyclic gains over tau, the tail
    moment gain, the inertia differences, the flap coupling), each computed
    exactly as the derivative's formulas group it, so binding them once per
    run or per trim changes no bit of the result.
    """
    p = params
    inv_tau = 1.0 / p.tau_mr
    return (p.thrust_trim, p.k_col, p.k_ped, p.dx, p.dy, p.dz, p.m * p.g,
            p.k_beta, p.h_mr, p.lp, p.h_tr, p.h_cp, p.mq, p.torque_scale,
            p.l_tr * p.k_ped, p.nr, 1.0 / p.m, p.jx, p.jy, p.jz,
            p.jz - p.jy, p.jx - p.jz, p.jy - p.jx, flap_coupling(p), inv_tau,
            inv_tau * p.k_lon, inv_tau * p.k_lat, p.ka_g, p.kp_g, p.ki_g)


def _state_derivative_flat(x, u, w, consts: tuple, sin=math.sin, cos=math.cos,
                           check_theta=_check_theta, clamp=clamp) -> list:
    # x, u and w hold Python floats (numpy scalars cost several times more,
    # so callers unpack arrays with `.tolist()`), or one array per element
    # with `*LANE_OPS`; `consts` is `plant_constants(params)`
    _, _, _, vx, vy, vz, phi, theta, psi, p, q, r, a_s, b_s, xi = x
    dlat, dlon, dped, dcol = u
    w_u, w_v, w_w = w
    (thrust_trim, k_col, k_ped, dx, dy, dz, mg, k_beta, h_mr, lp, h_tr, h_cp,
     mq, torque_scale, l_tr_k_ped, nr, inv_m, jx, jy, jz, jz_jy, jx_jz, jy_jx,
     a_bs, inv_tau, inv_tau_k_lon, inv_tau_k_lat, ka_g, kp_g, ki_g) = consts

    check_theta(theta)
    sphi, cphi = sin(phi), cos(phi)
    sth, cth = sin(theta), cos(theta)
    spsi, cpsi = sin(psi), cos(psi)
    tth = sth / cth

    # kinematics: NED position rate and Euler angle rates
    pn_dot = cth * cpsi * vx + (sphi * sth * cpsi - cphi * spsi) * vy \
        + (cphi * sth * cpsi + sphi * spsi) * vz
    pe_dot = cth * spsi * vx + (sphi * sth * spsi + cphi * cpsi) * vy \
        + (cphi * sth * spsi - sphi * cpsi) * vz
    pd_dot = -sth * vx + sphi * cth * vy + cphi * cth * vz

    sq_cr = sphi * q + cphi * r
    phi_dot = p + tth * sq_cr
    theta_dot = cphi * q - sphi * r
    psi_dot = sq_cr / cth

    # forces and moments (body axes): rotor thrust tilted by the flap angles,
    # tail-rotor side force, linear drag on the wind-relative airspeed acting
    # at a centre of pressure above the CG, gravity, rotor reaction torque and
    # linear rate damping.  Wind enters only through the relative airspeed.
    thrust = thrust_trim + k_col * dcol
    sa, ca = sin(a_s), cos(a_s)
    sb, cb = sin(b_s), cos(b_s)

    dped_prime, xi_dot, _ = yaw_gyro_law(xi, dped, r, ka_g, kp_g, ki_g,
                                         clamp)
    tail_y = -k_ped * dped_prime

    drag_x = -dx * (vx - w_u)
    drag_y = -dy * (vy - w_v)
    drag_z = -dz * (vz - w_w)

    fx = -thrust * sa + drag_x - mg * sth
    fy = thrust * sb + tail_y + drag_y + mg * sphi * cth
    fz = -thrust * ca * cb + drag_z + mg * cphi * cth

    hub = k_beta + thrust * h_mr
    mx = hub * b_s - lp * p + h_tr * tail_y + h_cp * drag_y
    my = hub * a_s - mq * q - h_cp * drag_x
    mz = -torque_scale * thrust + l_tr_k_ped * dped_prime - nr * r

    # rigid body: translational and rotational dynamics
    vx_dot = -(q * vz - r * vy) + fx * inv_m
    vy_dot = -(r * vx - p * vz) + fy * inv_m
    vz_dot = -(p * vy - q * vx) + fz * inv_m

    p_dot = (mx - (q * r * jz_jy)) / jx
    q_dot = (my - (p * r * jx_jz)) / jy
    r_dot = (mz - (p * q * jy_jx)) / jz

    # flapping (the gyro integrator rate comes from the yaw-gyro law above)
    a_s_dot = -q - inv_tau * a_s + a_bs * b_s + inv_tau_k_lon * dlon
    b_s_dot = -p - inv_tau * b_s - a_bs * a_s + inv_tau_k_lat * dlat

    return [pn_dot, pe_dot, pd_dot, vx_dot, vy_dot, vz_dot,
            phi_dot, theta_dot, psi_dot, p_dot, q_dot, r_dot,
            a_s_dot, b_s_dot, xi_dot]
