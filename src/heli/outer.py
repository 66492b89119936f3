"""PD position and altitude control wrapped around the attitude inner loop.

Altitude errors are handled in the up-positive sense and produce a total
thrust command with tilt compensation; horizontal errors are rotated into
the heading frame and turned into bounded attitude references.

A step evaluates the attitude once: `attitude_terms(x)` checks theta, takes
the sines and cosines of phi, theta and psi, and rotates the body velocity
into NED with the rows of `dynamics.dcm_rows` written inline, as the state
derivative writes them.  `horizontal_control` and `altitude_control` read
those terms and `OuterGains.loop_constants(params)`, the gains and plant
values they use as one tuple of Python floats, built once per run.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .dynamics import _check_theta, clamp
from .errors import SingularAttitudeError
from .params import HelicopterParams


class OuterGains(NamedTuple):
    kp_z: float = 22.0       # vertical thrust per metre of altitude error (N/m)
    kd_z: float = 30.0       # vertical thrust per m/s of climb-rate error
    kp_x: float = 0.11       # tilt per metre of along-heading error
    kd_x: float = 0.16       # tilt per m/s of along-heading velocity error
    kp_y: float = 0.11
    kd_y: float = 0.16
    tilt_limit: float = 0.30  # attitude reference clamp (rad)
    col_limit: float = 0.90   # collective clamp

    def validate(self) -> "OuterGains":
        for name in ("kp_z", "kd_z", "kp_x", "kd_x", "kp_y", "kd_y"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"outer gain {name} must be finite and >= 0")
        if not 0.0 < self.tilt_limit < math.pi / 2:
            raise ValueError("tilt_limit must lie in (0, pi/2)")
        if not 0.0 < self.col_limit <= 1.0:
            raise ValueError("col_limit must lie in (0, 1]")
        return self

    def loop_constants(self, params: HelicopterParams) -> tuple:
        """What `horizontal_control` and `altitude_control` read each step,
        as Python floats: kp_x, kd_x, kp_y, kd_y, kp_z, kd_z, m g,
        thrust_trim, k_col, col_limit and sin(tilt_limit).  The altitude law
        adds m g last, so binding the product once changes no bit."""
        return tuple(map(float, (
            self.kp_x, self.kd_x, self.kp_y, self.kd_y, self.kp_z, self.kd_z,
            params.m * params.g, params.thrust_trim, params.k_col,
            self.col_limit, math.sin(self.tilt_limit))))


def attitude_terms(x) -> tuple:
    """(vn, ve, vd, cphi, cth, spsi, cpsi) of the flat state `x`: its body
    velocity rotated into NED, the cosines of phi and theta, and the sine and
    cosine of psi.

    Raises SingularAttitudeError at |theta| >= pi/2.  Each NED row is the
    state derivative's position row, written out and summed left to right
    over Python floats in the same way, so the two agree bit for bit.
    """
    phi, theta, psi = x[6], x[7], x[8]
    _check_theta(theta)
    sphi, cphi = math.sin(phi), math.cos(phi)
    sth, cth = math.sin(theta), math.cos(theta)
    spsi, cpsi = math.sin(psi), math.cos(psi)
    vx, vy, vz = x[3], x[4], x[5]
    return (cth * cpsi * vx + (sphi * sth * cpsi - cphi * spsi) * vy
            + (cphi * sth * cpsi + sphi * spsi) * vz,
            cth * spsi * vx + (sphi * sth * spsi + cphi * cpsi) * vy
            + (cphi * sth * spsi - sphi * cpsi) * vz,
            -sth * vx + sphi * cth * vy + cphi * cth * vz,
            cphi, cth, spsi, cpsi)


def altitude_control(p_ref, v_ref, x, att, consts) -> tuple[float, bool]:
    """Collective command from the altitude PD law with tilt compensation.

    `p_ref` and `v_ref` are the NED reference position and velocity, `x` the
    flat state, `att` its `attitude_terms(x)` (which checked theta) and
    `consts` is `OuterGains.loop_constants(params)`.  Returns
    (delta_col, saturated).  At zero error and level attitude the commanded
    thrust equals the vehicle weight exactly.
    """
    _, _, vd, cphi, cth, _, _ = att
    _, _, _, _, kp_z, kd_z, mg, thrust_trim, k_col, col_limit, _ = consts
    if abs(x[6]) >= math.pi / 2:
        raise SingularAttitudeError("tilt compensation undefined at 90 deg")

    e_z = x[2] - p_ref[2]                           # up-positive altitude error
    h_dot = -vd
    h_dot_ref = -v_ref[2]
    e_z_dot = h_dot_ref - h_dot

    t_cmd = (kp_z * e_z + kd_z * e_z_dot + mg) / (cphi * cth)
    delta_col = (t_cmd - thrust_trim) / k_col
    saturated = abs(delta_col) > col_limit
    if saturated:
        delta_col = math.copysign(col_limit, delta_col)
    return delta_col, saturated


def horizontal_control(p_ref, v_ref, x, att, consts
                       ) -> tuple[float, float, bool]:
    """Attitude references (theta_ref, phi_ref) from horizontal position error.

    Arguments are as for `altitude_control`.  Position and velocity errors
    are rotated from NED into the heading frame; forward error commands
    nose-down pitch, rightward error commands positive roll.  The arcsin
    argument is clamped so references never exceed the tilt limit.
    """
    vn, ve, _, _, _, spsi, cpsi = att
    kp_x, kd_x, kp_y, kd_y, _, _, _, _, _, _, limit = consts
    e_n = p_ref[0] - x[0]
    e_e = p_ref[1] - x[1]
    ev_n = v_ref[0] - vn
    ev_e = v_ref[1] - ve

    e_fwd = cpsi * e_n + spsi * e_e
    e_rgt = -spsi * e_n + cpsi * e_e
    ev_fwd = cpsi * ev_n + spsi * ev_e
    ev_rgt = -spsi * ev_n + cpsi * ev_e

    s_fwd = kp_x * e_fwd + kd_x * ev_fwd
    s_rgt = kp_y * e_rgt + kd_y * ev_rgt

    saturated = abs(s_fwd) > limit or abs(s_rgt) > limit
    if saturated:  # else each lies within the limits, or is NaN
        s_fwd = clamp(s_fwd, -limit, limit)
        s_rgt = clamp(s_rgt, -limit, limit)

    theta_ref = -math.asin(s_fwd)
    phi_ref = math.asin(s_rgt)
    return theta_ref, phi_ref, saturated
