"""PD position and altitude control wrapped around the attitude inner loop.

Altitude errors are handled in the up-positive sense and produce a total
thrust command with tilt compensation; horizontal errors are rotated into
the heading frame and turned into bounded attitude references.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import body_to_ned_rows
from .errors import SingularAttitudeError
from .params import HelicopterParams


@dataclass(frozen=True)
class OuterGains:
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
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"outer gain {name} must be >= 0")
        if not 0.0 < self.tilt_limit < math.pi / 2:
            raise ValueError("tilt_limit must lie in (0, pi/2)")
        if not 0.0 < self.col_limit <= 1.0:
            raise ValueError("col_limit must lie in (0, 1]")
        return self


@dataclass(frozen=True)
class PositionReference:
    p_ref: np.ndarray        # NED position reference (m)
    v_ref: np.ndarray        # NED velocity reference (m/s)
    psi_ref: float = 0.0


def ned_velocity(x) -> list:
    """Body velocity of the flat state `x` rotated into the NED frame.

    Each row is summed left to right over Python floats, as the position
    rows of the state derivative are, so the two agree bit for bit.
    """
    vx, vy, vz = x[3], x[4], x[5]
    return [r[0] * vx + r[1] * vy + r[2] * vz
            for r in body_to_ned_rows(x[6], x[7], x[8])]


def altitude_control(p_ref, v_ref, x, v_ned, gains: OuterGains,
                     params: HelicopterParams) -> tuple[float, bool]:
    """Collective command from the altitude PD law with tilt compensation.

    `p_ref` and `v_ref` are the NED reference position and velocity, `x` the
    flat state and `v_ned` its NED velocity (`ned_velocity(x)`).  Returns
    (delta_col, saturated).  At zero error and level attitude the commanded
    thrust equals the vehicle weight exactly.
    """
    phi, theta = x[6], x[7]
    cphi, cth = math.cos(phi), math.cos(theta)
    if abs(theta) >= math.pi / 2 or abs(phi) >= math.pi / 2:
        raise SingularAttitudeError("tilt compensation undefined at 90 deg")

    e_z = x[2] - p_ref[2]                           # up-positive altitude error
    h_dot = -v_ned[2]
    h_dot_ref = -v_ref[2]
    e_z_dot = h_dot_ref - h_dot

    t_cmd = (gains.kp_z * e_z + gains.kd_z * e_z_dot + params.m * params.g) \
        / (cphi * cth)
    delta_col = (t_cmd - params.thrust_trim) / params.k_col
    saturated = abs(delta_col) > gains.col_limit
    if saturated:
        delta_col = math.copysign(gains.col_limit, delta_col)
    return delta_col, saturated


def horizontal_control(p_ref, v_ref, x, v_ned, gains: OuterGains
                       ) -> tuple[float, float, bool]:
    """Attitude references (theta_ref, phi_ref) from horizontal position error.

    Arguments are as for `altitude_control`.  Position and velocity errors
    are rotated from NED into the heading frame; forward error commands
    nose-down pitch, rightward error commands positive roll.  The arcsin
    argument is clamped so references never exceed the tilt limit.
    """
    e_n = p_ref[0] - x[0]
    e_e = p_ref[1] - x[1]
    ev_n = v_ref[0] - v_ned[0]
    ev_e = v_ref[1] - v_ned[1]

    psi = x[8]
    cpsi, spsi = math.cos(psi), math.sin(psi)
    e_fwd = cpsi * e_n + spsi * e_e
    e_rgt = -spsi * e_n + cpsi * e_e
    ev_fwd = cpsi * ev_n + spsi * ev_e
    ev_rgt = -spsi * ev_n + cpsi * ev_e

    s_fwd = gains.kp_x * e_fwd + gains.kd_x * ev_fwd
    s_rgt = gains.kp_y * e_rgt + gains.kd_y * ev_rgt

    limit = math.sin(gains.tilt_limit)
    saturated = abs(s_fwd) > limit or abs(s_rgt) > limit
    s_fwd = min(max(s_fwd, -limit), limit)
    s_rgt = min(max(s_rgt, -limit), limit)

    theta_ref = -math.asin(s_fwd)
    phi_ref = math.asin(s_rgt)
    return theta_ref, phi_ref, saturated
