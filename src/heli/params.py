"""Physical constants of the helicopter model.

Every default lives here, in one place.  The values describe a ~9 kg gasoline
RC machine sized for desk-scale studies; nothing downstream depends on the
exact numbers, only on their signs and rough magnitudes.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConfigError


class HelicopterParams(NamedTuple):
    # mass / inertia
    m: float = 9.0            # vehicle mass (kg)
    jx: float = 0.36          # roll inertia (kg m^2)
    jy: float = 0.98          # pitch inertia (kg m^2)
    jz: float = 0.88          # yaw inertia (kg m^2)
    g: float = 9.81           # gravity (m/s^2)

    # main rotor and flapping
    tau_mr: float = 0.06      # flap time constant (s)
    k_beta: float = 140.0     # hub torsional stiffness (N m/rad)
    gamma_mr: float = 5.2     # blade Lock number
    omega_mr: float = 167.0   # rotor speed (rad/s)
    i_beta: float = 0.055     # blade flap inertia (kg m^2)
    thrust_trim: float = 99.0  # thrust at zero collective (N)
    k_col: float = 60.0       # thrust per unit collective (N)
    h_mr: float = 0.30        # rotor hub height above CG (m)
    k_lat: float = 0.17       # lateral cyclic to blade pitch (rad/unit)
    k_lon: float = 0.17       # longitudinal cyclic to blade pitch (rad/unit)
    flap_limit: float = 0.2   # mechanical flapping stop (rad)
    torque_scale: float = 0.028  # rotor reaction torque per unit thrust (m)

    # yaw-rate gyro loop
    kp_g: float = 0.35        # PI proportional gain
    ki_g: float = 1.0         # PI integral gain (1/s)
    ka_g: float = 1.0         # pedal command scaling (rad/s per unit)

    # aerodynamic forces and moments
    dx: float = 1.2           # body-x drag (N per m/s)
    dy: float = 1.2           # body-y drag (N per m/s)
    dz: float = 2.5           # body-z drag (N per m/s)
    lp: float = 0.45          # roll rate damping (N m per rad/s)
    mq: float = 0.85          # pitch rate damping (N m per rad/s)
    nr: float = 0.30          # yaw rate damping (N m per rad/s)
    h_cp: float = 0.22        # drag centre of pressure height above CG (m)
    l_tr: float = 1.05        # tail rotor moment arm (m)
    k_ped: float = 12.0       # tail thrust per unit tail command (N)
    h_tr: float = 0.12        # tail rotor hub height above CG (m)

    def validate(self) -> "HelicopterParams":
        # NaN fails every test below; a NaN or inf anywhere would only fail
        # later, inside trim
        for name, value in zip(self._fields, self):
            if not math.isfinite(value):
                raise ConfigError(f"parameter {name} must be finite")
        positive = ("m", "jx", "jy", "jz", "tau_mr", "omega_mr", "i_beta")
        for name in positive:
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"parameter {name} must be > 0")
        nonneg = ("g", "k_beta", "gamma_mr", "thrust_trim", "k_col", "flap_limit",
                  "dx", "dy", "dz", "lp", "mq", "nr", "k_ped")
        for name in nonneg:
            if not getattr(self, name) >= 0.0:
                raise ConfigError(f"parameter {name} must be >= 0")
        return self

    def replace(self, **changes) -> "HelicopterParams":
        """A validated copy with `changes`; TypeError names an unknown key,
        as the constructor does (`_replace` would raise ValueError)."""
        return HelicopterParams(**{**self._asdict(), **changes}).validate()


# Section layout of the on-disk parameter file (`key = value` lines under
# `[section]` headers).  Unknown sections or keys are rejected.
PARAM_SECTIONS = {
    "mass": ("m", "jx", "jy", "jz", "g"),
    "rotor": ("tau_mr", "k_beta", "gamma_mr", "omega_mr", "i_beta",
              "thrust_trim", "k_col", "h_mr", "k_lat", "k_lon",
              "flap_limit", "torque_scale"),
    "gyro": ("kp_g", "ki_g", "ka_g"),
    "aero": ("dx", "dy", "dz", "lp", "mq", "nr", "h_cp",
             "l_tr", "k_ped", "h_tr"),
}
