"""State, input and wind containers for the nonlinear helicopter model.

Everywhere a state crosses a module boundary it is the flat 15-vector

    [pn, pe, pd, vx, vy, vz, phi, theta, psi, p, q, r, a_s, b_s, xi]

in SI units and radians.  The typed containers below are convenience views
over that layout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

STATE_LABELS = (
    "pn", "pe", "pd",
    "vx", "vy", "vz",
    "phi", "theta", "psi",
    "p", "q", "r",
    "a_s", "b_s", "xi",
)
N_STATES = len(STATE_LABELS)

# flat-state rows of the six measured outputs (phi, theta, p, q, r, psi)
MEASURED_STATES = [6, 7, 9, 10, 11, 8]

INPUT_LABELS = ("dlat", "dlon", "dped", "dcol")

# Saturation flag bits used in scenario logs.
SAT_DLAT = 1
SAT_DLON = 2
SAT_DPED = 4
SAT_DCOL = 8
SAT_FLAP = 16
SAT_TILT = 32
SAT_GYRO = 64
SERVO_BITS = (SAT_DLAT, SAT_DLON, SAT_DPED, SAT_DCOL)  # in input order

INPUT_LIMIT = 1.0  # servo channels live in (-1, 1)


@dataclass(frozen=True)
class EulerAngles:
    """ZYX Euler angles (rad), stored unwrapped; |theta| must stay below pi/2."""

    phi: float
    theta: float
    psi: float


@dataclass(frozen=True)
class BodyRates:
    """Body-axis angular rates p, q, r (rad/s)."""

    p: float
    q: float
    r: float


@dataclass(frozen=True)
class BodyVelocity:
    """Ground-relative velocity in body axes (m/s)."""

    vx: float
    vy: float
    vz: float


@dataclass(frozen=True)
class NedPosition:
    """Local NED position (m); altitude is height above the origin."""

    pn: float
    pe: float
    pd: float

    @property
    def altitude(self) -> float:
        return -self.pd


@dataclass(frozen=True)
class FlapState:
    """Longitudinal (a_s) and lateral (b_s) tip-path-plane tilt (rad)."""

    a_s: float
    b_s: float


@dataclass(frozen=True)
class YawGyroState:
    """Integrator state of the onboard yaw-rate PI loop.

    At trim the integrator alone carries the steady tail command.
    """

    xi: float


@dataclass(frozen=True)
class FullState:
    """The 15 scalar states of the nonlinear plant."""

    position: NedPosition
    velocity: BodyVelocity
    attitude: EulerAngles
    rates: BodyRates
    flap: FlapState
    gyro: YawGyroState

    def as_vector(self) -> np.ndarray:
        p, v, a, w, f, g = (self.position, self.velocity, self.attitude,
                            self.rates, self.flap, self.gyro)
        return np.array([p.pn, p.pe, p.pd, v.vx, v.vy, v.vz,
                         a.phi, a.theta, a.psi, w.p, w.q, w.r,
                         f.a_s, f.b_s, g.xi], dtype=float)

    @staticmethod
    def from_vector(x) -> "FullState":
        x = np.asarray(x, dtype=float)
        if x.shape != (N_STATES,):
            raise ValueError(f"state vector must have shape ({N_STATES},), got {x.shape}")
        x = x.tolist()  # Python floats, not numpy scalars
        return FullState(
            position=NedPosition(x[0], x[1], x[2]),
            velocity=BodyVelocity(x[3], x[4], x[5]),
            attitude=EulerAngles(x[6], x[7], x[8]),
            rates=BodyRates(x[9], x[10], x[11]),
            flap=FlapState(x[12], x[13]),
            gyro=YawGyroState(x[14]),
        )

    @staticmethod
    def zero() -> "FullState":
        return FullState.from_vector(np.zeros(N_STATES))


@dataclass(frozen=True)
class ControlInputs:
    """Normalized servo commands; each channel is meant to live in (-1, 1)."""

    delta_lat: float
    delta_lon: float
    delta_ped: float
    delta_col: float

    def as_vector(self) -> np.ndarray:
        return np.array([self.delta_lat, self.delta_lon,
                         self.delta_ped, self.delta_col], dtype=float)

    @staticmethod
    def from_vector(u) -> "ControlInputs":
        u = np.asarray(u, dtype=float)
        if u.shape != (4,):
            raise ValueError(f"input vector must have shape (4,), got {u.shape}")
        return ControlInputs(*u.tolist())

    @staticmethod
    def zero() -> "ControlInputs":
        return ControlInputs(0.0, 0.0, 0.0, 0.0)

    def clamped(self) -> tuple["ControlInputs", int]:
        """Clamp every channel to the servo range; returns (inputs, flag bits)."""
        u = [self.delta_lat, self.delta_lon, self.delta_ped, self.delta_col]
        flags = clamp_servos(u)
        return ControlInputs(*u), flags


def clamp_servos(u: list) -> int:
    """Clamp each servo channel in the list `u` (the three cyclic and pedal
    channels or all four, in input order) to the servo range, in place;
    returns the flag bits of the channels that were clamped."""
    flags = 0
    i = 0
    for v in u:
        if abs(v) > INPUT_LIMIT:
            u[i] = math.copysign(INPUT_LIMIT, v)
            flags |= SERVO_BITS[i]
        i += 1
    return flags


@dataclass(frozen=True)
class WindVector:
    """Wind velocity components in body axes (m/s)."""

    u_w: float
    v_w: float
    w_w: float

    def as_vector(self) -> np.ndarray:
        return np.array([self.u_w, self.v_w, self.w_w], dtype=float)

    @staticmethod
    def zero() -> "WindVector":
        return WindVector(0.0, 0.0, 0.0)


def as_state_vector(state) -> np.ndarray:
    """Accept a FullState or a flat vector and return the flat vector."""
    if isinstance(state, FullState):
        return state.as_vector()
    x = np.asarray(state, dtype=float)
    if x.shape != (N_STATES,):
        raise ValueError(f"state vector must have shape ({N_STATES},), got {x.shape}")
    return x


def as_input_vector(inputs) -> np.ndarray:
    if isinstance(inputs, ControlInputs):
        return inputs.as_vector()
    u = np.asarray(inputs, dtype=float)
    if u.shape != (4,):
        raise ValueError(f"input vector must have shape (4,), got {u.shape}")
    return u


def as_wind_vector(wind) -> np.ndarray:
    if wind is None:
        return np.zeros(3)
    if isinstance(wind, WindVector):
        return wind.as_vector()
    w = np.asarray(wind, dtype=float)
    if w.shape != (3,):
        raise ValueError(f"wind vector must have shape (3,), got {w.shape}")
    return w
