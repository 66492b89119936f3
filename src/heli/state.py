"""State and input layout of the nonlinear helicopter model.

Everywhere a state crosses a module boundary it is the flat 15-vector

    [pn, pe, pd, vx, vy, vz, phi, theta, psi, p, q, r, a_s, b_s, xi]

in SI units and radians: NED position, body-axis velocity, ZYX Euler angles
(|theta| below pi/2), body rates, the longitudinal and lateral flap angles,
and the yaw-gyro integrator.  Inputs are the flat 4-vector of normalized
servo commands and wind the body-axis 3-vector.  `FullState` and
`ControlInputs` are named views over those layouts: tuples whose fields name
the elements in order, so a view is itself a flat sequence.  The field names
of `FullState` are the state labels, and the state columns of scenario logs.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class FullState(NamedTuple):
    """The 15 scalar states of the nonlinear plant, in flat-vector order."""

    pn: float
    pe: float
    pd: float
    vx: float
    vy: float
    vz: float
    phi: float
    theta: float
    psi: float
    p: float
    q: float
    r: float
    a_s: float
    b_s: float
    xi: float

    def as_vector(self) -> np.ndarray:
        return np.array(self, dtype=float)

    @staticmethod
    def from_vector(x) -> "FullState":
        return FullState(*as_state_vector(x).tolist())  # Python floats


class ControlInputs(NamedTuple):
    """Normalized servo commands; each channel is meant to live in (-1, 1)."""

    delta_lat: float
    delta_lon: float
    delta_ped: float
    delta_col: float

    def as_vector(self) -> np.ndarray:
        return np.array(self, dtype=float)

    @staticmethod
    def from_vector(u) -> "ControlInputs":
        return ControlInputs(*as_input_vector(u).tolist())


STATE_LABELS = FullState._fields
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


def _flat(values, n: int, what: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{what} vector must have shape ({n},), got {v.shape}")
    return v


def as_state_vector(state) -> np.ndarray:
    """A FullState or any 15-sequence as the flat state array."""
    return _flat(state, N_STATES, "state")


def as_input_vector(inputs) -> np.ndarray:
    """A ControlInputs or any 4-sequence as the flat input array."""
    return _flat(inputs, 4, "input")


def as_wind_vector(wind) -> np.ndarray:
    """None (still air) or any 3-sequence as the body-axis wind array."""
    return np.zeros(3) if wind is None else _flat(wind, 3, "wind")
