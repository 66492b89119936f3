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

The nine-state design model that trim, the observer and the H-infinity
loop share is laid out here too, once: its labels, the flat row of each
model state, and its measured, unmeasured and tracked subsets, from which
the subsets' flat rows and labels follow.
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

INPUT_LABELS = ("dlat", "dlon", "dped", "dcol")

# *_IDX and TRACKED_ROWS index MODEL_STATE_LABELS; the *_STATES are flat
# rows, as lists so that they index arrays
MODEL_STATE_LABELS = ("phi", "theta", "p", "q", "a_s", "b_s", "r", "dped", "psi")
MODEL_INPUT_LABELS = INPUT_LABELS[:3]   # the collective is the outer loop's
WIND_LABELS = ("u_wind", "v_wind", "w_wind")
MEASURED_IDX = (0, 1, 2, 3, 6, 8)       # phi, theta, p, q, r, psi
UNMEASURED_IDX = tuple(i for i in range(len(MODEL_STATE_LABELS))
                       if i not in MEASURED_IDX)   # a_s, b_s, dped
TRACKED_ROWS = (0, 1, 8)                # phi, theta, psi
# dped has no flat row: the gyro integrator xi (row 14) stands in its slot
# until linearization changes coordinates to the tail servo command
MODEL_STATES = [STATE_LABELS.index("xi" if name == "dped" else name)
                for name in MODEL_STATE_LABELS]
MEASURED_STATES = [MODEL_STATES[i] for i in MEASURED_IDX]
TRACKED_STATES = [MODEL_STATES[i] for i in TRACKED_ROWS]
# the attitude reference, one label per tracked output
REFERENCE_LABELS = tuple(MODEL_STATE_LABELS[i] + "_ref" for i in TRACKED_ROWS)

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

