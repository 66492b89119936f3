"""Oracles and helpers that only the tests use.

- `state_derivative`: the plant derivative on arrays, with the shape checks
  of an API edge, built on `heli.dynamics._state_derivative_flat`;
- `rotation_body_to_ned`: the body-to-NED rotation of one attitude;
- `reference_table`: `heli.sim.reference_at`, one row per time, stacked;
- `read_log_csv`: a scenario log file read back into named columns;
- `observer_loop_matrix`: the continuous closed loop of the linear plant,
  the state feedback and the reduced observer.
"""
import math

import numpy as np

from heli.dynamics import (
    _check_theta,
    _state_derivative_flat,
    dcm_rows,
    plant_constants,
)
from heli.errors import ConfigError
from heli.params import HelicopterParams
from heli.sim import LOG_COLUMNS, reference_at
from heli.state import (
    MEASURED_IDX,
    UNMEASURED_IDX,
    _flat,
    as_input_vector,
    as_state_vector,
)


def state_derivative(state, inputs, wind, params: HelicopterParams) -> np.ndarray:
    """Flat 15-element time derivative of the full nonlinear state; `wind`
    may be None for still air."""
    x = as_state_vector(state).tolist()
    u = as_input_vector(inputs).tolist()
    w = [0.0, 0.0, 0.0] if wind is None else _flat(wind, 3, "wind").tolist()
    return np.array(_state_derivative_flat(x, u, w, plant_constants(params)))


def rotation_body_to_ned(phi: float, theta: float, psi: float) -> np.ndarray:
    """ZYX (yaw-pitch-roll) direction cosine matrix mapping body vectors to NED."""
    _check_theta(theta)
    return np.array(dcm_rows(math.sin(phi), math.cos(phi), math.sin(theta),
                             math.cos(theta), math.sin(psi), math.cos(psi)))


def reference_table(segments, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p_ref and v_ref rows and psi_ref at every time in `t`, each row what
    `reference_at` returns there."""
    rows = [reference_at(segments, tk) for tk in np.asarray(t, dtype=float)]
    n = len(rows)
    return (np.array([r[0] for r in rows], dtype=float).reshape(n, 3),
            np.array([r[1] for r in rows], dtype=float).reshape(n, 3),
            np.array([r[2] for r in rows], dtype=float))


def read_log_csv(path) -> dict:
    """Read a scenario log back into named column arrays."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.array([[float(v) for v in line.strip().split(",")]
                         for line in fh if line.strip()])
    if header != LOG_COLUMNS.split(","):
        raise ConfigError("unexpected log header")
    return {name: data[:, k] for k, name in enumerate(header)}


def observer_loop_matrix(plant, f, design) -> np.ndarray:
    """The 12x12 matrix of the continuous loop in [x; x_obs]: the linear
    plant `plant` under u = F x_hat, where x_hat takes the measurements
    y = C_m x in `MEASURED_IDX` and the estimate x_obs + K y of the reduced
    observer `design` in `UNMEASURED_IDX`."""
    c_m = np.zeros((6, 9))
    for k, idx in enumerate(MEASURED_IDX):
        c_m[k, idx] = 1.0
    p_y = np.zeros((9, 6))
    for k, idx in enumerate(MEASURED_IDX):
        p_y[idx, k] = 1.0
    p_z = np.zeros((9, 3))
    for k, idx in enumerate(UNMEASURED_IDX):
        p_z[idx, k] = 1.0

    # u = F (P_y y + P_z (x' + K y)) with y = C_m x
    feed = p_y @ c_m + p_z @ design.k_obs @ c_m
    return np.block([
        [plant.a + plant.b @ f @ feed, plant.b @ f @ p_z],
        [design.b_obs @ c_m + design.h_obs @ f @ feed,
         design.a_obs + design.h_obs @ f @ p_z],
    ])
