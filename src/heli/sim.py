"""Closed-loop scenario execution, logging, and metric extraction.

A scenario steps the nonlinear plant with fixed-step RK4 under one of three
controllers (the H-infinity inner loop with the PD outer loop, a PID
attitude baseline, or open loop at trim), logs every step, and reduces the
log to hover-precision metrics.  Runs are deterministic given the scenario
configuration and seed.

Everything a step reads is bound once per run: the plant constants, the
gain rows of the controller and the observer, the outer loop's gains
(`OuterGains.loop_constants`), the measured-state indices, the reference
segments as arrays (`_segment_arrays`) and the wind table as an array.  A
step's wind and reference rows come as Python floats from `_step_rows`,
which converts the wind table and builds the reference rows one block of
`CSV_BLOCK_ROWS` steps at a time (`_reference_rows`, each row what
`reference_at` returns at its step's time), so a run holds no reference
table and never holds its wind table as Python floats.  The arithmetic of a
step then runs on Python floats alone, written out over the model's fixed
sizes: `rk4_step` integrates the 15-vector plant state element by element,
the outer loop takes the attitude's sines and cosines once
(`attitude_terms`), each min/max clamp is two comparisons
(`dynamics.clamp`), the servo, tilt and flap clamps run only on a step
where a value is out of range, and the control law, the observer and the
measurement deviations name every term, with each matrix-vector product an
explicit left-to-right sum.

The log is one `(n, LOG_WIDTH)` float table with its columns in
`LOG_COLUMNS` order, its times and wind rows filled before the loop; a step
stores its whole row, `t, *x, *u, *wind, *att_ref, *z_est`, with one
`struct.pack_into` into the table's bytes, and its flag bits only when some
are set.  `ScenarioLog` names views of the table's columns, and its
`to_csv` writes each float as its shortest round-trip `repr` under the
header `LOG_COLUMNS`, so the file parses back to the same bits.  What a
step need not know is found after the run from the log: the yaw-gyro clamp
flag, by the same law on the logged columns with the lane clamp, and the
metrics, from reference and rotation rows rebuilt one block at a time.
Beyond its log, a run thus holds a few arrays of one row per step and the
scratch of one block.

The loop reaches each layer by its module-level name in this module at call
time (`_state_derivative_flat` through `rk4_step`, `control_law`,
`assemble_state_estimate`, `observer_step`, `horizontal_control`,
`altitude_control`), so wrapping those names from outside traces every
call; a layer reached through any other reference, such as an alias or a
closure over the physics, would not be seen.

Two calls split their work with one child made by `os.fork()`, through
`_in_forked_child`: `compare_controllers` runs its first controller in the
child, and `ScenarioLog.to_csv` has the child format the second half of the
rows.  When the child fails, the calling process does its share itself, so
the logs, files and errors are those of one process.  A forked run sends
its log as two buffers, the table and the flags.
"""
from __future__ import annotations

import math
import operator
import os
import signal
import struct
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .dynamics import (
    _state_derivative_flat,
    clamp,
    clamp_lanes,
    dcm_rows,
    plant_constants,
    yaw_gyro_law,
)
from .errors import ConfigError, HeliError, SimulationAbort
from .hinf import SynthesisResult, control_law
from .observer import (
    ObserverDesign,
    assemble_state_estimate,
    observer_step,
)
from .outer import (
    OuterGains,
    altitude_control,
    attitude_terms,
    horizontal_control,
)
from .params import HelicopterParams
from .state import (
    INPUT_LABELS,
    MEASURED_STATES,
    MODEL_STATE_LABELS,
    REFERENCE_LABELS,
    SAT_DCOL,
    SAT_FLAP,
    SAT_GYRO,
    SAT_TILT,
    STATE_LABELS,
    UNMEASURED_IDX,
    clamp_servos,
)
from .trim import TrimPoint
from .wind import WindModel, _check_shape3, _check_vector3

SETTLE_WINDOW = 2.0  # seconds excluded after each reference or wind event
CSV_BLOCK_ROWS = 512  # rows per block of _step_rows, compute_metrics, to_csv
CSV_COPY_BYTES = 1 << 20  # largest chunk to_csv copies from its child at once

LOG_COLUMNS = ",".join((
    "t", *STATE_LABELS, *INPUT_LABELS, "wind_u", "wind_v", "wind_w",
    *REFERENCE_LABELS,
    *("est_" + MODEL_STATE_LABELS[i] for i in UNMEASURED_IDX), "sat_flags"))
CSV_HEADER = (LOG_COLUMNS + "\n").encode("utf-8")
# the float columns of a log table, in LOG_COLUMNS order; the last column,
# sat_flags, is kept apart as integers
LOG_WIDTH = 29
_T, _STATES, _INPUTS, _WIND, _ATT_REF, _ESTIMATES = (
    0, slice(1, 16), slice(16, 20), slice(20, 23), slice(23, 26),
    slice(26, 29))


def rk4_step(derivative, state, inputs, wind, dt: float) -> list:
    """Classical fourth-order Runge-Kutta step of the 15-vector plant state
    with inputs and wind held.

    `derivative(state, inputs, wind)` returns 15 derivatives.  The step is
    written out over the 15 elements in Python floats: each stage state is
    `x + (0.5*dt)*k` or `x + dt*k`, and the new state, a list, is
    `x + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4)`.  A state or derivative of any
    other length raises ValueError, and so does a `dt` that is not positive
    (NaN included).
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    half = 0.5 * dt
    x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14 = state
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14 = \
        derivative(state, inputs, wind)
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14 = \
        derivative([x0 + half * a0, x1 + half * a1, x2 + half * a2,
                    x3 + half * a3, x4 + half * a4, x5 + half * a5,
                    x6 + half * a6, x7 + half * a7, x8 + half * a8,
                    x9 + half * a9, x10 + half * a10, x11 + half * a11,
                    x12 + half * a12, x13 + half * a13, x14 + half * a14],
                   inputs, wind)
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14 = \
        derivative([x0 + half * b0, x1 + half * b1, x2 + half * b2,
                    x3 + half * b3, x4 + half * b4, x5 + half * b5,
                    x6 + half * b6, x7 + half * b7, x8 + half * b8,
                    x9 + half * b9, x10 + half * b10, x11 + half * b11,
                    x12 + half * b12, x13 + half * b13, x14 + half * b14],
                   inputs, wind)
    d0, d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11, d12, d13, d14 = \
        derivative([x0 + dt * c0, x1 + dt * c1, x2 + dt * c2,
                    x3 + dt * c3, x4 + dt * c4, x5 + dt * c5,
                    x6 + dt * c6, x7 + dt * c7, x8 + dt * c8,
                    x9 + dt * c9, x10 + dt * c10, x11 + dt * c11,
                    x12 + dt * c12, x13 + dt * c13, x14 + dt * c14],
                   inputs, wind)
    sixth = dt / 6.0
    return [x0 + sixth * (((a0 + 2.0 * b0) + 2.0 * c0) + d0),
            x1 + sixth * (((a1 + 2.0 * b1) + 2.0 * c1) + d1),
            x2 + sixth * (((a2 + 2.0 * b2) + 2.0 * c2) + d2),
            x3 + sixth * (((a3 + 2.0 * b3) + 2.0 * c3) + d3),
            x4 + sixth * (((a4 + 2.0 * b4) + 2.0 * c4) + d4),
            x5 + sixth * (((a5 + 2.0 * b5) + 2.0 * c5) + d5),
            x6 + sixth * (((a6 + 2.0 * b6) + 2.0 * c6) + d6),
            x7 + sixth * (((a7 + 2.0 * b7) + 2.0 * c7) + d7),
            x8 + sixth * (((a8 + 2.0 * b8) + 2.0 * c8) + d8),
            x9 + sixth * (((a9 + 2.0 * b9) + 2.0 * c9) + d9),
            x10 + sixth * (((a10 + 2.0 * b10) + 2.0 * c10) + d10),
            x11 + sixth * (((a11 + 2.0 * b11) + 2.0 * c11) + d11),
            x12 + sixth * (((a12 + 2.0 * b12) + 2.0 * c12) + d12),
            x13 + sixth * (((a13 + 2.0 * b13) + 2.0 * c13) + d13),
            x14 + sixth * (((a14 + 2.0 * b14) + 2.0 * c14) + d14)]


class PidGains(NamedTuple):
    roll_kp: float = 0.14
    roll_ki: float = 0.15
    roll_kd: float = 0.05
    pitch_kp: float = 0.35
    pitch_ki: float = 0.25
    pitch_kd: float = 0.13
    yaw_kp: float = 0.80
    yaw_ki: float = 0.30
    int_limit: float = 0.35

    def validate(self) -> "PidGains":
        for name in ("roll_kp", "roll_ki", "roll_kd", "pitch_kp", "pitch_ki",
                     "pitch_kd", "yaw_kp", "yaw_ki"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"pid gain {name} must be finite")
        # a negative limit would pin every integrator at -|int_limit|
        if not self.int_limit >= 0.0:
            raise ValueError("int_limit must be >= 0")
        return self


class PidAttitudeController:
    """Independent per-axis PID on roll/pitch plus PI on heading.

    Derivative action uses the measured body rates; integrators are clamped
    as anti-windup.  `step` returns the trim inputs plus the PID deviations,
    unclamped: `run_scenario` clamps the three channels to the servo range,
    as `control_law` does for the H-infinity loop.
    """

    def __init__(self, gains: PidGains, trim: TrimPoint):
        self.gains = gains
        self.u_trim = trim.inputs[0:3]  # trim cyclic and pedal inputs
        self.int_roll = 0.0
        self.int_pitch = 0.0
        self.int_yaw = 0.0

    def step(self, x, att_ref, dt: float) -> tuple[float, float, float]:
        """Cyclic and pedal commands for the flat state `x`."""
        g = self.gains
        e_phi = att_ref[0] - x[6]
        e_theta = att_ref[1] - x[7]
        e_psi = att_ref[2] - x[8]

        lim = g.int_limit
        self.int_roll = clamp(self.int_roll + e_phi * dt, -lim, lim)
        self.int_pitch = clamp(self.int_pitch + e_theta * dt, -lim, lim)
        self.int_yaw = clamp(self.int_yaw + e_psi * dt, -lim, lim)

        lat0, lon0, ped0 = self.u_trim
        dlat = lat0 + g.roll_kp * e_phi + g.roll_ki * self.int_roll \
            - g.roll_kd * x[9]
        dlon = lon0 + g.pitch_kp * e_theta + g.pitch_ki * self.int_pitch \
            - g.pitch_kd * x[10]
        dped = ped0 + g.yaw_kp * e_psi + g.yaw_ki * self.int_yaw
        return dlat, dlon, dped


class ReferenceSegment(NamedTuple):
    """Position reference active from t_start; ramps from p0 at rate v."""

    t_start: float
    p0: np.ndarray           # NED position at segment start
    v: np.ndarray            # NED velocity along the segment
    psi: float = 0.0


def reference_at(segments, t: float) -> tuple[np.ndarray, np.ndarray, float]:
    """p_ref, v_ref and psi_ref at time `t`, from the last segment before
    the first one not yet started (the first segment when none has)."""
    active = segments[0]
    for seg in segments:
        if seg.t_start <= t:
            active = seg
        else:
            break
    dt = t - active.t_start
    p = active.p0 + active.v * dt
    return p, active.v.copy(), active.psi


def _segment_arrays(segments) -> tuple | None:
    """The segments as the arrays `_reference_rows` reads, built once per
    run, or None when there are none: the running maximum of the start
    times, then the start times, p0 and v rows and psi.  Segment k is
    active from the running maximum's k-th entry, as `reference_at` stops
    at the first segment not yet started."""
    if not segments:
        return None
    t_start = np.array([seg.t_start for seg in segments], dtype=float)
    return (np.maximum.accumulate(t_start), t_start,
            np.array([seg.p0 for seg in segments], dtype=float),
            np.array([seg.v for seg in segments], dtype=float),
            np.array([seg.psi for seg in segments], dtype=float))


def _reference_rows(arrays, t):
    """p_ref and v_ref rows and psi_ref at each of the finite times `t`, from
    `_segment_arrays`: row k is what `reference_at` returns at `t[k]`."""
    reached, t_start, p0, v, psi = arrays
    t = np.asarray(t, dtype=float)
    active = np.maximum(np.searchsorted(reached, t, side="right") - 1, 0)
    dt = t - t_start[active]
    v_ref = v[active]
    return p0[active] + v_ref * dt[:, None], v_ref, psi[active]


def _row_blocks(start, stop):
    """Slices of `CSV_BLOCK_ROWS` rows from `start`, the last cut at `stop`."""
    return (slice(first, min(first + CSV_BLOCK_ROWS, stop))
            for first in range(start, stop, CSV_BLOCK_ROWS))


def _step_rows(wind, times, segments):
    """Step k's time `times[k]` and wind row, then its p_ref and v_ref rows
    and psi_ref at that time (None each when `segments` is None), as Python
    floats, for k = 0, 1, ...; `segments` is `_segment_arrays` of the
    references.

    A block of `CSV_BLOCK_ROWS` steps at a time, the times and wind rows are
    converted and the reference rows built by `_reference_rows` at the
    block's times;
    a block's 3-vector rows are zipped from its column lists, as per-row
    lists set off a full collection during the loop.  Steps are drawn by
    `itertools.chain` over one `zip` per block, so no Python frame is
    resumed per step.
    """
    def blocks():
        for block in _row_blocks(0, len(times)):
            refs = ((None, None, None) if segments is None
                    else _reference_rows(segments, times[block]))
            yield zip(*(repeat(None) if a is None
                        else a.tolist() if a.ndim == 1
                        else zip(*a.T.tolist())
                        for a in (times[block], wind[block], *refs)))
    return chain.from_iterable(blocks())


@dataclass
class ScenarioConfig:
    """One closed-loop run: its length and step, the controller, the wind,
    the reference segments the outer loop flies, the seed of its
    turbulence, the start offset from trim and, without segments, a fixed
    attitude reference (trim's when None).  A dataclass, not a
    NamedTuple, so `dataclasses.replace` makes variants and the loaders
    set one key at a time."""

    name: str = "scenario"
    duration: float = 30.0
    dt: float = 0.002
    controller: str = "hinf"          # hinf | pid | open_loop
    wind: WindModel = WindModel()
    references: tuple = ()
    seed: int = 0
    initial_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))
    att_ref: np.ndarray | None = None  # attitude held without references

    def validate(self) -> "ScenarioConfig":
        if not 0.0 < self.duration < math.inf:
            raise ConfigError("duration must be finite and > 0")
        if not 0.0 < self.dt <= 0.02:
            raise ConfigError("dt must lie in (0, 0.02]")
        if self.controller not in ("hinf", "pid", "open_loop"):
            raise ConfigError(f"unknown controller '{self.controller}'")
        try:
            seed = operator.index(self.seed)
        except TypeError:
            raise ConfigError(
                f"seed must be an integer, got {self.seed!r}") from None
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        _check_vector3(self.initial_offset, "initial_offset")
        if self.att_ref is not None:
            if self.references:
                raise ConfigError("att_ref must be unset with reference "
                                  "segments: the outer loop sets the "
                                  "attitude reference")
            _check_vector3(self.att_ref, "att_ref")
        starts = [seg.t_start for seg in self.references]
        if sorted(starts) != starts or len(set(starts)) != len(starts):
            raise ConfigError("reference segments must be time-ordered "
                              "and non-overlapping")
        for seg in self.references:
            _check_shape3(seg.p0, "reference segment p0")
            _check_shape3(seg.v, "reference segment v")
            if not all(np.all(np.isfinite(v)) for v in
                       (seg.t_start, seg.p0, seg.v, seg.psi)):
                raise ConfigError("reference segments must be finite")
        self.wind.validate()
        return self


class SimArtifacts(NamedTuple):
    """Everything a scenario needs beyond its configuration: the whole
    design, which every controller's run takes."""

    trim: TrimPoint
    synthesis: SynthesisResult
    observer: ObserverDesign
    pid_gains: PidGains = PidGains()
    outer_gains: OuterGains = OuterGains()


def _log_columns(cols, doc):
    return property(lambda self: self.table[:, cols], doc=doc)


class ScenarioLog(NamedTuple):
    """One row per step: `table` holds the float columns of `LOG_COLUMNS`
    in order, and `sat_flags` the last, as integer bit masks.  `t`,
    `states`, `inputs`, `wind`, `att_ref` and `estimates` name views of the
    table's columns."""

    table: np.ndarray        # (n, LOG_WIDTH), C-contiguous
    sat_flags: np.ndarray    # (n,) integer bit masks

    t = _log_columns(_T, "(n,) step times")
    states = _log_columns(_STATES, "(n, 15) flat states")
    inputs = _log_columns(_INPUTS, "(n, 4) servo inputs")
    wind = _log_columns(_WIND, "(n, 3) body-axis wind")
    att_ref = _log_columns(_ATT_REF, "(n, 3) attitude references")
    estimates = _log_columns(_ESTIMATES, "(n, 3) observer estimates")

    def to_csv(self, path):
        """Write one row per step: every float as its shortest round-trip
        `repr`, then the flag bits as an integer.

        The rows are formatted in two processes.  Rows `[mid, n)`, where
        `mid` is the `CSV_BLOCK_ROWS` block boundary nearest n/2, go to a
        child made by `os.fork()` before the file is opened; it sends them,
        encoded, through a pipe while this process writes the header and
        rows `[0, mid)`, then copies the pipe into the file in chunks of at
        most `CSV_COPY_BYTES`.  A log of one block is written here alone.
        If the fork fails, the child exits non-zero or it sends fewer rows
        than `n - mid`, the file is cut back to the end of this process's
        rows and the rest is formatted here, so the bytes are the same
        either way.  A fork copies only the calling thread, so call this
        from a process that runs no other Python threads.
        """
        n = len(self.table)
        mid = CSV_BLOCK_ROWS * round(n / (2 * CSV_BLOCK_ROWS))
        if mid == 0:
            with open(path, "wb") as fh:
                fh.write(CSV_HEADER)
                fh.writelines(self._csv_blocks(0, n))
            return

        def send_second_half(pipe):
            # formatted in full first: a pipe holds only ~64 KB, so writing
            # block by block would wait on this process's rows
            pipe.writelines(list(self._csv_blocks(mid, n)))

        def write_first_half_then_copy(pipe):
            with open(path, "wb") as fh:
                fh.write(CSV_HEADER)
                fh.writelines(self._csv_blocks(0, mid))
                end = fh.tell()
                rows = 0
                while chunk := pipe.read(CSV_COPY_BYTES):
                    fh.write(chunk)
                    rows += chunk.count(b"\n")
            return end, rows

        (end, rows), sent = _in_forked_child(send_second_half,
                                             write_first_half_then_copy)
        if not (sent and rows == n - mid):
            with open(path, "r+b") as fh:
                fh.seek(end)
                fh.truncate()
                fh.writelines(self._csv_blocks(mid, n))

    def _csv_blocks(self, start, stop):
        """Rows `[start, stop)` as UTF-8 bytes, one block of
        `CSV_BLOCK_ROWS` rows at a time from `start`: Python floats for
        every row at once would take several times the memory of the log
        itself."""
        for block in _row_blocks(start, stop):
            rows = self.table[block].tolist()
            flags = self.sat_flags[block].astype(int).tolist()
            yield "".join(f"{','.join(map(repr, row))},{bits}\n"
                          for row, bits in zip(rows, flags)).encode("utf-8")


class MetricsReport(NamedTuple):
    max_phi_err_deg: float
    max_theta_err_deg: float
    rms_vel_err: np.ndarray      # per NED axis, settled windows (m/s)
    max_vel_err: np.ndarray      # per NED axis, settled windows (m/s)
    horizontal_envelope: float   # max horizontal distance from reference (m)
    altitude_envelope: float     # max altitude error magnitude (m)

    def as_dict(self) -> dict:
        return {
            "max_phi_err_deg": self.max_phi_err_deg,
            "max_theta_err_deg": self.max_theta_err_deg,
            "rms_vn_err": float(self.rms_vel_err[0]),
            "rms_ve_err": float(self.rms_vel_err[1]),
            "rms_vd_err": float(self.rms_vel_err[2]),
            "max_vn_err": float(self.max_vel_err[0]),
            "max_ve_err": float(self.max_vel_err[1]),
            "max_vd_err": float(self.max_vel_err[2]),
            "horizontal_envelope_m": self.horizontal_envelope,
            "altitude_envelope_m": self.altitude_envelope,
        }


def _event_times(config: ScenarioConfig) -> list[float]:
    events = [0.0, *(seg.t_start for seg in config.references)]
    for g in config.wind.gusts:
        events.extend((g.start, g.end))
    return sorted(set(e for e in events if 0.0 <= e < config.duration))


def settled_mask(t: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """True where t is at least `SETTLE_WINDOW` past every reference or gust
    event."""
    mask = np.ones_like(t, dtype=bool)
    for ev in _event_times(config):
        mask &= ~((t >= ev - 1e-12) & (t < ev + SETTLE_WINDOW))
    return mask


def _rotation_rows(phi, theta, psi):
    """Body-to-NED rotation at every sample, shape (n, 3, 3)."""
    rows = dcm_rows(np.sin(phi), np.cos(phi), np.sin(theta), np.cos(theta),
                    np.sin(psi), np.cos(psi))
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def compute_metrics(t, states, att_ref, config: ScenarioConfig) -> MetricsReport:
    """Reduce logged trajectories to the hover-precision metrics.

    Attitude errors are taken over the whole run; velocity and position
    envelopes only over settled windows (2 s past every reference change or
    gust edge).  With reference segments, each block of `CSV_BLOCK_ROWS` rows
    gets its reference rows and body-to-NED rotations, and writes its
    velocity and position errors into (n, 3) arrays and its
    zero-velocity-reference rows into an (n,) mask.  The means and maxima
    then run over those whole arrays, so the metrics are bit for bit those
    of full-length tables, while the rotations never take more than one
    block.
    """
    t, states, att_ref = np.asarray(t), np.asarray(states), np.asarray(att_ref)
    segments = _segment_arrays(config.references)
    max_phi = float(np.max(np.abs(states[:, 6] - att_ref[:, 0]))) \
        * 180.0 / math.pi
    max_theta = float(np.max(np.abs(states[:, 7] - att_ref[:, 1]))) \
        * 180.0 / math.pi
    if segments is None:
        return MetricsReport(max_phi_err_deg=max_phi,
                             max_theta_err_deg=max_theta,
                             rms_vel_err=np.zeros(3), max_vel_err=np.zeros(3),
                             horizontal_envelope=0.0, altitude_envelope=0.0)

    vel_err = np.empty((t.size, 3))
    pos_err = np.empty((t.size, 3))
    still = np.empty(t.size, dtype=bool)  # hover segment: zero v_ref
    for block in _row_blocks(0, t.size):
        p_ref, v_ref, _ = _reference_rows(segments, t[block])
        x = states[block]
        rot = _rotation_rows(x[:, 6], x[:, 7], x[:, 8])
        np.subtract(np.einsum("nij,nj->ni", rot, x[:, 3:6]), v_ref,
                    out=vel_err[block])
        np.subtract(x[:, 0:3], p_ref, out=pos_err[block])
        np.all(v_ref == 0.0, axis=1, out=still[block])

    mask = settled_mask(t, config)
    if not np.any(mask):
        mask = np.ones_like(t, dtype=bool)
    ve = vel_err[mask]
    rms = np.sqrt(np.mean(ve ** 2, axis=0))
    vmax = np.max(np.abs(ve), axis=0)

    # position envelopes describe station keeping, so only settled
    # stretches of zero-velocity (hover) segments count
    hover = mask & still
    if not np.any(hover):
        hover = mask
    pe = pos_err[hover]
    horiz = float(np.max(np.hypot(pe[:, 0], pe[:, 1])))
    alt = float(np.max(np.abs(pe[:, 2])))
    return MetricsReport(max_phi_err_deg=max_phi, max_theta_err_deg=max_theta,
                         rms_vel_err=rms, max_vel_err=vmax,
                         horizontal_envelope=horiz, altitude_envelope=alt)


def run_scenario(config: ScenarioConfig, params: HelicopterParams,
                 artifacts: SimArtifacts) -> tuple[ScenarioLog, MetricsReport]:
    """Execute one closed-loop scenario.

    Loop order per step, on Python floats: evaluate the outer loop, form the
    inner-loop command from measurements plus observer estimates, log,
    integrate the plant one RK4 step with everything held, then step the
    observer on the same held measurements.  The observer runs under every
    controller, so `artifacts` needs a synthesis and an observer whichever
    one flies; its state and its estimate start at zero deviation from
    trim.

    Each servo channel has one clamp.  The hinf and pid inner loops
    (`control_law`, and the pid branch here) clamp the cyclic and pedal
    channels to the servo range; the outer loop's `altitude_control` clamps
    the collective to `OuterGains.col_limit`.  The outer loop flies exactly
    when `config.references` is non-empty; without references every
    controller holds `config.att_ref` (trim's attitude when None) and flies
    the trim collective as it is, and open loop flies all four trim inputs
    as they are.  After the loop, the yaw-gyro
    clamp flag is set from the logged columns, and the metrics are taken
    from the log by `compute_metrics`, which builds the run's segment
    arrays again.  A toolkit error raised by any stage, or a ValueError or
    OverflowError raised by the plant RK4, stops the run as a
    SimulationAbort that names the stage, the step and the simulated time.
    """
    config.validate()
    for name in ("outer_gains", "pid_gains"):
        try:
            getattr(artifacts, name).validate()
        except ValueError as exc:
            raise ConfigError(f"artifacts.{name}: {exc}") from exc
    if artifacts.synthesis is None or artifacts.observer is None:
        raise ConfigError("a run requires synthesis and observer artifacts")

    trim = artifacts.trim
    controller = config.controller
    outer = artifacts.outer_gains.loop_constants(params)
    n_steps = int(round(config.duration / config.dt))
    dt = config.dt
    # the log, one row per step; its times and wind rows are filled here,
    # and the loop rewrites each row whole, as one store
    table = np.empty((n_steps + 1, LOG_WIDTH))
    times = table[:, _T]
    times[:] = np.arange(n_steps + 1) * dt
    table[:, _WIND] = config.wind.realize(config.duration,
                                          config.seed).table(times)
    flags = np.zeros(n_steps + 1, dtype=int)

    x = trim.state.as_vector()
    x[0:3] += config.initial_offset
    x = x.tolist()
    # measured-state indices and their trim values, for y_dev
    i0, i1, i2, i3, i4, i5 = MEASURED_STATES
    yt0, yt1, yt2, yt3, yt4, yt5 = trim.y_trim.tolist()
    u_open = list(trim.inputs)
    u_trim3 = u_open[0:3]
    ut0, ut1, ut2 = u_trim3
    col_trim = trim.inputs.delta_col
    h_trim = trim.h_out_trim.tolist()

    att_ref_fixed = (np.asarray(config.att_ref, dtype=float)
                     if config.att_ref is not None else trim.h_out_trim).tolist()

    pid = PidAttitudeController(artifacts.pid_gains, trim)
    if controller == "hinf":
        gain_rows = artifacts.synthesis.gain_rows(trim.h_out_trim)
    obs_step = artifacts.observer.discretize(dt)
    x_obs = [0.0, 0.0, 0.0]
    z_est = [0.0, 0.0, 0.0]
    z_trim = np.array([trim.state.a_s, trim.state.b_s, trim.dped_prime])

    consts = plant_constants(params)
    flap_limit = params.flap_limit

    def deriv(xv, uv, wv):
        return _state_derivative_flat(xv, uv, wv, consts)

    # a step's row goes into the table in one store, its floats packed
    # straight into the table's bytes (half the cost of `table[k] = row`)
    store_row = struct.Struct(f"={LOG_WIDTH}d").pack_into
    row_bytes = table.strides[0]
    log_bytes = memoryview(table).cast("B")
    carry_flags = 0
    segments = _segment_arrays(config.references)
    try:
        for k, (t_k, wind, p_ref, v_ref, psi_ref) in enumerate(
                _step_rows(table[:, _WIND], times, segments)):
            # the sum is finite unless an element is not or the sum overflows
            if not math.isfinite(sum(x)) and not all(map(math.isfinite, x)):
                raise SimulationAbort(k, times[k])
            step_flags = carry_flags
            carry_flags = 0

            # outer loop; tilt commands are deviations about the trim attitude
            stage = "outer loop"
            if segments is not None:
                att = attitude_terms(x)
                theta_dev, phi_dev, tilt_sat = horizontal_control(
                    p_ref, v_ref, x, att, outer)
                if tilt_sat:
                    step_flags |= SAT_TILT
                delta_col, col_sat = altitude_control(
                    p_ref, v_ref, x, att, outer)
                if col_sat:
                    step_flags |= SAT_DCOL
                att_ref = [h_trim[0] + phi_dev, h_trim[1] + theta_dev,
                           psi_ref]
            else:
                att_ref = att_ref_fixed
                delta_col = col_trim

            # measurements (deviations from trim)
            y_dev = [x[i0] - yt0, x[i1] - yt1, x[i2] - yt2, x[i3] - yt3,
                     x[i4] - yt4, x[i5] - yt5]

            # inner loop
            stage = "inner loop"
            if controller == "hinf":
                x_hat = assemble_state_estimate(y_dev, z_est)
                u, sat = control_law(gain_rows, x_hat, att_ref, u_trim3,
                                     delta_col)
                step_flags |= sat
            elif controller == "pid":
                u = list(pid.step(x, att_ref, dt))
                step_flags |= clamp_servos(u)
                u.append(delta_col)
            else:  # open loop at trim
                u = u_open

            store_row(log_bytes, k * row_bytes,
                      t_k, *x, *u, *wind, *att_ref, *z_est)
            if step_flags:
                flags[k] = step_flags

            if k == n_steps:
                break

            stage = "plant RK4"
            x = rk4_step(deriv, x, u, wind, dt)
            # mechanical flapping stops
            if abs(x[12]) > flap_limit or abs(x[13]) > flap_limit:
                for idx in (12, 13):
                    if abs(x[idx]) > flap_limit:
                        x[idx] = math.copysign(flap_limit, x[idx])
                        carry_flags |= SAT_FLAP
            stage = "observer"
            x_obs, z_est = observer_step(
                obs_step, x_obs, y_dev, [u[0] - ut0, u[1] - ut1, u[2] - ut2])
    except SimulationAbort:
        raise
    except HeliError as exc:
        raise SimulationAbort(k, times[k], stage, exc) from exc
    except (ValueError, OverflowError) as exc:
        # the physics meets an infinite or out-of-domain value (math.sin
        # of an overflowed angle) before the state check sees it
        if stage != "plant RK4":
            raise
        raise SimulationAbort(k, times[k], stage, exc) from exc

    log = ScenarioLog(table, flags)
    estimates = log.estimates
    estimates += z_trim
    # the tail servo clamp, from the logged states and pedal commands
    states = log.states
    _, _, gyro_sat = yaw_gyro_law(states[:, 14], log.inputs[:, 2],
                                  states[:, 11], params.ka_g, params.kp_g,
                                  params.ki_g, clamp_lanes)
    flags[gyro_sat] |= SAT_GYRO
    return log, compute_metrics(times, states, log.att_ref, config)


class ComparisonReport(NamedTuple):
    """The metrics of one scenario flown under hinf (`metrics_a`) and under
    pid (`metrics_b`), as `compare_controllers` returns them."""

    metrics_a: MetricsReport
    metrics_b: MetricsReport

    def ratios(self) -> dict:
        da, db = self.metrics_a.as_dict(), self.metrics_b.as_dict()
        out = {}
        for key in da:
            if abs(db[key]) < 1e-12:
                out[key] = float("nan") if abs(da[key]) < 1e-12 else float("inf")
            else:
                out[key] = da[key] / db[key]
        return out

    def table(self) -> str:
        da, db = self.metrics_a.as_dict(), self.metrics_b.as_dict()
        ratios = self.ratios()
        lines = [f"{'metric':<24}{'hinf':>14}{'pid':>14}{'ratio':>10}"]
        for key in da:
            r = ratios[key]
            r_str = "n/a" if math.isnan(r) else f"{r:.3f}"
            lines.append(f"{key:<24}{da[key]:>14.6f}{db[key]:>14.6f}{r_str:>10}")
        return "\n".join(lines)


def _in_forked_child(child, parent):
    """Call `child(pipe)` in a child made by `os.fork()` while this process
    calls `parent(pipe)`, the two ends of one pipe as binary files.

    The child leaves by `os._exit`, whatever happens: status 0 when `child`
    returned, 1 when it raised.  Returns `parent`'s result and whether the
    child exited with status 0.  If the fork fails, `parent` gets a pipe
    with no writer, which is at its end at once, and the child counts as
    failed.  An exception from `parent` propagates; the child is killed
    first.  The child is reaped on every path.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        pid = None
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                child(pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    status = 1
    try:
        with open(read_fd, "rb") as pipe:
            result = parent(pipe)
    except BaseException:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        if pid is not None:
            _, status = os.waitpid(pid, 0)
    return result, status == 0


def compare_controllers(config: ScenarioConfig, params: HelicopterParams,
                        artifacts: SimArtifacts
                        ) -> tuple[ComparisonReport, ScenarioLog, ScenarioLog]:
    """Run the same scenario (same wind, seed, references) under hinf and
    under pid: `(report, hinf log, pid log)`.

    The two runs share only their inputs, so they run in parallel: a forked
    child runs hinf while this process runs pid,
    then reads the child's log, sent as the raw bytes of its table and its
    flags, into arrays it allocates, and recomputes that run's metrics from it.  Raw bytes rather
    than pickle keep a second copy of the log out of memory, and the logs
    and metrics are bit for bit those of two `run_scenario` calls.  If the
    fork fails, the child fails or sends too few bytes, or the pid run
    raises, the runs are finished here in order, hinf then pid, so the
    error raised is the one sequential runs raise.  A fork copies only the calling thread, so
    call this from a process that runs no other Python threads.
    """
    cfg_a = replace(config, controller="hinf")
    cfg_b = replace(config, controller="pid")

    def send_first(pipe):
        log, _ = run_scenario(cfg_a, params, artifacts)
        pipe.write(log.table)
        pipe.write(log.sat_flags)

    def run_second_then_receive(pipe):
        run_b = run_scenario(cfg_b, params, artifacts)
        arrays = [np.empty_like(run_b[0].table),
                  np.empty_like(run_b[0].sat_flags)]
        received = all(pipe.readinto(a) == a.nbytes for a in arrays)
        return (arrays if received else None), run_b

    try:
        (arrays, run_b), sent = _in_forked_child(send_first,
                                                 run_second_then_receive)
    except Exception:  # redone below, in order, to raise the sequential error
        arrays = run_b = None
    else:
        if not sent:
            arrays = None
    if arrays is None:
        log_a, met_a = run_scenario(cfg_a, params, artifacts)
    else:
        log_a = ScenarioLog(*arrays)
        met_a = compute_metrics(log_a.t, log_a.states, log_a.att_ref, cfg_a)
    if run_b is None:
        run_b = run_scenario(cfg_b, params, artifacts)
    log_b, met_b = run_b
    return ComparisonReport(met_a, met_b), log_a, log_b
