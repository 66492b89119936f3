"""Closed-loop scenario execution, logging, and metric extraction.

A scenario steps the nonlinear plant with fixed-step RK4 under one of three
controllers (the H-infinity inner loop with the PD outer loop, a PID
attitude baseline, or open loop at trim), logs every step, and reduces the
log to hover-precision metrics.  Runs are deterministic given the scenario
configuration and seed.

Everything a step reads is bound once per run: the plant constants, the
gain rows of the controller and the observer, the measured-state indices,
and the wind and reference tables.  The arithmetic of a step then runs on
Python floats alone, written out over the model's fixed sizes: `rk4_step`
integrates the 15-vector plant state element by element, and the control
law, the observer and the measurement deviations name every term, with each
matrix-vector product an explicit left-to-right sum.  The loop reaches
each layer by its module-level name in this module at call time
(`_state_derivative_flat` through `rk4_step`, `control_law`,
`assemble_state_estimate`, `observer_step`, `horizontal_control`,
`altitude_control`), so wrapping those names from outside traces every
call; a layer reached through any other reference, such as an alias or a
closure over the physics, would not be seen.

`compare_controllers` runs its first controller in a child made by
`os.fork()` and its second in the calling process, so the calling process
makes the second run's calls and sees none of the first's.  The child sends
its log's arrays back as raw bytes through a pipe, not pickled, so no
second copy of the log is held.  When the child fails or the second run
raises, both runs are finished in the calling process in order, and the
error is the one two sequential `run_scenario` calls raise.
"""
from __future__ import annotations

import math
import os
import signal
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import (
    _state_derivative_flat,
    dcm_rows,
    plant_constants,
    yaw_gyro_law,
)
from .errors import ConfigError, HeliError, SimulationAbort
from .hinf import SynthesisResult, control_law
from .observer import (
    ObserverDesign,
    assemble_state_estimate,
    observer_init,
    observer_step,
)
from .outer import (
    OuterGains,
    PositionReference,
    altitude_control,
    horizontal_control,
    ned_velocity,
)
from .params import HelicopterParams
from .state import (
    MEASURED_STATES,
    SAT_DCOL,
    SAT_FLAP,
    SAT_GYRO,
    SAT_TILT,
    STATE_LABELS,
    N_STATES,
    clamp_servos,
)
from .trim import TrimPoint
from .wind import WindModel

SETTLE_WINDOW = 2.0  # seconds excluded after each reference or wind event
CSV_BLOCK_ROWS = 1024  # log rows formatted per block by ScenarioLog.to_csv

LOG_COLUMNS = ("t," + ",".join(STATE_LABELS)
               + ",dlat,dlon,dped,dcol,wind_u,wind_v,wind_w"
               + ",phi_ref,theta_ref,psi_ref,est_a_s,est_b_s,est_dped,sat_flags")
# the array fields of ScenarioLog, in the order a forked run sends them
LOG_ARRAYS = ("t", "states", "inputs", "wind", "att_ref", "estimates",
              "sat_flags")


def rk4_step(derivative, state, inputs, wind, dt: float) -> list:
    """Classical fourth-order Runge-Kutta step of the 15-vector plant state
    with inputs and wind held.

    `derivative(state, inputs, wind)` returns 15 derivatives.  The step is
    written out over the 15 elements in Python floats: each stage state is
    `x + (0.5*dt)*k` or `x + dt*k`, and the new state, a list, is
    `x + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4)`.  A state or derivative of any
    other length raises ValueError.
    """
    if dt <= 0.0:
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


@dataclass
class PidGains:
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
        # a negative limit would pin every integrator at -|int_limit|
        if not self.int_limit >= 0.0:
            raise ValueError("int_limit must be >= 0")
        return self


class PidAttitudeController:
    """Independent per-axis PID on roll/pitch plus PI on heading.

    Derivative action uses the measured body rates; integrators are clamped
    as anti-windup.  Outputs are deviations added to the trim inputs and
    clamped to the servo range.
    """

    def __init__(self, gains: PidGains, trim: TrimPoint):
        self.gains = gains
        self.u_trim = trim.inputs[0:3]  # trim cyclic and pedal inputs
        self.reset()

    def reset(self):
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
        self.int_roll = min(max(self.int_roll + e_phi * dt, -lim), lim)
        self.int_pitch = min(max(self.int_pitch + e_theta * dt, -lim), lim)
        self.int_yaw = min(max(self.int_yaw + e_psi * dt, -lim), lim)

        lat0, lon0, ped0 = self.u_trim
        dlat = lat0 + g.roll_kp * e_phi + g.roll_ki * self.int_roll \
            - g.roll_kd * x[9]
        dlon = lon0 + g.pitch_kp * e_theta + g.pitch_ki * self.int_pitch \
            - g.pitch_kd * x[10]
        dped = ped0 + g.yaw_kp * e_psi + g.yaw_ki * self.int_yaw
        return dlat, dlon, dped


@dataclass(frozen=True)
class ReferenceSegment:
    """Position reference active from t_start; ramps from p0 at rate v."""

    t_start: float
    p0: np.ndarray           # NED position at segment start
    v: np.ndarray            # NED velocity along the segment
    psi: float = 0.0


def reference_at(segments, t: float) -> PositionReference:
    active = segments[0]
    for seg in segments:
        if seg.t_start <= t:
            active = seg
        else:
            break
    dt = t - active.t_start
    p = active.p0 + active.v * dt
    return PositionReference(p_ref=p, v_ref=active.v.copy(),
                             psi_ref=active.psi)


def reference_table(segments, t: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p_ref and v_ref rows and psi_ref at every time in `t`, each equal to
    what `reference_at` returns there."""
    t = np.asarray(t, dtype=float)
    active = np.zeros(t.size, dtype=int)
    started = np.ones(t.size, dtype=bool)
    for k, seg in enumerate(segments):
        started &= seg.t_start <= t
        active[started] = k
    t_start = np.array([seg.t_start for seg in segments], dtype=float)
    p0 = np.array([seg.p0 for seg in segments], dtype=float)
    v = np.array([seg.v for seg in segments], dtype=float)
    psi = np.array([seg.psi for seg in segments], dtype=float)
    dt = t - t_start[active]
    return p0[active] + v[active] * dt[:, None], v[active], psi[active]


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    duration: float = 30.0
    dt: float = 0.002
    controller: str = "hinf"          # hinf | pid | open_loop
    use_outer: bool = True
    wind: WindModel = field(default_factory=WindModel)
    references: tuple = ()
    seed: int = 0
    initial_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))
    att_ref: np.ndarray | None = None  # fixed attitude reference when outer is off

    def validate(self) -> "ScenarioConfig":
        if self.duration <= 0.0:
            raise ConfigError("duration must be > 0")
        if not 0.0 < self.dt <= 0.02:
            raise ConfigError("dt must lie in (0, 0.02]")
        if self.controller not in ("hinf", "pid", "open_loop"):
            raise ConfigError(f"unknown controller '{self.controller}'")
        if self.use_outer:
            if not self.references:
                raise ConfigError("outer loop requires reference segments")
            starts = [seg.t_start for seg in self.references]
            if sorted(starts) != starts or len(set(starts)) != len(starts):
                raise ConfigError("reference segments must be time-ordered "
                                  "and non-overlapping")
        self.wind.validate()
        return self


@dataclass
class SimArtifacts:
    """Everything a scenario needs beyond its configuration."""

    trim: TrimPoint
    synthesis: SynthesisResult | None = None
    observer: ObserverDesign | None = None
    pid_gains: PidGains = field(default_factory=PidGains)
    outer_gains: OuterGains = field(default_factory=OuterGains)


@dataclass
class ScenarioLog:
    t: np.ndarray
    states: np.ndarray       # (n, 15)
    inputs: np.ndarray       # (n, 4)
    wind: np.ndarray         # (n, 3)
    att_ref: np.ndarray      # (n, 3)
    estimates: np.ndarray    # (n, 3) deviation estimates
    sat_flags: np.ndarray    # (n,) integer bit masks
    config: ScenarioConfig

    def to_csv(self, path):
        """Write one row per step: every float as its shortest round-trip
        `repr`, then the flag bits as an integer."""
        columns = (self.t, self.states, self.inputs, self.wind, self.att_ref,
                   self.estimates)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(LOG_COLUMNS + "\n")
            # a block at a time: Python floats for every row at once would
            # take several times the memory of the log itself
            for start in range(0, self.t.size, CSV_BLOCK_ROWS):
                block = slice(start, start + CSV_BLOCK_ROWS)
                rows = np.column_stack([c[block] for c in columns]).tolist()
                flags = self.sat_flags[block].astype(int).tolist()
                fh.writelines(f"{','.join(map(repr, row))},{bits}\n"
                              for row, bits in zip(rows, flags))


def read_log_csv(path) -> dict:
    """Read a scenario log back into named column arrays."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.array([[float(v) for v in line.strip().split(",")]
                         for line in fh if line.strip()])
    if header != LOG_COLUMNS.split(","):
        raise ConfigError("unexpected log header")
    return {name: data[:, k] for k, name in enumerate(header)}


@dataclass(frozen=True)
class MetricsReport:
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
    events = [0.0]
    if config.use_outer:
        events.extend(seg.t_start for seg in config.references)
    for g in config.wind.gusts:
        events.extend((g.start, g.end))
    return sorted(set(e for e in events if 0.0 <= e < config.duration))


def settled_mask(t: np.ndarray, config: ScenarioConfig,
                 window: float = SETTLE_WINDOW) -> np.ndarray:
    """True where t is at least `window` past every reference or gust event."""
    mask = np.ones_like(t, dtype=bool)
    for ev in _event_times(config):
        mask &= ~((t >= ev - 1e-12) & (t < ev + window))
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
    gust edge).
    """
    t = np.asarray(t)
    states = np.asarray(states)
    att_ref = np.asarray(att_ref)

    phi_err = states[:, 6] - att_ref[:, 0]
    theta_err = states[:, 7] - att_ref[:, 1]
    max_phi = float(np.max(np.abs(phi_err))) * 180.0 / math.pi
    max_theta = float(np.max(np.abs(theta_err))) * 180.0 / math.pi

    if config.use_outer and config.references:
        p_ref, v_ref, _ = reference_table(config.references, t)
        rot = _rotation_rows(states[:, 6], states[:, 7], states[:, 8])
        v_ned = np.einsum("nij,nj->ni", rot, states[:, 3:6])
        vel_err = v_ned - v_ref
        pos_err = states[:, 0:3] - p_ref

        mask = settled_mask(t, config)
        if not np.any(mask):
            mask = np.ones_like(t, dtype=bool)
        ve = vel_err[mask]
        rms = np.sqrt(np.mean(ve ** 2, axis=0))
        vmax = np.max(np.abs(ve), axis=0)

        # position envelopes describe station keeping, so only settled
        # stretches of zero-velocity (hover) segments count
        hover = mask & np.all(v_ref == 0.0, axis=1)
        if not np.any(hover):
            hover = mask
        pe = pos_err[hover]
        horiz = float(np.max(np.hypot(pe[:, 0], pe[:, 1])))
        alt = float(np.max(np.abs(pe[:, 2])))
    else:
        rms = np.zeros(3)
        vmax = np.zeros(3)
        horiz = 0.0
        alt = 0.0
    return MetricsReport(max_phi_err_deg=max_phi, max_theta_err_deg=max_theta,
                         rms_vel_err=rms, max_vel_err=vmax,
                         horizontal_envelope=horiz, altitude_envelope=alt)


def run_scenario(config: ScenarioConfig, params: HelicopterParams,
                 artifacts: SimArtifacts) -> tuple[ScenarioLog, MetricsReport]:
    """Execute one closed-loop scenario.

    Wind and references are tabulated for every step time before the loop,
    which keeps the flat state and the inputs as lists of Python floats
    between steps and reads one wind row per step.  Loop order per step:
    evaluate the outer loop, form the inner-loop command from measurements
    plus observer estimates, log, integrate the plant one RK4 step with
    everything held, then step the observer on the same held measurements.
    A toolkit error raised by any of these stages stops the run as a
    SimulationAbort that names the stage, the step and the simulated time.
    """
    config.validate()
    for name in ("outer_gains", "pid_gains"):
        try:
            getattr(artifacts, name).validate()
        except ValueError as exc:
            raise ConfigError(f"artifacts.{name}: {exc}") from exc
    if config.controller == "hinf" and (artifacts.synthesis is None
                                        or artifacts.observer is None):
        raise ConfigError("hinf controller requires synthesis and observer artifacts")

    par = params
    trim = artifacts.trim
    controller = config.controller
    gains = artifacts.outer_gains
    n_steps = int(round(config.duration / config.dt))
    dt = config.dt
    times = np.arange(n_steps + 1) * dt

    winds = config.wind.realize(config.duration, config.seed).table(times)
    if config.use_outer:
        p_refs, v_refs, psi_refs = (
            a.tolist() for a in reference_table(config.references, times))

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
        gain_rows = artifacts.synthesis.gain_rows()
    obs_state = None
    if artifacts.observer is not None:
        obs_step = artifacts.observer.discretize(dt)
        obs_state = observer_init(artifacts.observer, np.zeros(6))
    z_trim = np.array([trim.state.a_s, trim.state.b_s, trim.dped_prime])

    states = np.empty((n_steps + 1, N_STATES))
    inputs = np.empty((n_steps + 1, 4))
    att_refs = np.empty((n_steps + 1, 3))
    estimates = np.zeros((n_steps + 1, 3))
    flags = np.zeros(n_steps + 1, dtype=int)

    consts = plant_constants(par)
    ka_g, kp_g, ki_g = par.ka_g, par.kp_g, par.ki_g
    flap_limit = par.flap_limit

    def deriv(xv, uv, wv):
        return _state_derivative_flat(xv, uv, wv, consts)

    carry_flags = 0
    try:
        for k in range(n_steps + 1):
            # the sum is finite unless an element is not or the sum overflows
            if not math.isfinite(sum(x)) and not all(map(math.isfinite, x)):
                raise SimulationAbort(k, times[k])
            step_flags = carry_flags
            carry_flags = 0

            # outer loop; tilt commands are deviations about the trim attitude
            stage = "outer loop"
            if config.use_outer:
                p_ref, v_ref = p_refs[k], v_refs[k]
                v_ned = ned_velocity(x)
                theta_dev, phi_dev, tilt_sat = horizontal_control(
                    p_ref, v_ref, x, v_ned, gains)
                if tilt_sat:
                    step_flags |= SAT_TILT
                delta_col, col_sat = altitude_control(
                    p_ref, v_ref, x, v_ned, gains, par)
                if col_sat:
                    step_flags |= SAT_DCOL
                att_ref = [h_trim[0] + phi_dev, h_trim[1] + theta_dev,
                           psi_refs[k]]
            else:
                att_ref = att_ref_fixed
                delta_col = col_trim

            # measurements (deviations from trim)
            y_dev = [x[i0] - yt0, x[i1] - yt1, x[i2] - yt2, x[i3] - yt3,
                     x[i4] - yt4, x[i5] - yt5]

            # inner loop
            stage = "inner loop"
            if controller == "hinf":
                x_hat = assemble_state_estimate(y_dev, obs_state.estimate)
                u, sat = control_law(gain_rows, x_hat, att_ref, u_trim3,
                                     delta_col=delta_col)
                step_flags |= sat
            elif controller == "pid":
                u = [*pid.step(x, att_ref, dt), delta_col]
                step_flags |= clamp_servos(u)
            else:  # open loop at trim
                u = u_open

            _, _, gyro_sat = yaw_gyro_law(x[14], u[2], x[11], ka_g, kp_g, ki_g)
            if gyro_sat:
                step_flags |= SAT_GYRO

            states[k] = x
            inputs[k] = u
            att_refs[k] = att_ref
            if obs_state is not None:
                estimates[k] = obs_state.estimate
            flags[k] = step_flags

            if k == n_steps:
                break

            stage = "plant RK4"
            x = rk4_step(deriv, x, u, winds[k].tolist(), dt)
            for idx in (12, 13):  # mechanical flapping stops
                if abs(x[idx]) > flap_limit:
                    x[idx] = math.copysign(flap_limit, x[idx])
                    carry_flags |= SAT_FLAP
            if obs_state is not None:
                stage = "observer"
                obs_state = observer_step(
                    obs_step, obs_state, y_dev,
                    [u[0] - ut0, u[1] - ut1, u[2] - ut2])
    except SimulationAbort:
        raise
    except HeliError as exc:
        raise SimulationAbort(k, times[k], stage, exc) from exc

    if obs_state is not None:
        estimates += z_trim
    log = ScenarioLog(t=times, states=states, inputs=inputs, wind=winds,
                      att_ref=att_refs, estimates=estimates, sat_flags=flags,
                      config=config)
    metrics = compute_metrics(times, states, att_refs, config)
    return log, metrics


@dataclass(frozen=True)
class ComparisonReport:
    metrics_a: MetricsReport
    metrics_b: MetricsReport
    label_a: str
    label_b: str

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
        lines = [f"{'metric':<24}{self.label_a:>14}{self.label_b:>14}{'ratio':>10}"]
        for key in da:
            r = ratios[key]
            r_str = "n/a" if math.isnan(r) else f"{r:.3f}"
            lines.append(f"{key:<24}{da[key]:>14.6f}{db[key]:>14.6f}{r_str:>10}")
        return "\n".join(lines)


def _run_first_in_child(cfg_a: ScenarioConfig, cfg_b: ScenarioConfig,
                        params: HelicopterParams, artifacts: SimArtifacts):
    """Run `cfg_a` in a forked child while this process runs `cfg_b`.

    The child writes the raw bytes of its log's `LOG_ARRAYS` into a pipe and
    leaves by `os._exit`, whatever happens; this process reads them into
    arrays shaped like its own log's.  Returns those arrays, or None when
    the child exited non-zero or sent too few bytes, with `cfg_b`'s
    `(log, metrics)`.  An exception from `cfg_b`'s run propagates; the
    child is killed first.  The child is reaped on every path.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            log, _ = run_scenario(cfg_a, params, artifacts)
            with open(write_fd, "wb") as pipe:
                for name in LOG_ARRAYS:
                    pipe.write(getattr(log, name))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            log_b, met_b = run_scenario(cfg_b, params, artifacts)
            arrays = [np.empty_like(getattr(log_b, name))
                      for name in LOG_ARRAYS]
            received = all(pipe.readinto(a) == a.nbytes for a in arrays)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    return (arrays if received and status == 0 else None), (log_b, met_b)


def compare_controllers(config: ScenarioConfig, params: HelicopterParams,
                        artifacts: SimArtifacts,
                        controllers=("hinf", "pid")
                        ) -> tuple[ComparisonReport, ScenarioLog, ScenarioLog]:
    """Run the same scenario (same wind, seed, references) under two controllers.

    The two runs share only their inputs, so they run in parallel: a forked
    child runs `controllers[0]` while this process runs `controllers[1]`,
    then reads the child's log, sent as raw array bytes, into arrays it
    allocates, and recomputes that run's metrics from it.  Raw bytes rather
    than pickle keep a second copy of the log out of memory, and the logs
    and metrics are bit for bit those of two `run_scenario` calls.  If the
    child fails, sends too few bytes, or the second run raises, the runs are
    finished here in order, first then second, so the error raised is the
    one sequential runs raise.  A fork copies only the calling thread, so
    call this from a process that runs no other Python threads.
    """
    cfg_a = replace(config, controller=controllers[0])
    cfg_b = replace(config, controller=controllers[1])
    try:
        arrays, run_b = _run_first_in_child(cfg_a, cfg_b, params, artifacts)
    except Exception:  # redone below, in order, to raise the sequential error
        arrays = run_b = None
    if arrays is None:
        log_a, met_a = run_scenario(cfg_a, params, artifacts)
    else:
        log_a = ScenarioLog(**dict(zip(LOG_ARRAYS, arrays)), config=cfg_a)
        met_a = compute_metrics(log_a.t, log_a.states, log_a.att_ref, cfg_a)
    if run_b is None:
        run_b = run_scenario(cfg_b, params, artifacts)
    log_b, met_b = run_b
    report = ComparisonReport(metrics_a=met_a, metrics_b=met_b,
                              label_a=controllers[0], label_b=controllers[1])
    return report, log_a, log_b
