"""The step's clamps that are skipped when nothing saturates, bit for bit
against the forms that always clamp.

`control_law` clamps its servo channels, `horizontal_control` its tilt
arguments and the scenario loop its flap stops only when some value is out
of range; `attitude_terms` writes the rotation rows inline.  Each oracle
below is the form that ran before: it clamps every value on every call, or
builds the rows with `dcm_rows`.  Values at the limits, just past them,
NaN and signed zeros are drawn on purpose, since there a skipped clamp and
a clamp that changes nothing could differ.
"""
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import heli.sim
from heli import (
    OuterGains,
    SimulationAbort,
    SingularAttitudeError,
    attitude_terms,
    builtin_scenario,
    control_law,
    horizontal_control,
    run_scenario,
)
from heli.dynamics import _check_theta, clamp, dcm_rows
from heli.state import SAT_FLAP, clamp_servos


def _bits(values) -> list:
    """Each float's bits, but a NaN as "nan": the sign of a NaN that an
    addition of two NaNs returns is not fixed (CPython's float addition
    changes operand order once the interpreter specializes it, after a few
    calls of the same code)."""
    return ["nan" if math.isnan(v) else struct.pack("<d", v) for v in values]


def _outcome(call):
    """A call's float bits and the rest of its result, or its error."""
    try:
        result = call()
    except (SingularAttitudeError, ValueError) as exc:
        return "raised", type(exc), str(exc)
    floats = [v for v in result if type(v) is float]
    return _bits(floats), [v for v in result if type(v) is not float]


# -- control_law ------------------------------------------------------------

def _oracle_control_law(gains, x, r, u_trim, delta_col):
    """`control_law` as it was: every call clamps through `clamp_servos`."""
    f_rows, g_rows, (h0, h1, h2) = gains
    (f00, f01, f02, f03, f04, f05, f06, f07, f08), \
        (f10, f11, f12, f13, f14, f15, f16, f17, f18), \
        (f20, f21, f22, f23, f24, f25, f26, f27, f28) = f_rows
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = g_rows
    ut0, ut1, ut2 = u_trim
    e0, e1, e2 = r[0] - h0, r[1] - h1, r[2] - h2
    x0, x1, x2, x3, x4, x5, x6, x7, x8 = x
    u = [f00 * x0 + f01 * x1 + f02 * x2 + f03 * x3 + f04 * x4 + f05 * x5
         + f06 * x6 + f07 * x7 + f08 * x8
         + (g00 * e0 + g01 * e1 + g02 * e2) + ut0,
         f10 * x0 + f11 * x1 + f12 * x2 + f13 * x3 + f14 * x4 + f15 * x5
         + f16 * x6 + f17 * x7 + f18 * x8
         + (g10 * e0 + g11 * e1 + g12 * e2) + ut1,
         f20 * x0 + f21 * x1 + f22 * x2 + f23 * x3 + f24 * x4 + f25 * x5
         + f26 * x6 + f27 * x7 + f28 * x8
         + (g20 * e0 + g21 * e1 + g22 * e2) + ut2]
    flags = clamp_servos(u)
    u.append(delta_col)
    return u, flags


_SERVO_EDGES = [1.0, -1.0, 0.0, -0.0, math.nextafter(1.0, 2.0),
                math.nextafter(-1.0, -2.0), math.nextafter(1.0, 0.0),
                math.nextafter(-1.0, 0.0), math.inf, -math.inf, math.nan]
_servo_values = st.sampled_from(_SERVO_EDGES) | st.floats(-3.0, 3.0) \
    | st.floats()
_zeros = st.sampled_from([0.0, -0.0])


def _assert_control_law_is_the_oracles(gains, x, r, u_trim, delta_col):
    u, flags = control_law(gains, x, r, u_trim, delta_col=delta_col)
    want, want_flags = _oracle_control_law(gains, x, r, u_trim, delta_col)
    assert type(u) is list and len(u) == 4
    assert _bits(u) == _bits(want)
    assert flags == want_flags


@settings(deadline=None, max_examples=300)
@given(st.lists(_zeros, min_size=27, max_size=27),
       st.lists(_zeros, min_size=9, max_size=9),
       st.lists(_zeros, min_size=9, max_size=9),
       st.lists(_servo_values, min_size=3, max_size=3), _servo_values)
@example([0.0] * 27, [0.0] * 9, [0.0] * 9, [1.0, -1.0, 0.5], 0.3)
@example([-0.0] * 27, [-0.0] * 9, [0.0] * 9, [-0.0, 0.0, -1.0], -0.0)
@example([-0.0] * 27, [-0.0] * 9, [0.0] * 9,
         [math.nextafter(1.0, 2.0), 0.0, 0.0], 0.0)
@example([-0.0] * 27, [-0.0] * 9, [0.0] * 9,
         [0.0, math.nextafter(-1.0, -2.0), math.nan], 2.0)
@example([-0.0] * 27, [-0.0] * 9, [0.0] * 9, [math.nan] * 3, math.nan)
def test_control_law_at_the_servo_limits(f, g, x, u_trim, delta_col):
    # zero gains and state: each channel is its trim input, so the edges
    # reach the clamp test as they are (up to the sign of a zero)
    h = [0.25, -0.5, 1.0]
    gains = ([f[0:9], f[9:18], f[18:27]], [g[0:3], g[3:6], g[6:9]], h)
    _assert_control_law_is_the_oracles(gains, x, h, u_trim, delta_col)


_gain_values = _zeros | st.floats(-2.0, 2.0) | st.sampled_from(_SERVO_EDGES)


@settings(deadline=None, max_examples=200)
@given(st.lists(_gain_values, min_size=27, max_size=27),
       st.lists(_gain_values, min_size=9, max_size=9),
       st.lists(_gain_values, min_size=9, max_size=9),
       st.lists(_gain_values, min_size=6, max_size=6),
       st.lists(_servo_values, min_size=3, max_size=3), _servo_values)
def test_control_law_equals_always_clamp(f, g, x, r_h, u_trim, delta_col):
    gains = ([f[0:9], f[9:18], f[18:27]], [g[0:3], g[3:6], g[6:9]], r_h[3:])
    _assert_control_law_is_the_oracles(gains, x, r_h[:3], u_trim, delta_col)


def test_control_law_draws_reach_both_branches():
    rng = np.random.default_rng(7)
    h = [0.0, 0.0, 0.0]
    seen = set()
    for _ in range(2000):
        f = rng.normal(0.0, 1.0, (3, 9)).tolist()
        g = rng.normal(0.0, 1.0, (3, 3)).tolist()
        x = rng.normal(0.0, 0.5, 9).tolist()
        gains = (f, g, h)
        _assert_control_law_is_the_oracles(gains, x, [0.1, -0.1, 0.0],
                                           [0.01, -0.02, 0.03], 0.4)
        seen.add(control_law(gains, x, [0.1, -0.1, 0.0],
                             [0.01, -0.02, 0.03], 0.4)[1] != 0)
    assert seen == {False, True}


# -- horizontal_control -----------------------------------------------------

def _oracle_horizontal(p_ref, v_ref, x, att, consts):
    """`horizontal_control` as it was: both tilt arguments are clamped on
    every call."""
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
    s_fwd = clamp(s_fwd, -limit, limit)
    s_rgt = clamp(s_rgt, -limit, limit)

    theta_ref = -math.asin(s_fwd)
    phi_ref = math.asin(s_rgt)
    return theta_ref, phi_ref, saturated


@st.composite
def tilt_arguments(draw):
    """A tilt limit, and a forward and a rightward tilt argument on it,
    just past it, NaN, a signed zero or anything; with unit position
    gains, no damping and zero heading, each argument is its position
    error."""
    tilt_limit = draw(st.floats(1e-6, math.pi / 2, exclude_max=True))
    limit = math.sin(tilt_limit)
    edges = st.sampled_from([limit, -limit, math.nextafter(limit, 2.0),
                             math.nextafter(-limit, -2.0),
                             math.nextafter(limit, 0.0), math.nan, 0.0, -0.0,
                             math.inf, -math.inf])
    arg = edges | st.floats(-2.0 * limit, 2.0 * limit) | st.floats()
    return tilt_limit, draw(arg), draw(arg)


@settings(deadline=None, max_examples=400)
@given(tilt_arguments())
@example((0.3, math.sin(0.3), -math.sin(0.3)))
@example((0.3, math.nextafter(math.sin(0.3), 1.0), 0.0))
@example((0.3, -0.0, math.nan))
@example((0.3, math.nan, math.nan))
def test_horizontal_control_at_the_tilt_limit(case):
    tilt_limit, s_fwd, s_rgt = case
    consts = OuterGains(kp_x=1.0, kd_x=0.0, kp_y=1.0, kd_y=0.0,
                        tilt_limit=tilt_limit).loop_constants(
                            heli.HelicopterParams())
    x = [0.0] * 15
    p_ref, v_ref = [s_fwd, s_rgt, 0.0], [0.0, 0.0, 0.0]
    att = (0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0)
    got = _outcome(lambda: horizontal_control(p_ref, v_ref, x, att, consts))
    want = _outcome(lambda: _oracle_horizontal(p_ref, v_ref, x, att, consts))
    assert got == want


@settings(deadline=None, max_examples=300)
@given(st.lists(st.floats(-5.0, 5.0) | st.sampled_from([math.nan, -0.0]),
                min_size=13, max_size=13),
       st.floats(1e-3, 1.5))
def test_horizontal_control_equals_always_clamp(v, tilt_limit):
    # arbitrary errors, velocities, heading and gains
    consts = OuterGains(kp_x=abs(v[9]), kd_x=abs(v[10]), kp_y=abs(v[11]),
                        kd_y=abs(v[12]), tilt_limit=tilt_limit
                        ).loop_constants(heli.HelicopterParams())
    x = [v[0], v[1]] + [0.0] * 13
    att = (v[4], v[5], 0.0, 1.0, 1.0, math.sin(v[8]), math.cos(v[8]))
    args = ([v[2], v[3], 0.0], [v[6], v[7], 0.0], x, att, consts)
    assert (_outcome(lambda: horizontal_control(*args))
            == _outcome(lambda: _oracle_horizontal(*args)))


# -- the flap stops of the scenario loop ------------------------------------

def _oracle_flap_stops(x, flap_limit):
    """The scenario loop's flap stops as they were: each flap angle is
    tested and stopped on every step."""
    flags = 0
    for idx in (12, 13):
        if abs(x[idx]) > flap_limit:
            x[idx] = math.copysign(flap_limit, x[idx])
            flags |= SAT_FLAP
    return flags


@pytest.fixture(scope="module")
def one_step_run(params, artifacts):
    """`run(a_s, b_s)`: a one-step open-loop run whose RK4 step returns the
    trim state with the flap angles a_s and b_s, so the loop's flap stops
    act on them before step 1 is logged."""
    trim_x = artifacts.trim.state.as_vector().tolist()
    cfg = builtin_scenario("gust-attitude-hold", seed=3)
    cfg.controller = "open_loop"
    cfg.duration = cfg.dt

    def run(a_s, b_s):
        def flapping(derivative, state, inputs, wind, dt):
            x = list(trim_x)
            x[12], x[13] = a_s, b_s
            return x

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(heli.sim, "rk4_step", flapping)
            return run_scenario(cfg, params, artifacts)[0]
    return run


@st.composite
def flap_angles(draw):
    limit = heli.HelicopterParams().flap_limit
    edges = st.sampled_from([limit, -limit, math.nextafter(limit, 1.0),
                             math.nextafter(-limit, -1.0),
                             math.nextafter(limit, 0.0), 0.0, -0.0, math.nan,
                             math.inf])
    angle = edges | st.floats(-2.0 * limit, 2.0 * limit) | st.floats()
    return draw(angle), draw(angle)


@settings(deadline=None, max_examples=150)
@given(angles=flap_angles())
def test_flap_stops_equal_always_stop(params, one_step_run, angles):
    want_x = [0.0] * 12 + list(angles) + [0.0]
    want_flags = _oracle_flap_stops(want_x, params.flap_limit)
    if not all(map(math.isfinite, want_x)):
        # the stops leave a NaN as it is, and the next step's check stops
        # the run there
        with pytest.raises(SimulationAbort) as got:
            one_step_run(*angles)
        assert (got.value.step, got.value.stage) == (1, "state check")
        return
    log = one_step_run(*angles)
    assert _bits(log.states[1, 12:14].tolist()) == _bits(want_x[12:14])
    assert int(log.sat_flags[1]) & SAT_FLAP == want_flags


def test_flap_stops_fire_on_either_angle(params, one_step_run):
    limit = params.flap_limit
    for a_s, b_s, stopped in ((limit, -limit, False),
                              (math.nextafter(limit, 1.0), 0.0, True),
                              (0.0, -2.0 * limit, True)):
        log = one_step_run(a_s, b_s)
        assert bool(log.sat_flags[1] & SAT_FLAP) is stopped
        assert np.all(np.abs(log.states[1, 12:14]) <= limit)


# -- attitude_terms ---------------------------------------------------------

def _oracle_attitude_terms(x):
    """`attitude_terms` as it was: the NED rows come from `dcm_rows`."""
    phi, theta, psi = x[6], x[7], x[8]
    _check_theta(theta)
    sphi, cphi = math.sin(phi), math.cos(phi)
    sth, cth = math.sin(theta), math.cos(theta)
    spsi, cpsi = math.sin(psi), math.cos(psi)
    vx, vy, vz = x[3], x[4], x[5]
    r_n, r_e, r_d = dcm_rows(sphi, cphi, sth, cth, spsi, cpsi)
    return (r_n[0] * vx + r_n[1] * vy + r_n[2] * vz,
            r_e[0] * vx + r_e[1] * vy + r_e[2] * vz,
            r_d[0] * vx + r_d[1] * vy + r_d[2] * vz,
            cphi, cth, spsi, cpsi)


_angles = st.floats(-4.0, 4.0) | st.sampled_from(
    [0.0, -0.0, math.pi / 2, -math.pi / 2, math.nan])
_speeds = st.floats(-50.0, 50.0) | st.sampled_from(
    [0.0, -0.0, math.inf, math.nan]) | st.floats()


@settings(deadline=None, max_examples=400)
@given(st.lists(_angles, min_size=3, max_size=3),
       st.lists(_speeds, min_size=3, max_size=3))
@example([1.056768901140651, math.nan, math.pi / 2],
         [14.691449464552221, 0.0, -1193009497317468.0])
def test_attitude_terms_equal_dcm_rows(angles, velocity):
    x = [0.0] * 15
    x[3:6] = velocity
    x[6:9] = angles
    assert (_outcome(lambda: attitude_terms(x))
            == _outcome(lambda: _oracle_attitude_terms(x)))
