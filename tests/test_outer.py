import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heli import (
    HelicopterParams,
    OuterGains,
    SingularAttitudeError,
    altitude_control,
    attitude_terms,
    horizontal_control,
)
from heli.dynamics import dcm_rows


def _ref(pn=0.0, pe=0.0, pd=0.0, v=(0.0, 0.0, 0.0)):
    """(p_ref, v_ref) in NED."""
    return np.array([pn, pe, pd]), np.array(v, dtype=float)


def _state(pn=0.0, pe=0.0, pd=0.0, v_body=(0.0, 0.0, 0.0),
           phi=0.0, theta=0.0, psi=0.0):
    x = np.zeros(15)
    x[0:3] = (pn, pe, pd)
    x[3:6] = v_body
    x[6:9] = (phi, theta, psi)
    return x


def _altitude(ref, x, gains, params):
    return altitude_control(*ref, x, attitude_terms(x),
                            gains.loop_constants(params))


def _horizontal(ref, x, gains):
    return horizontal_control(*ref, x, attitude_terms(x),
                              gains.loop_constants(HelicopterParams()))


class TestAltitude:
    def test_zero_error_level_commands_weight(self, params):
        gains = OuterGains()
        dcol, sat = _altitude(_ref(), _state(), gains, params)
        expect = (params.m * params.g - params.thrust_trim) / params.k_col
        assert dcol == pytest.approx(expect, abs=1e-15)
        assert not sat

    def test_tilt_compensation_at_sixty_degrees(self, params):
        gains = OuterGains()
        par = params.replace(k_col=200.0)  # enough authority to stay unclamped
        theta = math.radians(60.0)
        dcol, sat = _altitude(_ref(), _state(theta=theta), gains, par)
        t_cmd = par.thrust_trim + par.k_col * dcol
        assert not sat
        assert t_cmd == pytest.approx(2.0 * par.m * par.g, rel=1e-12)

    def test_proportional_term(self, params):
        gains = OuterGains()
        # one metre below the reference: up-positive error is +1
        dcol, _ = _altitude(_ref(pd=-10.0), _state(pd=-9.0), gains, params)
        t_cmd = params.thrust_trim + params.k_col * dcol
        assert t_cmd == pytest.approx(params.m * params.g + gains.kp_z,
                                      rel=1e-12)

    def test_collective_clamp(self, params):
        gains = OuterGains()
        dcol, sat = _altitude(_ref(pd=-100.0), _state(pd=0.0), gains,
                              params)
        assert sat
        assert dcol == gains.col_limit

    def test_singular_attitude_rejected(self, params):
        gains = OuterGains()
        for x in (_state(theta=math.pi / 2), _state(phi=-math.pi / 2)):
            with pytest.raises(SingularAttitudeError):
                _altitude(_ref(), x, gains, params)


class TestHorizontal:
    def test_zero_error_zero_reference(self):
        theta_ref, phi_ref, sat = _horizontal(_ref(), _state(), OuterGains())
        assert theta_ref == 0.0
        assert phi_ref == 0.0
        assert not sat

    def test_tilt_clamp(self):
        gains = OuterGains()
        theta_ref, phi_ref, sat = _horizontal(
            _ref(pn=100.0, pe=-100.0), _state(), gains)
        assert sat
        assert abs(theta_ref) == pytest.approx(gains.tilt_limit)
        assert abs(phi_ref) == pytest.approx(gains.tilt_limit)

    def test_north_error_commands_nose_down(self):
        gains = OuterGains()
        e = 1.5
        theta_ref, phi_ref, _ = _horizontal(_ref(pn=e), _state(), gains)
        assert theta_ref == pytest.approx(-math.asin(gains.kp_x * e), abs=1e-12)
        assert phi_ref == 0.0

    def test_east_error_commands_positive_roll(self):
        gains = OuterGains()
        theta_ref, phi_ref, _ = _horizontal(_ref(pe=1.0), _state(), gains)
        assert phi_ref > 0.0
        assert theta_ref == 0.0

    def test_heading_equivariance(self):
        gains = OuterGains()
        rng = np.random.default_rng(23)
        for _ in range(50):
            e_n, e_e = rng.uniform(-3, 3, size=2)
            psi = rng.uniform(-math.pi, math.pi)
            base = _horizontal(_ref(pn=e_n, pe=e_e), _state(), gains)
            # rotate the error into the new heading and rotate the vehicle
            rn = math.cos(psi) * e_n - math.sin(psi) * e_e
            re = math.sin(psi) * e_n + math.cos(psi) * e_e
            turned = _horizontal(_ref(pn=rn, pe=re), _state(psi=psi), gains)
            assert base[0] == pytest.approx(turned[0], abs=1e-10)
            assert base[1] == pytest.approx(turned[1], abs=1e-10)

    def test_outputs_bounded_for_arbitrary_inputs(self):
        gains = OuterGains()
        rng = np.random.default_rng(29)
        for _ in range(200):
            ref = _ref(*rng.uniform(-1e3, 1e3, size=3),
                       v=tuple(rng.uniform(-50, 50, size=3)))
            st = _state(*rng.uniform(-1e3, 1e3, size=3),
                        v_body=tuple(rng.uniform(-30, 30, size=3)),
                        phi=rng.uniform(-1.0, 1.0),
                        theta=rng.uniform(-1.0, 1.0),
                        psi=rng.uniform(-6.0, 6.0))
            theta_ref, phi_ref, _ = _horizontal(ref, st, gains)
            assert abs(theta_ref) <= gains.tilt_limit + 1e-12
            assert abs(phi_ref) <= gains.tilt_limit + 1e-12

    def test_velocity_damping_uses_ned_frame(self):
        gains = OuterGains()
        # moving north toward the target reduces the commanded tilt
        still = _horizontal(_ref(pn=2.0), _state(), gains)
        moving = _horizontal(_ref(pn=2.0), _state(v_body=(1.0, 0.0, 0.0)),
                             gains)
        assert abs(moving[0]) < abs(still[0])


class TestGainValidation:
    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            OuterGains(kp_z=-1.0).validate()

    @pytest.mark.parametrize("name", ["kp_z", "kd_z", "kp_x", "kd_x",
                                      "kp_y", "kd_y"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_gain_rejected(self, name, value):
        with pytest.raises(ValueError,
                           match=f"^outer gain {name} must be finite"):
            OuterGains(**{name: value}).validate()

    def test_bad_tilt_limit_rejected(self):
        with pytest.raises(ValueError):
            OuterGains(tilt_limit=2.0).validate()

    def test_defaults_valid(self):
        OuterGains().validate()
        par = HelicopterParams()
        assert par.validate() is par


class TestLoopConstants:
    def test_fields_in_order(self, params):
        gains = OuterGains(kp_z=1.0, kd_z=2.0, kp_x=3.0, kd_x=4.0, kp_y=5.0,
                           kd_y=6.0, tilt_limit=0.25, col_limit=0.5)
        consts = gains.loop_constants(params)
        assert consts == (3.0, 4.0, 5.0, 6.0, 1.0, 2.0, params.m * params.g,
                          params.thrust_trim, params.k_col, 0.5,
                          math.sin(0.25))
        assert {type(c) for c in consts} == {float}


# The outer loop step as it was written before `attitude_terms`: each law
# took the NED velocity and took its own sines and cosines of the attitude,
# and read the gains and parameters from their records.  The oracle for the
# step that evaluates the attitude once.

def _oracle_ned_velocity(x):
    theta = x[7]
    if abs(theta) >= math.pi / 2.0:
        raise SingularAttitudeError(f"|theta| = {abs(theta):.4f} rad >= pi/2")
    rows = dcm_rows(math.sin(x[6]), math.cos(x[6]), math.sin(theta),
                    math.cos(theta), math.sin(x[8]), math.cos(x[8]))
    vx, vy, vz = x[3], x[4], x[5]
    return [r[0] * vx + r[1] * vy + r[2] * vz for r in rows]


def _oracle_altitude(p_ref, v_ref, x, v_ned, gains, params):
    phi, theta = x[6], x[7]
    cphi, cth = math.cos(phi), math.cos(theta)
    if abs(theta) >= math.pi / 2 or abs(phi) >= math.pi / 2:
        raise SingularAttitudeError("tilt compensation undefined at 90 deg")

    e_z = x[2] - p_ref[2]
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


def _oracle_horizontal(p_ref, v_ref, x, v_ned, gains):
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


def _outcome(step):
    """A step's outputs as (float bits, flags), or the error it raised."""
    try:
        (theta_ref, phi_ref, tilt_sat), (dcol, col_sat) = step()
    except SingularAttitudeError as exc:
        return "raised", str(exc)
    return (np.array([theta_ref, phi_ref, dcol]).tobytes(),
            (tilt_sat, col_sat))


def _both_steps(p_ref, v_ref, x, gains, params):
    """The outer loop step in the scenario loop's order, and the oracle's."""
    def step():
        att = attitude_terms(x)
        consts = gains.loop_constants(params)
        return (horizontal_control(p_ref, v_ref, x, att, consts),
                altitude_control(p_ref, v_ref, x, att, consts))

    def oracle():
        v_ned = _oracle_ned_velocity(x)
        return (_oracle_horizontal(p_ref, v_ref, x, v_ned, gains),
                _oracle_altitude(p_ref, v_ref, x, v_ned, gains, params))

    return _outcome(step), _outcome(oracle)


def _scaled(draw, scale):
    return draw(st.floats(-1.0, 1.0)) * scale


@st.composite
def outer_steps(draw):
    """A reference, a flat state (attitudes past 90 deg included), gains
    and parameters; the error scales span 1e-3 to 1e3, so both clamps fire
    on some draws and on neither on others."""
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    p_ref = [_scaled(draw, 1e3) for _ in range(3)]
    v_ref = [_scaled(draw, 10.0) for _ in range(3)]
    x = [0.0] * 15
    x[0:3] = [p + _scaled(draw, scale) for p in p_ref]
    x[3:6] = [_scaled(draw, scale) for _ in range(3)]
    right_angle = st.sampled_from([math.pi / 2, -math.pi / 2])
    x[6] = draw(right_angle | st.floats(-2.0, 2.0))
    x[7] = draw(right_angle | st.floats(-2.0, 2.0))
    x[8] = draw(st.floats(-10.0, 10.0))
    gain = st.floats(0.0, 40.0)
    gains = OuterGains(kp_z=draw(gain), kd_z=draw(gain),
                       kp_x=draw(st.floats(0.0, 2.0)),
                       kd_x=draw(st.floats(0.0, 2.0)),
                       kp_y=draw(st.floats(0.0, 2.0)),
                       kd_y=draw(st.floats(0.0, 2.0)),
                       tilt_limit=draw(st.floats(1e-3, 1.5)),
                       col_limit=draw(st.floats(0.05, 1.0))).validate()
    params = HelicopterParams().replace(m=draw(st.floats(2.0, 20.0)),
                                        k_col=draw(st.floats(10.0, 200.0)))
    return p_ref, v_ref, x, gains, params


@settings(deadline=None, max_examples=400)
@given(outer_steps())
def test_step_equals_parent_oracle(case):
    got, want = _both_steps(*case)
    assert got == want


def test_oracle_draws_fire_both_clamps():
    # the same kind of draws, seeded: each branch of both clamps and both
    # singular checks is met, and the step equals the oracle on all of them
    rng = np.random.default_rng(31)
    seen = set()
    for _ in range(3000):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        p_ref = rng.uniform(-1e3, 1e3, 3).tolist()
        v_ref = rng.uniform(-10.0, 10.0, 3).tolist()
        x = [0.0] * 15
        x[0:3] = (np.array(p_ref) + rng.uniform(-scale, scale, 3)).tolist()
        x[3:6] = rng.uniform(-scale, scale, 3).tolist()
        x[6], x[7] = rng.uniform(-1.8, 1.8, 2).tolist()
        x[8] = rng.uniform(-10.0, 10.0)
        gains = OuterGains(*rng.uniform(0.0, 40.0, 2).tolist(),
                           *rng.uniform(0.0, 2.0, 4).tolist(),
                           tilt_limit=rng.uniform(1e-3, 1.5),
                           col_limit=rng.uniform(0.05, 1.0)).validate()
        params = HelicopterParams().replace(k_col=rng.uniform(10.0, 200.0))
        got, want = _both_steps(p_ref, v_ref, x, gains, params)
        assert got == want
        if got[0] == "raised":
            seen.add(got[1].split()[0])
        else:
            seen.add(got[1])
    assert {(False, False), (True, False), (False, True), (True, True),
            "|theta|", "tilt"} <= seen
