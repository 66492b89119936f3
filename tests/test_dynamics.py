import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heli import (
    ControlInputs,
    FullState,
    HelicopterParams,
    SingularAttitudeError,
    flap_coupling,
)
from heli.sim import LOG_COLUMNS, _rotation_rows, rk4_step
from heli.dynamics import (
    LANE_OPS,
    _state_derivative_flat,
    clamp,
    clamp_lanes,
    plant_constants,
    yaw_gyro_law,
)
from heli.outer import attitude_terms
from heli.state import STATE_LABELS, clamp_servos

from oracles import rotation_body_to_ned, state_derivative


def _state(phi=0.0, theta=0.0, psi=0.0, p=0.0, q=0.0, r=0.0,
           a_s=0.0, b_s=0.0, vel=(0.0, 0.0, 0.0)):
    x = np.zeros(15)
    x[3:6] = vel
    x[6:9] = (phi, theta, psi)
    x[9:12] = (p, q, r)
    x[12:14] = (a_s, b_s)
    return x


def _euler_rates(x, params):
    return state_derivative(x, np.zeros(4), np.zeros(3), params)[6:9]


def _flap_rates(x, delta_lat, delta_lon, params):
    u = np.array([delta_lat, delta_lon, 0.0, 0.0])
    return state_derivative(x, u, np.zeros(3), params)[12:14]


def _force_moment(x, inputs, wind, params):
    """Net body force m*v_dot and moment J*omega_dot; exact at zero body rates."""
    assert np.all(x[9:12] == 0.0)
    xdot = state_derivative(x, inputs, wind, params)
    inertia = np.array([params.jx, params.jy, params.jz])
    return params.m * xdot[3:6], inertia * xdot[9:12]


class TestRotation:
    def test_zero_angles_identity(self):
        r = rotation_body_to_ned(0.0, 0.0, 0.0)
        assert np.allclose(r, np.eye(3), atol=1e-15)

    def test_quarter_roll_maps_body_y_to_ned_z(self):
        r = rotation_body_to_ned(math.pi / 2, 0.0, 0.0)
        assert np.allclose(r @ np.array([0.0, 1.0, 0.0]),
                           np.array([0.0, 0.0, 1.0]), atol=1e-15)

    def test_small_angle_orthogonality_and_bottom_corner(self):
        r = rotation_body_to_ned(0.0287, 0.0011, 0.0)
        assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-12
        assert r[2][2] == pytest.approx(math.cos(0.0287) * math.cos(0.0011),
                                        abs=1e-15)

    def test_random_attitudes_orthonormal(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            phi, psi = rng.uniform(-math.pi, math.pi, size=2)
            theta = rng.uniform(-1.5, 1.5)
            r = rotation_body_to_ned(phi, theta, psi)
            assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-12
            assert abs(np.linalg.det(r) - 1.0) < 1e-12

    def test_gimbal_singularity_rejected(self):
        with pytest.raises(SingularAttitudeError):
            rotation_body_to_ned(0.0, math.pi / 2, 0.0)


class TestEulerRates:
    def test_identity_at_level(self, params):
        out = _euler_rates(_state(p=0.3, q=-0.2, r=0.1), params)
        assert np.allclose(out, [0.3, -0.2, 0.1], atol=1e-15)

    def test_rolled_pitch_rate_splits(self, params):
        out = _euler_rates(_state(phi=math.pi / 4, q=1.0), params)
        assert np.allclose(out, [0.0, math.cos(math.pi / 4),
                                 math.sin(math.pi / 4)], atol=1e-15)

    def test_zero_rates(self, params):
        out = _euler_rates(_state(phi=0.4, theta=0.3, psi=-1.0), params)
        assert np.allclose(out, np.zeros(3), atol=1e-15)

    def test_singularity_rejected(self, params):
        with pytest.raises(SingularAttitudeError):
            _euler_rates(_state(theta=math.pi / 2), params)


class TestFlapCoupling:
    def test_ratio_one(self):
        par = HelicopterParams().replace(k_beta=1.0, gamma_mr=2.0,
                                         omega_mr=2.0, i_beta=1.0)
        assert flap_coupling(par) == pytest.approx(1.0, abs=0.0)

    def test_teetering_rotor(self):
        par = HelicopterParams().replace(k_beta=0.0)
        assert flap_coupling(par) == 0.0

    def test_default_matches_direct_expression(self, params):
        expected = 8.0 * params.k_beta / (
            params.gamma_mr * params.omega_mr ** 2 * params.i_beta)
        assert flap_coupling(params) == expected

    def test_antisymmetric_cross_coupling(self, params):
        # the lateral equation carries exactly the negated coefficient
        a_bs = flap_coupling(params)
        lon = _flap_rates(_state(b_s=1.0), 0.0, 0.0, params)
        lat = _flap_rates(_state(a_s=1.0), 0.0, 0.0, params)
        assert lon[0] == a_bs
        assert lat[1] == -a_bs


class TestFlapDerivatives:
    def test_equilibrium(self, params):
        out = _flap_rates(_state(), 0.0, 0.0, params)
        assert np.allclose(out, [0.0, 0.0], atol=0.0)

    def test_pitch_rate_enters_longitudinal_only(self, params):
        out = _flap_rates(_state(q=1.0), 0.0, 0.0, params)
        assert out[0] == -1.0
        assert out[1] == 0.0

    def test_steady_state_equals_blade_pitch(self, params):
        # with no coupling and no rates, a_s settles at the commanded pitch
        par = params.replace(k_beta=0.0)
        delta_lon = 0.3
        theta_a = par.k_lon * delta_lon
        out = _flap_rates(_state(a_s=theta_a), 0.0, delta_lon, par)
        assert out[0] == pytest.approx(0.0, abs=1e-15)


class TestYawGyro:
    def test_zero_error_outputs_integrator(self, params):
        out, xi_dot, sat = yaw_gyro_law(0.37, 0.0, 0.0, params.ka_g,
                                     params.kp_g, params.ki_g)
        assert out == pytest.approx(0.37)
        assert xi_dot == 0.0
        assert not sat

    def test_proportional_path(self):
        par = HelicopterParams().replace(kp_g=2.0, ka_g=1.0)
        out, _, _ = yaw_gyro_law(0.0, 0.1, 0.0, par.ka_g, par.kp_g,
                                 par.ki_g)
        assert out == pytest.approx(0.2)

    def test_integrator_ramps_under_step(self, params):
        # with r held at zero, xi(t) = ki * ka * dped * t exactly
        dped = 0.2
        dt = 0.001
        xi = 0.0
        for _ in range(1000):
            _, xi_dot, _ = yaw_gyro_law(xi, dped, 0.0, params.ka_g,
                                         params.kp_g, params.ki_g)
            xi += xi_dot * dt  # constant slope, Euler is exact
        assert xi == pytest.approx(params.ki_g * params.ka_g * dped * 1.0,
                                   rel=1e-12)

    def test_output_clamped_and_flagged(self):
        par = HelicopterParams().replace(kp_g=2.0, ka_g=1.0)
        out, xi_dot, sat = yaw_gyro_law(-0.5, -0.6, 0.0, par.ka_g,
                                       par.kp_g, par.ki_g)
        assert (out, sat) == (-1.0, True)
        assert xi_dot == par.ki_g * -0.6  # the integrator sees the raw error

    def test_derivative_uses_the_gyro_law(self, params):
        # the tail side force and xi_dot both follow the clamped law
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = _state(r=rng.uniform(-2.0, 2.0))
            x[14] = rng.uniform(-1.5, 1.5)
            u = np.array([0.0, 0.0, rng.uniform(-1.0, 1.0), 0.0])
            out, xi_dot, _ = yaw_gyro_law(x[14], u[2], x[11], params.ka_g,
                                         params.kp_g, params.ki_g)
            xdot = state_derivative(x, u, np.zeros(3), params)
            base = state_derivative(x, u, np.zeros(3),
                                    params.replace(k_ped=0.0))
            tail_y = -params.k_ped * out
            assert xdot[14] == xi_dot
            assert params.m * (xdot[4] - base[4]) == pytest.approx(
                tail_y, rel=1e-9, abs=1e-12)


    def test_lane_law_equals_float_law(self):
        # both sides of the clamp, at kp_g where it fires
        rng = np.random.default_rng(17)
        xi, dped, r = rng.uniform(-1.5, 1.5, (3, 200))
        lanes = yaw_gyro_law(xi, dped, r, 1.0, 3.0, 2.5, clamp_lanes)
        points = [yaw_gyro_law(*v, 1.0, 3.0, 2.5)
                  for v in zip(xi.tolist(), dped.tolist(), r.tolist())]
        assert 0 < np.count_nonzero(lanes[2]) < 200
        for lane, column in zip(lanes, zip(*points)):
            assert lane.tolist() == list(column)


class TestClamp:
    # every float: NaN, infinities, signed zeros and subnormals included
    any_float = st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True)
    bound = st.floats(allow_nan=False, allow_infinity=True,
                      allow_subnormal=True)

    @staticmethod
    def _bits(v) -> bytes:
        return struct.pack("<d", v)

    @settings(deadline=None, max_examples=2000)
    @given(any_float, bound, bound)
    # int_limit = 0 clamps the PID integrators to [-0.0, 0.0]
    @example(0.0, -0.0, 0.0)
    @example(-0.0, -0.0, 0.0)
    @example(-0.0, 0.0, 0.0)
    @example(0.0, -0.0, -0.0)
    @example(-0.0, 0.0, -0.0)
    @example(math.nan, -0.0, 0.0)
    @example(5e-324, -0.0, 0.0)
    @example(-5e-324, -0.0, 0.0)
    def test_float_clamp_is_min_of_max(self, v, a, b):
        # sorted keeps the order of -0.0 and 0.0, so lo == hi == +-0 in
        # either order comes through
        lo, hi = sorted((a, b))
        want = min(max(v, lo), hi)
        assert self._bits(clamp(v, lo, hi)) == self._bits(want)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(any_float, min_size=1, max_size=20), bound, bound)
    # lo = +0.0 and hi = -0.0: the float clamp gives lo, the lane clamp hi
    @example([-1.0], 0.0, -0.0)
    def test_lane_clamp_is_minimum_of_maximum(self, values, a, b):
        lo, hi = sorted((a, b))
        v = np.array(values)
        got = clamp_lanes(v, lo, hi)
        assert got.tobytes() == np.minimum(np.maximum(v, lo), hi).tobytes()
        # lane by lane the float clamp, but where the result is a zero tied
        # with a zero bound the sign may differ (on a tie numpy keeps the
        # second operand, Python the first); a NaN lane stays NaN
        for g, x in zip(got.tolist(), values):
            want = clamp(x, lo, hi)
            if math.isnan(x):
                assert math.isnan(g)
            elif want == 0.0 and (lo == 0.0 or hi == 0.0):
                assert g == want
            else:
                assert self._bits(g) == self._bits(want)

    def test_lane_ops_end_with_lane_clamp(self):
        assert len(LANE_OPS) == 4 and LANE_OPS[3] is clamp_lanes


class TestForcesAndMoments:
    def test_hover_force_balance(self, params):
        # thrust set to exactly m g with level attitude and no flap
        dcol = (params.m * params.g - params.thrust_trim) / params.k_col
        par = params.replace(k_ped=0.0, torque_scale=0.0)
        f, _ = _force_moment(_state(), np.array([0, 0, 0, dcol]),
                             np.zeros(3), par)
        assert np.allclose(f, np.zeros(3), atol=1e-12)

    def test_longitudinal_flap_pitching_moment(self, params):
        dcol = (params.m * params.g - params.thrust_trim) / params.k_col
        thrust = params.m * params.g
        f, tau = _force_moment(_state(a_s=0.01), np.array([0, 0, 0, dcol]),
                               np.zeros(3), params)
        assert tau[1] == pytest.approx(
            (params.k_beta + thrust * params.h_mr) * 0.01, rel=1e-12)
        assert f[0] == pytest.approx(-thrust * math.sin(0.01), rel=1e-12)

    def test_drag_sign_convention(self, params):
        f, _ = _force_moment(_state(), np.zeros(4), np.array([1.0, 0.0, 0.0]),
                             params)
        base, _ = _force_moment(_state(), np.zeros(4), np.zeros(3), params)
        assert f[0] - base[0] == pytest.approx(params.dx, rel=1e-12)


class TestStateDerivative:
    def test_trim_is_equilibrium(self, params, trim):
        xdot = state_derivative(trim.state, trim.inputs, None, params)
        assert np.linalg.norm(xdot[3:]) < 1e-8
        assert np.linalg.norm(xdot) < 1e-8  # position rates: velocity is zero

    def test_position_rate_equals_body_velocity_when_level(self, params):
        x = np.zeros(15)
        x[3:6] = (1.0, -2.0, 0.5)
        xdot = state_derivative(x, np.zeros(4), np.zeros(3), params)
        assert np.allclose(xdot[0:3], x[3:6], atol=1e-15)

    def test_pure_yaw_rate_feeds_heading(self, params):
        x = np.zeros(15)
        x[11] = 0.7
        xdot = state_derivative(x, np.zeros(4), np.zeros(3), params)
        assert xdot[8] == pytest.approx(0.7, abs=1e-15)

    def test_bit_identical_reevaluation(self, params, trim):
        rng = np.random.default_rng(7)
        x = trim.state.as_vector() + 0.01 * rng.standard_normal(15)
        u = trim.inputs.as_vector() + 0.01 * rng.standard_normal(4)
        w = 0.5 * rng.standard_normal(3)
        first = state_derivative(x, u, w, params)
        second = state_derivative(x, u, w, params)
        assert np.array_equal(first, second)

    def test_translation_and_heading_invariance(self, params, trim):
        rng = np.random.default_rng(11)
        x = trim.state.as_vector() + 0.02 * rng.standard_normal(15)
        u = trim.inputs.as_vector()
        w = np.array([0.4, -0.2, 0.1])
        base = state_derivative(x, u, w, params)
        moved = x.copy()
        moved[0] += 123.0
        moved[1] -= 45.0
        moved[8] += 0.8
        shifted = state_derivative(moved, u, w, params)
        # velocity, rate, flap and gyro sub-derivatives are unchanged
        assert np.allclose(shifted[3:8], base[3:8], atol=1e-14)
        assert np.allclose(shifted[9:], base[9:], atol=1e-14)

    def test_angular_momentum_conserved_without_aero_or_gravity(self):
        par = HelicopterParams().replace(
            g=0.0, dx=0.0, dy=0.0, dz=0.0, lp=0.0, mq=0.0, nr=0.0,
            k_beta=0.0, thrust_trim=0.0, k_col=0.0, k_ped=0.0,
            torque_scale=0.0, h_cp=0.0)
        x = np.zeros(15)
        x[9:12] = (0.12, -0.08, 0.10)
        inertia = np.diag([par.jx, par.jy, par.jz])
        h0 = np.linalg.norm(inertia @ x[9:12])
        consts = plant_constants(par)

        def f(xv, uv, wv):
            return _state_derivative_flat(xv, np.zeros(4), np.zeros(3), consts)

        dt = 1e-3
        for _ in range(10000):
            x = rk4_step(f, x, None, None, dt)
        assert abs(x[7]) < 1.0  # kinematics stay away from the singularity
        h1 = np.linalg.norm(inertia @ x[9:12])
        assert abs(h1 - h0) < 1e-6

    def test_position_rows_match_rotation_copies(self, params):
        # the derivative's position rows, the oracle rotation_body_to_ned
        # and the vectorized rows used by compute_metrics are three copies
        # of one DCM
        rng = np.random.default_rng(2024)
        n = 500
        phi = rng.uniform(-math.pi, math.pi, n)
        theta = rng.uniform(-1.5, 1.5, n)
        psi = rng.uniform(-math.pi, math.pi, n)
        rows = _rotation_rows(phi, theta, psi)
        for k in range(n):
            rot = rotation_body_to_ned(phi[k], theta[k], psi[k])
            assert np.array_equal(rows[k], rot)
            v = rng.standard_normal(3)
            x = _state(phi=phi[k], theta=theta[k], psi=psi[k], vel=v)
            xdot = state_derivative(x, np.zeros(4), np.zeros(3), params)
            assert np.max(np.abs(xdot[0:3] - rot @ v)) < 1e-14
            # the outer loop's NED velocity sums each row in the same order
            v_ned = attitude_terms(x.tolist())[0:3]
            assert np.array(v_ned).tobytes() == xdot[0:3].tobytes()

    def test_array_edge_equals_list_core(self, params):
        rng = np.random.default_rng(21)
        for _ in range(200):
            x = rng.standard_normal(15)
            x[7] = rng.uniform(-1.5, 1.5)
            u = rng.uniform(-1.0, 1.0, 4)
            w = 3.0 * rng.standard_normal(3)
            core = _state_derivative_flat(x.tolist(), u.tolist(), w.tolist(),
                                          plant_constants(params))
            assert all(type(v) is float for v in core)
            edge = state_derivative(x, u, w, params)
            assert isinstance(edge, np.ndarray)
            assert edge.tobytes() == np.array(core).tobytes()
            typed = state_derivative(FullState.from_vector(x),
                                     ControlInputs.from_vector(u),
                                     tuple(w.tolist()), params)
            assert typed.tobytes() == edge.tobytes()

    def test_rejects_wrong_shapes(self, params):
        with pytest.raises(ValueError):
            state_derivative(np.zeros(14), np.zeros(4), np.zeros(3), params)
        with pytest.raises(ValueError):
            state_derivative(np.zeros(15), np.zeros(3), np.zeros(3), params)


def _parent_derivative(x, u, w, par):
    """The derivative as written before the plant constants were bound once:
    every parameter read from `par` at the point of use."""
    _, _, _, vx, vy, vz, phi, theta, psi, p, q, r, a_s, b_s, xi = x
    dlat, dlon, dped, dcol = u
    w_u, w_v, w_w = w
    sphi, cphi = math.sin(phi), math.cos(phi)
    sth, cth = math.sin(theta), math.cos(theta)
    spsi, cpsi = math.sin(psi), math.cos(psi)
    tth = sth / cth
    pn_dot = cth * cpsi * vx + (sphi * sth * cpsi - cphi * spsi) * vy \
        + (cphi * sth * cpsi + sphi * spsi) * vz
    pe_dot = cth * spsi * vx + (sphi * sth * spsi + cphi * cpsi) * vy \
        + (cphi * sth * spsi - sphi * cpsi) * vz
    pd_dot = -sth * vx + sphi * cth * vy + cphi * cth * vz
    phi_dot = p + tth * (sphi * q + cphi * r)
    theta_dot = cphi * q - sphi * r
    psi_dot = (sphi * q + cphi * r) / cth
    thrust = par.thrust_trim + par.k_col * dcol
    sa, ca = math.sin(a_s), math.cos(a_s)
    sb, cb = math.sin(b_s), math.cos(b_s)
    err = par.ka_g * dped - r
    dped_prime = min(max(par.kp_g * err + xi, -1.0), 1.0)
    xi_dot = par.ki_g * err
    tail_y = -par.k_ped * dped_prime
    drag_x = -par.dx * (vx - w_u)
    drag_y = -par.dy * (vy - w_v)
    drag_z = -par.dz * (vz - w_w)
    mg = par.m * par.g
    fx = -thrust * sa + drag_x - mg * sth
    fy = thrust * sb + tail_y + drag_y + mg * sphi * cth
    fz = -thrust * ca * cb + drag_z + mg * cphi * cth
    hub = par.k_beta + thrust * par.h_mr
    mx = hub * b_s - par.lp * p + par.h_tr * tail_y + par.h_cp * drag_y
    my = hub * a_s - par.mq * q - par.h_cp * drag_x
    mz = -par.torque_scale * thrust + par.l_tr * par.k_ped * dped_prime \
        - par.nr * r
    inv_m = 1.0 / par.m
    vx_dot = -(q * vz - r * vy) + fx * inv_m
    vy_dot = -(r * vx - p * vz) + fy * inv_m
    vz_dot = -(p * vy - q * vx) + fz * inv_m
    p_dot = (mx - (q * r * (par.jz - par.jy))) / par.jx
    q_dot = (my - (p * r * (par.jx - par.jz))) / par.jy
    r_dot = (mz - (p * q * (par.jy - par.jx))) / par.jz
    a_bs = 8.0 * par.k_beta / (par.gamma_mr * par.omega_mr ** 2 * par.i_beta)
    inv_tau = 1.0 / par.tau_mr
    a_s_dot = -q - inv_tau * a_s + a_bs * b_s + inv_tau * par.k_lon * dlon
    b_s_dot = -p - inv_tau * b_s - a_bs * a_s + inv_tau * par.k_lat * dlat
    return [pn_dot, pe_dot, pd_dot, vx_dot, vy_dot, vz_dot,
            phi_dot, theta_dot, psi_dot, p_dot, q_dot, r_dot,
            a_s_dot, b_s_dot, xi_dot]


_PARAM_NAMES = HelicopterParams._fields


@st.composite
def perturbed_params(draw):
    """Every field within +-10 % of its default, each scaled on its own, so
    two constants that share a default value cannot trade places unseen."""
    base = HelicopterParams()
    return base.replace(**{name: getattr(base, name) * draw(st.floats(0.9, 1.1))
                           for name in _PARAM_NAMES})


@settings(deadline=None, max_examples=300)
@given(perturbed_params(),
       st.lists(st.floats(-5.0, 5.0), min_size=15, max_size=15),
       st.floats(-1.5, 1.5),
       st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
def test_bound_constants_bit_equal_parent_formula(par, x, theta, u, w):
    x[7] = theta
    got = _state_derivative_flat(x, u, w, plant_constants(par))
    assert np.array(got).tobytes() == np.array(
        _parent_derivative(x, u, w, par)).tobytes()


class TestStateContainers:
    def test_flat_vector_round_trip(self):
        rng = np.random.default_rng(3)
        vec = rng.standard_normal(15)
        assert np.array_equal(FullState.from_vector(vec).as_vector(), vec)

        u = np.array([0.5, -0.25, 1.0, -1.0])
        assert np.array_equal(ControlInputs.from_vector(u).as_vector(), u)

    def test_containers_hold_python_floats(self, trim):
        for s in (FullState.from_vector(np.arange(15.0)), trim.state):
            assert len(s) == 15
            assert all(type(v) is float for v in s)
        for u in (ControlInputs.from_vector(np.ones(4)), trim.inputs):
            assert len(u) == 4
            assert all(type(v) is float for v in u)

    def test_fields_are_the_flat_layout(self):
        # the state order is written once: the view's fields are the labels
        # and the state columns of every scenario log
        assert STATE_LABELS == FullState._fields
        assert tuple(LOG_COLUMNS.split(",")[1:16]) == FullState._fields
        s = FullState.from_vector(np.arange(15.0))
        assert (s.pd, s.theta, s.xi) == (2.0, 7.0, 14.0)


def _clamp_oracle(u):
    """Each channel clamped to [-1, 1], with the bit of every clamped one
    (dlat 1, dlon 2, dped 4, dcol 8)."""
    out, flags = [], 0
    for v, bit in zip(u, (1, 2, 4, 8)):
        if v > 1.0:
            out.append(1.0)
            flags |= bit
        elif v < -1.0:
            out.append(-1.0)
            flags |= bit
        else:
            out.append(v)
    return out, flags


_SERVO_VALUES = st.one_of(
    st.sampled_from([1.0, -1.0, 0.0, -0.0, math.nextafter(1.0, 2.0),
                     math.nextafter(-1.0, -2.0), math.nextafter(1.0, 0.0),
                     math.nextafter(-1.0, 0.0), math.inf, -math.inf,
                     math.nan]),
    st.floats(-3.0, 3.0),
    st.floats())


@settings(max_examples=300)
@given(st.lists(_SERVO_VALUES, min_size=3, max_size=4))
@example([0.5, -0.25, 0.0])
@example([1.0, -1.0, 1.0, -1.0])
@example([1.5, -0.2, -3.0])
@example([0.1, 2.0, 0.3, -1.5])
@example([-7.0, 7.0, -7.0, 7.0])
def test_clamp_servos_matches_oracle(u):
    want, want_flags = _clamp_oracle(u)
    got = list(u)
    flags = clamp_servos(got)
    assert flags == want_flags
    assert list(map(repr, got)) == list(map(repr, want))  # keeps -0.0


class TestLanes:
    """The derivative's one source text on struct-of-arrays lanes."""

    @pytest.mark.parametrize("n", [1, 30, 64, 1024])
    def test_every_lane_bit_equal_to_the_float_call(self, params, trim, n):
        # random states, inputs and winds near trim
        rng = np.random.default_rng(n)
        x = trim.state.as_vector()[:, None] + rng.normal(0.0, 0.05, (15, n))
        x[12:14] *= 0.1   # flap angles stay small
        u = trim.inputs.as_vector()[:, None] + rng.normal(0.0, 0.1, (4, n))
        w = rng.normal(0.0, 3.0, (3, n))
        consts = plant_constants(params)
        lanes = np.array(_state_derivative_flat(x, u, w, consts, *LANE_OPS))
        points = np.array([_state_derivative_flat(xk, uk, wk, consts)
                           for xk, uk, wk in zip(x.T.tolist(), u.T.tolist(),
                                                 w.T.tolist())]).T
        assert lanes.shape == (15, n)
        assert lanes.tobytes() == points.tobytes()

    def test_singular_lane_raises(self, params, trim):
        x = np.repeat(trim.state.as_vector()[:, None], 4, axis=1)
        u = np.repeat(trim.inputs.as_vector()[:, None], 4, axis=1)
        x[7, 2] = -math.pi / 2
        with pytest.raises(SingularAttitudeError):
            _state_derivative_flat(x, u, np.zeros((3, 4)),
                                   plant_constants(params), *LANE_OPS)


def test_numpy_sin_cos_bit_equal_math_on_logged_angles(hover_climb):
    # the lane derivative is bit-equal to the float one only while numpy's
    # sine and cosine are; their SIMD kernels can differ between CPUs
    _, log, _ = hover_climb
    for column in (6, 7, 8, 12, 13):   # phi, theta, psi, a_s, b_s
        angles = log.states[:, column]
        values = angles.tolist()
        assert np.sin(angles).tobytes() == np.array(
            [math.sin(v) for v in values]).tobytes()
        assert np.cos(angles).tobytes() == np.array(
            [math.cos(v) for v in values]).tobytes()
