import math

import numpy as np
import pytest

from heli import (
    HelicopterParams,
    OuterGains,
    SingularAttitudeError,
    altitude_control,
    horizontal_control,
)
from heli.outer import ned_velocity


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
    return altitude_control(*ref, x, ned_velocity(x), gains, params)


def _horizontal(ref, x, gains):
    return horizontal_control(*ref, x, ned_velocity(x), gains)


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
                altitude_control(*_ref(), x, np.zeros(3), gains, params)


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

    def test_bad_tilt_limit_rejected(self):
        with pytest.raises(ValueError):
            OuterGains(tilt_limit=2.0).validate()

    def test_defaults_valid(self):
        OuterGains().validate()
        par = HelicopterParams()
        assert par.validate() is par
