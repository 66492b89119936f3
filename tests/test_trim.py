import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heli import (
    HelicopterParams,
    TrimConvergenceError,
    find_trim,
    linearize,
    state_derivative,
    verify_linearization,
)
import heli.trim
from heli.trim import MODEL_STATE_LABELS

IDX = {name: k for k, name in enumerate(MODEL_STATE_LABELS)}


class TestFindTrim:
    def test_residual_below_tolerance(self, params, trim):
        assert trim.residual < 1e-8
        xdot = state_derivative(trim.state, trim.inputs, None, params)
        assert np.linalg.norm(xdot[3:]) < 1e-8

    def test_deterministic(self, params, trim):
        again = find_trim(params)
        assert np.array_equal(again.state.as_vector(), trim.state.as_vector())
        assert np.array_equal(again.inputs.as_vector(), trim.inputs.as_vector())

    def test_lateral_symmetry_without_tail_forces(self):
        par = HelicopterParams().replace(k_ped=0.0, torque_scale=0.0)
        trim = find_trim(par)
        assert trim.state.phi == pytest.approx(0.0, abs=1e-10)
        assert trim.state.b_s == pytest.approx(0.0, abs=1e-10)

    def test_roll_and_lateral_flap_signs(self, trim):
        # hover trim banks slightly right while the tip-path plane tilts
        # the same way, both small
        assert 0.0 < trim.state.phi < 0.15
        assert trim.state.b_s > 0.0

    def test_steady_tail_command_lives_in_integrator(self, trim, params):
        assert trim.inputs.delta_ped == 0.0
        assert trim.dped_prime == pytest.approx(trim.state.xi)
        assert trim.dped_prime > 0.0

    def test_position_and_heading_zero_by_convention(self, trim):
        x = trim.state.as_vector()
        assert np.all(x[0:3] == 0.0)
        assert x[8] == 0.0

    def test_unreachable_trim_raises(self):
        # no collective authority at all: the rotor cannot carry the weight
        par = HelicopterParams().replace(thrust_trim=0.0, k_col=0.0)
        with pytest.raises(TrimConvergenceError):
            find_trim(par, max_iter=30)


# the mass, inertia, rotor and drag constants that set the trim attitude
_TRIM_BOX = ("m", "jx", "jy", "jz", "thrust_trim", "k_col", "k_beta", "h_mr",
             "k_lat", "k_lon", "torque_scale", "dx", "dy", "dz", "k_ped",
             "l_tr", "h_tr", "h_cp")


@st.composite
def trim_params(draw):
    base = HelicopterParams()
    return base.replace(**{name: getattr(base, name) * draw(st.floats(0.8, 1.2))
                           for name in _TRIM_BOX})


@settings(deadline=None, max_examples=40)
@given(trim_params())
def test_trim_converges_across_parameter_box(par):
    trim = find_trim(par)
    assert trim.residual < 1e-8
    xdot = state_derivative(trim.state, trim.inputs, None, par)
    assert np.linalg.norm(xdot) < 1e-8


class TestLinearize:
    def test_flap_diagonal_entry(self, params, plant):
        got = plant.a[IDX["a_s"], IDX["a_s"]]
        assert got == pytest.approx(-1.0 / params.tau_mr, rel=5e-2)

    def test_heading_rate_couples_to_yaw_rate(self, plant):
        assert plant.a[IDX["psi"], IDX["r"]] == pytest.approx(1.0, rel=5e-2)

    def test_structural_zeros_at_level_trim(self, plant):
        a, amax = plant.a, np.max(np.abs(plant.a))
        zero_entries = [
            ("phi", "a_s"), ("phi", "b_s"), ("phi", "dped"), ("phi", "psi"),
            ("theta", "a_s"), ("theta", "b_s"), ("theta", "psi"),
            ("a_s", "phi"), ("a_s", "theta"), ("a_s", "p"),
            ("a_s", "r"), ("a_s", "dped"), ("a_s", "psi"),
            ("b_s", "phi"), ("b_s", "theta"), ("b_s", "q"),
            ("b_s", "r"), ("b_s", "dped"), ("b_s", "psi"),
            ("psi", "phi"), ("psi", "theta"), ("psi", "a_s"),
            ("psi", "b_s"), ("psi", "dped"), ("psi", "p"),
        ]
        for row, col in zero_entries:
            assert abs(a[IDX[row], IDX[col]]) < 5e-2 * amax, (row, col)

    def test_heading_column_is_zero(self, plant):
        # nothing feeds back from the heading angle
        assert np.max(np.abs(plant.a[:, IDX["psi"]])) < 1e-8

    def test_pedal_input_drives_only_the_gyro_row(self, plant):
        b_ped = plant.b[:, 2].copy()
        expect = np.zeros(9)
        expect[IDX["dped"]] = b_ped[IDX["dped"]]
        assert b_ped[IDX["dped"]] == pytest.approx(1.0, rel=1e-6)
        assert np.max(np.abs(b_ped - expect)) < 1e-6

    def test_wind_column_structure(self, plant):
        e_u = np.abs(plant.e[:, 0])
        # longitudinal wind tips the nose: the pitch-rate row dominates
        assert np.argmax(e_u) == IDX["q"]
        assert e_u[IDX["psi"]] < 1e-10
        assert np.abs(plant.e[IDX["psi"], :]).max() < 1e-10

    def test_dimensions_and_labels(self, plant):
        assert plant.a.shape == (9, 9)
        assert plant.b.shape == (9, 3)
        assert plant.e.shape == (9, 3)


class TestVerifyLinearization:
    def test_small_scale_error_bound(self, params, plant):
        assert verify_linearization(params, plant, 1e-4) < 1e-2

    def test_halving_scale_at_least_halves_error(self, params, plant):
        err = verify_linearization(params, plant, 1e-4)
        err_half = verify_linearization(params, plant, 5e-5)
        assert err_half <= 0.5 * err * (1.0 + 1e-3)

    @settings(deadline=None, max_examples=20)
    @given(scale=st.floats(1e-5, 5e-3), seed=st.integers(0, 2 ** 32 - 1))
    def test_halving_scale_halves_error(self, params, plant, scale, seed):
        # the Taylor remainder is second order in the perturbation and the
        # response first order, so their ratio is linear in the scale
        err = verify_linearization(params, plant, scale, n_samples=20,
                                   seed=seed)
        err_half = verify_linearization(params, plant, 0.5 * scale,
                                        n_samples=20, seed=seed)
        assert err_half / err == pytest.approx(0.5, abs=0.02)

    def test_zero_scale_rejected(self, params, plant):
        with pytest.raises(ValueError):
            verify_linearization(params, plant, 0.0)
        with pytest.raises(ValueError):
            verify_linearization(params, plant, 0.1)


class TestGradientConsistency:
    def test_linearizer_matches_independent_differences(self, params, trim,
                                                        plant):
        # same Jacobians from a three-times-coarser central difference
        coarse = linearize(params, trim, step=3e-5)
        for fine, rough in ((plant.a, coarse.a), (plant.b, coarse.b),
                            (plant.e, coarse.e)):
            scale = np.maximum(np.abs(fine), 1e-3)
            assert np.max(np.abs(fine - rough) / scale) < 1e-5


# perturbed parameter sets for the bit pins below: (m, jx, jy, jz) factors
_PINNED_SETS = ((1.0, 1.0, 1.0, 1.0), (1.07, 0.93, 1.0, 1.0),
                (1.0, 1.0, 1.1, 0.9), (0.92, 1.05, 0.96, 1.08))


def _pinned_params(factors):
    base = HelicopterParams()
    fm, fx, fy, fz = factors
    return base.replace(m=base.m * fm, jx=base.jx * fx, jy=base.jy * fy,
                        jz=base.jz * fz)


class TestTrimBits:
    # sha256 of the trim state, inputs, residual and steady tail command,
    # then A, B and E, as float64 bytes; computed before `_fd_jacobian`
    # stopped evaluating the residual at the base point for its size
    DIGESTS = (
        "ca22036920c66f8239de0184a80960d321a841a98138cb286d2ab88928915621",
        "914cfba09d0fd21ff631274fa75572b549af4972080ffa0a98c1880cad739cd2",
        "f6a54a7cba6eb9ec1bdc4d95190f56d40782111299236fdd61dd8b50ba4b146a",
        "232b4b8746de5e04d2ad66b85e30b07d0544f74d1d04b4d2f61c399d7ac336fc",
    )

    @pytest.mark.parametrize("case", range(len(_PINNED_SETS)))
    def test_trim_and_linearization_bits_pinned(self, case):
        params = _pinned_params(_PINNED_SETS[case])
        trim = find_trim(params)
        plant = linearize(params, trim)
        digest = hashlib.sha256()
        for a in (trim.state.as_vector(), trim.inputs.as_vector(),
                  [trim.residual, trim.dped_prime], plant.a, plant.b, plant.e):
            digest.update(np.ascontiguousarray(a, dtype=float).tobytes())
        assert digest.hexdigest() == self.DIGESTS[case]

    def test_derivative_calls_per_trim(self, monkeypatch):
        # 3 Newton iterations, each 16 calls for the 8 central-difference
        # columns plus one line-search trial, after the initial residual
        # and before the final residual in `TrimPoint.from_vectors`
        calls = []
        derivative = heli.trim._state_derivative_flat

        def counted(*args):
            calls.append(None)
            return derivative(*args)

        monkeypatch.setattr(heli.trim, "_state_derivative_flat", counted)
        find_trim(HelicopterParams())
        assert len(calls) == 1 + 3 * (16 + 1) + 1
