import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment, minimize_scalar

from heli import (
    OutputWeights,
    RiccatiInfeasible,
    RiccatiSolution,
    SynthesisError,
    UnstableSystemError,
    build_output_map,
    check_feasibility,
    compute_gains,
    control_law,
    gamma_star,
    hinf_norm,
    solve_riccati,
    synthesize,
)
from heli import hinf
from heli.hinf import feedback_gain, riccati_residual

SQRT2 = math.sqrt(2.0)


class TestBuildOutputMap:
    def test_default_weight_placement(self):
        out = build_output_map(OutputWeights.default())
        assert out.c.shape == (9, 9)
        assert out.d.shape == (9, 3)
        assert out.d[0][0] == 12.0
        assert out.d[1][1] == 11.0
        assert out.d[2][2] == 31.0
        assert np.all(out.d[3:, :] == 0.0)
        assert out.c[3][0] == 13.0
        assert out.c[7][6] == 1.0
        assert out.c[8][8] == 5.0
        assert np.all(out.c[0:3, :] == 0.0)
        assert np.all(out.c[3:7, 4:] == 0.0)
        assert np.all(out.c[7:9, 0:4] == 0.0)

    def test_identity_weights_give_padded_selectors(self):
        w = OutputWeights(c11=np.eye(4),
                          c22=np.eye(5)[:2],
                          d11=np.eye(3))
        out = build_output_map(w)
        assert np.array_equal(out.c[3:7, 0:4], np.eye(4))
        assert np.array_equal(out.d[0:3, :], np.eye(3))

    def test_singular_input_weight_rejected(self):
        # the map is built; the rank test of D rejects it before any solve
        w = OutputWeights(c11=np.eye(4), c22=np.zeros((2, 5)),
                          d11=np.diag([1.0, 0.0, 1.0]))
        out = build_output_map(w)
        with pytest.raises(SynthesisError, match="column rank deficient"):
            check_feasibility(np.zeros((9, 9)), np.zeros((9, 3)), out.c,
                              out.d)

    @pytest.mark.parametrize("block", ["c11", "c22", "d11"])
    def test_non_finite_weight_block_rejected(self, block):
        # a NaN used to pass and fail later in check_feasibility's SVD
        w = OutputWeights.default()
        bad = np.array(getattr(w, block))
        bad[1, 1] = math.nan
        with pytest.raises(SynthesisError, match=f"weight block {block}"):
            build_output_map(w._replace(**{block: bad}))


def _failing_dgees(info):
    # the real decomposition, reporting LAPACK error code `info`
    dgees = hinf.dgees

    def call(*args, **kwargs):
        return dgees(*args, **kwargs)[:-1] + (info,)
    return call


# scipy's own import path to dgees, in an interpreter that never imports heli
_SCIPY_DGEES = """
import sys
import numpy as np
from scipy.linalg.lapack import dgees
out = []
for m in np.load(sys.argv[1]):
    lwork = int(dgees(lambda re, im: re < 0.0, m, lwork=-1)[-2][0])
    _, sdim, wr, wi, z, _, info = dgees(lambda re, im: re < 0.0, m,
                                        lwork=lwork, sort_t=1)
    out.append(np.concatenate([[sdim, info], wr, wi, z.ravel()]))
np.save(sys.argv[2], np.array(out))
"""


class TestDgeesOracle:
    """`hinf.dgees`, loaded from scipy's extension file, against
    `scipy.linalg.lapack.dgees` reached through the package in another
    interpreter: the same (sdim, wr, wi, z, info) bits."""

    @pytest.fixture(scope="class")
    def hamiltonians(self, plant):
        # every Hamiltonian the default design decomposes, in order
        calls = []
        real = hinf.dgees

        def record(select, a, **kwargs):
            if "sort_t" in kwargs:
                calls.append(np.array(a))
            return real(select, a, **kwargs)

        hinf.dgees = record
        try:
            _, search, _ = synthesize(plant)
        finally:
            hinf.dgees = real
        # each search probe, then the final solve at the gamma used
        assert len(calls) == len(search.gammas) + 1 == 24
        return np.array(calls)

    @staticmethod
    def _both(mats, tmp_path):
        path_in, path_out = tmp_path / "in.npy", tmp_path / "out.npy"
        np.save(path_in, mats)
        subprocess.run([sys.executable, "-c", _SCIPY_DGEES, str(path_in),
                        str(path_out)], check=True)
        mine = []
        for m in mats:
            lwork = int(hinf.dgees(hinf._stable, m, lwork=-1)[-2][0])
            _, sdim, wr, wi, z, _, info = hinf.dgees(hinf._stable, m,
                                                     lwork=lwork, sort_t=1)
            mine.append(np.concatenate([[sdim, info], wr, wi, z.ravel()]))
        return np.array(mine), np.load(path_out)

    def test_design_hamiltonians_bit_identical(self, hamiltonians, tmp_path):
        mine, theirs = self._both(hamiltonians, tmp_path)
        assert mine.tobytes() == theirs.tobytes()

    def test_random_matrices_bit_identical(self, tmp_path):
        mats = np.random.default_rng(2026).standard_normal((4, 18, 18))
        mine, theirs = self._both(mats, tmp_path)
        assert mine.tobytes() == theirs.tobytes()


class TestSolveRiccati:
    def test_scalar_no_disturbance(self, scalar_plant):
        a, b, c, d, _ = scalar_plant
        sol = solve_riccati(a, b, c, d, np.array([[0.0]]), 10.0)
        assert isinstance(sol, RiccatiSolution)
        # closed form: p^2 + 2p - 1 = 0
        assert sol.p[0, 0] == pytest.approx(SQRT2 - 1.0, abs=1e-10)

    def test_scalar_with_disturbance_at_unit_gamma(self, scalar_plant):
        a, b, c, d, e = scalar_plant
        sol = solve_riccati(a, b, c, d, e, 1.0)
        # the quadratic terms cancel, leaving -2p + 1 = 0
        assert sol.p[0, 0] == pytest.approx(0.5, abs=1e-10)

    def test_scalar_below_boundary_is_infeasible(self, scalar_plant):
        a, b, c, d, e = scalar_plant
        verdict = solve_riccati(a, b, c, d, e, 0.5)
        assert isinstance(verdict, RiccatiInfeasible)
        assert verdict.reason == "imaginary_axis"

    def test_dimension_mismatch_rejected(self, scalar_plant):
        a, b, c, d, e = scalar_plant
        with pytest.raises(ValueError):
            solve_riccati(a, np.ones((2, 1)), c, d, e, 1.0)
        with pytest.raises(ValueError):
            solve_riccati(a, b, c, np.ones((3, 1)), e, 1.0)

    def test_nonpositive_gamma_rejected(self, scalar_plant):
        a, b, c, d, e = scalar_plant
        with pytest.raises(ValueError):
            solve_riccati(a, b, c, d, e, 0.0)

    def test_rank_deficient_d_rejected(self, scalar_plant):
        a, b, c, _, e = scalar_plant
        with pytest.raises(SynthesisError, match="column rank deficient"):
            solve_riccati(a, b, c, np.zeros((2, 1)), e, 1.0)

    def test_nonfinite_hamiltonian_rejected(self, scalar_plant):
        # gamma^2 underflows to 0, so E E' / gamma^2 would be inf; the
        # square is checked before the division, so no warning comes first
        with warnings.catch_warnings(), pytest.raises(
                np.linalg.LinAlgError, match="Array must not contain infs or NaNs"):
            warnings.simplefilter("error")
            solve_riccati(*scalar_plant, 1e-200)

    @pytest.mark.parametrize("gamma", [np.float64(1e-200), math.nan])
    def test_underflowed_or_nan_square_rejected(self, scalar_plant, gamma):
        with warnings.catch_warnings(), pytest.raises(
                np.linalg.LinAlgError, match="Array must not contain infs or NaNs"):
            warnings.simplefilter("error")
            solve_riccati(*scalar_plant, gamma)

    @pytest.mark.parametrize("gamma", [1e200, np.float64(1e200)])
    def test_overflowing_square_is_the_no_disturbance_limit(self, scalar_plant,
                                                            gamma):
        # gamma^2 overflows to inf, so E E' / gamma^2 is 0: the plant's
        # solution with E = 0, P = sqrt(2) - 1
        a, b, c, d, e = scalar_plant
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_riccati(a, b, c, d, e, gamma)
            want = solve_riccati(a, b, c, d, np.zeros_like(e), 1.0)
        assert isinstance(sol, RiccatiSolution)
        assert sol.p.tobytes() == want.p.tobytes()
        assert sol.residual_norm == want.residual_norm
        assert sol.p[0, 0] == pytest.approx(SQRT2 - 1.0, rel=1e-12)

    # the scalar plant's Hamiltonian has eigenvalues +-sqrt(2 - 1/gamma^2):
    # real at gamma = 2, on the imaginary axis at gamma = 0.5
    @pytest.mark.parametrize("info, gamma, match", [
        (1, 2.0, "did not converge"),
        (2, 0.5, "did not converge"),
        (3, 2.0, "could not be separated"),
        (4, 2.0, "do not satisfy sort condition"),
    ])
    def test_lapack_failure_raises(self, scalar_plant, monkeypatch, info,
                                   gamma, match):
        game = hinf._RiccatiGame(*scalar_plant)
        monkeypatch.setattr(hinf, "dgees", _failing_dgees(info))
        with pytest.raises(np.linalg.LinAlgError, match=match):
            game.solve(gamma)

    def test_reorder_failure_on_axis_is_verdict(self, scalar_plant,
                                                monkeypatch):
        game = hinf._RiccatiGame(*scalar_plant)
        monkeypatch.setattr(hinf, "dgees", _failing_dgees(3))
        verdict = game.solve(0.5)
        assert isinstance(verdict, RiccatiInfeasible)
        assert verdict.reason == "imaginary_axis"

    def test_full_plant_solution_invariants(self, plant, output_map):
        sol = solve_riccati(plant.a, plant.b, output_map.c, output_map.d,
                            plant.e, 0.15)
        assert isinstance(sol, RiccatiSolution)
        p = sol.p
        assert np.max(np.abs(p - p.T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(p)) > -1e-10
        resid = riccati_residual(p, plant.a, plant.b, output_map.c,
                                 output_map.d, plant.e, 0.15)
        assert resid < 1e-8 * (1.0 + np.max(np.abs(p)))
        f = feedback_gain(p, plant.b, output_map.c, output_map.d)
        assert np.all(np.linalg.eigvals(plant.a + plant.b @ f).real < 0.0)

    def test_monotone_feasibility_ladder(self, plant, output_map, synthesis):
        _, search, _ = synthesis
        g_star = search.gamma_star
        ladder = np.concatenate([np.linspace(0.3, 0.95, 5),
                                 np.linspace(1.05, 4.0, 5)]) * g_star
        feasible = [isinstance(
            solve_riccati(plant.a, plant.b, output_map.c, output_map.d,
                          plant.e, g), RiccatiSolution) for g in ladder]
        # once feasible, stays feasible at every larger tested level
        first = feasible.index(True)
        assert all(feasible[first:])
        assert not any(feasible[:first])

    def test_gain_invariance_under_state_rescaling(self, plant, output_map):
        gamma = 0.15
        t = np.eye(9)
        t[4, 4] = 2.5
        t_inv = np.linalg.inv(t)
        a2 = t @ plant.a @ t_inv
        b2 = t @ plant.b
        c2 = output_map.c @ t_inv
        e2 = t @ plant.e
        sol = solve_riccati(plant.a, plant.b, output_map.c, output_map.d,
                            plant.e, gamma)
        sol2 = solve_riccati(a2, b2, c2, output_map.d, e2, gamma)
        f1 = feedback_gain(sol.p, plant.b, output_map.c, output_map.d)
        f2 = feedback_gain(sol2.p, b2, c2, output_map.d) @ t
        eig1 = np.sort_complex(np.linalg.eigvals(plant.a + plant.b @ f1))
        eig2 = np.sort_complex(np.linalg.eigvals(plant.a + plant.b @ f2))
        assert np.max(np.abs(eig1 - eig2)) < 1e-8

    @pytest.mark.parametrize("factor", [1.05, 1.5, 3.0, 10.0, 1e3])
    def test_matches_scipy_care(self, plant, output_map, synthesis, factor):
        # the game Riccati equation is a CARE with stacked inputs [B E] and
        # the indefinite weight diag(D'D, -gamma^2 I) (Arnold & Laub pencil)
        gamma = factor * synthesis[1].gamma_star
        c, d = output_map.c, output_map.d
        sol = solve_riccati(plant.a, plant.b, c, d, plant.e, gamma)
        assert isinstance(sol, RiccatiSolution)
        r = scipy.linalg.block_diag(d.T @ d, -gamma ** 2 * np.eye(3))
        s = np.hstack([c.T @ d, np.zeros((9, 3))])
        oracle = scipy.linalg.solve_continuous_are(
            plant.a, np.hstack([plant.b, plant.e]), c.T @ c, r, s=s)
        assert (np.max(np.abs(sol.p - oracle))
                <= 1e-9 * np.max(np.abs(oracle)))


class TestGammaStar:
    def test_scalar_boundary(self, scalar_plant):
        a, b, c, d, e = scalar_plant
        search, solution = gamma_star(a, b, c, d, e, tol=1e-6)
        assert search.gamma_star == pytest.approx(1.0 / SQRT2, abs=1e-4)
        assert isinstance(solution, RiccatiSolution)
        assert solution.gamma > search.gamma_star

    def test_no_disturbance_drives_gamma_to_zero(self, scalar_plant):
        a, b, c, d, _ = scalar_plant
        search, _ = gamma_star(a, b, c, d, np.array([[0.0]]), tol=1e-6)
        assert search.gamma_star < 1e-6

    def test_infeasible_at_upper_bound(self):
        # no control authority over an unstable state
        a = np.array([[1.0]])
        b = np.array([[0.0]])
        c = np.array([[1.0], [0.0]])
        d = np.array([[0.0], [1.0]])
        e = np.array([[1.0]])
        with pytest.raises(SynthesisError):
            gamma_star(a, b, c, d, e)

    @pytest.mark.parametrize("margin", [-0.01, math.nan, math.inf])
    def test_bad_margin_rejected(self, scalar_plant, margin):
        # with 1 + margin < 1 the back-off loop would shrink gamma one solve
        # at a time until E E'/gamma^2 overflows; an infinite margin would
        # design for gamma = inf
        with pytest.raises(ValueError, match="gamma_margin"):
            gamma_star(*scalar_plant, margin=margin)

    @pytest.mark.parametrize("tol", [0.0, -1e-4, math.nan, math.inf])
    def test_bad_tol_rejected(self, scalar_plant, tol):
        # a NaN width never meets the stopping test, so the search would
        # run all max_iter solves; an infinite one would stop at gamma_hi
        # after one
        with pytest.raises(ValueError, match="gamma_tol"):
            gamma_star(*scalar_plant, tol=tol)

    def test_synthesize_refuses_an_infinite_margin(self, plant):
        with pytest.raises(ValueError, match="gamma_margin"):
            synthesize(plant, margin=math.inf)

    def test_trace_records_bisection(self, scalar_plant):
        a, b, c, d, e = scalar_plant
        search, _ = gamma_star(a, b, c, d, e, tol=1e-4)
        assert len(search.trace) > 10
        gammas = [g for g, _, _ in search.trace]
        assert gammas[0] == 1e6


class TestComputeGains:
    def test_scalar_hand_values(self, scalar_plant):
        a, b, c, d, _ = scalar_plant
        sol = solve_riccati(a, b, c, d, np.array([[0.0]]), 10.0)
        result = compute_gains(sol, a, b, c, d, tracked_rows=(0,))
        assert result.f[0, 0] == pytest.approx(-(SQRT2 - 1.0), abs=1e-10)
        assert (a + b @ result.f)[0, 0] == pytest.approx(-SQRT2, abs=1e-10)
        assert result.g[0, 0] == pytest.approx(SQRT2, abs=1e-10)

    def test_closed_loop_hurwitz(self, plant, output_map, synthesis):
        result, _, _ = synthesis
        eigs = np.linalg.eigvals(plant.a + plant.b @ result.f)
        assert np.all(eigs.real < 0.0)

    def test_dc_tracking_identity(self, plant, synthesis):
        result, _, _ = synthesis
        c_sel = np.zeros((3, 9))
        for i, row in enumerate((0, 1, 8)):
            c_sel[i, row] = 1.0
        dc = c_sel @ np.linalg.solve(plant.a + plant.b @ result.f, plant.b)
        assert np.max(np.abs(dc @ result.g + np.eye(3))) < 1e-8

    def test_non_hurwitz_detected(self):
        a = np.array([[1.0]])
        b = np.array([[1.0]])
        c = np.array([[1.0], [0.0]])
        d = np.array([[0.0], [1.0]])
        fake = RiccatiSolution(p=np.zeros((1, 1)), gamma=1.0, residual_norm=0.0)
        with pytest.raises(SynthesisError):
            compute_gains(fake, a, b, c, d, tracked_rows=(0,))

    def test_singular_dc_gain_detected(self):
        # second state is uncontrollable, so its DC path vanishes
        a = np.diag([-1.0, -2.0])
        b = np.array([[1.0], [0.0]])
        c = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        d = np.array([[0.0], [0.0], [1.0]])
        sol = solve_riccati(a, b, c, d, np.zeros((2, 1)), 10.0)
        assert isinstance(sol, RiccatiSolution)
        with pytest.raises(SynthesisError):
            compute_gains(sol, a, b, c, d, tracked_rows=(1,))


class TestControlLaw:
    def test_equilibrium_returns_trim(self, synthesis, trim):
        result, _, _ = synthesis
        u_trim = trim.inputs.as_vector()[0:3]
        u, flags = control_law(result.gain_rows(trim.h_out_trim), np.zeros(9),
                               trim.h_out_trim, u_trim,
                               delta_col=trim.inputs.delta_col)
        assert np.allclose(u[0:3], u_trim, atol=1e-14)
        assert u[3] == trim.inputs.delta_col
        assert flags == 0

    def test_reference_offset_tracks_at_dc(self, plant, synthesis, trim):
        result, _, _ = synthesis
        offset = np.array([0.02, 0.0, 0.0])
        # steady state of the closed loop under the shifted reference
        a_cl = plant.a + plant.b @ result.f
        x_ss = -np.linalg.solve(a_cl, plant.b @ result.g @ offset)
        assert x_ss[0] == pytest.approx(0.02, abs=1e-10)
        assert abs(x_ss[1]) < 1e-10
        assert abs(x_ss[8]) < 1e-10

    def test_saturation_flags(self, synthesis, trim):
        result, _, _ = synthesis
        u_trim = trim.inputs.as_vector()[0:3]
        big = 50.0 * np.ones(9)
        u, flags = control_law(result.gain_rows(trim.h_out_trim), big,
                               trim.h_out_trim, u_trim,
                               trim.inputs.delta_col)
        assert set(np.abs(u[0:3])) == {1.0}
        assert flags == 1 | 2 | 4


class TestHinfNorm:
    def test_first_order_lag(self):
        n = hinf_norm(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]))
        assert n == pytest.approx(1.0, rel=2e-4)

    def test_scaling(self):
        n = hinf_norm(np.array([[-1.0]]), np.array([[1.0]]), np.array([[3.0]]))
        assert n == pytest.approx(3.0, rel=2e-4)

    def test_norm_whose_square_overflows(self):
        # the norm is 1e160, so gamma^2 overflows to inf and E E' / gamma^2
        # is the 0 limit: no axis crossing, and the bound from w = 0 stands
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n = hinf_norm(np.array([[-1.0]]), np.array([[1e80]]),
                          np.array([[1e80]]))
        assert n == pytest.approx(1e160, rel=1e-12)

    def test_interior_peak_whose_square_overflows(self):
        # a norm of ~1e157: with E E' / gamma^2 at its 0 limit no crossing
        # would be found and the bound from w = 0 and the pole frequency,
        # 1.25e-3 below the peak, would stand
        wn, zeta = 3.7, 0.05
        a = np.array([[0.0, 1.0], [-wn ** 2, -2 * zeta * wn]])
        e = np.array([[0.0], [wn ** 2]])
        c = np.array([[1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n = hinf_norm(a, e * 1e78, c * 1e78)
        assert n == pytest.approx(1e156 * hinf_norm(a, e, c),
                                  rel=2 * hinf._NORM_TOL)

    @pytest.mark.parametrize("time_scale", [1e-156, 1e200],
                             ids=["slow", "fast"])
    def test_interior_peak_whose_square_leaves_the_float_range(self,
                                                               time_scale):
        # A alone puts the norm near 1e157 (slow) or 1e-199 (fast), with E
        # and C of order 1, so that gamma^2 overflows or underflows to 0
        wn, zeta = 3.7, 0.05
        a = np.array([[0.0, 1.0], [-wn ** 2, -2 * zeta * wn]])
        e = np.array([[0.0], [wn ** 2]])
        c = np.array([[1.0, 0.0]])
        n = hinf_norm(a * time_scale, e, c)
        assert n == pytest.approx(hinf_norm(a, e, c) / time_scale,
                                  rel=2 * hinf._NORM_TOL)

    @pytest.mark.parametrize("e, c", [(1e300, 1e-290), (1e-290, 1e300)],
                             ids=["E", "C"])
    def test_gram_product_that_overflows(self, e, c):
        # the norm is 1e10, but E E' (or C'C) is past the float range: the
        # search must not form it from the unscaled matrix
        n = hinf_norm(np.array([[-1.0]]), np.array([[e]]), np.array([[c]]))
        assert n == pytest.approx(1e10, rel=1e-10)

    @settings(deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 2 ** 32 - 1), st.integers(-300, 300),
           st.integers(-300, 300))
    def test_power_of_two_scaling_is_exact(self, n, m, p, seed, i, j):
        # E 2^i and C 2^j scale the transfer by 2^(i + j) exactly, and so
        # they must scale the computed norm, bit for bit
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        a -= (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(n)
        e, c = rng.normal(size=(n, m)), rng.normal(size=(p, n))
        assert (hinf_norm(a, np.ldexp(e, i), np.ldexp(c, j))
                == np.ldexp(hinf_norm(a, e, c), i + j))

    @pytest.mark.parametrize("wn, zeta", [
        (3.7, 0.05),
        (5e4, 0.01),
        (2e-4, 0.01),
    ], ids=["in-band", "fast", "slow"])
    def test_interior_resonant_peak(self, wn, zeta):
        # lightly damped second-order system: the peak lies between any
        # fixed frequency points, and the last two lie far outside 1e-3..1e4
        a = np.array([[0.0, 1.0], [-wn ** 2, -2 * zeta * wn]])
        e = np.array([[0.0], [wn ** 2]])
        c = np.array([[1.0, 0.0]])
        expect = 1.0 / (2 * zeta * math.sqrt(1 - zeta ** 2))
        assert hinf_norm(a, e, c) == pytest.approx(expect, rel=1e-4)

    def test_scalar_synthesis_respects_bound(self, scalar_plant):
        a, b, c, d, e = scalar_plant
        sol = solve_riccati(a, b, c, d, e, 1.0)
        f = feedback_gain(sol.p, b, c, d)
        a_cl = a + b @ f
        c_cl = c + d @ f
        assert hinf_norm(a_cl, e, c_cl) <= 1.0 * (1.0 + 1e-3)

    def test_unstable_system_rejected(self):
        with pytest.raises(UnstableSystemError):
            hinf_norm(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))

    def test_zero_transfer_is_zero(self):
        assert hinf_norm(-np.eye(2), np.zeros((2, 1)), np.ones((1, 2))) == 0.0

    def test_mismatched_disturbance_shape_rejected(self):
        with pytest.raises(ValueError):
            hinf_norm(-np.eye(2), np.ones((1, 2)), np.ones((1, 2)))

    def test_stiff_non_normal_peak(self):
        # a slow, sharp resonance under fast modes, in dense coordinates:
        # round-off moves its axis crossings off the axis by far more than
        # 1e-8 of their own size, but not of the largest eigenvalue
        w0, zeta = 1.5e-3, 3e-3
        modal = scipy.linalg.block_diag(
            [[-zeta * w0, w0], [-w0, -zeta * w0]],
            [[-300.0, 130.0], [-130.0, -300.0]], -600.0)
        rng = np.random.default_rng(8)
        t = rng.normal(size=(5, 5))
        a = t @ modal @ np.linalg.inv(t)
        e, c = rng.normal(size=(5, 2)), rng.normal(size=(2, 5))

        def neg_sigma(log_w):
            tf = c @ np.linalg.solve(1j * 10 ** log_w * np.eye(5) - a, e)
            return -np.linalg.svd(tf, compute_uv=False)[0]

        log_w0 = math.log10(w0)
        peak = -minimize_scalar(neg_sigma, method="bounded",
                                bounds=(log_w0 - 0.01, log_w0 + 0.01),
                                options={"xatol": 1e-12}).fun
        assert hinf_norm(a, e, c) == pytest.approx(peak, rel=1e-8)

    def test_design_norm_bounds_dense_grid(self, plant, output_map, synthesis):
        result, _, _ = synthesis
        a_cl = plant.a + plant.b @ result.f
        c_cl = output_map.c + output_map.d @ result.f
        norm = hinf_norm(a_cl, plant.e, c_cl)
        w = np.logspace(-4.0, 6.0, 20001)
        tf = c_cl @ np.linalg.solve(1j * w[:, None, None] * np.eye(9) - a_cl,
                                    plant.e)
        peak = np.max(np.linalg.svd(tf, compute_uv=False)[:, 0])
        assert peak <= norm * (1.0 + 1e-9)
        assert peak >= norm * (1.0 - 1e-4)


class TestCheckFeasibility:
    def test_default_weights_full_rank(self, output_map):
        # D has full column rank, so no SynthesisError
        zeros = check_feasibility(np.zeros((9, 9)), np.zeros((9, 3)),
                                  output_map.c, output_map.d)
        assert np.linalg.matrix_rank(output_map.d) == 3
        assert isinstance(zeros, np.ndarray)

    def test_uniformly_small_d_has_full_rank(self, plant):
        # d11 = 1e-5 I has condition number 1: its determinant, 1e-15, is no
        # test of its rank
        weights = OutputWeights.default()._replace(d11=1e-5 * np.eye(3))
        out = build_output_map(weights)
        assert check_feasibility(plant.a, plant.b, out.c, out.d).size == 0

    def test_rank_deficiency_flagged(self):
        w = OutputWeights(c11=np.eye(4), c22=np.zeros((2, 5)), d11=np.eye(3))
        out = build_output_map(w)
        d = out.d.copy()
        d[1, 1] = 0.0
        with pytest.raises(SynthesisError,
                           match="output map D is column rank deficient"):
            check_feasibility(np.zeros((9, 9)), np.zeros((9, 3)), out.c, d)
        assert np.linalg.matrix_rank(d) == 2

    def test_scalar_plant_has_no_zeros(self, scalar_plant):
        a, b, c, d, _ = scalar_plant
        assert check_feasibility(a, b, c, d).size == 0

    def test_design_plant_has_no_zeros(self, plant, output_map):
        zeros = check_feasibility(plant.a, plant.b, output_map.c,
                                  output_map.d)
        assert zeros.size == 0

    def test_known_zero_is_found(self):
        # x1 never reaches the outputs: holding x2 = 0, u = 0 leaves the
        # free decay of x1, so a zero sits at its pole
        a = np.diag([-3.0, -1.0])
        b = np.array([[1.0], [0.0]])
        c = np.array([[0.0, 1.0], [0.0, 0.0]])
        d = np.array([[0.0], [1.0]])
        zeros = check_feasibility(a, b, c, d)
        assert zeros.size == 1
        assert zeros[0] == pytest.approx(-3.0, abs=1e-8)

    def test_square_d_makes_every_state_output_nulling(self):
        # D invertible: u = -D^-1 C x nulls the output from any state, so the
        # zeros are all the poles of A - B D^-1 C
        a = np.array([[-1.0, 2.0], [0.5, -3.0]])
        b = np.array([[1.0], [0.3]])
        c = np.array([[0.7, -0.2]])
        d = np.array([[0.1]])
        zeros = check_feasibility(a, b, c, d)
        expect = np.linalg.eigvals(a - b @ np.linalg.solve(d, c))
        assert np.allclose(np.sort_complex(zeros),
                           np.sort_complex(expect), atol=1e-10)


@st.composite
def hidden_block_plants(draw):
    """A plant with a hidden k-state block, in random orthogonal coordinates.

    The block gets no input and does not reach the output, so its
    eigenvalues are exactly the invariant zeros.  The visible part is a
    random, generically observable system with some feedthrough outputs.
    """
    k = draw(st.integers(1, 3))
    pole = st.floats(-10.0, 10.0)
    if k >= 2 and draw(st.booleans()):
        re, im = draw(pole), draw(st.floats(0.5, 10.0))
        hidden = np.zeros((k, k))
        hidden[:2, :2] = [[re, im], [-im, re]]
        if k == 3:
            hidden[2, 2] = draw(pole)
    else:
        hidden = np.diag([draw(pole) for _ in range(k)])
    n_vis = draw(st.integers(2, 4))
    m = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = n_vis + k
    a_res = np.zeros((n, n))
    a_res[:n_vis, :n_vis] = 2.0 * rng.normal(size=(n_vis, n_vis))
    a_res[n_vis:, :n_vis] = rng.normal(size=(k, n_vis))
    a_res[n_vis:, n_vis:] = hidden
    b = np.zeros((n, m))
    b[:n_vis] = rng.normal(size=(n_vis, m))
    d1 = np.diag(rng.uniform(0.5, 2.0, m))
    d = np.vstack([d1, np.zeros((1, m))])
    c = np.zeros((m + 1, n))
    c[:, :n_vis] = rng.normal(size=(m + 1, n_vis))
    # A_res = A - B (D'D)^-1 D'C, so the plant's A adds the resolved input back
    a = a_res + b @ np.linalg.solve(d1, c[:m])
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return q.T @ a @ q, q.T @ b, c @ q, d, np.linalg.eigvals(hidden)


@settings(deadline=None)
@given(hidden_block_plants())
def test_zeros_are_the_hidden_block(plant):
    a, b, c, d, expect = plant
    zeros = check_feasibility(a, b, c, d)
    assert zeros.size == expect.size
    dist = np.abs(zeros[:, None] - expect[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert np.max(dist[rows, cols]) < 1e-6
