import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import place_poles

from heli import (
    ObserverDesign,
    UnobservablePairError,
    builtin_names,
    builtin_scenario,
    design_reduced_observer,
    find_trim,
    linearize,
    observer_init,
    observer_step,
)
from heli import observer
from heli.observer import (
    DEFAULT_POLES,
    assemble_state_estimate,
    partition_plant,
)
from heli.state import MEASURED_IDX, UNMEASURED_IDX

from rk4_reference import rk4_reference
from test_gamma_search import _perturbed_params


def _toy_plant():
    """Unmeasured block already decoupled with identity coupling into the
    first three measured rates; the per-axis placement is solvable by hand."""
    a = np.zeros((9, 9))
    for k, idx in enumerate(UNMEASURED_IDX):
        a[idx, idx] = -1.0
        a[MEASURED_IDX[k], idx] = 1.0
    for idx in MEASURED_IDX:
        a[idx, idx] += -2.0
    b = np.zeros((9, 3))
    b[UNMEASURED_IDX, (0, 1, 2)] = 1.0
    return a, b


class TestDesign:
    def test_default_poles_are_placed(self, observer_design):
        achieved = np.sort_complex(np.linalg.eigvals(observer_design.a_obs))
        wanted = np.sort_complex(np.asarray(DEFAULT_POLES, dtype=complex))
        assert np.max(np.abs(achieved - wanted)) < 1e-6

    def test_design_matrices_shapes(self, observer_design):
        assert observer_design.a_obs.shape == (3, 3)
        assert observer_design.b_obs.shape == (3, 6)
        assert observer_design.h_obs.shape == (3, 3)
        assert observer_design.k_obs.shape == (3, 6)

    def test_toy_plant_hand_placement(self):
        a, b = _toy_plant()
        poles = (-2.0, -3.0, -4.0)
        design = design_reduced_observer((a, b), poles)
        achieved = np.sort(np.linalg.eigvals(design.a_obs).real)
        assert np.allclose(achieved, sorted(poles), atol=1e-9)
        # hand solution: per-axis gains L[k, k] = pole_k magnitude - 1
        _, a_yz, _, a_zz, _, _ = partition_plant(a, b)
        l_hand = np.zeros((3, 6))
        for k, pole in enumerate(poles):
            l_hand[k, k] = -pole - 1.0
        assert np.allclose(np.sort(np.linalg.eigvals(a_zz - l_hand @ a_yz).real),
                           sorted(poles), atol=1e-12)

    def test_unstable_poles_rejected(self, plant):
        with pytest.raises(ValueError):
            design_reduced_observer(plant, (-50.0, 50.0, -60.0))

    def test_unpaired_complex_poles_rejected(self, plant):
        with pytest.raises(ValueError):
            design_reduced_observer(plant, (-50.0, -40.0 + 5.0j, -60.0))

    def test_complex_pair_accepted(self, plant):
        design = design_reduced_observer(
            plant, (-40.0 + 8.0j, -40.0 - 8.0j, -60.0))
        achieved = np.sort_complex(np.linalg.eigvals(design.a_obs))
        assert np.max(np.abs(achieved - np.sort_complex(
            np.array([-40.0 + 8.0j, -40.0 - 8.0j, -60.0])))) < 1e-6

    def test_rank_deficient_coupling_rejected(self):
        # z3 reaches the measurements only through z2: the pair stays
        # observable, but a_yz has rank 2 and the least-squares gain needs 3
        a, b = _toy_plant()
        a[MEASURED_IDX[2], UNMEASURED_IDX[2]] = 0.0
        a[UNMEASURED_IDX[1], UNMEASURED_IDX[2]] = 1.0
        _, a_yz, _, a_zz, _, _ = partition_plant(a, b)
        obs = np.vstack([a_yz, a_yz @ a_zz, a_yz @ a_zz @ a_zz])
        assert np.linalg.matrix_rank(obs) == 3
        with pytest.raises(UnobservablePairError, match="rank 2"):
            design_reduced_observer((a, b), (-2.0, -3.0, -4.0))

    def test_unobservable_pair_rejected(self):
        a, b = _toy_plant()
        for idx in UNMEASURED_IDX:
            a[MEASURED_IDX, idx] = 0.0  # sever every measured coupling
        with pytest.raises(UnobservablePairError):
            design_reduced_observer((a, b), (-2.0, -3.0, -4.0))


class TestStep:
    def test_origin_is_fixed_point(self, observer_design):
        x_obs, _ = observer_init(observer_design, np.zeros(6))
        x_obs, estimate = observer_step(observer_design.discretize(0.002),
                                        x_obs, np.zeros(6), np.zeros(3))
        assert x_obs == [0.0, 0.0, 0.0]
        assert estimate == [0.0, 0.0, 0.0]

    def test_estimate_definition_holds(self, observer_design):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(6)
        x_obs, _ = observer_init(observer_design, y,
                                 estimate=rng.standard_normal(3))
        disc = observer_design.discretize(0.002)
        for _ in range(20):
            x_obs, estimate = observer_step(disc, x_obs, y,
                                            rng.standard_normal(3))
            assert np.allclose(estimate, x_obs + observer_design.k_obs @ y,
                               atol=1e-14)

    def test_constant_measurement_steady_state(self, observer_design):
        y = np.array([0.01, -0.02, 0.0, 0.03, 0.0, 0.01])
        x_obs, _ = observer_init(observer_design, y)
        disc = observer_design.discretize(0.002)
        for _ in range(5000):
            x_obs, _ = observer_step(disc, x_obs, y, np.zeros(3))
        expect = -np.linalg.solve(observer_design.a_obs,
                                  observer_design.b_obs @ y)
        assert np.allclose(x_obs, expect, atol=1e-9)

    def test_nonpositive_dt_rejected(self, observer_design):
        with pytest.raises(ValueError):
            observer_design.discretize(0.0)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"),
                                    float("-inf")])
    def test_nonfinite_dt_rejected(self, observer_design, dt):
        # NaN and inf passed a `dt <= 0.0` guard and gave an all-NaN map
        with pytest.raises(ValueError):
            observer_design.discretize(dt)


    @pytest.mark.parametrize("dt", [0.0005, 0.002, 0.02])
    def test_step_matches_fine_rk4(self, observer_design, dt):
        des = observer_design
        rng = np.random.default_rng(31)
        x0 = rng.standard_normal(3)
        y = rng.standard_normal(6)
        u = rng.standard_normal(3)
        x_obs, _ = observer_init(des, y, estimate=x0 + des.k_obs @ y)
        x_obs, _ = observer_step(des.discretize(dt), x_obs, y, u)

        drive = des.b_obs @ y + des.h_obs @ u
        x = x0.copy()
        for _ in range(1000):
            x = rk4_reference(lambda xv, uv, wv: des.a_obs @ xv + drive, x,
                              None, None, dt / 1000)
        got = np.array(x_obs)
        assert np.max(np.abs(got - x)) <= 1e-12 * np.max(np.abs(x))


# scipy's own path to the step map and to exp, in an interpreter that never
# imports heli: the blocks of expm([[A_obs, I], [0, 0]] dt) per design and
# step, then expm of every matrix under each remaining key
_SCIPY_EXPM = """
import sys
import numpy as np
from scipy.linalg import expm
data = dict(np.load(sys.argv[1]))
maps = []
for a_obs, b_obs, h_obs, dt in zip(data.pop("a_obs"), data.pop("b_obs"),
                                   data.pop("h_obs"), data.pop("dt")):
    m = np.zeros((6, 6))
    m[:3, :3] = a_obs
    m[:3, 3:] = np.eye(3)
    e = expm(m * dt)
    maps.append(np.concatenate([e[:3, :3].ravel(), (e[:3, 3:] @ b_obs).ravel(),
                                (e[:3, 3:] @ h_obs).ravel()]))
np.savez(sys.argv[2], maps=np.array(maps),
         **{key: np.array([expm(a) for a in mats]) for key, mats in data.items()})
"""


class TestExpmOracle:
    """`ObserverDesign.discretize` and its `expm` driver, over the kernels
    of scipy's extension file, against `scipy.linalg.expm` reached through
    the package in another interpreter: the same bits."""

    @staticmethod
    def _against_scipy(tmp_path, designs=(), dts=(), **mats):
        """Assert that `discretize` gives scipy's step map bit for bit for
        every design and dt; return scipy's expm of each stack in `mats`."""
        pairs = [(des, dt) for des in designs for dt in dts]
        path_in, path_out = tmp_path / "in.npz", tmp_path / "out.npz"
        np.savez(path_in,
                 a_obs=np.array([des.a_obs for des, _ in pairs]).reshape(-1, 3, 3),
                 b_obs=np.array([des.b_obs for des, _ in pairs]).reshape(-1, 3, 6),
                 h_obs=np.array([des.h_obs for des, _ in pairs]).reshape(-1, 3, 3),
                 dt=np.array([dt for _, dt in pairs], dtype=float), **mats)
        subprocess.run([sys.executable, "-c", _SCIPY_EXPM, str(path_in),
                        str(path_out)], check=True)
        theirs = dict(np.load(path_out))
        mine = [np.concatenate([np.ravel(mat) for mat in
                                des.discretize(dt)[:3]])
                for des, dt in pairs]
        assert np.array(mine).tobytes() == theirs["maps"].tobytes()
        return theirs

    def test_default_design_bit_identical(self, observer_design, tmp_path):
        self._against_scipy(tmp_path, [observer_design],
                            [0.001, 0.002, 0.005, 0.01, 0.02, 0.05])

    def test_design_sweep_plants_bit_identical(self, tmp_path):
        designs = [design_reduced_observer(linearize(params, find_trim(params)))
                   for seed in (2026, 7) for params in _perturbed_params(seed)]
        dts = sorted({builtin_scenario(name).dt for name in builtin_names()}
                     | {0.02})
        self._against_scipy(tmp_path, designs, dts)

    def test_random_matrices_bit_identical(self, tmp_path):
        # scales from 0.01 to 100 reach every Pade order and up to ~10
        # squarings; the triangular and diagonal parts of the 4x4 ones take
        # scipy's other two branches
        rng = np.random.default_rng(2026)
        scales = 10.0 ** np.arange(-2.0, 3.0)
        mats = {f"n{n}": rng.standard_normal((5, n, n)) * scales[:, None, None]
                for n in (4, 9, 12)}
        mats["n4_parts"] = np.concatenate(
            [np.triu(mats["n4"]), np.tril(mats["n4"]),
             mats["n4"] * np.eye(4)])
        theirs = self._against_scipy(tmp_path, **mats)
        for key, stack in mats.items():
            mine = np.array([observer.expm(a) for a in stack])
            assert mine.tobytes() == theirs[key].tobytes(), key

    @pytest.mark.parametrize("dt, squarings", [(0.002, 0), (0.2, 2)])
    def test_upper_triangular_a_obs_bit_identical(self, tmp_path, monkeypatch,
                                                  dt, squarings):
        # on the default design only A_obs[2, 1] ~ -8e-17 of round-off keeps
        # A_obs from being upper triangular; scipy then squares with the
        # exact diagonal and superdiagonal and zeroes the lower part
        rng = np.random.default_rng(5)
        design = ObserverDesign(
            a_obs=np.array([[-50.0, 4.0, 1.0], [0.0, -60.0, 2.0],
                            [0.0, 0.0, -55.0]]),
            b_obs=rng.standard_normal((3, 6)),
            h_obs=rng.standard_normal((3, 3)), k_obs=np.zeros((3, 6)))
        calls = []
        exp_sinch = observer._exp_sinch
        monkeypatch.setattr(observer, "_exp_sinch",
                            lambda x: calls.append(x) or exp_sinch(x))
        self._against_scipy(tmp_path, [design], [dt])
        assert len(calls) == squarings


class TestErrorDynamics:
    def test_error_decays_from_flap_offset(self, params, trim, plant,
                                           observer_design):
        # plant parked at trim: estimation error follows the design dynamics
        x_obs, estimate = observer_init(observer_design, np.zeros(6),
                                        estimate=np.array([0.05, 0.0, 0.0]))
        dt = 0.002
        disc = observer_design.discretize(dt)
        err = [np.linalg.norm(estimate)]
        for _ in range(int(1.0 / dt)):
            x_obs, estimate = observer_step(disc, x_obs, np.zeros(6),
                                            np.zeros(3))
            err.append(np.linalg.norm(estimate))
        err = np.array(err)
        assert err[-1] < 1e-3
        tail = err[int(0.1 / dt):]
        assert np.all(np.diff(tail) <= 1e-15)

    def test_error_trajectory_independent_of_input(self, plant,
                                                   observer_design):
        # coupled plant/observer integration: the error subspace is invariant,
        # so arbitrary servo activity cancels out of the error exactly
        a, b = plant.a, plant.b
        des = observer_design
        c_m = np.zeros((6, 9))
        for k, idx in enumerate(MEASURED_IDX):
            c_m[k, idx] = 1.0
        sel_z = np.zeros((3, 9))
        for k, idx in enumerate(UNMEASURED_IDX):
            sel_z[k, idx] = 1.0

        a_big = np.block([[a, np.zeros((9, 3))],
                          [des.b_obs @ c_m, des.a_obs]])
        b_big = np.vstack([b, des.h_obs])

        rng = np.random.default_rng(17)
        x0 = np.zeros(12)
        x0[0:9] = 0.02 * rng.standard_normal(9)
        x0[9:] = sel_z @ x0[0:9] - des.k_obs @ (c_m @ x0[0:9])  # zero error start

        def run(u_seq):
            x = x0.copy()
            errs = []
            for u in u_seq:
                def f(xv, uv, wv):
                    return a_big @ xv + b_big @ u
                x = rk4_reference(f, x, None, None, 0.002)
                est = x[9:] + des.k_obs @ (c_m @ x[0:9])
                errs.append(sel_z @ x[0:9] - est)
            return np.array(errs)

        n = 500
        err_quiet = run(np.zeros((n, 3)))
        err_busy = run(0.5 * rng.standard_normal((n, 3)))
        assert np.max(np.abs(err_quiet - err_busy)) < 1e-9

    def test_separation_of_closed_loop_spectrum(self, plant, synthesis,
                                                observer_design):
        result, _, _ = synthesis
        f = result.f
        des = observer_design
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
        feed = p_y @ c_m + p_z @ des.k_obs @ c_m
        a_big = np.block([
            [plant.a + plant.b @ f @ feed, plant.b @ f @ p_z],
            [des.b_obs @ c_m + des.h_obs @ f @ feed,
             des.a_obs + des.h_obs @ f @ p_z],
        ])
        got = np.sort_complex(np.linalg.eigvals(a_big))
        expect = np.sort_complex(np.concatenate([
            np.linalg.eigvals(plant.a + plant.b @ f),
            np.linalg.eigvals(des.a_obs),
        ]))
        assert np.max(np.abs(got - expect)) < 1e-6


class TestAssemble:
    def test_interleaving(self):
        y = np.arange(1.0, 7.0)
        z = np.array([10.0, 20.0, 30.0])
        x = assemble_state_estimate(y, z)
        assert list(x) == [1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 5.0, 30.0, 6.0]


@st.composite
def placement_problems(draw):
    """A random plant, whose measured coupling a_yz has rank 3, and a
    conjugate-closed set of stable poles."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=(9, 9))
    b = rng.normal(size=(9, 3))
    pole = st.floats(-80.0, -1.0)
    if draw(st.booleans()):
        re, im = draw(pole), draw(st.floats(0.5, 20.0))
        poles = (complex(re, im), complex(re, -im), draw(pole))
    else:
        poles = tuple(draw(pole) for _ in range(3))
    return a, b, poles


@settings(deadline=None)
@given(placement_problems())
def test_gain_equals_place_poles(problem):
    a, b, poles = problem
    _, a_yz, _, a_zz, _, _ = partition_plant(a, b)
    design = design_reduced_observer((a, b), poles)
    wanted = np.asarray(poles, dtype=complex)
    if np.all(wanted.imag == 0.0):
        wanted = wanted.real
    expect = place_poles(a_zz.T, a_yz.T, wanted).gain_matrix.T
    assert np.array_equal(design.k_obs, expect)
