import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heli import ConfigError, Gust, WindModel, builtin_scenario
from heli.wind import TURBULENCE_GRID_DT


class TestWindModel:
    def test_zero_sigma_no_gusts_is_exactly_mean(self):
        mean = np.array([2.0, -1.0, 0.5])
        seq = WindModel(mean=mean).realize(10.0, seed=3)
        for t in np.arange(0.0, 10.0, 0.0137):
            assert np.array_equal(seq.at(t), mean)

    def test_gust_window_adds_delta(self):
        model = WindModel(mean=np.zeros(3),
                          gusts=(Gust(2.0, 4.0, np.array([1.0, 0.0, -0.5])),))
        seq = model.realize(6.0, seed=0)
        assert np.array_equal(seq.at(1.0), np.zeros(3))
        assert np.array_equal(seq.at(3.0), np.array([1.0, 0.0, -0.5]))
        assert np.array_equal(seq.at(2.0), np.array([1.0, 0.0, -0.5]))
        assert np.array_equal(seq.at(4.0), np.zeros(3))  # half-open interval

    def test_turbulence_empirical_std(self):
        sigma = 0.8
        seq = WindModel(sigma=sigma, tau_c=1.5).realize(1000.0, seed=11)
        assert seq.turbulence.shape[0] >= 100000
        std = seq.turbulence.std(axis=0)
        assert np.all(np.abs(std - sigma) < 0.1 * sigma)

    def test_same_seed_same_sequence(self):
        model = WindModel(sigma=0.5)
        a = model.realize(5.0, seed=42)
        b = model.realize(5.0, seed=42)
        assert np.array_equal(a.turbulence, b.turbulence)

    def test_different_seed_differs(self):
        model = WindModel(sigma=0.5)
        a = model.realize(5.0, seed=1)
        b = model.realize(5.0, seed=2)
        assert not np.array_equal(a.turbulence, b.turbulence)

    def test_realization_independent_of_sampling_step(self):
        model = WindModel(mean=np.array([1.0, 0.0, 0.0]), sigma=0.4)
        seq = model.realize(4.0, seed=9)
        coarse = [seq.at(k * 0.002) for k in range(2000)]
        fine = [seq.at(k * 0.001) for k in range(4000)]
        assert np.array_equal(np.array(coarse), np.array(fine[::2]))

    def test_validation(self):
        with pytest.raises(ConfigError):
            WindModel(sigma=-0.1).validate()
        with pytest.raises(ConfigError):
            WindModel(tau_c=0.0).validate()
        with pytest.raises(ConfigError):
            WindModel(gusts=(Gust(3.0, 2.0, np.zeros(3)),)).validate()


@st.composite
def wind_runs(draw):
    """A wind model, a run length and a step, with some gust edges exactly
    on a step time."""
    dt = draw(st.sampled_from([0.0005, 0.001, 0.002, 0.003, 0.01, 0.02]))
    n = draw(st.integers(1, 2000))
    t_end = n * dt

    def edge():
        if draw(st.booleans()):
            return draw(st.integers(0, n)) * dt
        return draw(st.floats(-0.5, t_end + 0.5))

    gusts = []
    for _ in range(draw(st.integers(0, 4))):
        a, b = sorted((edge(), edge()))
        if b > a:
            delta = draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
            gusts.append(Gust(a, b, np.array(delta)))
    mean = draw(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
    model = WindModel(mean=np.array(mean), gusts=tuple(gusts),
                      sigma=draw(st.sampled_from([0.0, 0.5])),
                      tau_c=draw(st.floats(0.1, 5.0)))
    return model, n, dt


@settings(deadline=None, max_examples=60)
@given(wind_runs(), st.integers(0, 2 ** 31 - 1))
def test_table_equals_at_every_step(run, seed):
    model, n, dt = run
    seq = model.realize(n * dt, seed)
    times = np.arange(n + 1) * dt
    table = seq.table(times)
    assert table.shape == (n + 1, 3)
    for k, t in enumerate(times):
        assert np.array_equal(table[k], seq.at(t))


def _turbulence_by_rows(model, duration, seed):
    """The turbulence path as numpy row arithmetic, one grid point at a
    time: the recurrence `WindModel.realize` runs on Python floats."""
    n = int(np.ceil(duration / TURBULENCE_GRID_DT)) + 2
    rng = np.random.default_rng(seed)
    a = np.exp(-TURBULENCE_GRID_DT / model.tau_c)
    b = model.sigma * np.sqrt(1.0 - a * a)
    noise = np.empty((n, 3))
    noise[0] = model.sigma * rng.standard_normal(3)
    shocks = rng.standard_normal((n - 1, 3))
    for k in range(1, n):
        noise[k] = a * noise[k - 1] + b * shocks[k - 1]
    return noise


_GUST = builtin_scenario("gust-attitude-hold", seed=2026)


@settings(deadline=None, max_examples=60)
@given(st.floats(1e-3, 10.0), st.floats(1e-3, 1e3),
       st.integers(0, 2 ** 64 - 1), st.floats(1e-3, 60.0))
@example(_GUST.wind.sigma, _GUST.wind.tau_c, _GUST.seed, _GUST.duration)
def test_turbulence_bit_equals_row_recurrence(sigma, tau_c, seed, duration):
    model = WindModel(sigma=sigma, tau_c=tau_c)
    got = model.realize(duration, seed).turbulence
    assert got.flags.c_contiguous
    assert got.tobytes() == _turbulence_by_rows(model, duration, seed).tobytes()
