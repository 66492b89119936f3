"""Body-axis wind: steady mean, step gusts, and seeded colored turbulence.

Turbulence is a first-order Gauss-Markov process realized once on a fixed
internal grid and sampled with a zero-order hold, so a given seed produces
the same wind history regardless of the simulation step size.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

TURBULENCE_GRID_DT = 0.01  # internal realization step (s)


def _check_shape3(value, what: str):
    """ConfigError unless `value` has shape (3,): a scalar or a vector of
    another length would broadcast, or fail, inside the run."""
    if np.shape(value) != (3,):
        raise ConfigError(f"{what} must have shape (3,), got "
                          f"{np.shape(value)}")


@dataclass(frozen=True)
class Gust:
    start: float
    end: float
    delta: np.ndarray  # body-axis wind step (m/s)

    def validate(self) -> "Gust":
        if not self.end > self.start:
            raise ConfigError(f"gust interval [{self.start}, {self.end}] is empty")
        _check_shape3(self.delta, "gust delta")
        if not np.all(np.isfinite(self.delta)):
            raise ConfigError("gust delta must be finite")
        return self


@dataclass(frozen=True)
class WindModel:
    mean: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gusts: tuple = ()
    sigma: float = 0.0       # turbulence intensity (m/s)
    tau_c: float = 2.0       # turbulence correlation time (s)

    def validate(self) -> "WindModel":
        _check_shape3(self.mean, "wind mean")
        if not np.all(np.isfinite(self.mean)):
            raise ConfigError("wind mean must be finite")
        if not 0.0 <= self.sigma < np.inf:
            raise ConfigError("turbulence intensity must be finite and >= 0")
        if not self.tau_c > 0.0:
            raise ConfigError("turbulence correlation time must be > 0")
        for g in self.gusts:
            g.validate()
        return self

    def realize(self, duration: float, seed: int) -> "WindSequence":
        """Draw the turbulence sample path for a run of the given length."""
        n = int(np.ceil(duration / TURBULENCE_GRID_DT)) + 2
        if self.sigma > 0.0:
            rng = np.random.default_rng(seed)
            a = np.exp(-TURBULENCE_GRID_DT / self.tau_c)
            b = self.sigma * np.sqrt(1.0 - a * a)
            noise = np.empty((n, 3))
            noise[0] = self.sigma * rng.standard_normal(3)  # stationary start
            shocks = rng.standard_normal((n - 1, 3))
            # the AR(1) recurrence per component on Python floats: the same
            # products and sums as numpy's row arithmetic, without an array
            # operation per grid point.  Each path is an array("d"), not a
            # list: lists of floats raised the peak RSS of a scenario sweep
            # by ~0.4 MB
            a, b = float(a), float(b)
            for c, column in enumerate(np.ascontiguousarray(shocks.T)):
                v = float(noise[0, c])
                path = array("d")
                for shock in memoryview(column):
                    v = a * v + b * shock
                    path.append(v)
                noise[1:, c] = path
        else:
            noise = np.zeros((n, 3))
        return WindSequence(model=self, turbulence=noise)


@dataclass(frozen=True)
class WindSequence:
    model: WindModel
    turbulence: np.ndarray

    def at(self, t: float) -> np.ndarray:
        """Body-axis wind at time t; turbulence is held between grid points."""
        w = self.model.mean.copy()
        for g in self.model.gusts:
            if g.start <= t < g.end:
                w = w + g.delta
        idx = int(np.floor((t + 1e-12) / TURBULENCE_GRID_DT))
        idx = min(max(idx, 0), self.turbulence.shape[0] - 1)
        return w + self.turbulence[idx]

    def table(self, times: np.ndarray) -> np.ndarray:
        """Rows of `at(t)` for every t in `times`, with the same arithmetic.

        Finite gusts that overlap may sum to an infinite wind; that reaches
        the run, which stops on it, with no numpy warning on the way.
        """
        times = np.asarray(times, dtype=float)
        w = np.empty((times.size, 3))
        w[:] = self.model.mean
        idx = np.floor((times + 1e-12) / TURBULENCE_GRID_DT).astype(int)
        idx = np.clip(idx, 0, self.turbulence.shape[0] - 1)
        with np.errstate(over="ignore"):
            for g in self.model.gusts:
                on = (g.start <= times) & (times < g.end)
                w[on] += g.delta
            return w + self.turbulence[idx]
