"""Reduced-order estimator for the flap angles and the tail servo command.

Six of the nine model states are measured directly (phi, theta, p, q, r,
psi: `heli.state.MEASURED_IDX`); the remaining three (a_s, b_s, dped:
`UNMEASURED_IDX`) are reconstructed from those measurements and the servo
inputs.  The estimator runs on deviation variables about the trim point.
Its gain places the error poles by least squares on the measured coupling,
and it steps by the exact zero-order-hold map of its linear dynamics,
computed once per step length.
"""
from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import UnobservablePairError
from .state import MEASURED_IDX, UNMEASURED_IDX

DEFAULT_POLES = (-50.0, -50.0, -60.0)


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a real square matrix `a`, by scaling and squaring a Taylor
    series (Moler & Van Loan 2003, "Nineteen dubious ways to compute the
    exponential of a matrix, twenty-five years later", method 3).

    a / 2^s has a 1-norm below 1/2, so its degree-18 Taylor polynomial,
    summed in Horner form, misses the series by less than 2^-19 / 19!
    (~1.6e-23); s squarings then undo the scaling.
    """
    s = max(0, math.frexp(np.linalg.norm(a, 1))[1] + 1)
    a = a * 0.5 ** s
    eye = np.eye(len(a))
    e = eye
    for k in range(18, 0, -1):
        e = eye + (a @ e) / k
    for _ in range(s):
        e = e @ e
    return e


class ObserverDesign(NamedTuple):
    a_obs: np.ndarray    # 3x3 estimator dynamics, Hurwitz
    b_obs: np.ndarray    # 3x6 measurement drive
    h_obs: np.ndarray    # 3x3 input drive
    k_obs: np.ndarray    # 3x6 direct measurement injection

    def discretize(self, dt: float) -> tuple[tuple, tuple, tuple, tuple]:
        """Exact step map for measurements and inputs held over `dt`.

        With Gamma = int_0^dt exp(A_obs s) ds, one step is
        x' = exp(A_obs dt) x + Gamma (B_obs y + H_obs u); both matrices are
        blocks of exp([[A_obs, I], [0, 0]] dt).  Returns (Phi, Gamma B_obs,
        Gamma H_obs, K_obs), 3x3, 3x6, 3x3 and 3x6, each a tuple of its
        rows and each row a tuple of Python floats: what `observer_step`
        reads once per step.  The exponential is `expm`.  A `dt` that is
        not a finite positive number raises ValueError.
        """
        if not (dt > 0.0 and math.isfinite(dt)):
            raise ValueError(f"dt must be finite and positive, got {dt!r}")
        m = np.zeros((6, 6))
        m[:3, :3] = self.a_obs
        m[:3, 3:] = np.eye(3)
        e = expm(m * dt)
        gamma = e[:3, 3:]
        return tuple(tuple(map(tuple, mat.tolist()))
                     for mat in (e[:3, :3], gamma @ self.b_obs,
                                 gamma @ self.h_obs, self.k_obs))


def partition_plant(a: np.ndarray, b: np.ndarray):
    """Split the model matrices into measured (y) and unmeasured (z) blocks."""
    my, mz = list(MEASURED_IDX), list(UNMEASURED_IDX)
    a_yy = a[np.ix_(my, my)]
    a_yz = a[np.ix_(my, mz)]
    a_zy = a[np.ix_(mz, my)]
    a_zz = a[np.ix_(mz, mz)]
    b_y = b[my, :]
    b_z = b[mz, :]
    return a_yy, a_yz, a_zy, a_zz, b_y, b_z


def _pole_block(poles: np.ndarray) -> np.ndarray:
    """Real block-diagonal matrix whose eigenvalues are `poles`.

    Real poles come first in ascending order, then one 2x2 block per
    conjugate pair, taken by its member with negative imaginary part in
    sorted order: the order scipy.signal.place_poles uses.
    """
    d = np.zeros((poles.size, poles.size))
    k = 0
    for p in np.sort(poles[poles.imag == 0.0].real):
        d[k, k] = p
        k += 1
    for p in np.sort(poles[poles.imag < 0.0]):
        d[k:k + 2, k:k + 2] = [[p.real, -p.imag], [p.imag, p.real]]
        k += 2
    return d


def check_poles(poles) -> np.ndarray:
    """`poles` as a complex array, or ValueError unless they are three,
    with negative real parts and closed under conjugation."""
    poles = np.asarray(poles, dtype=complex)
    if poles.shape != (3,):
        raise ValueError("exactly three observer poles are required")
    if np.any(poles.real >= 0.0):
        raise ValueError("observer poles must have negative real parts")
    if not np.array_equal(np.sort_complex(poles),
                          np.sort_complex(np.conj(poles))):
        raise ValueError("observer poles must be closed under conjugation")
    return poles


def design_reduced_observer(plant, poles=DEFAULT_POLES) -> ObserverDesign:
    """Place the estimation-error poles and assemble the estimator matrices.

    `plant` is a LinearPlant, of which the observer reads `a` and `b`;
    `poles` must pass `check_poles`.
    """
    a = np.asarray(plant.a, dtype=float)
    b = np.asarray(plant.b, dtype=float)

    poles = check_poles(poles)
    a_yy, a_yz, a_zy, a_zz, b_y, b_z = partition_plant(a, b)

    # L with eig(a_zz - L a_yz) = poles is a least-squares solve, the same
    # one scipy.signal.place_poles makes, and needs a_yz of full column
    # rank.  That rank also makes the pair (a_zz, a_yz) observable, so it is
    # the one test.  In this model b_s drives p, a_s drives q and dped
    # drives r.
    rank = np.linalg.matrix_rank(a_yz)
    if rank < 3:
        raise UnobservablePairError(
            f"measured coupling of the unmeasured states has rank {rank} < 3")
    gain = np.linalg.lstsq(a_yz.T, _pole_block(poles) - a_zz.T, rcond=-1)[0]
    gain_l = -gain.T

    a_obs = a_zz - gain_l @ a_yz
    k_obs = gain_l
    b_obs = a_zy - gain_l @ a_yy + a_obs @ gain_l
    h_obs = b_z - gain_l @ b_y

    # match achieved to requested poles over every pairing: sorting would
    # misalign poles that share a real part
    achieved = np.linalg.eigvals(a_obs)
    miss = min(np.max(np.abs(achieved[list(order)] - poles))
               for order in itertools.permutations(range(3)))
    if miss > 1e-6:
        raise UnobservablePairError("placed poles miss the requested ones by > 1e-6")
    return ObserverDesign(a_obs=a_obs, b_obs=b_obs, h_obs=h_obs, k_obs=k_obs)


def observer_step(disc, x_obs, y, u) -> tuple[list, list]:
    """One exact zero-order-hold step of the estimator from internal state
    `x_obs`, with the six measurements `y` and three inputs `u` held over
    the step; `disc` is the step map `design.discretize(dt)`.

    x' = (Phi x + Gamma_b y) + Gamma_h u and estimate = x' + K y, written
    out over the 3x3 and 3x6 matrices with each matrix-vector product summed
    left to right over Python floats.  Returns (x', estimate), the deviation
    estimate of (a_s, b_s, dped), as lists.
    """
    ((p00, p01, p02), (p10, p11, p12), (p20, p21, p22)), \
        ((b00, b01, b02, b03, b04, b05), (b10, b11, b12, b13, b14, b15),
         (b20, b21, b22, b23, b24, b25)), \
        ((h00, h01, h02), (h10, h11, h12), (h20, h21, h22)), \
        ((k00, k01, k02, k03, k04, k05), (k10, k11, k12, k13, k14, k15),
         (k20, k21, k22, k23, k24, k25)) = disc
    x0, x1, x2 = x_obs
    y0, y1, y2, y3, y4, y5 = y
    u0, u1, u2 = u
    n0 = (p00 * x0 + p01 * x1 + p02 * x2
          + (b00 * y0 + b01 * y1 + b02 * y2 + b03 * y3 + b04 * y4 + b05 * y5)
          + (h00 * u0 + h01 * u1 + h02 * u2))
    n1 = (p10 * x0 + p11 * x1 + p12 * x2
          + (b10 * y0 + b11 * y1 + b12 * y2 + b13 * y3 + b14 * y4 + b15 * y5)
          + (h10 * u0 + h11 * u1 + h12 * u2))
    n2 = (p20 * x0 + p21 * x1 + p22 * x2
          + (b20 * y0 + b21 * y1 + b22 * y2 + b23 * y3 + b24 * y4 + b25 * y5)
          + (h20 * u0 + h21 * u1 + h22 * u2))
    return (
        [n0, n1, n2],
        [n0 + (k00 * y0 + k01 * y1 + k02 * y2 + k03 * y3 + k04 * y4
               + k05 * y5),
         n1 + (k10 * y0 + k11 * y1 + k12 * y2 + k13 * y3 + k14 * y4
               + k15 * y5),
         n2 + (k20 * y0 + k21 * y1 + k22 * y2 + k23 * y3 + k24 * y4
               + k25 * y5)])


def assemble_state_estimate(y_dev, z_est) -> list:
    """Interleave measured deviations and estimates into the model order.

    Written out, as it runs every step: the six measurements `y_dev` go to
    the slots `heli.state.MEASURED_IDX` and the three estimates `z_est` to
    `UNMEASURED_IDX`, in `MODEL_STATE_LABELS` order.
    """
    phi, theta, p, q, r, psi = y_dev
    a_s, b_s, dped = z_est
    return [phi, theta, p, q, a_s, b_s, r, dped, psi]
