"""Gamma-suboptimal H-infinity state-feedback synthesis.

The attenuation level gamma parameterizes a game-type algebraic Riccati
equation; its stabilizing solution is extracted from the stable invariant
subspace of the associated Hamiltonian, then verified explicitly.  Each
solve makes one ordered real Schur decomposition, whose eigenvalues also
decide the imaginary-axis test.  The smallest feasible gamma is located by
bisection and the shipped controller backs off by a small margin; the search
record keeps one gamma and verdict per solve but no P.
The closed-loop norm check is exact (imaginary-axis eigenvalues of a second
Hamiltonian), and so are the plant's invariant zeros (its unobservable part).
The feedforward gain makes the design model's tracked outputs
(`heli.state.TRACKED_ROWS`) follow the attitude reference about their trim
values, which `SynthesisResult.gain_rows` takes from the trim point.

The Schur decomposition is LAPACK's `dgees` from scipy's f2py module
`scipy/linalg/_flapack`, loaded straight from its file by
`linalg_extension`.  heli reaches scipy through this one extension file
only and never imports `scipy.linalg`: its package `__init__`, whose
array-API layer pulls in `numpy.testing`, `numpy.ma`, `numpy.f2py` and
more, would cost ~0.3 s and ~26 MB, while `_flapack` alone takes ~5 ms and
~3 MB.  It is the same extension and routine `scipy.linalg.lapack.dgees`
exposes, so the bits are the same.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from array import array
from typing import NamedTuple

import numpy as np

from .errors import SynthesisError, UnstableSystemError
from .state import INPUT_LIMIT, TRACKED_ROWS, clamp_servos


def linalg_extension():
    """scipy's LAPACK extension module `scipy/linalg/_flapack`, loaded from
    its file without running `scipy.linalg`'s package init."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("heli needs scipy >= 1.10")
    linalg_dir = os.path.join(scipy_spec.submodule_search_locations[0],
                              "linalg")
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack",
                                                    [linalg_dir])
    if spec is None:
        from importlib.metadata import version
        raise ImportError(f"scipy {version('scipy')} has no "
                          "scipy/linalg/_flapack extension; heli needs "
                          "scipy >= 1.10")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


dgees = linalg_extension().dgees

GAMMA_TOL = 1e-4         # gamma_star: relative width of the final bracket
GAMMA_MARGIN = 0.05      # gamma used = (1 + margin) * gamma*, or above
_NORM_TOL = 1e-10        # hinf_norm: relative accuracy of the peak
_AXIS_TOL = 1e-8         # |Re l| / max |l| under which l is on the j-axis
_RANK_TOL = 1e-10        # check_feasibility: rank cut-off for C_res
_INVARIANCE_TOL = 1e-9   # share of max |A_res| that adds no direction


def _stable(re, im):
    """dgees select: the open left half plane first."""
    return re < 0.0


class OutputWeights(NamedTuple):
    """Weighting blocks of the controlled output h = C x + D u."""

    c11: np.ndarray   # 4x4, weights on (phi, theta, p, q)
    c22: np.ndarray   # 2x5, weights on (a_s, b_s, r, dped, psi)
    d11: np.ndarray   # 3x3, weights on the servo inputs

    @staticmethod
    def default() -> "OutputWeights":
        return OutputWeights(
            c11=np.diag([13.0, 11.0, 1.0, 1.0]),
            c22=np.array([[0.0, 0.0, 1.0, 0.0, 0.0],
                          [0.0, 0.0, 0.0, 0.0, 5.0]]),
            d11=np.diag([12.0, 11.0, 31.0]),
        )


class ControlledOutputMap(NamedTuple):
    """Stacked output matrices: 3 pure-input rows, then the state weights."""

    c: np.ndarray  # 9x9
    d: np.ndarray  # 9x3


class RiccatiSolution(NamedTuple):
    p: np.ndarray
    gamma: float
    residual_norm: float


class RiccatiInfeasible(NamedTuple):
    gamma: float
    reason: str     # imaginary_axis | singular_subspace | verification_failed


# a solve's verdict: "" if feasible, else the RiccatiInfeasible reason
_VERDICTS = ("", "imaginary_axis", "singular_subspace", "verification_failed")


class SynthesisResult(NamedTuple):
    f: np.ndarray            # 3x9 state feedback gain
    g: np.ndarray            # 3x3 reference feedforward gain
    riccati: RiccatiSolution

    @property
    def gamma(self) -> float:
        """The attenuation level the gains were designed for."""
        return self.riccati.gamma

    def gain_rows(self, h_out_trim) -> tuple[tuple, tuple, tuple]:
        """The gains about a trim point whose tracked outputs are
        `h_out_trim` (`TrimPoint.h_out_trim`): F and G row by row, and
        those outputs, as tuples of Python floats, which is what
        `control_law` reads each step."""
        return (tuple(map(tuple, self.f.tolist())),
                tuple(map(tuple, self.g.tolist())),
                tuple(map(float, h_out_trim)))


class GammaSearchResult(NamedTuple):
    gamma_star: float
    gammas: array       # the gamma of each search solve, in the order made
    verdicts: bytes     # per solve, its index in _VERDICTS

    @property
    def trace(self) -> list:
        """(gamma, feasible, reason) per search solve, in the order made.

        Stored flat: a search holds ~0.3 KB of trace, not ~2.3 KB of row
        tuples, for callers that keep many searches."""
        return [(g, v == 0, _VERDICTS[v])
                for g, v in zip(self.gammas, self.verdicts)]


def build_output_map(weights: OutputWeights) -> ControlledOutputMap:
    """Assemble C (9x9) and D (9x3) from the three weighting blocks."""
    c11 = np.asarray(weights.c11, dtype=float)
    c22 = np.asarray(weights.c22, dtype=float)
    d11 = np.asarray(weights.d11, dtype=float)
    if c11.shape != (4, 4) or c22.shape != (2, 5) or d11.shape != (3, 3):
        raise ValueError("weight blocks must have shapes 4x4, 2x5, 3x3")
    for name, block in (("c11", c11), ("c22", c22), ("d11", d11)):
        if not np.all(np.isfinite(block)):
            raise SynthesisError(f"weight block {name} has non-finite entries")
    c = np.zeros((9, 9))
    c[3:7, 0:4] = c11
    c[7:9, 4:9] = c22
    d = np.zeros((9, 3))
    d[0:3, :] = d11
    return ControlledOutputMap(c=c, d=d)


def _check_dims(a, b, c, d, e):
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("A must be square")
    if b.ndim != 2 or b.shape[0] != n:
        raise ValueError("B row count must match A")
    if c.ndim != 2 or c.shape[1] != n:
        raise ValueError("C column count must match A")
    if d.shape != (c.shape[0], b.shape[1]):
        raise ValueError("D must be (rows of C) x (cols of B)")
    if e.ndim != 2 or e.shape[0] != n:
        raise ValueError("E row count must match A")


def _square(gamma) -> float:
    """float(gamma) ** 2, and inf where it overflows: the E E'/gamma^2 = 0
    limit.

    Squaring by `** 2`, not `x * x`: the two differ in the last bit on
    ~0.1 % of values, and on one perturbed design that bit moves a search
    verdict.  A numpy float64 squared by `** 2` rounds as this does.
    """
    try:
        return float(gamma) ** 2
    except OverflowError:
        return math.inf


def _resolved_inputs(c, d):
    """R = D'D and R^-1 D'C; a SynthesisError unless D has full column rank,
    tested on R itself, which every solve that follows inverts."""
    rtr = d.T @ d
    if np.linalg.matrix_rank(rtr) < d.shape[1]:
        raise SynthesisError("output map D is column rank deficient")
    return rtr, np.linalg.solve(rtr, d.T @ c)


def check_search_settings(tol, margin) -> None:
    """ValueError unless `gamma_star`'s 0 < tol < inf and 0 <= margin < inf:
    an infinite tol stops at gamma_hi, an infinite margin designs for inf."""
    if not 0.0 < tol < math.inf:
        raise ValueError("gamma_tol must be finite and > 0")
    if not 0.0 <= margin < math.inf:
        raise ValueError("gamma_margin must be finite and >= 0")


def riccati_residual(p, a, b, c, d, e, gamma) -> float:
    """Max-norm of the game Riccati equation left-hand side at P."""
    rtr = d.T @ d
    s = c.T @ d
    lhs = p @ a + a.T @ p + c.T @ c + p @ e @ e.T @ p / _square(gamma) \
        - (p @ b + s) @ np.linalg.solve(rtr, (s.T + b.T @ p))
    return float(np.max(np.abs(lhs)))


def feedback_gain(p, b, c, d) -> np.ndarray:
    rtr = d.T @ d
    return -np.linalg.solve(rtr, d.T @ c + b.T @ p)


class _RiccatiGame:
    """The gamma-free part of `solve_riccati` for one plant, built once.

    Checks the plant and holds B R^-1 B', E E', the Hamiltonian with its
    three gamma-free blocks (A_bar, -Q_bar, -A_bar') filled in, and the
    LAPACK workspace size of its Schur decomposition; `solve` writes the
    -G_bar block for one gamma and makes one ordered real Schur
    decomposition (Laub 1979, "A Schur method for solving algebraic Riccati
    equations"), whose eigenvalues feed the imaginary-axis test and whose
    leading Schur vectors span the stable subspace, then runs the checks.
    """

    def __init__(self, a, b, c, d, e):
        a, b, c, d, e = (np.atleast_2d(np.asarray(m, dtype=float))
                         for m in (a, b, c, d, e))
        _check_dims(a, b, c, d, e)
        n = a.shape[0]
        rtr, r_inv_dt_c = _resolved_inputs(c, d)
        a_bar = a - b @ r_inv_dt_c
        q_bar = c.T @ c - c.T @ d @ r_inv_dt_c
        self.plant = a, b, c, d, e
        self.brb = b @ np.linalg.solve(rtr, b.T)
        self.eet = e @ e.T
        self.ham = np.zeros((2 * n, 2 * n))
        # the workspace size depends on n only, so it is queried once
        self.lwork = int(dgees(_stable, self.ham, lwork=-1)[-2][0])
        self.ham[:n, :n] = a_bar
        self.ham[n:, :n] = -q_bar
        self.ham[n:, n:] = -a_bar.T

    def solve(self, gamma: float):
        if gamma <= 0.0:
            raise ValueError("gamma must be positive")
        a, b, c, d, e = self.plant
        n = a.shape[0]
        gamma_sq = _square(gamma)
        # checked before dividing: a square that underflows to 0 would
        # divide to inf, with a numpy warning on the way; one that overflows
        # divides E E' to 0, the limit of no disturbance
        if not gamma_sq > 0.0:
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
        g_bar = self.brb - self.eet / gamma_sq
        ham = self.ham
        ham[:n, n:] = -g_bar
        if not np.isfinite(ham).all():
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")

        _, sdim, wr, wi, z, _, info = dgees(_stable, ham, lwork=self.lwork,
                                            sort_t=1)
        if 0 < info <= 2 * n:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        scale = max(1.0, float(np.max(np.hypot(wr, wi))))
        if np.any(np.abs(wr) < 1e-9 * scale):
            return RiccatiInfeasible(gamma, "imaginary_axis")
        if info == 2 * n + 1:
            raise np.linalg.LinAlgError(
                "Eigenvalues could not be separated for reordering.")
        if info == 2 * n + 2:
            raise np.linalg.LinAlgError(
                "Leading eigenvalues do not satisfy sort condition.")
        if sdim != n:
            return RiccatiInfeasible(gamma, "imaginary_axis")
        x1 = z[:n, :n]
        x2 = z[n:, :n]
        if np.linalg.cond(x1) > 1e12:
            return RiccatiInfeasible(gamma, "singular_subspace")
        p = np.linalg.solve(x1.T, x2.T).T
        p = 0.5 * (p + p.T)

        residual = riccati_residual(p, a, b, c, d, e, gamma)
        # verified: a small residual, P >= 0 and A + B F Hurwitz
        if (residual >= 1e-8 * (1.0 + np.max(np.abs(p)))
                or np.min(np.linalg.eigvalsh(p)) <= -1e-10
                or np.any(np.linalg.eigvals(
                    a + b @ feedback_gain(p, b, c, d)).real >= 0.0)):
            return RiccatiInfeasible(gamma, "verification_failed")
        return RiccatiSolution(p=p, gamma=float(gamma), residual_norm=residual)


def solve_riccati(a, b, c, d, e, gamma: float):
    """Stabilizing solution of the gamma-parameterized Riccati equation.

    Returns a RiccatiSolution, or a RiccatiInfeasible verdict naming which of
    the three failure modes occurred (Hamiltonian eigenvalues on the imaginary
    axis, singular stable subspace, or failed post-verification).
    """
    return _RiccatiGame(a, b, c, d, e).solve(gamma)


def gamma_star(a, b, c, d, e, tol: float = GAMMA_TOL,
               margin: float = GAMMA_MARGIN,
               gamma_hi: float = 1e6, max_iter: int = 200
               ) -> tuple[GammaSearchResult, RiccatiSolution]:
    """Smallest feasible attenuation level, by bisection on [0, gamma_hi].

    Feasibility is monotone in gamma: the game Riccati equation has a
    stabilizing solution exactly on [gamma*, inf) (Doyle, Glover,
    Khargonekar & Francis 1989, "State-space solutions to standard H2 and
    H-infinity control problems").  While every midpoint is feasible the
    bisection only halves gamma_hi, so that walk down is galloped: from the
    last feasible halving it probes 1, 2, 4, ... halvings further, then
    bisects on the count to the first infeasible one.  The bisection then
    goes on from there to a relative width of `tol`.  It reaches the same
    interval after the same number of iterations (counted against
    `max_iter`) as the plain bisection, so the result is the same; only the
    probes differ (`trace`, one row per solve in the order made).

    Returns the search record (the boundary estimate and the probes) and
    the verified solution at the gamma used, its `gamma`: (1 + margin)
    times the boundary or above.  The record holds no P: callers that keep
    many searches keep ~0.9 KB each.
    """
    check_search_settings(tol, margin)
    game = _RiccatiGame(a, b, c, d, e)
    gammas, verdicts = array("d"), bytearray()

    def feasible(g):
        res = game.solve(g)
        ok = isinstance(res, RiccatiSolution)
        gammas.append(g)
        verdicts.append(0 if ok else _VERDICTS.index(res.reason))
        return ok, res

    ok, res_hi = feasible(gamma_hi)
    if not ok:
        raise SynthesisError(
            f"problem infeasible at the upper bound gamma = {gamma_hi:g} "
            f"({res_hi.reason})")

    # with lo = 0 every midpoint is 0.5 * hi: halving[j] is hi after j
    # feasible midpoints, up to where the bisection below would stop
    halving = [gamma_hi]
    while (len(halving) <= max_iter
           and not halving[-1] <= tol * halving[-1]
           and not 0.5 * halving[-1] <= 0.0):
        halving.append(0.5 * halving[-1])
    last = len(halving) - 1
    good, bad, step = 0, None, 1
    while bad is None and good < last:
        j = min(good + step, last)
        if feasible(halving[j])[0]:
            good, step = j, 2 * step
        else:
            bad = j
    while bad is not None and bad - good > 1:
        j = (good + bad) // 2
        if feasible(halving[j])[0]:
            good = j
        else:
            bad = j
    if bad is None:
        lo, hi, done = 0.0, halving[last], last
    else:
        lo, hi, done = halving[bad], halving[good], bad

    for _ in range(done, max_iter):
        if hi - lo <= tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if mid <= 0.0:
            break
        ok, _ = feasible(mid)
        if ok:
            hi = mid
        else:
            lo = mid

    g_star = hi
    g_used = g_star * (1.0 + margin)
    result = game.solve(g_used)
    while isinstance(result, RiccatiInfeasible) and g_used < gamma_hi:
        g_used *= 1.0 + margin  # numerical edge right at the boundary
        result = game.solve(g_used)
    if isinstance(result, RiccatiInfeasible):
        raise SynthesisError("no feasible solution above the located boundary")
    return GammaSearchResult(g_star, gammas, bytes(verdicts)), result


def compute_gains(riccati: RiccatiSolution, a, b, c, d,
                  tracked_rows=TRACKED_ROWS) -> SynthesisResult:
    """Feedback and feedforward gains from a verified Riccati solution.

    The feedforward gain inverts the closed-loop DC path of the tracked
    outputs, so constant references are matched exactly in steady state.
    """
    a, b, c, d = (np.asarray(m, dtype=float) for m in (a, b, c, d))
    f = feedback_gain(riccati.p, b, c, d)
    a_cl = a + b @ f
    cl_eigs = np.linalg.eigvals(a_cl)
    if np.any(cl_eigs.real >= 0.0):
        raise SynthesisError("closed loop A + B F is not Hurwitz")
    c_sel = np.eye(a.shape[0])[list(tracked_rows)]
    dc = c_sel @ np.linalg.solve(a_cl, b)
    if abs(np.linalg.det(dc)) < 1e-12:
        raise SynthesisError("tracked-output DC gain is singular")
    g = -np.linalg.inv(dc)
    return SynthesisResult(f=f, g=g, riccati=riccati)


def control_law(gains, x, r, u_trim, delta_col: float) -> tuple[list, int]:
    """Servo inputs for a deviation state and attitude reference.

    Computes u = (F x + G (r - h_out_trim)) + u_trim from `gains`, the
    (F rows, G rows, h_out_trim) of
    `SynthesisResult.gain_rows(trim.h_out_trim)`, written out over the
    3x9 and 3x3 gains with each matrix-vector product summed left to right
    over Python floats, and clamps each cyclic and pedal channel, reporting
    which channels saturated.  Returns the flat input list (dlat, dlon, dped,
    dcol) with the collective `delta_col` passed through untouched, and the
    flag bits.
    """
    f_rows, g_rows, (h0, h1, h2) = gains
    (f00, f01, f02, f03, f04, f05, f06, f07, f08), \
        (f10, f11, f12, f13, f14, f15, f16, f17, f18), \
        (f20, f21, f22, f23, f24, f25, f26, f27, f28) = f_rows
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = g_rows
    ut0, ut1, ut2 = u_trim
    e0, e1, e2 = r[0] - h0, r[1] - h1, r[2] - h2
    x0, x1, x2, x3, x4, x5, x6, x7, x8 = x
    u0 = (f00 * x0 + f01 * x1 + f02 * x2 + f03 * x3 + f04 * x4 + f05 * x5
          + f06 * x6 + f07 * x7 + f08 * x8
          + (g00 * e0 + g01 * e1 + g02 * e2) + ut0)
    u1 = (f10 * x0 + f11 * x1 + f12 * x2 + f13 * x3 + f14 * x4 + f15 * x5
          + f16 * x6 + f17 * x7 + f18 * x8
          + (g10 * e0 + g11 * e1 + g12 * e2) + ut1)
    u2 = (f20 * x0 + f21 * x1 + f22 * x2 + f23 * x3 + f24 * x4 + f25 * x5
          + f26 * x6 + f27 * x7 + f28 * x8
          + (g20 * e0 + g21 * e1 + g22 * e2) + ut2)
    # a channel within the range (or NaN) passes the clamp unchanged
    if abs(u0) > INPUT_LIMIT or abs(u1) > INPUT_LIMIT \
            or abs(u2) > INPUT_LIMIT:
        u = [u0, u1, u2]
        flags = clamp_servos(u)
        u.append(delta_col)
        return u, flags
    return [u0, u1, u2, delta_col], 0


def hinf_norm(a_cl, e, c_cl) -> float:
    """Peak singular value of C (jwI - A)^-1 E over frequency.

    Two-step method of Bruinsma & Steinbuch (1990): a lower bound from w = 0
    and the pole frequencies is raised to the largest sigma_max at the
    midpoints between the frequencies where a singular value crosses
    gamma = (1 + 2 tol) * bound -- the imaginary-axis eigenvalues of the
    Hamiltonian of Boyd, Balakrishnan & Kabamba (1989) -- until none is left.
    Every bound is a sigma_max value, so the result never exceeds the norm;
    it is at most a relative 2 * _NORM_TOL below it while eigvals resolves
    the crossings (on stiff, strongly non-normal systems with a very sharp
    peak, round-off in the crossings can leave it ~1e-6 low).  A transfer
    that is zero at all the starting frequencies gives 0.0.
    """
    a_cl = np.asarray(a_cl, dtype=float)
    e = np.atleast_2d(np.asarray(e, dtype=float))
    c_cl = np.atleast_2d(np.asarray(c_cl, dtype=float))
    n = a_cl.shape[0]
    if a_cl.shape != (n, n) or e.shape[0] != n or c_cl.shape[1] != n:
        raise ValueError("need A n x n, E with n rows and C with n columns")
    poles = np.linalg.eigvals(a_cl)
    if np.any(poles.real >= 0.0):
        raise UnstableSystemError("closed-loop matrix is not Hurwitz")

    # search on E and C scaled by powers of two, which scales the transfer
    # exactly: to entries below 1, then by the first bound's exponent, split
    # between them, so that E E', C'C and gamma^2 stay in the float range
    ke, kc = (math.frexp(np.max(np.abs(m), initial=0.0))[1] for m in (e, c_cl))
    e, c_cl = np.ldexp(e, -ke), np.ldexp(c_cl, -kc)
    eye = np.eye(n)

    def sigma(w: float) -> float:
        tf = c_cl @ np.linalg.solve(1j * w * eye - a_cl, e)
        return float(np.linalg.svd(tf, compute_uv=False)[0])

    bound, kb = math.frexp(max(sigma(w) for w in np.append(0.0, np.abs(poles))))
    e, c_cl = np.ldexp(e, -(kb // 2)), np.ldexp(c_cl, kb // 2 - kb)
    eet, ctc = e @ e.T, c_cl.T @ c_cl
    while bound > 0.0:
        gamma_sq = _square((1.0 + 2.0 * _NORM_TOL) * bound)
        lam = np.linalg.eigvals(np.block([[a_cl, eet / gamma_sq],
                                          [-ctc, -a_cl.T]]))
        # round-off moves eigenvalues off the axis in proportion to the
        # largest one; a spurious crossing only adds a midpoint to evaluate
        axis_tol = _AXIS_TOL * np.max(np.abs(lam))
        w = np.sort(lam.imag[(np.abs(lam.real) < axis_tol) & (lam.imag > 0)])
        peak = max((sigma(m) for m in 0.5 * (w[:-1] + w[1:])), default=0.0)
        if peak <= bound:
            break
        bound = peak
    with np.errstate(over="ignore"):   # a norm past the float range is inf
        return float(np.ldexp(bound, ke + kc + kb))


def _span(m: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the range of `m`, dropping singular values <= tol."""
    u, sv, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, sv > tol]


def check_feasibility(a, b, c, d) -> np.ndarray:
    """Invariant zeros of the synthesis plant; none is an empty array.

    A D without full column rank raises SynthesisError.  With D injective,
    u = -(D'D)^-1 D'C x on any output-nulling motion, so the
    output-nulling subspace is the unobservable subspace of the resolved
    pair (A_res, C_res): the orthogonal complement of the span grown from
    the rows of C_res by A_res'.  The zeros are A_res restricted to it.
    """
    a, b, c, d = (np.asarray(m, dtype=float) for m in (a, b, c, d))
    resolve = _resolved_inputs(c, d)[1]
    a_res, c_res = a - b @ resolve, c - d @ resolve
    # cut-offs scale with C and A, not with the block at hand: a C_res that
    # D cancels down to round-off must come out empty
    observable = _span(c_res.T, _RANK_TOL * (1.0 + np.max(np.abs(c))))
    a_scale = 1.0 + np.max(np.abs(a_res))
    while 0 < observable.shape[1] < a.shape[0]:
        grown = _span(np.hstack([observable, a_res.T @ observable / a_scale]),
                      _INVARIANCE_TOL)
        if grown.shape[1] == observable.shape[1]:
            break
        observable = grown
    v = np.linalg.svd(observable)[0][:, observable.shape[1]:]
    return np.linalg.eigvals(v.T @ a_res @ v)


def synthesize(plant, weights: OutputWeights | None = None,
               tol: float = GAMMA_TOL, margin: float = GAMMA_MARGIN
               ) -> tuple[SynthesisResult, GammaSearchResult, np.ndarray]:
    """Full inner-loop synthesis pipeline for a linearized plant.

    Returns the gains, the gamma search and the plant's invariant zeros
    (`check_feasibility`).
    """
    if weights is None:
        weights = OutputWeights.default()
    out_map = build_output_map(weights)
    zeros = check_feasibility(plant.a, plant.b, out_map.c, out_map.d)
    search, solution = gamma_star(plant.a, plant.b, out_map.c, out_map.d,
                                  plant.e, tol=tol, margin=margin)
    result = compute_gains(solution, plant.a, plant.b, out_map.c, out_map.d)
    return result, search, zeros
