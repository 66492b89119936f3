"""The per-step matrix-vector products sum each row left to right.

`control_law`, `observer_step` and the NED velocity of `attitude_terms`
multiply small fixed matrices by vectors of Python floats.  Their results
are part of every scenario log, so the summation order is pinned bit for
bit against a written-out left-to-right oracle, and each is checked against
numpy's matvec to 1e-12 of the size of its terms.
"""
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from heli.hinf import control_law
from heli.observer import observer_step
from heli.outer import attitude_terms

from oracles import rotation_body_to_ned

REL = 1e-12


def _dot(row, v):
    """row . v accumulated left to right from the first product."""
    acc = row[0] * v[0]
    for a, b in zip(row[1:], v[1:]):
        acc += a * b
    return acc


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _near(got, want, scale):
    """|got - want| within REL of the summed term magnitudes `scale`; below
    the smallest normal float only an absolute bound means anything."""
    bound = np.maximum(REL * scale, np.finfo(float).tiny)
    return np.all(np.abs(np.array(got) - want) <= bound)


def _matrix(rows, cols, bound):
    return st.lists(st.lists(st.floats(-bound, bound), min_size=cols,
                             max_size=cols), min_size=rows, max_size=rows)


def _vector(n, bound):
    return st.lists(st.floats(-bound, bound), min_size=n, max_size=n)


# bounds keep |u| below the servo limit, so the clamp never hides a sum
@settings(deadline=None, max_examples=200)
@given(_matrix(3, 9, 0.05), _matrix(3, 3, 0.05), _vector(9, 1.0),
       _vector(3, 1.0), _vector(3, 1.0), _vector(3, 0.2))
def test_control_law_sums_left_to_right(f, g, x, r, h, u_trim):
    gains = tuple(map(tuple, f)), tuple(map(tuple, g)), tuple(h)
    got, flags = control_law(gains, x, r, u_trim, delta_col=0.25)
    assert flags == 0 and got[3] == 0.25
    e = [ri - hi for ri, hi in zip(r, h)]
    want = [(_dot(fr, x) + _dot(gr, e)) + ut
            for fr, gr, ut in zip(f, g, u_trim)]
    assert _bits(got[:3]) == _bits(want)

    fa, ga, ea = np.array(f), np.array(g), np.array(e)
    scale = np.abs(fa) @ np.abs(x) + np.abs(ga) @ np.abs(ea) + np.abs(u_trim)
    assert _near(got[:3], fa @ np.array(x) + ga @ ea + np.array(u_trim),
                 scale)


@settings(deadline=None, max_examples=200)
@given(_matrix(3, 3, 2.0), _matrix(3, 6, 2.0), _matrix(3, 3, 2.0),
       _matrix(3, 6, 50.0), _vector(3, 1.0), _vector(6, 1.0), _vector(3, 1.0))
def test_observer_step_sums_left_to_right(phi, gb, gh, k, x_obs, y, u):
    disc = tuple(tuple(map(tuple, m)) for m in (phi, gb, gh, k))
    x_out, estimate_out = observer_step(disc, x_obs, y, u)
    x_new = [(_dot(p, x_obs) + _dot(b, y)) + _dot(h, u)
             for p, b, h in zip(phi, gb, gh)]
    estimate = [xn + _dot(kr, y) for xn, kr in zip(x_new, k)]
    assert _bits(x_out) == _bits(x_new)
    assert _bits(estimate_out) == _bits(estimate)

    pa, ba, ha, ka = map(np.array, (phi, gb, gh, k))
    xa, ya, ua = map(np.array, (x_obs, y, u))
    scale = np.abs(pa) @ np.abs(xa) + np.abs(ba) @ np.abs(ya) \
        + np.abs(ha) @ np.abs(ua)
    want = pa @ xa + ba @ ya + ha @ ua
    assert _near(x_out, want, scale)
    assert _near(estimate_out, want + ka @ ya,
                 scale + np.abs(ka) @ np.abs(ya))


@settings(deadline=None, max_examples=200)
@given(st.floats(-math.pi, math.pi), st.floats(-1.5, 1.5),
       st.floats(-math.pi, math.pi), _vector(3, 30.0))
def test_ned_velocity_sums_left_to_right(phi, theta, psi, v):
    x = [0.0] * 15
    x[3:6] = v
    x[6:9] = phi, theta, psi
    rot = rotation_body_to_ned(phi, theta, psi)
    got = list(attitude_terms(x)[0:3])
    assert _bits(got) == _bits([_dot(row, v) for row in rot.tolist()])
    assert _near(got, rot @ np.array(v), np.abs(rot) @ np.abs(v))
