"""Generic classical RK4 step on flat sequences of any length.

`heli.sim.rk4_step` writes this step out for the 15-vector plant state.
The tests keep the generic form as its bit-for-bit oracle and to integrate
linear systems of other sizes.
"""


def rk4_reference(derivative, state, inputs, wind, dt: float) -> list:
    """One RK4 step with the stages combined element by element as
    `a + (0.5*dt)*k`, `a + dt*k` and `a + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4)`.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    half = 0.5 * dt
    k1 = derivative(state, inputs, wind)
    k2 = derivative([a + half * k for a, k in zip(state, k1)], inputs, wind)
    k3 = derivative([a + half * k for a, k in zip(state, k2)], inputs, wind)
    k4 = derivative([a + dt * k for a, k in zip(state, k3)], inputs, wind)
    sixth = dt / 6.0
    return [a + sixth * (((d1 + 2.0 * d2) + 2.0 * d3) + d4)
            for a, d1, d2, d3, d4 in zip(state, k1, k2, k3, k4)]
