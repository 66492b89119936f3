"""Toolkit exception hierarchy.

Everything raised on purpose derives from HeliError so the CLI can turn any
expected failure into a one-line message and a nonzero exit code.
"""


class HeliError(Exception):
    """Base class for all toolkit errors."""


class SingularAttitudeError(HeliError):
    """Pitch angle at or beyond 90 deg; Euler kinematics are undefined there."""


class ConfigError(HeliError):
    """Malformed or inconsistent configuration input."""


class TrimConvergenceError(HeliError):
    """Trim solver failed to reach the residual tolerance."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"trim solver did not converge after {iterations} iterations "
            f"(residual {residual:.3e})"
        )


class SynthesisError(HeliError):
    """Gain computation failed (non-Hurwitz closed loop, singular DC gain, ...)."""


class UnobservablePairError(HeliError):
    """Measured/unmeasured partition is not observable; no observer gain exists."""


class UnstableSystemError(HeliError):
    """Operation requires a Hurwitz system matrix."""


class SimulationAbort(HeliError):
    """Scenario run stopped mid-loop: a non-finite state, or an error in a stage.

    `stage` names the part of the step that failed (e.g. "plant RK4" or
    "outer loop"); the original error is chained as `__cause__`.
    """

    def __init__(self, step: int, time: float, stage: str = "state check",
                 cause: Exception | None = None):
        self.step = step
        self.time = time
        self.stage = stage
        if cause is None:
            message = f"non-finite state at step {step} (t = {time:.4f} s)"
        else:
            message = f"{stage} failed at step {step} (t = {time:.4f} s): {cause}"
        super().__init__(message)
