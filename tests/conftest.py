import os

import numpy as np
import pytest

from heli import (
    HelicopterParams,
    OutputWeights,
    build_design,
    build_output_map,
    builtin_scenario,
    run_scenario,
)
from heli.config import ToolkitConfig


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fails a test after which this process still has a child, running or
    unreaped: the library's forks must reap their child on every path."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left behind (waitpid gave pid {pid})")


@pytest.fixture(scope="session")
def params():
    return HelicopterParams()


@pytest.fixture(scope="session")
def design(params):
    """The default design, `(plant, artifacts, search, zeros)`, built as
    every CLI command builds it."""
    return build_design(ToolkitConfig(params=params))


@pytest.fixture(scope="session")
def plant(design):
    return design[0]


@pytest.fixture(scope="session")
def trim(plant):
    return plant.trim


@pytest.fixture(scope="session")
def output_map():
    return build_output_map(OutputWeights.default())


@pytest.fixture(scope="session")
def synthesis(design):
    _, artifacts, search, zeros = design
    return artifacts.synthesis, search, zeros


@pytest.fixture(scope="session")
def observer_design(design):
    return design[1].observer


@pytest.fixture(scope="session")
def artifacts(design):
    return design[1]


@pytest.fixture(scope="session")
def hover_climb(params, artifacts):
    """Shared paper-hover-climb run under hinf, seed 2026 (A4, A5, A6, A9,
    and the angles of the sine and cosine guard)."""
    cfg = builtin_scenario("paper-hover-climb", seed=2026)
    log, metrics = run_scenario(cfg, params, artifacts)
    return cfg, log, metrics


# scalar synthesis fixture used by several oracle tests: one state, one
# input, two controlled outputs (state then input), one disturbance channel
@pytest.fixture(scope="session")
def scalar_plant():
    a = np.array([[-1.0]])
    b = np.array([[1.0]])
    c = np.array([[1.0], [0.0]])
    d = np.array([[0.0], [1.0]])
    e = np.array([[1.0]])
    return a, b, c, d, e
