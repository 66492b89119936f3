"""`build_design`, the one chain trim -> linearize -> synthesis -> observer.

Every setting of a `ToolkitConfig` must reach the stage that uses it.  A
config with no default setting is checked against the stages called one by
one, bit for bit, and against the default design, from which each of its
settings must move the result.  A config no design can use fails before
the first stage, with a ConfigError that names the setting.
"""
from dataclasses import replace

import numpy as np
import pytest

from heli import (
    ConfigError,
    HelicopterParams,
    OuterGains,
    OutputWeights,
    PidGains,
    build_design,
    design_reduced_observer,
    find_trim,
    linearize,
    synthesize,
)
from heli.cli import main
from heli.config import ToolkitConfig


@pytest.fixture(scope="module")
def cfg(params):
    weights = OutputWeights.default()
    return ToolkitConfig(
        params=params.replace(m=params.m * 1.05, jx=params.jx * 0.95),
        outer=OuterGains(kp_z=20.0, kd_x=0.2),
        pid=PidGains(roll_kp=0.2, yaw_ki=0.4),
        weights=weights._replace(c11=weights.c11 * 1.5,
                                 d11=weights.d11 * 0.8),
        observer_poles=(-40.0, -45.0, -70.0),
        gamma_tol=1e-3,
        gamma_margin=0.1)


@pytest.fixture(scope="module")
def built(cfg):
    return build_design(cfg)


def _design_arrays(plant, artifacts, search, zeros) -> list:
    synthesis, observer = artifacts.synthesis, artifacts.observer
    return [plant.a, plant.b, plant.e, artifacts.trim.state.as_vector(),
            artifacts.trim.inputs.as_vector(), synthesis.riccati.p,
            synthesis.f, synthesis.g, synthesis.gamma, search.gamma_star,
            np.asarray(search.gammas), observer.a_obs, observer.b_obs,
            observer.h_obs, observer.k_obs, zeros]


def _same_bits(got: list, want: list) -> bool:
    return all(np.asarray(g).tobytes() == np.asarray(w).tobytes()
               for g, w in zip(got, want, strict=True))


def test_matches_the_stages_called_one_by_one(cfg, built):
    plant = linearize(cfg.params, find_trim(cfg.params))
    result, search, zeros = synthesize(plant, cfg.weights, tol=cfg.gamma_tol,
                                       margin=cfg.gamma_margin)
    artifacts = built[1]._replace(trim=plant.trim, synthesis=result,
                                  observer=design_reduced_observer(
                                      plant, cfg.observer_poles))
    assert _same_bits(_design_arrays(*built),
                      _design_arrays(plant, artifacts, search, zeros))


def test_each_setting_moves_the_design(cfg, built, design):
    plant, artifacts, search, _ = built
    default_plant, default_artifacts, default_search, _ = design
    # params reach trim and linearization
    assert not np.array_equal(plant.a, default_plant.a)
    # the weights reach the Riccati equation: on the default plant they
    # alone move P
    weighted, _, _ = synthesize(default_plant, cfg.weights)
    assert not np.array_equal(weighted.riccati.p,
                              default_artifacts.synthesis.riccati.p)
    # gamma_margin and gamma_tol reach the search
    assert artifacts.synthesis.gamma == pytest.approx(search.gamma_star * 1.1)
    assert len(search.gammas) < len(default_search.gammas)
    # the observer poles reach the observer
    assert np.allclose(np.sort(np.linalg.eigvals(artifacts.observer.a_obs)),
                       sorted(cfg.observer_poles))


def test_gains_are_the_configs(cfg, built):
    _, artifacts, _, _ = built
    assert artifacts.pid_gains is cfg.pid
    assert artifacts.outer_gains is cfg.outer


def test_plant_dir_gives_the_recomputed_design(cfg, params, tmp_path):
    # `heli linearize` writes the default parameters' plant; every other
    # setting of `cfg` applies to the design made from it
    assert main(["linearize", "--out", str(tmp_path)]) == 0
    on_defaults = replace(cfg, params=params)
    assert _same_bits(_design_arrays(*build_design(on_defaults, tmp_path)),
                      _design_arrays(*build_design(on_defaults)))


@pytest.mark.parametrize("field, value, message", [
    ("m", -1.0, "parameter m must be > 0"),
    ("jx", 0.0, "parameter jx must be > 0"),
    ("tau_mr", float("nan"), "parameter tau_mr must be finite"),
])
def test_unusable_parameter_names_itself(field, value, message):
    # without the check, m = -1 builds a design, jx = 0 divides by zero and
    # a NaN tau_mr reaches LAPACK
    cfg = ToolkitConfig(params=HelicopterParams(**{field: value}))
    with pytest.raises(ConfigError, match=f"^{message}$"):
        build_design(cfg)


def test_trim_outside_the_servo_range_names_its_channel():
    # a 20 kg machine trims at a collective of ~1.62: no scenario can fly it
    cfg = ToolkitConfig(params=HelicopterParams(m=20.0))
    with pytest.raises(ConfigError, match=r"^hover trim needs dcol = 1\.619, "
                                          r"outside the servo range \(-1, 1\)$"):
        build_design(cfg)


@pytest.mark.parametrize("section, gains, message", [
    ("outer", OuterGains(kp_z=float("inf")),
     "outer gain kp_z must be finite and >= 0"),
    ("outer", OuterGains(kd_x=float("inf")),
     "outer gain kd_x must be finite and >= 0"),
    ("pid", PidGains(roll_kp=float("nan")), "pid gain roll_kp must be finite"),
    ("pid", PidGains(pitch_kd=float("inf")),
     "pid gain pitch_kd must be finite"),
])
def test_non_finite_gain_names_itself(section, gains, message):
    # a config file rejects these values when it is read; a ToolkitConfig
    # built in code gets the same check before the first stage
    cfg = replace(ToolkitConfig(), **{section: gains})
    with pytest.raises(ConfigError, match=rf"^\[{section}\] {message}$"):
        build_design(cfg)
