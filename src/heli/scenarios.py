"""Built-in simulation scenarios.

`paper-hover-climb` reproduces the flight profile used for the hover and
climb precision metrics: fixed-point hover in a ~3 m/s mean wind, an 18 s
mark where the vehicle climbs at 2.5 m/s for 4 s into stronger (~5 m/s)
wind, then fixed-point hover at the new altitude.

`gust-attitude-hold` is the attitude-stabilization comparison case: no
reference segments, so the outer loop is off and the attitude reference
held at trim, gusty 3 m/s mean wind.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .sim import ReferenceSegment, ScenarioConfig
from .wind import Gust, WindModel


def _hover_climb(seed: int) -> ScenarioConfig:
    hover_alt = -10.0
    refs = (
        ReferenceSegment(t_start=0.0, p0=np.array([0.0, 0.0, hover_alt]),
                         v=np.zeros(3)),
        ReferenceSegment(t_start=18.0, p0=np.array([0.0, 0.0, hover_alt]),
                         v=np.array([0.0, 0.0, -2.5])),
        ReferenceSegment(t_start=22.0, p0=np.array([0.0, 0.0, hover_alt - 10.0]),
                         v=np.zeros(3)),
    )
    wind = WindModel(
        mean=np.array([2.7, 1.3, 0.0]),
        gusts=(Gust(18.0, 60.0, np.array([1.7, 0.9, 0.0])),),
        sigma=0.45,
        tau_c=2.0,
    )
    return ScenarioConfig(name="paper-hover-climb", duration=60.0, dt=0.002,
                          controller="hinf", wind=wind,
                          references=refs, seed=seed,
                          initial_offset=np.array([0.0, 0.0, hover_alt]))


def _gust_attitude_hold(seed: int) -> ScenarioConfig:
    wind = WindModel(
        mean=np.array([2.6, 1.5, 0.0]),
        gusts=(
            Gust(5.0, 9.0, np.array([1.5, 0.0, 0.0])),
            Gust(12.0, 16.0, np.array([0.0, -1.8, 0.0])),
            Gust(20.0, 25.0, np.array([-1.2, 1.2, 0.3])),
            Gust(30.0, 36.0, np.array([2.0, 0.8, 0.0])),
            Gust(42.0, 47.0, np.array([0.0, -1.5, 0.4])),
            Gust(50.0, 55.0, np.array([1.0, -1.0, 0.0])),
        ),
        sigma=0.6,
        tau_c=1.5,
    )
    return ScenarioConfig(name="gust-attitude-hold", duration=60.0, dt=0.002,
                          controller="hinf", wind=wind, seed=seed)


def _hover_hold(seed: int) -> ScenarioConfig:
    return ScenarioConfig(name="hover-hold", duration=60.0, dt=0.002,
                          controller="open_loop", seed=seed)


def _step_offset(seed: int) -> ScenarioConfig:
    refs = (ReferenceSegment(t_start=0.0, p0=np.array([0.0, 0.0, -10.0]),
                             v=np.zeros(3)),)
    return ScenarioConfig(name="step-offset", duration=30.0, dt=0.002,
                          controller="hinf", references=refs, seed=seed,
                          initial_offset=np.array([2.0, 2.0, -8.0]))


_BUILTIN = {
    "paper-hover-climb": _hover_climb,
    "gust-attitude-hold": _gust_attitude_hold,
    "hover-hold": _hover_hold,
    "step-offset": _step_offset,
}


def builtin_names() -> tuple:
    return tuple(sorted(_BUILTIN))


def builtin_scenario(name: str, seed: int = 0) -> ScenarioConfig:
    try:
        factory = _BUILTIN[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario '{name}' (built-ins: {', '.join(builtin_names())})"
        ) from None
    return factory(seed).validate()
