"""Plain-text configuration: `key = value` lines under `[section]` headers.

One file can carry the plant parameters, controller settings, and weights;
scenario files use the same format.  Unknown sections or keys are rejected
so typos fail loudly.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError
from .hinf import OutputWeights
from .observer import DEFAULT_POLES, check_poles
from .outer import OuterGains
from .params import HelicopterParams, PARAM_SECTIONS
from .sim import PidGains, ReferenceSegment, ScenarioConfig
from .wind import Gust

_OUTER_KEYS = tuple(f.name for f in fields(OuterGains))
_PID_KEYS = tuple(f.name for f in fields(PidGains))
_WEIGHT_KEYS = ("c11_diag", "c22_r", "c22_psi", "d11_diag")
_OBSERVER_KEYS = ("poles",)
_HINF_KEYS = ("gamma_tol", "gamma_margin")

_SCENARIO_KEYS = ("duration", "dt", "controller", "use_outer", "seed",
                  "initial_offset", "att_ref")
_WIND_KEYS = ("mean", "sigma", "tau_c", "gusts")


@dataclass
class ToolkitConfig:
    params: HelicopterParams = field(default_factory=HelicopterParams)
    outer: OuterGains = field(default_factory=OuterGains)
    pid: PidGains = field(default_factory=PidGains)
    weights: OutputWeights = field(default_factory=OutputWeights.default)
    observer_poles: tuple = DEFAULT_POLES
    gamma_tol: float = 1e-4
    gamma_margin: float = 0.05


def _read_sections(path) -> configparser.ConfigParser:
    # no interpolation: a '%' in a value is text, not a reference
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    parser.optionxform = str  # keep key case as written
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    return parser


# nan and inf parse as floats but no setting means them; they would only
# fail later, deep inside trim or synthesis
def _floats(text: str, n: int, what: str) -> np.ndarray:
    """`n` comma-separated finite numbers, which `what` names in errors."""
    try:
        vals = np.array([float(tok) for tok in text.split(",") if tok.strip()])
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got '{text}'") from exc
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"expected finite numbers, got '{text}'")
    if vals.size != n:
        raise ConfigError(f"{what} needs {n} values")
    return vals


def _float(section: str, key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: expected a number, got '{text}'") from exc
    if not np.isfinite(value):
        raise ConfigError(f"[{section}] {key}: expected a finite number, got '{text}'")
    return value


def load_toolkit_config(path) -> ToolkitConfig:
    parser = _read_sections(path)
    cfg = ToolkitConfig()

    param_values = {}
    known = {**PARAM_SECTIONS, "outer": _OUTER_KEYS, "pid": _PID_KEYS,
             "weights": _WEIGHT_KEYS, "observer": _OBSERVER_KEYS,
             "hinf": _HINF_KEYS}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in known[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            if section in PARAM_SECTIONS:
                param_values[key] = _float(section, key, raw)
            elif section in ("outer", "pid"):
                setattr(cfg, section, replace(getattr(cfg, section),
                                              **{key: _float(section, key, raw)}))
            elif section == "weights":
                cfg.weights = _apply_weight(cfg.weights, key, raw)
            elif section == "observer":
                cfg.observer_poles = _parse_poles(raw)
            elif section == "hinf":
                setattr(cfg, key, _float(section, key, raw))
    if param_values:
        cfg.params = cfg.params.replace(**param_values)
    cfg.params.validate()
    for section in ("outer", "pid"):
        try:
            getattr(cfg, section).validate()
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc
    try:
        check_poles(cfg.observer_poles)
    except ValueError as exc:
        raise ConfigError(f"[observer] {exc}") from exc
    # the bisection needs a positive tolerance; a negative back-off would
    # place the design below the feasibility boundary
    if cfg.gamma_tol <= 0.0:
        raise ConfigError("[hinf] gamma_tol must be > 0")
    if cfg.gamma_margin < 0.0:
        raise ConfigError("[hinf] gamma_margin must be >= 0")
    return cfg


def _apply_weight(weights: OutputWeights, key: str, raw: str) -> OutputWeights:
    c11, c22, d11 = weights.c11.copy(), weights.c22.copy(), weights.d11.copy()
    if key == "c11_diag":
        c11 = np.diag(_floats(raw, 4, key))
    elif key == "d11_diag":
        d11 = np.diag(_floats(raw, 3, key))
    elif key == "c22_r":
        c22[0, 2] = _float("weights", key, raw)
    elif key == "c22_psi":
        c22[1, 4] = _float("weights", key, raw)
    return OutputWeights(c11=c11, c22=c22, d11=d11)


def _parse_poles(raw: str) -> tuple:
    poles = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            poles.append(complex(tok))
        except ValueError as exc:
            raise ConfigError(f"bad observer pole '{tok}'") from exc
        if not np.isfinite(poles[-1]):
            raise ConfigError(f"bad observer pole '{tok}'")
    return tuple(p.real if p.imag == 0.0 else p for p in poles)


def load_scenario_file(path) -> ScenarioConfig:
    from pathlib import Path

    parser = _read_sections(path)
    known = {"scenario": _SCENARIO_KEYS, "wind": _WIND_KEYS}
    cfg = ScenarioConfig(name=Path(path).stem)
    segments = []
    for section in parser.sections():
        if section == "references":
            for key, raw in parser.items(section):
                if not key.startswith("seg"):
                    raise ConfigError(f"unknown key '{key}' in [references]")
                segments.append(_parse_segment(raw))
            continue
        if section not in known:
            raise ConfigError(f"unknown scenario section [{section}]")
        for key, raw in parser.items(section):
            if key not in known[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            if section == "scenario":
                _apply_scenario_key(cfg, key, raw)
            else:
                _apply_wind_key(cfg, key, raw)
    segments.sort(key=lambda s: s.t_start)
    cfg.references = tuple(segments)
    return cfg.validate()


def _apply_scenario_key(cfg: ScenarioConfig, key: str, raw: str):
    if key == "duration":
        cfg.duration = _float("scenario", key, raw)
    elif key == "dt":
        cfg.dt = _float("scenario", key, raw)
    elif key == "controller":
        cfg.controller = raw.strip()
    elif key == "use_outer":
        val = raw.strip().lower()
        if val not in ("true", "false", "on", "off", "1", "0"):
            raise ConfigError(f"use_outer must be boolean, got '{raw}'")
        cfg.use_outer = val in ("true", "on", "1")
    elif key == "seed":
        try:
            cfg.seed = int(raw)
        except ValueError as exc:
            raise ConfigError(f"seed must be an integer, got '{raw}'") from exc
    elif key in ("initial_offset", "att_ref"):
        setattr(cfg, key, _floats(raw, 3, key))


def _apply_wind_key(cfg: ScenarioConfig, key: str, raw: str):
    if key == "mean":
        cfg.wind = replace(cfg.wind, mean=_floats(raw, 3, "wind mean"))
    elif key in ("sigma", "tau_c"):
        cfg.wind = replace(cfg.wind, **{key: _float("wind", key, raw)})
    elif key == "gusts":
        gusts = []
        for chunk in raw.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            if len(parts) != 3:
                raise ConfigError(
                    f"gust '{chunk}' must look like start:end:du,dv,dw")
            delta = _floats(parts[2], 3, f"gust delta in '{chunk}'")
            gusts.append(Gust(_float("wind", "gust start", parts[0]),
                              _float("wind", "gust end", parts[1]), delta))
        cfg.wind = replace(cfg.wind, gusts=tuple(gusts))


def _parse_segment(raw: str) -> ReferenceSegment:
    vals = _floats(raw, 8, "reference segment (t, pn, pe, pd, vn, ve, vd, psi)")
    return ReferenceSegment(t_start=float(vals[0]), p0=vals[1:4].copy(),
                            v=vals[4:7].copy(), psi=float(vals[7]))


def write_default_config(path):
    """Write the full default configuration in the on-disk format."""
    cfg = ToolkitConfig()

    def assignments(record, keys) -> list:
        return [f"{key} = {getattr(record, key)!r}" for key in keys]

    def numbers(values) -> str:
        return ", ".join(repr(float(v)) for v in values)

    sections = {
        **{section: assignments(cfg.params, keys)
           for section, keys in PARAM_SECTIONS.items()},
        "outer": assignments(cfg.outer, _OUTER_KEYS),
        "pid": assignments(cfg.pid, _PID_KEYS),
        "weights": [f"c11_diag = {numbers(np.diag(cfg.weights.c11))}",
                    f"c22_r = {float(cfg.weights.c22[0, 2])!r}",
                    f"c22_psi = {float(cfg.weights.c22[1, 4])!r}",
                    f"d11_diag = {numbers(np.diag(cfg.weights.d11))}"],
        "observer": [f"poles = {numbers(cfg.observer_poles)}"],
        "hinf": assignments(cfg, _HINF_KEYS),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(
            f"[{section}]\n" + "".join(f"{line}\n" for line in body)
            for section, body in sections.items()))
