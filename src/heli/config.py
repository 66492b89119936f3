"""Plain-text configuration: `key = value` lines under `[section]` headers.

One file can carry the plant parameters, controller settings, and weights;
scenario files use the same format.  Unknown sections or keys are rejected
so typos fail loudly.  The key tables below are the one description of the
toolkit format: `configs/default.cfg` is that format written out with every
default, and a test checks it against `ToolkitConfig()` and these tables.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .hinf import GAMMA_MARGIN, GAMMA_TOL, OutputWeights, check_search_settings
from .observer import DEFAULT_POLES, check_poles
from .outer import OuterGains
from .params import HelicopterParams, PARAM_SECTIONS
from .sim import PidGains, ReferenceSegment, ScenarioConfig
from .wind import Gust

# the keys of each toolkit section, in the order configs/default.cfg has them
_TOOLKIT_KEYS = {
    **PARAM_SECTIONS,
    "outer": OuterGains._fields,
    "pid": PidGains._fields,
    "weights": ("c11_diag", "c22_r", "c22_psi", "d11_diag"),
    "observer": ("poles",),
    "hinf": ("gamma_tol", "gamma_margin"),
}

_SCENARIO_KEYS = ("duration", "dt", "controller", "seed", "initial_offset",
                  "att_ref")
_WIND_KEYS = ("mean", "sigma", "tau_c", "gusts")


@dataclass
class ToolkitConfig:
    """Every setting of a design and its controllers: the plant parameters,
    the outer and PID gains, the output weights, the observer poles and the
    gamma search's tolerance and margin.  A dataclass, not a NamedTuple, so
    `dataclasses.replace` makes variants and the loader sets one section
    at a time."""

    params: HelicopterParams = HelicopterParams()
    outer: OuterGains = OuterGains()
    pid: PidGains = PidGains()
    weights: OutputWeights = field(default_factory=OutputWeights.default)
    observer_poles: tuple = DEFAULT_POLES
    gamma_tol: float = GAMMA_TOL
    gamma_margin: float = GAMMA_MARGIN

    def validate(self) -> "ToolkitConfig":
        """This config, or a ConfigError that names the first setting no
        design can use: a parameter, an outer or PID gain, the observer
        poles, `gamma_tol` or `gamma_margin`."""
        self.params.validate()
        for section in ("outer", "pid"):
            try:
                getattr(self, section).validate()
            except ValueError as exc:
                raise ConfigError(f"[{section}] {exc}") from exc
        try:
            check_poles(self.observer_poles)
        except ValueError as exc:
            raise ConfigError(f"[observer] {exc}") from exc
        try:
            check_search_settings(self.gamma_tol, self.gamma_margin)
        except ValueError as exc:
            raise ConfigError(f"[hinf] {exc}") from exc
        return self


def _read_sections(path):
    """The file at `path` parsed as a `configparser.ConfigParser`, or a
    ConfigError.  configparser is imported here, so a command that reads no
    file does not load it."""
    import configparser

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
    for section in parser.sections():
        if section not in _TOOLKIT_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _TOOLKIT_KEYS[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            if section in PARAM_SECTIONS:
                param_values[key] = _float(section, key, raw)
            elif section in ("outer", "pid"):
                setattr(cfg, section, getattr(cfg, section)._replace(
                    **{key: _float(section, key, raw)}))
            elif section == "weights":
                cfg.weights = _apply_weight(cfg.weights, key, raw)
            elif section == "observer":
                cfg.observer_poles = _parse_poles(raw)
            elif section == "hinf":
                setattr(cfg, key, _float(section, key, raw))
    if param_values:
        cfg.params = cfg.params.replace(**param_values)
    return cfg.validate()


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
    elif key == "seed":
        try:
            cfg.seed = int(raw)
        except ValueError as exc:
            raise ConfigError(f"seed must be an integer, got '{raw}'") from exc
    elif key in ("initial_offset", "att_ref"):
        setattr(cfg, key, _floats(raw, 3, key))


def _apply_wind_key(cfg: ScenarioConfig, key: str, raw: str):
    if key == "mean":
        cfg.wind = cfg.wind._replace(mean=_floats(raw, 3, "wind mean"))
    elif key in ("sigma", "tau_c"):
        cfg.wind = cfg.wind._replace(**{key: _float("wind", key, raw)})
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
        cfg.wind = cfg.wind._replace(gusts=tuple(gusts))


def _parse_segment(raw: str) -> ReferenceSegment:
    vals = _floats(raw, 8, "reference segment (t, pn, pe, pd, vn, ve, vd, psi)")
    return ReferenceSegment(t_start=float(vals[0]), p0=vals[1:4].copy(),
                            v=vals[4:7].copy(), psi=float(vals[7]))

