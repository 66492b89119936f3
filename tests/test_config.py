import configparser
import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heli import (ConfigError, Gust, HelicopterParams, ReferenceSegment,
                  ScenarioConfig, WindModel, run_scenario)
from heli.config import (
    _SCENARIO_KEYS,
    _TOOLKIT_KEYS,
    _WIND_KEYS,
    ToolkitConfig,
    load_scenario_file,
    load_toolkit_config,
)

DEFAULT_CFG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"


def _file_keys(path) -> list:
    """Every (section, key) of a config file, in file order."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read(path, encoding="utf-8")
    return [(section, key) for section in parser.sections()
            for key in parser[section]]


class TestToolkitConfig:
    def test_default_file_round_trips(self):
        # loading configs/default.cfg gives back every default of
        # ToolkitConfig, and the file's bytes are pinned
        cfg, want = load_toolkit_config(DEFAULT_CFG), ToolkitConfig()
        for f in dataclasses.fields(ToolkitConfig):
            if f.name == "weights":
                for block in ("c11", "c22", "d11"):
                    assert np.array_equal(getattr(cfg.weights, block),
                                          getattr(want.weights, block)), block
            else:
                assert getattr(cfg, f.name) == getattr(want, f.name), f.name
        assert np.array_equal(cfg.weights.d11, np.diag([12.0, 11.0, 31.0]))
        assert hashlib.sha256(DEFAULT_CFG.read_bytes()).hexdigest() == (
            "47e1b869611182b3d4cd01f8ddd729fbf9e35bc79b7b1e362a8fb8007e45d2ca")

    def test_shipped_default_config_matches_code(self):
        # configs/default.cfg has every key the reader knows, in the
        # reader's order
        assert _file_keys(DEFAULT_CFG) == [
            (section, key) for section, keys in _TOOLKIT_KEYS.items()
            for key in keys]

    def test_override_parameter(self, tmp_path):
        path = tmp_path / "heavy.cfg"
        path.write_text("[mass]\nm = 12.5\n", encoding="utf-8")
        cfg = load_toolkit_config(path)
        assert cfg.params.m == 12.5
        assert cfg.params.jx == HelicopterParams().jx

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[mass]\nmass = 12.5\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_toolkit_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[engine]\nrpm = 9000\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_toolkit_config(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[mass]\nm = heavy\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_toolkit_config(path)

    def test_invalid_parameter_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[mass]\nm = -1.0\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_toolkit_config(path)

    def test_weight_overrides(self, tmp_path):
        path = tmp_path / "w.cfg"
        path.write_text("[weights]\nc11_diag = 1, 2, 3, 4\nc22_psi = 7\n",
                        encoding="utf-8")
        cfg = load_toolkit_config(path)
        assert np.array_equal(np.diag(cfg.weights.c11), [1.0, 2.0, 3.0, 4.0])
        assert cfg.weights.c22[1, 4] == 7.0

    def test_observer_pole_parsing(self, tmp_path):
        path = tmp_path / "o.cfg"
        path.write_text("[observer]\npoles = -40+8j, -40-8j, -60\n",
                        encoding="utf-8")
        cfg = load_toolkit_config(path)
        assert cfg.observer_poles == (-40 + 8j, -40 - 8j, -60.0)

    @pytest.mark.parametrize("poles", ["50, -50, -60", "-50, -40+5j, -60",
                                       "-50, -60"])
    def test_bad_observer_poles_rejected(self, tmp_path, poles):
        path = tmp_path / "o.cfg"
        path.write_text(f"[observer]\npoles = {poles}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"^\[observer\] "):
            load_toolkit_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_toolkit_config(tmp_path / "absent.cfg")

    @pytest.mark.parametrize("text", [
        "[weights]\nc22_r = heavy\n",
        "[weights]\nc22_psi = 5 %\n",
        "[hinf]\ngamma_tol = 0\n",
        "[hinf]\ngamma_tol = -1e-4\n",
        "[hinf]\ngamma_tol = nan\n",
        "[hinf]\ngamma_margin = -0.05\n",
        "[hinf]\ngamma_margin = inf\n",
        "[outer]\ntilt_limit = 2.0\n",
        "[outer]\nkp_z = -1\n",
        "[outer]\ncol_limit = -0.5\n",
        "[outer]\ncol_limit = 0\n",
        "[outer]\ncol_limit = 1.5\n",
        "[pid]\nint_limit = -0.35\n",
        "[mass]\nm = 50%(g)s\n",
        "[mass]\nm = nan\n",
        "[pid]\nint_limit = inf\n",
        "[weights]\nc11_diag = 1, 2, inf, 4\n",
        "[observer]\npoles = -40, nanj, -60\n",
    ])
    def test_bad_value_rejected(self, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError):
            load_toolkit_config(path)

    def test_limit_bounds_accepted(self, tmp_path):
        path = tmp_path / "limits.cfg"
        path.write_text("[outer]\ncol_limit = 1\n[pid]\nint_limit = 0\n",
                        encoding="utf-8")
        cfg = load_toolkit_config(path)
        assert (cfg.outer.col_limit, cfg.pid.int_limit) == (1.0, 0.0)

    def test_zero_gamma_margin_accepted(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("[hinf]\ngamma_margin = 0\n", encoding="utf-8")
        assert load_toolkit_config(path).gamma_margin == 0.0


class TestScenarioFile:
    def test_full_scenario_round_trip(self, tmp_path):
        path = tmp_path / "scn.cfg"
        path.write_text(
            "[scenario]\n"
            "duration = 12.0\n"
            "dt = 0.004\n"
            "controller = pid\n"
            "seed = 77\n"
            "initial_offset = 0, 0, -10\n"
            "[wind]\n"
            "mean = 2.0, 1.0, 0.0\n"
            "sigma = 0.3\n"
            "tau_c = 1.5\n"
            "gusts = 2:4:1.0,0.0,0.0; 6:8:0.0,-1.0,0.0\n"
            "[references]\n"
            "seg1 = 0, 0, 0, -10, 0, 0, 0, 0\n"
            "seg2 = 6, 0, 0, -10, 0, 0, -2, 0\n",
            encoding="utf-8")
        cfg = load_scenario_file(path)
        assert cfg.duration == 12.0
        assert cfg.dt == 0.004
        assert cfg.controller == "pid"
        assert cfg.seed == 77
        assert len(cfg.wind.gusts) == 2
        assert cfg.wind.gusts[1].end == 8.0
        assert len(cfg.references) == 2
        assert cfg.references[1].v[2] == -2.0
        assert cfg.att_ref is None

    def test_attitude_only_scenario(self, tmp_path):
        path = tmp_path / "scn.cfg"
        path.write_text(
            "[scenario]\n"
            "duration = 5\n"
            "controller = hinf\n"
            "att_ref = 0.02, 0.0, 0.0\n",
            encoding="utf-8")
        cfg = load_scenario_file(path)
        assert cfg.references == ()
        assert np.allclose(cfg.att_ref, [0.02, 0.0, 0.0])

    def test_unknown_scenario_key_rejected(self, tmp_path):
        path = tmp_path / "scn.cfg"
        path.write_text("[scenario]\nduration = 5\nspeed = 3\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError):
            load_scenario_file(path)

    def test_malformed_gust_rejected(self, tmp_path):
        path = tmp_path / "scn.cfg"
        path.write_text("[scenario]\nduration = 5\n"
                        "[wind]\ngusts = 2-4życzenia\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_scenario_file(path)

    @pytest.mark.parametrize("gusts", ["a:4:1,0,0", "2:b:1,0,0"])
    def test_non_numeric_gust_times_rejected(self, tmp_path, gusts):
        path = tmp_path / "scn.cfg"
        path.write_text(f"[scenario]\nduration = 5\n[wind]\ngusts = {gusts}\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError):
            load_scenario_file(path)

    def test_use_outer_key_rejected(self, tmp_path):
        # the reference segments alone decide whether the outer loop flies
        path = tmp_path / "scn.cfg"
        path.write_text("[scenario]\nduration = 5\nuse_outer = on\n"
                        "[references]\nseg1 = 0, 0, 0, -10, 0, 0, 0, 0\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="'use_outer'"):
            load_scenario_file(path)

    def test_att_ref_with_references_rejected(self, tmp_path):
        # the outer loop sets the attitude reference, so a fixed one would
        # be read and then ignored
        path = tmp_path / "scn.cfg"
        path.write_text("[scenario]\nduration = 5\natt_ref = 0.1, 0.1, 0.5\n"
                        "[references]\nseg1 = 0, 0, 0, -10, 0, 0, 0, 0\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="att_ref"):
            load_scenario_file(path)

    def test_file_without_references_holds_trim(self, tmp_path, params,
                                                artifacts):
        path = tmp_path / "scn.cfg"
        path.write_text("[scenario]\nduration = 0.2\ncontroller = pid\n"
                        "initial_offset = 0.5, -0.5, -10\n",
                        encoding="utf-8")
        log, metrics = run_scenario(load_scenario_file(path), params,
                                    artifacts)
        trim = artifacts.trim
        assert np.all(log.att_ref == trim.h_out_trim)
        assert np.all(log.inputs[:, 3] == trim.inputs.delta_col)
        assert metrics.horizontal_envelope == 0.0

    def test_bad_segment_length_rejected(self, tmp_path):
        path = tmp_path / "scn.cfg"
        path.write_text("[scenario]\nduration = 5\n"
                        "[references]\nseg1 = 0, 1, 2\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_scenario_file(path)


# the seed feeds np.random.default_rng, which takes no negative seed; the
# rule holds with turbulence off too, where no generator is made
@pytest.mark.parametrize("sigma", [0.0, 0.4])
@pytest.mark.parametrize("seed", [-1, -2 ** 70])
def test_negative_seed_names_seed(seed, sigma):
    cfg = ScenarioConfig(seed=seed, wind=WindModel(sigma=sigma))
    with pytest.raises(ConfigError, match="seed"):
        cfg.validate()


@pytest.mark.parametrize("seed", [0, 3, np.int64(3)])
def test_integer_seeds_accepted(seed):
    assert ScenarioConfig(seed=seed).validate().seed == seed


SCENARIO_KEYS = ([("scenario", key) for key in _SCENARIO_KEYS]
                 + [("wind", key) for key in _WIND_KEYS]
                 + [("references", "seg1")])

# one line of text: arbitrary characters, or the characters numbers, lists,
# poles and gusts are made of
LINE_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\r\n"), max_size=30),
    st.text("0123456789.-+eEinfatj,:; %#", max_size=30),
    st.floats().map(repr),
)


@pytest.fixture(scope="module")
def toolkit_keys():
    """Every (section, key) of the toolkit config, as the default file has it."""
    return _file_keys(DEFAULT_CFG)


@pytest.fixture(scope="module")
def one_line_file(tmp_path_factory):
    return tmp_path_factory.mktemp("prop") / "one_line.cfg"


@settings(deadline=None)
@given(data=st.data(), text=LINE_TEXT)
def test_one_line_config_loads_or_raises_config_error(toolkit_keys,
                                                      one_line_file, data, text):
    section, key = data.draw(st.sampled_from(toolkit_keys))
    one_line_file.write_text(f"[{section}]\n{key} = {text}\n", encoding="utf-8")
    try:
        load_toolkit_config(one_line_file)
    except ConfigError:
        pass


@settings(deadline=None)
@given(key=st.sampled_from(SCENARIO_KEYS), text=LINE_TEXT)
def test_one_line_scenario_loads_or_raises_config_error(one_line_file, key,
                                                        text):
    section, name = key
    one_line_file.write_text(f"[{section}]\n{name} = {text}\n",
                            encoding="utf-8")
    try:
        load_scenario_file(one_line_file)
    except ConfigError:
        pass


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: HelicopterParams().replace(m=math.nan),
                 "parameter m", id="params-m-nan"),
    pytest.param(lambda: ScenarioConfig(duration=math.nan).validate(),
                 "duration", id="duration-nan"),
    pytest.param(lambda: ScenarioConfig(duration=math.inf).validate(),
                 "duration", id="duration-inf"),
    pytest.param(lambda: WindModel(sigma=math.nan).validate(),
                 "turbulence intensity", id="wind-sigma-nan"),
    pytest.param(lambda: WindModel(tau_c=math.nan).validate(),
                 "correlation time", id="wind-tau-nan"),
    pytest.param(lambda: Gust(math.nan, 1.0, np.zeros(3)).validate(),
                 "gust interval", id="gust-start-nan"),
    # these five used to fail in the run as SimulationAbort: non-finite state
    pytest.param(lambda: ScenarioConfig(
        initial_offset=np.array([0.0, math.nan, 0.0])).validate(),
        "initial_offset", id="initial-offset-nan"),
    pytest.param(lambda: ScenarioConfig(
        att_ref=np.array([0.0, 0.0, math.inf])).validate(),
        "att_ref", id="att-ref-inf"),
    pytest.param(lambda: WindModel(
        mean=np.array([math.nan, 0.0, 0.0])).validate(),
        "wind mean", id="wind-mean-nan"),
    pytest.param(lambda: WindModel(gusts=(
        Gust(1.0, 2.0, np.array([0.0, -math.inf, 0.0])),)).validate(),
        "gust delta", id="gust-delta-inf"),
    pytest.param(lambda: ScenarioConfig(references=(ReferenceSegment(
        0.0, np.array([0.0, 0.0, math.nan]), np.zeros(3)),)).validate(),
        "reference segments must be finite", id="reference-p0-nan"),
    # a float seed used to fail in the run with numpy's TypeError, and a
    # string one with a TypeError from the sign test
    pytest.param(lambda: ScenarioConfig(seed=1.5).validate(),
                 "seed must be an integer", id="seed-float"),
    pytest.param(lambda: ScenarioConfig(seed=np.float64(2.0)).validate(),
                 "seed must be an integer", id="seed-numpy-float"),
    pytest.param(lambda: ScenarioConfig(seed="3").validate(),
                 "seed must be an integer", id="seed-str"),
    # the outer loop sets the attitude reference, which a fixed one would
    # silently lose
    pytest.param(lambda: ScenarioConfig(
        att_ref=np.zeros(3), references=(ReferenceSegment(
            0.0, np.zeros(3), np.zeros(3)),)).validate(),
        "att_ref", id="att-ref-with-references"),
])
def test_validators_reject_non_finite(build, message):
    # each of these used to pass validation and fail later: trim with a
    # LinAlgError, the run with a ValueError or OverflowError, or the wind
    # silently still
    with pytest.raises(ConfigError, match=message):
        build()


_SHAPE3_FIELDS = {
    "initial_offset": lambda v: ScenarioConfig(initial_offset=v),
    "att_ref": lambda v: ScenarioConfig(att_ref=v),
    "wind mean": lambda v: WindModel(mean=v),
    "gust delta": lambda v: WindModel(gusts=(Gust(1.0, 2.0, v),)),
    "reference segment p0": lambda v: ScenarioConfig(
        references=(ReferenceSegment(0.0, v, np.zeros(3)),)),
    "reference segment v": lambda v: ScenarioConfig(
        references=(ReferenceSegment(0.0, np.zeros(3), v),)),
}


@pytest.mark.parametrize("field", list(_SHAPE3_FIELDS))
@pytest.mark.parametrize("value", [5.0, [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]],
                         ids=["scalar", "length-2", "length-4"])
def test_validators_reject_non_3_vectors(field, value):
    # a scalar used to broadcast over all three axes, and other lengths to
    # fail in the run with numpy's ValueError or a TypeError
    with pytest.raises(ConfigError, match=f"{field} must have shape \\(3,\\)"):
        _SHAPE3_FIELDS[field](np.asarray(value)).validate()
