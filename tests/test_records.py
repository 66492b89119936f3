"""The record classes are immutable NamedTuples with the constructors they
had as dataclasses: the same field names in the same order and the same
defaults, pinned below as literals.

A change to a field or a default changes this table, so it shows in the
diff.  `ScenarioConfig` and `ToolkitConfig` stay dataclasses and are not
listed here.
"""
import numpy as np
import pytest

import heli
from heli.hinf import ControlledOutputMap
from heli.sim import ComparisonReport

# class: (field names in order, defaults); `mean` of WindModel is checked
# apart, as an array
RECORDS = {
    heli.OutputWeights: (("c11", "c22", "d11"), {}),
    ControlledOutputMap: (("c", "d"), {}),
    heli.RiccatiSolution: (("p", "gamma", "residual_norm"), {}),
    heli.RiccatiInfeasible: (("gamma", "reason"), {}),
    heli.SynthesisResult: (("f", "g", "riccati"), {}),
    heli.GammaSearchResult: (("gamma_star", "gammas", "verdicts"), {}),
    heli.PidGains: (
        ("roll_kp", "roll_ki", "roll_kd", "pitch_kp", "pitch_ki", "pitch_kd",
         "yaw_kp", "yaw_ki", "int_limit"),
        {"roll_kp": 0.14, "roll_ki": 0.15, "roll_kd": 0.05, "pitch_kp": 0.35,
         "pitch_ki": 0.25, "pitch_kd": 0.13, "yaw_kp": 0.8, "yaw_ki": 0.3,
         "int_limit": 0.35}),
    heli.ReferenceSegment: (("t_start", "p0", "v", "psi"), {"psi": 0.0}),
    heli.SimArtifacts: (
        ("trim", "synthesis", "observer", "pid_gains", "outer_gains"),
        {"pid_gains": heli.PidGains(), "outer_gains": heli.OuterGains()}),
    heli.ScenarioLog: (("table", "sat_flags"), {}),
    heli.MetricsReport: (
        ("max_phi_err_deg", "max_theta_err_deg", "rms_vel_err", "max_vel_err",
         "horizontal_envelope", "altitude_envelope"), {}),
    ComparisonReport: (("metrics_a", "metrics_b"), {}),
    heli.TrimPoint: (("state", "inputs", "residual", "dped_prime"), {}),
    heli.LinearPlant: (("a", "b", "e", "trim"), {}),
    heli.Gust: (("start", "end", "delta"), {}),
    heli.WindModel: (("mean", "gusts", "sigma", "tau_c"),
                     {"gusts": (), "sigma": 0.0, "tau_c": 2.0}),
    heli.WindSequence: (("model", "turbulence"), {}),
    heli.ObserverDesign: (("a_obs", "b_obs", "h_obs", "k_obs"), {}),
    heli.OuterGains: (
        ("kp_z", "kd_z", "kp_x", "kd_x", "kp_y", "kd_y", "tilt_limit",
         "col_limit"),
        {"kp_z": 22.0, "kd_z": 30.0, "kp_x": 0.11, "kd_x": 0.16, "kp_y": 0.11,
         "kd_y": 0.16, "tilt_limit": 0.3, "col_limit": 0.9}),
    heli.HelicopterParams: (
        ("m", "jx", "jy", "jz", "g", "tau_mr", "k_beta", "gamma_mr",
         "omega_mr", "i_beta", "thrust_trim", "k_col", "h_mr", "k_lat",
         "k_lon", "flap_limit", "torque_scale", "kp_g", "ki_g", "ka_g", "dx",
         "dy", "dz", "lp", "mq", "nr", "h_cp", "l_tr", "k_ped", "h_tr"),
        {"m": 9.0, "jx": 0.36, "jy": 0.98, "jz": 0.88, "g": 9.81,
         "tau_mr": 0.06, "k_beta": 140.0, "gamma_mr": 5.2, "omega_mr": 167.0,
         "i_beta": 0.055, "thrust_trim": 99.0, "k_col": 60.0, "h_mr": 0.3,
         "k_lat": 0.17, "k_lon": 0.17, "flap_limit": 0.2,
         "torque_scale": 0.028, "kp_g": 0.35, "ki_g": 1.0, "ka_g": 1.0,
         "dx": 1.2, "dy": 1.2, "dz": 2.5, "lp": 0.45, "mq": 0.85, "nr": 0.3,
         "h_cp": 0.22, "l_tr": 1.05, "k_ped": 12.0, "h_tr": 0.12}),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_and_defaults_are_pinned(cls):
    names, defaults = RECORDS[cls]
    assert issubclass(cls, tuple) and cls._fields == names
    got = dict(cls._field_defaults)
    if cls is heli.WindModel:
        assert np.array_equal(got.pop("mean"), np.zeros(3))
    assert got == defaults
    # immutable: an attribute cannot be set
    with pytest.raises(AttributeError):
        setattr(cls._make([None] * len(names)), names[0], None)


def test_default_wind_mean_is_not_a_shared_writable_array():
    # NamedTuple defaults are one object for every instance, so the default
    # mean is read-only: writing it would change every WindModel()
    a, b = heli.WindModel(), heli.WindModel()
    assert np.array_equal(a.mean, np.zeros(3))
    assert a.mean is not b.mean or not a.mean.flags.writeable
    with pytest.raises(ValueError):
        a.mean[0] = 1.0
    assert np.array_equal(b.mean, np.zeros(3))
    # a wind table built from it is the caller's own
    table = a.realize(0.1, 0).table(np.zeros(2))
    table[0, 0] = 5.0
    assert np.array_equal(a.mean, np.zeros(3))


def test_params_replace_rejects_unknown_keys_with_type_error():
    # the TypeError `dataclasses.replace` raised, not `_replace`'s ValueError
    params = heli.HelicopterParams()
    assert params.replace(m=10.0) == params._replace(m=10.0)
    with pytest.raises(TypeError, match="mass"):
        params.replace(mass=10.0)
