"""The names `import heli` makes public.

Removing or adding an export changes the literal list below, so the change
shows in the diff and gets its CHANGES.md entry.  Submodules are left out:
which of them are attributes of the package depends on what was imported.
"""
import types

import heli

PUBLIC_NAMES = [
    "ConfigError", "ControlInputs", "FullState", "GammaSearchResult", "Gust",
    "HeliError", "HelicopterParams", "LinearPlant", "MetricsReport",
    "ObserverDesign", "OuterGains", "OutputWeights", "PidAttitudeController",
    "PidGains", "ReferenceSegment", "RiccatiInfeasible", "RiccatiSolution",
    "ScenarioConfig", "ScenarioLog", "SimArtifacts", "SimulationAbort",
    "SingularAttitudeError", "SynthesisError", "SynthesisResult",
    "TrimConvergenceError", "TrimPoint", "UnobservablePairError",
    "UnstableSystemError", "WindModel", "WindSequence", "altitude_control",
    "assemble_state_estimate", "attitude_terms", "build_design",
    "build_output_map", "builtin_names", "builtin_scenario",
    "check_feasibility", "compare_controllers", "compute_gains",
    "compute_metrics", "control_law", "design_reduced_observer", "find_trim",
    "flap_coupling", "gamma_star", "hinf_norm", "horizontal_control",
    "linearize", "observer_step", "rk4_step", "run_scenario",
    "solve_riccati", "synthesize", "verify_linearization",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(heli).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
