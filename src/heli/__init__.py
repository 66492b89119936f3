"""Flight-control toolkit for a small unmanned helicopter.

Nonlinear hover-regime plant model, hover trim and linearization, a
gamma-suboptimal H-infinity attitude inner loop with a reduced-order
observer, a PD position outer loop, and a deterministic closed-loop
scenario harness with a PID baseline for comparison.
"""

__version__ = "0.1.0"

from .dynamics import flap_coupling
from .errors import (
    ConfigError,
    HeliError,
    SimulationAbort,
    SingularAttitudeError,
    SynthesisError,
    TrimConvergenceError,
    UnobservablePairError,
    UnstableSystemError,
)
from .hinf import (
    GammaSearchResult,
    OutputWeights,
    RiccatiInfeasible,
    RiccatiSolution,
    SynthesisResult,
    build_output_map,
    check_feasibility,
    compute_gains,
    control_law,
    gamma_star,
    hinf_norm,
    solve_riccati,
    synthesize,
)
from .observer import (
    ObserverDesign,
    assemble_state_estimate,
    design_reduced_observer,
    observer_step,
)
from .outer import (
    OuterGains,
    altitude_control,
    attitude_terms,
    horizontal_control,
)
from .params import HelicopterParams
from .pipeline import build_design
from .scenarios import builtin_names, builtin_scenario
from .sim import (
    MetricsReport,
    PidAttitudeController,
    PidGains,
    ReferenceSegment,
    ScenarioConfig,
    ScenarioLog,
    SimArtifacts,
    compare_controllers,
    compute_metrics,
    rk4_step,
    run_scenario,
)
from .state import ControlInputs, FullState
from .trim import LinearPlant, TrimPoint, find_trim, linearize, verify_linearization
from .wind import Gust, WindModel, WindSequence
