"""Risk-network dynamics and control toolkit.

Builds weighted risk networks from node probabilities and interaction
topology, simulates their discrete stochastic cascade and continuous
expected-value dynamics, fits transition probabilities from event logs, and
evaluates driver-node sets under reactive (finite-horizon feedback) and
proactive (inflow-cancelling) control with a combined activity + signal
cost.
"""

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NumericalError,
    ParseError,
    ProbabilityOutOfRange,
    RiskNetError,
    SaturatedPoint,
    SelfLoop,
    SingularInnerMatrix,
    StratumInfeasible,
    TargetsUnreachable,
    UnknownSchemaVersion,
    ValidationError,
)
from .model import (
    CostMatrices,
    DriverSet,
    RiskNetwork,
    StateVector,
    binary_state,
    build_network,
    continuous_state,
    degree_stats,
    identity_costs,
)
from .cascade import (
    EventLog,
    SimConfig,
    monte_carlo_mean,
    run_discrete,
)
from .dynamics import (
    controllability_rank,
    find_steady_state,
    linearize,
    step_continuous,
    unclamped_step,
)
from .control import (
    ControlRun,
    GainSchedule,
    evaluate_cost,
    riccati_schedule,
    run_proactive,
    run_reactive,
)
from .estimation import (
    FitResult,
    TransitionCounts,
    count_transitions,
    fit_probabilities,
)
from .experiments import (
    DriverEvaluation,
    ExperimentPlan,
    ExperimentResult,
    PhaseOutcome,
    run_experiment,
    sample_driver_sets,
)
from .netio import (
    generate_synthetic,
    load_event_log,
    load_network,
    load_plan,
    save_network,
    write_event_log,
    write_experiment_csv,
    write_experiment_summary,
)

__version__ = "0.1.0"
