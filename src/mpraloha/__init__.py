"""Deadline-constrained slotted ALOHA on a multi-packet reception channel.

Four pieces: closed-form analysis and an optimal-tau solver (`analytic`),
slot-level simulation (`simulate`), a distributed runtime population
estimator (`estimator`), and dynamic-population scenarios (`scenario`).
`checks` verifies the analytic claims numerically; `cli` wraps everything
for the command line.
"""

from .analytic import (
    ChannelConfig,
    SolveReport,
    delivery_prob,
    delivery_prob_derivative,
    grid_search_optimum,
    lower_bound_tau,
    solve_optimal_tau,
)
from .checks import CheckResult, VerifyGrid, run_all
from .estimator import EstimatorConfig, PopulationEstimator, tuned_tau
from .scenario import (
    DynamicResult,
    ScenarioTimeline,
    Stage,
    StageStats,
    load_scenario,
    parse_scenario,
    run_dynamic,
)
from .simulate import delivery_rate, run_stationary

__version__ = "0.1.0"

__all__ = [
    "ChannelConfig",
    "SolveReport",
    "delivery_prob",
    "delivery_prob_derivative",
    "lower_bound_tau",
    "solve_optimal_tau",
    "grid_search_optimum",
    "run_stationary",
    "delivery_rate",
    "EstimatorConfig",
    "PopulationEstimator",
    "tuned_tau",
    "Stage",
    "ScenarioTimeline",
    "StageStats",
    "DynamicResult",
    "parse_scenario",
    "load_scenario",
    "run_dynamic",
    "VerifyGrid",
    "CheckResult",
    "run_all",
    "__version__",
]
