"""Core MLSS library: queries, samplers, estimators, plan optimization."""

from .analytic import (hitting_probability, hitting_probability_grid,
                       hitting_time_distribution,
                       random_walk_hitting_curve,
                       random_walk_hitting_probability, srs_relative_error,
                       srs_required_paths)
from .balanced import balanced_growth_partition, pilot_max_values
from .bootstrap import bootstrap_variance
from .estimates import DurabilityCurve, DurabilityEstimate, TracePoint
from .fleet import (FleetThresholdValue, screen_fleet,
                    screen_fleet_curves, screen_fleet_mlss)
from .forest import LevelPlanError, VectorizedForestRunner, validate_plan
from .gmlss import (GMLSSSampler, gmlss_pi_hat_rows, gmlss_pi_hats,
                    gmlss_point_estimate, gmlss_prefix_estimates,
                    make_forest_runner)
from .greedy import GreedyResult, adaptive_greedy_partition
from .levels import LevelPartition, normalize_ratios, uniform_partition
from .optimizer import PlanTrial, evaluate_partition, pool_trials
from .pool import (PooledForestRunner, StepBudgetError, WorkerPool,
                   derive_task_seed)
from .quality import (ConfidenceIntervalTarget, NeverTarget, QualityTarget,
                      RelativeErrorTarget)
from .records import ForestAggregate, ForestCohort
from .smlss import (SMLSSSampler, smlss_prefix_estimates,
                    smlss_prefix_variances)
from .srs import (SRSSampler, prepare_curve_grid, srs_variance,
                  validate_curve_levels)
from .value_functions import (TARGET_VALUE, DurabilityQuery,
                              ThresholdValueFunction, batch_values,
                              threshold_grid)
from .variance import (balanced_advancement_probability,
                       balanced_growth_variance, optimal_num_levels,
                       srs_variance_formula, suggest_ratios,
                       two_level_skip_variance, variance_reduction_factor)

__all__ = [
    "ConfidenceIntervalTarget", "DurabilityCurve",
    "DurabilityEstimate",
    "DurabilityQuery", "FleetThresholdValue", "ForestAggregate",
    "ForestCohort",
    "GMLSSSampler",
    "GreedyResult", "LevelPartition", "LevelPlanError",
    "NeverTarget", "PlanTrial", "PooledForestRunner", "QualityTarget",
    "RelativeErrorTarget",
    "SMLSSSampler", "SRSSampler", "StepBudgetError",
    "TARGET_VALUE",
    "WorkerPool",
    "ThresholdValueFunction", "TracePoint", "VectorizedForestRunner",
    "adaptive_greedy_partition",
    "balanced_advancement_probability", "balanced_growth_partition",
    "balanced_growth_variance", "batch_values",
    "bootstrap_variance", "derive_task_seed",
    "evaluate_partition",
    "gmlss_pi_hat_rows", "gmlss_pi_hats", "gmlss_point_estimate",
    "gmlss_prefix_estimates",
    "hitting_probability", "hitting_probability_grid",
    "hitting_time_distribution",
    "make_forest_runner", "normalize_ratios",
    "optimal_num_levels", "pilot_max_values", "pool_trials",
    "prepare_curve_grid", "validate_plan",
    "random_walk_hitting_curve",
    "random_walk_hitting_probability",
    "screen_fleet", "screen_fleet_curves", "screen_fleet_mlss",
    "smlss_prefix_estimates", "smlss_prefix_variances",
    "srs_relative_error",
    "srs_required_paths", "srs_variance", "srs_variance_formula",
    "suggest_ratios", "threshold_grid", "two_level_skip_variance",
    "uniform_partition", "validate_curve_levels",
    "variance_reduction_factor",
]
