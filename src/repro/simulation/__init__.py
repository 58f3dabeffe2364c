"""Prediction simulation harness and the paper's analyses.

The simulator follows the paper's idealised methodology: unbounded prediction
tables indexed by PC only, immediate table update with the true value after
every prediction, and accounting over all register-writing instructions.
On top of the raw simulation results the package provides the analyses of
Section 4: per-category accuracy, predicted-set correlation (Figure 8),
cumulative FCM-over-stride improvement (Figure 9), unique-value profiles
(Figure 10) and the sensitivity studies (Tables 6-7, Figure 11).
"""

from repro.simulation.simulator import (
    SIMULATION_COUNTER,
    PredictionSimulator,
    PredictorResult,
    PredictorShard,
    SimulationResult,
    merge_shards,
    simulate_shard,
    simulate_trace,
)
from repro.simulation.metrics import AccuracyReport, build_accuracy_report, arithmetic_mean
from repro.simulation.correlation import CorrelationBreakdown, correlation_breakdown, SUBSET_LABELS
from repro.simulation.improvement import ImprovementCurve, improvement_curve
from repro.simulation.value_profile import ValueProfile, value_profile, VALUE_BUCKETS
from repro.simulation.sensitivity import (
    order_sensitivity,
    input_sensitivity,
    flag_sensitivity,
)
from repro.simulation.campaign import (
    campaign_defaults,
    campaign_scale_for,
    run_campaign,
    set_campaign_defaults,
)

__all__ = [
    "SIMULATION_COUNTER",
    "PredictionSimulator",
    "PredictorResult",
    "PredictorShard",
    "SimulationResult",
    "merge_shards",
    "simulate_shard",
    "simulate_trace",
    "AccuracyReport",
    "build_accuracy_report",
    "arithmetic_mean",
    "CorrelationBreakdown",
    "correlation_breakdown",
    "SUBSET_LABELS",
    "ImprovementCurve",
    "improvement_curve",
    "ValueProfile",
    "value_profile",
    "VALUE_BUCKETS",
    "order_sensitivity",
    "input_sensitivity",
    "flag_sensitivity",
    "run_campaign",
    "campaign_scale_for",
    "campaign_defaults",
    "set_campaign_defaults",
]
