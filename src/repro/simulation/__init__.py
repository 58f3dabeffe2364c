"""Prediction simulation harness and the paper's analyses.

The simulator follows the paper's idealised methodology: unbounded prediction
tables indexed by PC only, immediate table update with the true value after
every prediction, and accounting over all register-writing instructions.
On top of the raw simulation results the package provides the analyses of
Section 4: per-category accuracy, predicted-set correlation (Figure 8),
cumulative FCM-over-stride improvement (Figure 9), unique-value profiles
(Figure 10) and the sensitivity studies (Tables 6-7, Figure 11).
"""

from repro._lazy import lazy_exports

# Eager: the function shares its submodule's name, and importing the
# submodule first would leave the module bound to the name instead.
from repro.simulation.value_profile import value_profile  # noqa: F401

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "simulator": (
            "SIMULATION_COUNTER",
            "PredictionSimulator",
            "PredictorResult",
            "PredictorShard",
            "SimulationResult",
            "merge_shards",
            "simulate_shard",
            "simulate_trace",
        ),
        "metrics": ("AccuracyReport", "build_accuracy_report", "arithmetic_mean"),
        "correlation": ("CorrelationBreakdown", "correlation_breakdown", "SUBSET_LABELS"),
        "improvement": ("ImprovementCurve", "improvement_curve"),
        "value_profile": ("ValueProfile", "value_profile", "VALUE_BUCKETS"),
        "sensitivity": ("order_sensitivity", "input_sensitivity", "flag_sensitivity"),
        "campaign": ("campaign_defaults", "campaign_scale_for", "run_campaign", "set_campaign_defaults"),
    },
)
