"""Reproduction of *The Predictability of Data Values* (Sazeides & Smith, MICRO-30, 1997).

The package is organised in layers:

* :mod:`repro.core` — the paper's contribution: last value, stride (two-delta)
  and finite-context-method value predictors, plus blending and hybrids.
* :mod:`repro.sequences` — the value-sequence taxonomy and learning-time /
  learning-degree analysis of Section 1.1 and Table 1.
* :mod:`repro.isa`, :mod:`repro.workloads`, :mod:`repro.trace` — the
  substrate substituting for SimpleScalar and the SPEC95int binaries: a
  MIPS-like interpreter, seven synthetic benchmarks and value-trace
  collection.
* :mod:`repro.simulation` — the idealised prediction simulator (unbounded
  tables, immediate update) and the analyses of Section 4.
* :mod:`repro.reporting` — one entry point per table/figure of the paper.

Quickstart::

    from repro import create_predictor, get_workload, simulate_trace

    trace = get_workload("compress").trace(scale=0.2)
    result = simulate_trace(trace, ("l", "s2", "fcm3"))
    print(result.results["fcm3"].accuracy)
"""

from repro._lazy import lazy_exports

# Eager: telemetry stamps it on every run manifest.
__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "core": (
            "ValuePredictor",
            "Prediction",
            "LastValuePredictor",
            "SimpleStridePredictor",
            "CounterStridePredictor",
            "TwoDeltaStridePredictor",
            "FcmPredictor",
            "BlendedFcmPredictor",
            "HybridPredictor",
            "PAPER_PREDICTORS",
            "available_predictors",
            "create_predictor",
            "register_predictor",
        ),
        "isa": ("Category", "Opcode"),
        "trace": ("TraceRecord", "ValueTrace", "trace_from_values"),
        "workloads": ("available_workloads", "get_workload", "run_suite"),
        "sequences": ("SequenceClass", "classify_sequence", "generate_sequence", "measure_learning"),
        "simulation": ("PredictionSimulator", "SimulationResult", "simulate_trace", "run_campaign"),
        "engine.sweeps": ("SweepSpec", "run_sweep"),
        "reporting": ("ALL_EXPERIMENTS", "run_experiment"),
    },
)
__all__.insert(0, "__version__")
