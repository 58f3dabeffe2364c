"""Benchmarks for the Section 4.4 sensitivity studies.

Covers Table 6 (gcc vs input files), Table 7 (gcc vs flags) and Figure 11
(gcc vs fcm order).  Since the sweep refactor these execute through the
engine's parameter-sweep layer; the cold benches time real trace+simulate
work at a reduced scale, and the warm bench times a fully cache-hit sweep
(which must perform zero simulations).
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.engine import EngineConfig, ExecutionEngine
from repro.engine.sweeps import SweepSpec
from repro.reporting.experiments import figure11, table6, table7

#: gcc-only sweeps are re-simulated per setting; a smaller scale than the
#: campaign keeps the total harness time reasonable.
SENSITIVITY_SCALE = 0.3


def test_bench_table6_input_sensitivity(benchmark):
    """Table 6: gcc accuracy is insensitive to the input file."""
    artifact = run_once(benchmark, table6, scale=SENSITIVITY_SCALE)
    accuracies = [point.accuracy for point in artifact.data]
    assert max(accuracies) - min(accuracies) < 20.0
    print()
    print(artifact.render())


def test_bench_table7_flag_sensitivity(benchmark):
    """Table 7: gcc accuracy is insensitive to the compilation flags."""
    artifact = run_once(benchmark, table7, scale=SENSITIVITY_SCALE)
    accuracies = [point.accuracy for point in artifact.data]
    assert max(accuracies) - min(accuracies) < 20.0
    print()
    print(artifact.render())


def test_bench_sweep_warm_cache(benchmark, tmp_path):
    """A fully warm input-axis sweep costs no trace/simulate computation."""
    spec = SweepSpec.input_study(scale=SENSITIVITY_SCALE)
    cache_dir = tmp_path / "cache"
    ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir)).run_sweep(spec)

    def warm_sweep():
        engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
        return engine.run_sweep(spec)

    result = run_once(benchmark, warm_sweep)
    assert result.stats.simulations_computed == 0
    assert result.stats.traces_computed == 0


def test_bench_figure11_order_sensitivity(benchmark):
    """Figure 11: accuracy improves with order, with diminishing returns."""
    artifact = run_once(benchmark, figure11, scale=SENSITIVITY_SCALE, max_order=8)
    accuracies = artifact.data
    assert accuracies[8] >= accuracies[1]
    early_gain = accuracies[3] - accuracies[1]
    late_gain = accuracies[8] - accuracies[6]
    assert late_gain <= early_gain + 2.0
    print()
    print(artifact.render())
