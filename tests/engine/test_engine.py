"""Correctness tests for the parallel campaign execution engine.

The engine's contract: any ``jobs`` value and any cache temperature must
produce results bit-identical to the lockstep serial loop — accuracies,
category breakdowns and the joint ``subset_counts`` — and a warm cache run
must perform zero simulations.
"""

from __future__ import annotations

import pytest

from repro.core.last_value import LastValuePredictor
from repro.core.registry import _REGISTRY, register_predictor
from repro.core.stride import TwoDeltaStridePredictor
from repro.engine import EngineConfig, ExecutionEngine, predictor_signature
from repro.simulation.campaign import clear_campaign_cache, run_campaign
from repro.simulation.simulator import (
    SIMULATION_COUNTER,
    merge_shards,
    simulate_shard,
    simulate_trace,
)

#: Small but non-trivial configuration: two benchmarks, three predictor
#: families, enough records that every predictor leaves warm-up.
SCALE = 0.05
BENCHMARKS = ("compress", "m88ksim")
PREDICTORS = ("l", "s2", "fcm2")


def _assert_identical_campaigns(first, second):
    assert first.benchmarks() == second.benchmarks()
    assert first.predictor_names == second.predictor_names
    for benchmark in first.benchmarks():
        assert first.statistics[benchmark] == second.statistics[benchmark]
        left, right = first.simulations[benchmark], second.simulations[benchmark]
        assert left == right
        for name in first.predictor_names:
            assert left.results[name].accuracy == right.results[name].accuracy


class TestShardMerge:
    def test_merge_matches_lockstep(self, compress_trace):
        lockstep = simulate_trace(compress_trace, PREDICTORS)
        shards = {name: simulate_shard(compress_trace, name) for name in PREDICTORS}
        merged = merge_shards(compress_trace, shards)
        assert merged == lockstep

    def test_merge_rejects_record_count_mismatch(self, compress_trace):
        from repro.errors import SimulationError

        shard = simulate_shard(compress_trace, "l")
        shard.record_count += 1
        with pytest.raises(SimulationError):
            merge_shards(compress_trace, {"l": shard})


class TestParallelIdentity:
    def test_parallel_results_bit_identical_to_serial(self):
        serial = ExecutionEngine(EngineConfig(jobs=1)).run(
            scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS
        )
        parallel = ExecutionEngine(EngineConfig(jobs=4)).run(
            scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS
        )
        _assert_identical_campaigns(serial, parallel)
        for benchmark in BENCHMARKS:
            assert (
                serial.simulations[benchmark].subset_counts
                == parallel.simulations[benchmark].subset_counts
            )
            assert (
                serial.simulations[benchmark].subset_counts_by_category
                == parallel.simulations[benchmark].subset_counts_by_category
            )


class TestDuplicateAxes:
    def test_repeated_benchmark_and_predictor_compute_once(self):
        # A repeated axis value names the same trace and simulate units;
        # they run once and the result equals the run without repeats.
        engine = ExecutionEngine(EngineConfig(jobs=1))
        result = engine.run(
            scale=SCALE, predictors=("l", "l"), benchmarks=("compress", "compress")
        )
        assert engine.stats.traces_computed == 1
        assert engine.stats.simulations_computed == 1
        reference = ExecutionEngine(EngineConfig(jobs=1)).run(
            scale=SCALE, predictors=("l",), benchmarks=("compress",)
        )
        assert result.simulations["compress"] == reference.simulations["compress"]
        _assert_identical_campaigns(result, reference)


class TestPersistentCache:
    def test_warm_cache_performs_zero_simulations(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold_engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
        cold = cold_engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert cold_engine.stats.traces_computed == len(BENCHMARKS)
        assert cold_engine.stats.simulations_computed == len(BENCHMARKS) * len(PREDICTORS)

        SIMULATION_COUNTER.reset()
        warm_engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
        warm = warm_engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert SIMULATION_COUNTER.count == 0
        assert warm_engine.stats.simulations_computed == 0
        assert warm_engine.stats.traces_computed == 0
        assert warm_engine.stats.simulations_cached == len(BENCHMARKS) * len(PREDICTORS)
        _assert_identical_campaigns(cold, warm)

    def test_no_cache_flag_recomputes(self, tmp_path):
        cache_dir = tmp_path / "cache"
        ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir)).run(
            scale=SCALE, predictors=("l",), benchmarks=("compress",)
        )
        engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir, use_cache=False))
        engine.run(scale=SCALE, predictors=("l",), benchmarks=("compress",))
        assert engine.stats.simulations_computed == 1
        assert engine.stats.simulations_cached == 0

    def test_cache_distinguishes_scales(self, tmp_path):
        cache_dir = tmp_path / "cache"
        ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir)).run(
            scale=SCALE, predictors=("l",), benchmarks=("compress",)
        )
        other = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
        other.run(scale=6 * SCALE, predictors=("l",), benchmarks=("compress",))
        assert other.stats.traces_computed == 1
        assert other.stats.simulations_computed == 1

    def test_identical_traces_share_simulations_across_scales(self, tmp_path):
        # Simulations are keyed by trace *content*: two scales that clamp
        # to the same loop counts produce the same trace, so the shard is
        # reused even though the trace task itself reruns.
        cache_dir = tmp_path / "cache"
        ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir)).run(
            scale=0.05, predictors=("l",), benchmarks=("compress",)
        )
        other = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
        other.run(scale=0.1, predictors=("l",), benchmarks=("compress",))
        assert other.stats.traces_computed == 1
        assert other.stats.simulations_cached == 1


class TestPredictorConfigurationKeys:
    NAME = "engine-test-rebindable"

    def teardown_method(self):
        _REGISTRY.pop(self.NAME, None)
        clear_campaign_cache()

    def test_signature_tracks_rebinding(self):
        register_predictor(self.NAME, LastValuePredictor)
        before = predictor_signature(self.NAME)
        register_predictor(self.NAME, TwoDeltaStridePredictor, overwrite=True)
        after = predictor_signature(self.NAME)
        assert before != after

    def test_signature_tracks_parameters(self):
        register_predictor(self.NAME, LastValuePredictor)
        plain = predictor_signature(self.NAME)
        register_predictor(
            self.NAME, lambda: LastValuePredictor(hysteresis="counter"), overwrite=True
        )
        assert predictor_signature(self.NAME) != plain

    def test_campaign_memo_not_fooled_by_rebinding(self):
        # Regression: the in-process campaign memo used to key on predictor
        # *names* only, so re-binding a name to a different configuration
        # served the stale result.
        clear_campaign_cache()
        register_predictor(self.NAME, LastValuePredictor)
        first = run_campaign(
            scale=SCALE, predictors=(self.NAME,), benchmarks=("compress",)
        )
        register_predictor(self.NAME, TwoDeltaStridePredictor, overwrite=True)
        second = run_campaign(
            scale=SCALE, predictors=(self.NAME,), benchmarks=("compress",)
        )
        first_accuracy = first.simulations["compress"].results[self.NAME].accuracy
        second_accuracy = second.simulations["compress"].results[self.NAME].accuracy
        assert first_accuracy != second_accuracy

    def test_disk_cache_not_fooled_by_rebinding(self, tmp_path):
        cache_dir = tmp_path / "cache"
        register_predictor(self.NAME, LastValuePredictor)
        ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir)).run(
            scale=SCALE, predictors=(self.NAME,), benchmarks=("compress",)
        )
        register_predictor(self.NAME, TwoDeltaStridePredictor, overwrite=True)
        engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
        engine.run(scale=SCALE, predictors=(self.NAME,), benchmarks=("compress",))
        assert engine.stats.simulations_computed == 1
        assert engine.stats.traces_cached == 1
