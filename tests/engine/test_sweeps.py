"""Correctness tests for the engine-backed parameter-sweep layer.

The sweep layer's contract mirrors the campaign engine's: any ``jobs``
value and any cache temperature must reproduce the historical serial
sensitivity loops bit-identically, shared trace work must be deduplicated
before scheduling, and a fully warm sweep must perform zero trace or
simulate computation.
"""

from __future__ import annotations

import pytest

from repro.engine import EngineConfig, ExecutionEngine
from repro.engine.sweeps import SweepSpec, clear_sweep_cache, run_sweep
from repro.engine.tasks import SimulateTask, simulate_payload
from repro.engine.worker import execute_simulate_task
from repro.errors import SweepError, WorkloadError
from repro.simulation.sensitivity import (
    flag_sensitivity,
    input_sensitivity,
    order_sensitivity,
)
from repro.simulation.simulator import SIMULATION_COUNTER, simulate_trace
from repro.trace.io import dumps_trace_binary
from repro.workloads.suite import get_workload

SCALE = 0.05


# --------------------------------------------------------------------------- #
# Reference implementations: the pre-refactor serial loops, verbatim
# --------------------------------------------------------------------------- #
def _serial_input_points(benchmark="gcc", predictor="fcm2", scale=SCALE, inputs=None):
    workload = get_workload(benchmark)
    names = inputs if inputs is not None else workload.input_sets
    points = []
    for input_name in names:
        trace = workload.trace(scale=scale, input_name=input_name)
        result = simulate_trace(trace, (predictor,))
        points.append((input_name, len(trace), result.results[predictor].accuracy))
    return points


def _serial_flag_points(benchmark="gcc", predictor="fcm2", scale=SCALE):
    workload = get_workload(benchmark)
    points = []
    for flag_setting in workload.flag_sets:
        trace = workload.trace(scale=scale, flags=flag_setting)
        result = simulate_trace(trace, (predictor,))
        points.append((flag_setting, len(trace), result.results[predictor].accuracy))
    return points


def _serial_orders(benchmark="gcc", orders=(1, 2, 3), scale=SCALE):
    trace = get_workload(benchmark).trace(scale=scale)
    accuracies = {}
    for order in orders:
        name = f"fcm{order}"
        accuracies[order] = simulate_trace(trace, (name,)).results[name].accuracy
    return accuracies


class TestSerialEquivalence:
    """Engine-backed sensitivity is bit-identical to the serial loops."""

    def test_input_axis_bit_identical(self):
        engine_points = [
            (point.setting, point.predictions, point.accuracy)
            for point in input_sensitivity(scale=SCALE)
        ]
        assert engine_points == _serial_input_points(scale=SCALE)

    def test_flag_axis_bit_identical(self):
        engine_points = [
            (point.setting, point.predictions, point.accuracy)
            for point in flag_sensitivity(scale=SCALE)
        ]
        assert engine_points == _serial_flag_points(scale=SCALE)

    def test_order_axis_bit_identical(self):
        assert order_sensitivity(orders=(1, 2, 3), scale=SCALE) == _serial_orders(
            orders=(1, 2, 3), scale=SCALE
        )

    def test_full_shard_accounting_matches_lockstep(self):
        # Beyond accuracy: category breakdowns and per-PC counts match too.
        spec = SweepSpec.input_study(benchmark="compress", predictor="fcm1", scale=SCALE)
        sweep = ExecutionEngine(EngineConfig(jobs=1)).run_sweep(spec)
        workload = get_workload("compress")
        for entry in sweep.points:
            trace = workload.trace(scale=SCALE, input_name=entry.point.input_name)
            reference = simulate_trace(trace, ("fcm1",)).results["fcm1"]
            assert entry.result == reference


class TestJobsParity:
    def test_jobs_1_and_jobs_4_bit_identical(self):
        spec = SweepSpec(
            benchmark="gcc",
            scale=SCALE,
            inputs=("gcc.i", "jump.i"),
            predictors=("l", "fcm2"),
        )
        serial = ExecutionEngine(EngineConfig(jobs=1)).run_sweep(spec)
        parallel = ExecutionEngine(EngineConfig(jobs=4)).run_sweep(spec)
        assert len(serial.points) == len(parallel.points) == 4
        for left, right in zip(serial.points, parallel.points):
            assert left.point == right.point
            assert left.record_count == right.record_count
            assert left.statistics == right.statistics
            assert left.result == right.result


class TestDeduplication:
    def test_repeated_axis_values_trace_once(self):
        spec = SweepSpec(
            benchmark="compress", scale=SCALE, inputs=("ref", "ref"), predictors=("l",)
        )
        engine = ExecutionEngine(EngineConfig(jobs=1))
        sweep = engine.run_sweep(spec)
        assert len(sweep.points) == 2
        assert engine.stats.traces_computed == 1
        assert engine.stats.simulations_computed == 1
        assert sweep.points[0].result == sweep.points[1].result

    def test_order_study_shares_one_trace(self):
        engine = ExecutionEngine(EngineConfig(jobs=1))
        engine.run_sweep(SweepSpec.order_study(orders=(1, 2, 3), scale=SCALE))
        assert engine.stats.benchmarks == 1
        assert engine.stats.traces_computed == 1
        assert engine.stats.simulations_computed == 3

    def test_identical_trace_content_shares_simulations(self, tmp_path):
        # Two scales that clamp to the same loop counts produce the same
        # trace bytes; simulations are keyed by content, so both sweeps
        # address one shard entry.  The second sweep's trace misses, and
        # its unit cannot probe the shard before it knows the digest: it
        # re-simulates and rewrites the same bytes.
        cache_dir = tmp_path / "cache"
        first = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
        first.run_sweep(SweepSpec(benchmark="compress", scale=0.05, predictors=("l",)))
        (shard,) = (cache_dir / "simulate").rglob("*.rvpc")
        shard_bytes = shard.read_bytes()
        second = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
        second.run_sweep(SweepSpec(benchmark="compress", scale=0.1, predictors=("l",)))
        assert second.stats.traces_computed == 1
        assert second.stats.simulations_cached == 0
        assert second.stats.simulations_computed == 1
        assert list((cache_dir / "simulate").rglob("*.rvpc")) == [shard]
        assert shard.read_bytes() == shard_bytes


class TestPersistentCache:
    def test_warm_sweep_is_zero_compute(self, tmp_path):
        cache_dir = tmp_path / "cache"
        spec = SweepSpec.input_study(scale=SCALE)
        cold_engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
        cold = cold_engine.run_sweep(spec)
        assert cold_engine.stats.traces_computed == len(spec.inputs)
        assert cold_engine.stats.simulations_computed == len(spec.inputs)

        SIMULATION_COUNTER.reset()
        warm_engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
        warm = warm_engine.run_sweep(spec)
        assert SIMULATION_COUNTER.count == 0
        assert warm_engine.stats.traces_computed == 0
        assert warm_engine.stats.simulations_computed == 0
        assert warm_engine.stats.traces_cached == len(spec.inputs)
        assert warm_engine.stats.simulations_cached == len(spec.inputs)
        for left, right in zip(cold.points, warm.points):
            assert left.point == right.point
            assert left.record_count == right.record_count
            assert left.result == right.result

    def test_campaign_and_sweep_share_trace_entries(self, tmp_path):
        # The sweep's default-configuration points address the entries a
        # campaign writes for those benchmarks, and vice versa: in either
        # order the second run computes nothing, and both orders leave
        # byte-identical entries behind.
        benchmarks, predictors = ("gcc", "compress"), ("l", "fcm2")
        spec = SweepSpec(benchmarks=benchmarks, scale=SCALE, predictors=predictors)

        def campaign(engine):
            engine.run(scale=SCALE, predictors=predictors, benchmarks=benchmarks)

        def sweep(engine):
            engine.run_sweep(spec)

        trees = []
        for order in ((campaign, sweep), (sweep, campaign)):
            cache_dir = tmp_path / "-".join(run.__name__ for run in order)
            for run in order:
                engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
                run(engine)
            assert engine.stats.traces_computed == 0
            assert engine.stats.simulations_computed == 0
            assert engine.stats.traces_cached == len(benchmarks)
            trees.append(
                {
                    path.relative_to(cache_dir): path.read_bytes()
                    for kind in ("trace", "simulate", "merge")
                    for path in (cache_dir / kind).rglob("*")
                    if path.is_file()
                }
            )
        assert trees[0] and trees[0] == trees[1]

    @pytest.mark.parametrize("backend", ["serial", "pool", "persistent"])
    @pytest.mark.parametrize(
        "run", ["sweep", "campaign-merge-kept", "campaign-merge-deleted"]
    )
    def test_corrupt_cached_trace_is_repaired_and_accounted(
        self, tmp_path, dispatch_spy, run, backend
    ):
        # A stamped entry can pass the cheap warm probe (digest and
        # statistics readable) while its trace body is corrupt.  Sweeps and
        # campaigns share one repair policy: when the trace is first
        # needed, re-trace once, report the work honestly (not as a cache
        # hit) and overwrite the bad entry so the repair sticks.  A warm
        # sweep needs the trace only for a pending simulation, a
        # campaign for its merge or its decoded ``traces``.  The repair
        # happens in the parent: no backend is ever handed the bad body.
        from repro.engine.codecs import encode_cache_entry, payload_trace
        from repro.engine.tasks import TraceTask

        predictors = ("l", "s2")

        def execute(engine):
            if run == "sweep":
                spec = SweepSpec(benchmark="compress", scale=SCALE, predictors=predictors)
                return [point.result for point in engine.run_sweep(spec).points]
            result = engine.run(scale=SCALE, predictors=predictors, benchmarks=("compress",))
            return result.simulations["compress"], result.traces["compress"].records

        stale_kind = {"sweep": "simulate", "campaign-merge-deleted": "merge"}.get(run)
        cache_dir = tmp_path / "cache"
        config = EngineConfig(
            jobs=1 if backend == "serial" else 2, backend=backend, cache_dir=cache_dir
        )
        with ExecutionEngine(config) as cold:
            cold_result = execute(cold)

        task = TraceTask.for_workload("compress", SCALE)
        path = cold.cache.path_for("trace", task.cache_key())
        assert path.exists()
        entry = cold.cache.get("trace", task.cache_key())
        entry["trace_binary"] = b"\x00garbage"
        path.write_bytes(encode_cache_entry(task.cache_key(), entry))
        for entry_path in list(cold.cache.entry_paths()):
            if entry_path.parent.parent.name == stale_kind:
                entry_path.unlink()

        with ExecutionEngine(config) as engine:
            dispatched = dispatch_spy(engine)
            assert execute(engine) == cold_result
        assert engine.stats.traces_computed == 1
        assert engine.stats.traces_cached == 0
        assert cold.cache.verify().ok  # the bad entry was overwritten
        simulate_payloads = [payload for payload in dispatched if "predictors" in payload]
        carried = sum(len(payload["predictors"]) for payload in simulate_payloads)
        assert carried == (len(predictors) if run == "sweep" else 0)
        for payload in simulate_payloads:
            if "trace_bytes" in payload:
                assert payload["trace_bytes"] != b"\x00garbage"
                payload_trace({"trace_binary": payload["trace_bytes"]})


class TestSpecValidation:
    def test_empty_predictors_rejected(self):
        with pytest.raises(SweepError):
            SweepSpec(predictors=()).points()

    def test_unknown_input_rejected(self):
        with pytest.raises(WorkloadError):
            SweepSpec(benchmark="gcc", inputs=("no-such-input.i",)).points()

    def test_points_resolve_defaults(self):
        points = SweepSpec(benchmark="gcc", predictors=("l",)).points()
        assert len(points) == 1
        assert points[0].input_name == "gcc.i"
        assert points[0].flags == "ref"


class TestRunSweepFacade:
    def teardown_method(self):
        clear_sweep_cache()

    def test_memoises_by_spec(self):
        spec = SweepSpec(benchmark="compress", scale=SCALE, predictors=("l",))
        first = run_sweep(spec)
        second = run_sweep(spec)
        assert second is first

    def test_use_cache_false_bypasses_memo(self):
        spec = SweepSpec(benchmark="compress", scale=SCALE, predictors=("l",))
        first = run_sweep(spec)
        second = run_sweep(spec, use_cache=False)
        assert second is not first
        assert second.points[0].result == first.points[0].result


class TestBenchmarkAxis:
    """benchmark is a fourth sweep axis (multi-benchmark specs)."""

    def test_multi_benchmark_expansion_order(self):
        spec = SweepSpec(
            benchmarks=("compress", "m88ksim"), scale=SCALE, predictors=("l", "s2")
        )
        points = spec.points()
        assert [point.benchmark for point in points] == [
            "compress", "compress", "m88ksim", "m88ksim",
        ]
        assert [point.predictor for point in points] == ["l", "s2", "l", "s2"]

    def test_benchmarks_override_single_benchmark(self):
        spec = SweepSpec(benchmark="gcc", benchmarks=("compress",), predictors=("l",))
        assert spec.benchmark_axis() == ("compress",)
        assert [point.benchmark for point in spec.points()] == ["compress"]

    def test_defaults_resolve_per_benchmark(self):
        spec = SweepSpec(benchmarks=("gcc", "compress"), predictors=("l",))
        points = spec.points()
        assert points[0].input_name == "gcc.i"  # gcc's declared default
        assert points[1].input_name == "ref"  # compress's declared default

    def test_all_expands_per_benchmark(self):
        spec = SweepSpec(
            benchmarks=("gcc", "compress"), inputs=("all",), predictors=("l",)
        )
        points = spec.points()
        gcc_inputs = [p.input_name for p in points if p.benchmark == "gcc"]
        compress_inputs = [p.input_name for p in points if p.benchmark == "compress"]
        assert tuple(gcc_inputs) == get_workload("gcc").input_sets
        assert tuple(compress_inputs) == get_workload("compress").input_sets

    def test_duplicate_benchmarks_share_trace_and_simulation(self):
        engine = ExecutionEngine(EngineConfig(jobs=1))
        sweep = engine.run_sweep(
            SweepSpec(benchmarks=("compress", "compress"), scale=SCALE, predictors=("l",))
        )
        assert len(sweep.points) == 2
        assert engine.stats.traces_computed == 1
        assert engine.stats.simulations_computed == 1
        assert sweep.points[0].result == sweep.points[1].result

    def test_multi_benchmark_matches_single_benchmark_sweeps(self):
        joint = ExecutionEngine(EngineConfig(jobs=1)).run_sweep(
            SweepSpec(benchmarks=("compress", "m88ksim"), scale=SCALE, predictors=("l",))
        )
        for benchmark in ("compress", "m88ksim"):
            single = ExecutionEngine(EngineConfig(jobs=1)).run_sweep(
                SweepSpec(benchmark=benchmark, scale=SCALE, predictors=("l",))
            )
            (joint_point,) = joint.by_benchmark(benchmark)
            assert joint_point.point == single.points[0].point
            assert joint_point.result == single.points[0].result
            assert joint_point.record_count == single.points[0].record_count

    def test_multi_benchmark_shares_cache_with_campaign(self, tmp_path):
        cache_dir = tmp_path / "cache"
        ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir)).run(
            scale=SCALE, predictors=("l",), benchmarks=("compress", "m88ksim")
        )
        engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
        engine.run_sweep(
            SweepSpec(benchmarks=("compress", "m88ksim"), scale=SCALE, predictors=("l",))
        )
        assert engine.stats.traces_computed == 0
        assert engine.stats.simulations_computed == 0
        assert engine.stats.traces_cached == 2
        assert engine.stats.simulations_cached == 2

    def test_empty_benchmark_axis_rejected(self):
        with pytest.raises(SweepError):
            SweepSpec(benchmarks=(), benchmark="", predictors=("l",)).points()


class TestTraceWireFormat:
    """execute_trace_task returns v3 binary bytes + digest over the wire."""

    def test_trace_outcome_carries_v3_bytes_and_digest(self):
        from hashlib import sha256

        from repro.engine.codecs import payload_trace
        from repro.engine.tasks import TraceTask
        from repro.engine.worker import execute_trace_task
        from repro.trace.io import dumps_trace

        (outcome,) = execute_trace_task(TraceTask.for_workload("compress", SCALE).payload())["outcomes"]
        assert isinstance(outcome["trace_binary"], bytes)
        trace = payload_trace(outcome)
        text = dumps_trace(trace)
        assert outcome["digest"] == sha256(text.encode("utf-8")).hexdigest()
        reference = get_workload("compress").trace(scale=SCALE)
        assert len(trace) == len(reference)

    def test_binary_outcome_smaller_than_text_form(self):
        from repro.engine.tasks import TraceTask
        from repro.engine.worker import execute_trace_task
        from repro.trace.io import dumps_trace

        (outcome,) = execute_trace_task(TraceTask.for_workload("compress", SCALE).payload())["outcomes"]
        reference = get_workload("compress").trace(scale=SCALE)
        assert len(outcome["trace_binary"]) < len(dumps_trace(reference).encode("utf-8")) // 5


class TestBinaryWireFormat:
    def test_pool_payload_carries_v3_bytes(self, compress_trace):
        tasks = [
            SimulateTask(
                predictor=name,
                trace_digest="d",
                predictor_signature=f"sig-{name}",
            )
            for name in ("l", "s2")
        ]
        blob = dumps_trace_binary(compress_trace, compress=True)
        payload = simulate_payload(tasks, trace_bytes=blob)
        # The trace phase's bytes ship as they are, once for the unit.
        assert payload == {"predictors": [["l", "sig-l"], ["s2", "sig-s2"]], "trace_bytes": blob}
        assert payload["trace_bytes"] is blob

    def test_worker_decodes_binary_and_inline_identically(self, compress_trace):
        from repro.engine.codecs import shard_from_dict
        from repro.engine.fingerprint import predictor_signature

        base = {"predictors": [[name, predictor_signature(name)] for name in ("s2", "fcm2")]}
        inline = execute_simulate_task({**base, "trace": compress_trace})["outcomes"]
        binary = execute_simulate_task({**base, "trace_bytes": dumps_trace_binary(compress_trace)})["outcomes"]
        assert len(inline) == len(binary) == 2
        for inline_entry, binary_entry in zip(inline, binary):
            assert shard_from_dict(inline_entry["shard"]) == shard_from_dict(binary_entry["shard"])

    def test_binary_payload_smaller_than_text(self, compress_trace):
        from repro.engine.tasks import TraceTask
        from repro.engine.worker import execute_trace_task
        from repro.trace.io import dumps_trace

        (outcome,) = execute_trace_task(TraceTask.for_workload("compress", SCALE).payload())["outcomes"]
        task = SimulateTask(
            predictor="l",
            trace_digest=outcome["digest"],
            predictor_signature="s",
        )
        payload = simulate_payload([task], trace_bytes=outcome["trace_binary"])
        text = dumps_trace(compress_trace)
        assert len(payload["trace_bytes"]) < len(text.encode("utf-8")) // 10
