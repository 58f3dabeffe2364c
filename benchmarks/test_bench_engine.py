"""Benchmarks for the campaign execution engine.

Times the quick-scale suite campaign along the engine's axes — serial
vs. worker-pool execution and cold vs. warm persistent cache — emitting
comparable wall-time numbers for the perf trajectory.  On a single-core
runner the parallel number mostly measures pool overhead; the
interesting delta there is cold vs. warm cache (the warm run performs
zero trace/simulate work).
"""

from __future__ import annotations

import os

import pytest

from benchmarks.conftest import run_once
from repro.core.registry import PAPER_PREDICTORS
from repro.engine import EngineConfig, ExecutionEngine
from repro.simulation.campaign import QUICK_SCALE
from repro.workloads.suite import BENCHMARK_ORDER

SCALE = QUICK_SCALE

#: The process-based backends only say something interesting with real
#: parallel hardware; on a single-core runner they mostly measure pool
#: startup overhead, so those axis points are skipped rather than graphed.
_MULTICORE = (os.cpu_count() or 1) >= 2


def _run_engine(
    jobs: int,
    cache_dir=None,
    use_cache: bool = True,
    backend=None,
):
    engine = ExecutionEngine(
        EngineConfig(jobs=jobs, cache_dir=cache_dir, use_cache=use_cache, backend=backend),
    )
    result = engine.run(scale=SCALE, predictors=PAPER_PREDICTORS, benchmarks=BENCHMARK_ORDER)
    return engine, result


def _report(engine) -> None:
    stats = engine.stats
    print()
    print(
        f"jobs={engine.config.jobs} traces {stats.traces_computed}c/{stats.traces_cached}h "
        f"simulations {stats.simulations_computed}c/{stats.simulations_cached}h "
        f"{stats.total_seconds:.2f}s"
    )


def test_bench_engine_serial_cold(benchmark):
    """Baseline: the full quick-scale campaign, in-process, no cache."""
    engine, result = run_once(benchmark, _run_engine, jobs=1)
    assert engine.stats.simulations_computed == len(BENCHMARK_ORDER) * len(PAPER_PREDICTORS)
    assert set(result.simulations) == set(BENCHMARK_ORDER)
    _report(engine)


def test_bench_engine_parallel_cold(benchmark):
    """The same campaign scattered over a two-worker pool."""
    engine, result = run_once(benchmark, _run_engine, jobs=2)
    assert engine.stats.simulations_computed == len(BENCHMARK_ORDER) * len(PAPER_PREDICTORS)
    assert set(result.simulations) == set(BENCHMARK_ORDER)
    _report(engine)


def test_bench_engine_cold_cache(benchmark, tmp_path):
    """Cold run that also populates a persistent cache (write overhead)."""
    engine, result = run_once(benchmark, _run_engine, jobs=1, cache_dir=tmp_path / "cache")
    assert engine.stats.simulations_computed == len(BENCHMARK_ORDER) * len(PAPER_PREDICTORS)
    _report(engine)


def test_bench_engine_warm_cache(benchmark, tmp_path):
    """Warm rerun against a populated cache: zero simulations performed."""
    cache_dir = tmp_path / "cache"
    _run_engine(jobs=1, cache_dir=cache_dir)  # populate (untimed)
    engine, result = run_once(benchmark, _run_engine, jobs=1, cache_dir=cache_dir)
    assert engine.stats.simulations_computed == 0
    assert engine.stats.traces_computed == 0
    assert set(result.simulations) == set(BENCHMARK_ORDER)
    _report(engine)


@pytest.mark.parametrize("backend_name", ["serial", "pool", "persistent"])
def test_bench_engine_warm_cache_backend_axis(benchmark, tmp_path, backend_name):
    """Warm rerun per executor backend: zero compute, pure probe + dispatch cost.

    Every point performs identical (zero) trace/simulate work, so the
    deltas isolate each backend's fixed overheads — cache probing is
    common, worker startup is what differs.  The process-based points are
    skipped on single-core runners, where they would mostly measure pool
    startup rather than anything a scheduling decision could act on.
    """
    if backend_name != "serial" and not _MULTICORE:
        pytest.skip("multi-process backend timings are meaningless on one core")
    cache_dir = tmp_path / "cache"
    _run_engine(jobs=1, cache_dir=cache_dir)  # populate (untimed)
    engine, result = run_once(
        benchmark, _run_engine, jobs=2, cache_dir=cache_dir, backend=backend_name
    )
    assert engine.stats.tasks_computed == 0
    assert set(result.simulations) == set(BENCHMARK_ORDER)
    _report(engine)


# --------------------------------------------------------------------------- #
# Executor backends: per-dispatch pool vs. persistent warm workers
# --------------------------------------------------------------------------- #
_BACKEND_BENCHMARKS = ("compress", "m88ksim")
_BACKEND_PREDICTORS = ("l", "s2")


def _run_twice(backend_name: str):
    """Two back-to-back cacheless campaigns on one backend instance.

    The second run is where the backends differ: the pool pays worker
    startup (fork + import) again per dispatch, the persistent backend
    reuses its warm workers.
    """
    from repro.engine.backends import resolve_backend

    with resolve_backend(backend_name, jobs=2) as shared:
        for _ in range(2):
            engine = ExecutionEngine(EngineConfig(jobs=2), backend=shared)
            engine.run(
                scale=SCALE,
                predictors=_BACKEND_PREDICTORS,
                benchmarks=_BACKEND_BENCHMARKS,
            )
    return engine


def test_bench_engine_pool_backend_reruns(benchmark):
    """Reference: repeated campaigns on the per-dispatch pool backend."""
    engine = run_once(benchmark, _run_twice, "pool")
    assert engine.stats.simulations_computed == len(_BACKEND_BENCHMARKS) * len(
        _BACKEND_PREDICTORS
    )
    _report(engine)


def test_bench_engine_persistent_backend_reruns(benchmark):
    """Same work on warm persistent workers (startup amortised once)."""
    engine = run_once(benchmark, _run_twice, "persistent")
    assert engine.stats.simulations_computed == len(_BACKEND_BENCHMARKS) * len(
        _BACKEND_PREDICTORS
    )
    _report(engine)


# --------------------------------------------------------------------------- #
# Intra-trace sharding: one benchmark's trace split into windows vs. whole
# --------------------------------------------------------------------------- #
_SHARD_BENCHMARK = ("compress",)


def _run_single_benchmark(jobs: int, backend=None, shard_window=None, kernel=None):
    engine = ExecutionEngine(
        EngineConfig(
            jobs=jobs,
            use_cache=False,
            backend=backend,
            shard_window=shard_window,
            kernel=kernel,
        ),
    )
    result = engine.run(
        scale=SCALE, predictors=PAPER_PREDICTORS, benchmarks=_SHARD_BENCHMARK
    )
    return engine, result


def test_bench_engine_single_benchmark_unsharded(benchmark):
    """Reference: one benchmark's cold campaign as whole-trace units.

    A single benchmark is the case parallel backends cannot help on their
    own: there are only ``len(PAPER_PREDICTORS)`` simulate units and the
    wall time is bounded by one whole-trace simulation.  Paired with the
    sharded point below, so gated the same way.
    """
    if not _MULTICORE:
        pytest.skip("the sharded/unsharded pair needs real parallel hardware")
    engine, result = run_once(benchmark, _run_single_benchmark, jobs=1)
    assert engine.stats.simulations_computed == len(PAPER_PREDICTORS)
    assert engine.stats.windows_computed == 0
    assert set(result.simulations) == set(_SHARD_BENCHMARK)
    _report(engine)


def test_bench_engine_single_benchmark_sharded(benchmark):
    """The same campaign with ``shard_window="auto"`` over a worker pool.

    Auto planning splits the one trace into about one window per pool
    slot; update-only replay hands predictor state across the boundaries.
    The ratio against the unsharded point is the intra-trace speedup on a
    single benchmark — about 2x on two real cores, minus replay and
    stitch overhead.
    """
    if not _MULTICORE:
        pytest.skip("the sharded/unsharded pair needs real parallel hardware")
    jobs = min(4, os.cpu_count() or 1)
    engine, result = run_once(
        benchmark,
        _run_single_benchmark,
        jobs=jobs,
        backend="pool",
        shard_window="auto",
    )
    assert engine.stats.simulations_computed == len(PAPER_PREDICTORS)
    assert engine.stats.windows_computed > 0
    assert set(result.simulations) == set(_SHARD_BENCHMARK)
    _report(engine)


def test_bench_engine_single_benchmark_sharded_vector(benchmark):
    """Sharded campaign with the vector kernel inside each window task.

    Window tasks restore the handed-off predictor snapshot and run the
    vector plan over their slice, so the intra-trace parallel speedup and
    the per-window kernel speedup multiply.  Paired with the scalar
    sharded point above.
    """
    if not _MULTICORE:
        pytest.skip("the sharded/unsharded pair needs real parallel hardware")
    pytest.importorskip("numpy")
    jobs = min(4, os.cpu_count() or 1)
    engine, result = run_once(
        benchmark,
        _run_single_benchmark,
        jobs=jobs,
        backend="pool",
        shard_window="auto",
        kernel="vector",
    )
    assert engine.stats.simulations_computed == len(PAPER_PREDICTORS)
    assert engine.stats.windows_computed > 0
    assert set(result.simulations) == set(_SHARD_BENCHMARK)
    _report(engine)


# --------------------------------------------------------------------------- #
# Simulation kernels: scalar reference loop vs. columnar vector kernel
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def wire_blobs(bench_campaign):
    """Each suite trace as compressed v3 wire bytes (built once, untimed)."""
    from repro.trace.io import dumps_trace_binary

    return {
        name: dumps_trace_binary(trace, compress=True)
        for name, trace in bench_campaign.traces.items()
    }


def _cold_simulate(blobs: dict, kernel: str) -> int:
    """The simulate phase's cold path from wire bytes, on one kernel.

    Mirrors what a pool worker does per benchmark: decode the v3 bytes
    (into records on the scalar path, straight into numpy columns on the
    vector path — no ``TraceRecord`` objects), then compute one shard per
    paper predictor.
    """
    from repro.simulation.simulator import SIMULATION_COUNTER, simulate_shard
    from repro.simulation.vectorized import simulate_shard_vector
    from repro.trace.io import decode_trace_columns, loads_trace_binary

    SIMULATION_COUNTER.reset()
    for blob in blobs.values():
        if kernel == "vector":
            columns = decode_trace_columns(blob)
            for name in PAPER_PREDICTORS:
                assert simulate_shard_vector(columns, name) is not None
        else:
            trace = loads_trace_binary(blob)
            for name in PAPER_PREDICTORS:
                simulate_shard(trace, name, kernel="scalar")
    return SIMULATION_COUNTER.count


@pytest.mark.parametrize("kernel", ["scalar", "vector"])
def test_bench_engine_cold_simulate_kernel_axis(benchmark, wire_blobs, kernel):
    """Scalar-vs-vector cold simulate pair (same work, different kernel).

    Both points decode every suite trace from wire bytes and compute all
    (trace, predictor) shards; the ratio between them is the vector
    kernel's cold-simulate speedup, recorded in the benchmark JSON.
    """
    if kernel == "vector":
        pytest.importorskip("numpy")
    computed = run_once(benchmark, _cold_simulate, wire_blobs, kernel)
    assert computed == len(wire_blobs) * len(PAPER_PREDICTORS)


def _cold_simulate_names(blobs: dict, names: tuple, kernel: str) -> int:
    """Cold simulate of specific configurations over every suite trace."""
    from repro.simulation.simulator import SIMULATION_COUNTER, simulate_shard
    from repro.simulation.vectorized import simulate_shard_vector
    from repro.trace.io import decode_trace_columns, loads_trace_binary

    SIMULATION_COUNTER.reset()
    for blob in blobs.values():
        if kernel == "vector":
            columns = decode_trace_columns(blob)
            for name in names:
                assert simulate_shard_vector(columns, name) is not None
        else:
            trace = loads_trace_binary(blob)
            for name in names:
                simulate_shard(trace, name, kernel="scalar")
    return SIMULATION_COUNTER.count


#: Configurations the vector kernel could not run before the counter and
#: hybrid plans landed — each pair's scalar/vector ratio is their speedup.
_COUNTER_CONFIGS = ("lv-counter", "lv-consecutive", "stride-counter")
_HYBRID_CONFIGS = ("hybrid-s2-fcm3", "hybrid-type-s2-fcm3", "hybrid-oracle")


@pytest.mark.parametrize("kernel", ["scalar", "vector"])
def test_bench_engine_cold_simulate_counter_configs(benchmark, wire_blobs, kernel):
    """Saturating-counter/hysteresis configs per kernel (lockstep scans)."""
    if kernel == "vector":
        pytest.importorskip("numpy")
    computed = run_once(benchmark, _cold_simulate_names, wire_blobs, _COUNTER_CONFIGS, kernel)
    assert computed == len(wire_blobs) * len(_COUNTER_CONFIGS)


@pytest.mark.parametrize("kernel", ["scalar", "vector"])
def test_bench_engine_cold_simulate_hybrid_configs(benchmark, wire_blobs, kernel):
    """Hybrid (two-level selector) configs per kernel (composed plans)."""
    if kernel == "vector":
        pytest.importorskip("numpy")
    computed = run_once(benchmark, _cold_simulate_names, wire_blobs, _HYBRID_CONFIGS, kernel)
    assert computed == len(wire_blobs) * len(_HYBRID_CONFIGS)
