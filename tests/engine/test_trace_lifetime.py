"""Pins on how long the engine holds a decoded trace.

Each benchmark's trace feeds its predictors once, so the engine holds at
most one decoded trace at a time: payloads are built as their units are
dispatched, the engine's own reads of a trace decode it for that one use,
and an in-process unit that collects a trace hands back its Figure 10
tallies, not the trace, when its campaign serves them.  A campaign whose trace-hit units cover all of
their trace's predictors merges inside those units, so the parent runs no
merge, and it decodes each trace-hit trace at most once per run.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.core.registry import available_predictors
from repro.engine import EngineConfig, ExecutionEngine
from repro.engine import scheduler, worker
from repro.engine.fingerprint import predictor_signature, trace_digest
from repro.engine.sweeps import SweepSpec
from repro.engine.tasks import SimulateTask
from repro.trace import io as trace_io
from repro.workloads.suite import BENCHMARK_ORDER

SCALE = 0.05
BENCHMARKS = ("compress", "m88ksim", "xlisp")
PREDICTORS = ("l", "s2", "fcm2", "fcm1")
BACKENDS = {"serial": 1, "pool": 2, "persistent": 2}


@pytest.fixture
def live_traces(monkeypatch):
    """How many decoded traces are alive, in-process backends only.

    ``units`` holds the count at the start of each simulate unit, in
    dispatch order; ``created`` the count each time a trace is decoded or
    collected, the new one included.  Every
    :class:`~repro.trace.io.TraceColumns` is tracked by a weak reference,
    and each count is taken after a full collection.
    """
    columns: list[weakref.ref] = []
    live = SimpleNamespace(units=[], created=[])

    def alive() -> int:
        gc.collect()
        return sum(ref() is not None for ref in columns)

    original_init = trace_io.TraceColumns.__init__

    def tracking_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        columns.append(weakref.ref(self))
        live.created.append(alive())

    original_worker = scheduler.execute_simulate_task

    def counting_worker(payload):
        live.units.append(alive())
        return original_worker(payload)

    monkeypatch.setattr(trace_io.TraceColumns, "__init__", tracking_init)
    monkeypatch.setattr(scheduler, "execute_simulate_task", counting_worker)
    return live


def _serial(cache_dir: Path) -> EngineConfig:
    return EngineConfig(jobs=1, backend="serial", cache_dir=cache_dir)


def test_serial_cold_campaign_then_cold_sweep_hold_one_trace(tmp_path, live_traces):
    config = _serial(tmp_path / "cache")
    with ExecutionEngine(config) as engine:
        result = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARK_ORDER)
    # Every cold unit collected its own trace and kept none of it.
    assert live_traces.units == [0] * len(BENCHMARK_ORDER)
    # The campaign's tallies came back from its units: no decode for them.
    tallies = {benchmark: result.pc_tallies(benchmark) for benchmark in BENCHMARK_ORDER}
    assert len(live_traces.units) == len(BENCHMARK_ORDER)
    gc.collect()

    # A predictor the campaign did not run, so the campaign's gcc trace
    # (the default input) gets a unit too.
    spec = SweepSpec.input_study("gcc", predictor="fcm3", scale=SCALE)
    with ExecutionEngine(config) as engine:
        sweep = engine.run_sweep(spec)
    units = live_traces.units[len(BENCHMARK_ORDER) :]
    # The default-input gcc trace is the campaign's: a cache hit, decoded
    # for its unit alone; the other inputs are cold units.
    assert len(units) == len(spec.points())
    assert sorted(units) == [0] * (len(units) - 1) + [1]
    assert all(point.result.total == point.record_count > 0 for point in sweep.points)
    assert tallies["gcc"] == result.pc_tallies("gcc")
    # No trace was ever collected or decoded while another one lived.
    assert set(live_traces.created) == {1}


def test_trace_hit_twenty_predictor_campaign_holds_one_trace(tmp_path, live_traces):
    config = _serial(tmp_path / "cache")
    with ExecutionEngine(config) as engine:
        engine.run(scale=SCALE, predictors=("l",), benchmarks=BENCHMARK_ORDER)
    # The 20 built-in predictors, plus any a test registered before.
    predictors = tuple(available_predictors())
    assert len(predictors) >= 20
    with ExecutionEngine(config) as engine:
        engine.run(scale=SCALE, predictors=predictors, benchmarks=BENCHMARK_ORDER)
        assert engine.stats.traces_cached == len(BENCHMARK_ORDER)
    # One unit per trace after the cold run's seven; each starts with its
    # own trace and nothing else.
    assert live_traces.units[len(BENCHMARK_ORDER) :] == [1] * len(BENCHMARK_ORDER)
    assert set(live_traces.created) == {1}


def _tree(cache_dir: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(cache_dir)): path.read_bytes()
        for path in sorted(cache_dir.rglob("*"))
        if path.is_file()
    }


@pytest.fixture
def parent_merges(monkeypatch):
    """Counts ``merge_shards`` calls the scheduler makes in the parent."""
    calls: list[str] = []
    original = scheduler.merge_shards

    def spy(trace, shards):
        calls.append(trace.name)
        return original(trace, shards)

    monkeypatch.setattr(scheduler, "merge_shards", spy)
    return calls


@pytest.fixture
def parent_decodes(monkeypatch):
    """The v3 bytes of every trace decoded in this process (not in forked workers)."""
    calls: list[bytes] = []
    original = trace_io.decode_trace_columns

    def spy(data):
        calls.append(data)
        return original(data)

    monkeypatch.setattr(trace_io, "decode_trace_columns", spy)
    return calls


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_trace_hit_units_merge_in_the_unit(tmp_path, backend, parent_merges, parent_decodes):
    cache_dir = tmp_path / "cache"
    config = EngineConfig(jobs=BACKENDS[backend], backend=backend, cache_dir=cache_dir)
    with ExecutionEngine(config) as cold:
        cold_result = cold.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        digests = {benchmark: trace_digest(cold_result.traces[benchmark]) for benchmark in BENCHMARKS}
    expected = _tree(cache_dir)
    # Keep one predictor's shard per trace as a cache hit, drop the rest
    # of the shards and every merge entry.
    for digest in digests.values():
        for predictor in PREDICTORS[:2] + PREDICTORS[3:]:
            task = SimulateTask(predictor, digest, predictor_signature(predictor))
            cold.cache.path_for("simulate", task.cache_key()).unlink()
    for path in (cache_dir / "merge").rglob("*.rvpc"):
        path.unlink()
    parent_merges.clear()
    parent_decodes.clear()

    with ExecutionEngine(config) as engine:
        result = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        stats = engine.stats
    assert parent_merges == []
    assert (stats.simulations_computed, stats.simulations_cached) == (9, 3)
    assert result.simulations == cold_result.simulations
    assert _tree(cache_dir) == expected
    # The parent decoded each trace at most once: for the in-process
    # unit's payload, or to check the cached body before shipping it.
    assert max(Counter(parent_decodes).values()) == 1
    assert len(parent_decodes) == len(BENCHMARKS)


def test_split_trace_is_merged_in_the_parent(tmp_path, parent_merges):
    config = EngineConfig(jobs=2, backend="persistent", cache_dir=tmp_path / "cache")
    with ExecutionEngine(config) as cold:
        cold_result = cold.run(scale=SCALE, predictors=("l",), benchmarks=("compress",))
    with ExecutionEngine(config) as engine:
        result = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=("compress",))
    # One trace on two workers: its predictors went to two units.
    assert parent_merges == [cold_result.traces["compress"].name]
    assert result.simulations["compress"].predictor_names == PREDICTORS


@pytest.fixture
def unit_tallies(monkeypatch):
    """The traces a simulate unit tallied for Figure 10, by name."""
    calls: list[str] = []
    original = worker.pc_tallies

    def spy(trace):
        calls.append(trace.name)
        return original(trace)

    monkeypatch.setattr(worker, "pc_tallies", spy)
    return calls


def test_only_campaigns_that_serve_tallies_tally_in_their_units(tmp_path, unit_tallies, capsys):
    # The campaign command prints accuracies only: its units tally nothing.
    args = ["--scale", str(SCALE), "--benchmarks", *BENCHMARKS, "--predictors", *PREDICTORS]
    assert main(["campaign", *args, "--cache-dir", str(tmp_path / "cli")]) == 0
    assert unit_tallies == []
    capsys.readouterr()

    # An API campaign serves Figure 10's tallies from the units that
    # collected its traces, each tallied once; a campaign run without
    # them tallies a trace only when its tallies are read.
    with ExecutionEngine(_serial(tmp_path / "api")) as engine:
        served = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
    assert len(unit_tallies) == len(BENCHMARKS)
    with ExecutionEngine(_serial(tmp_path / "bare")) as engine:
        bare = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS, tallies=False)
    assert len(unit_tallies) == len(BENCHMARKS)
    for benchmark in BENCHMARKS:
        assert bare.pc_tallies(benchmark) == served.pc_tallies(benchmark)
