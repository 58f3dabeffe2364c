"""Pins on the engine's hot path.

Library entry points with no kernel argument run the vector kernel and
never the reference loop.  Traces live as columns from the interpreter to the kernel: a campaign,
cold or warm, serial or on persistent worker processes, never decodes v3
bytes into ``TraceRecord`` objects, encodes each computed trace exactly
once (in its trace task) and ships process workers the trace phase's
own bytes.  A
serial cold campaign hands the trace task's own trace to the kernel and
decodes nothing, and Figure 10's profile builds no list columns.  The
spies count calls in a file, so calls made in forked worker processes
are counted too.
"""

from __future__ import annotations

import shutil
import sys

import pytest

import repro.simulation.campaign as campaign
from repro.core.base import ValuePredictor
from repro.core.hybrid import HybridPredictor
from repro.core.registry import available_predictors
from repro.engine import EngineConfig, ExecutionEngine
from repro.engine.codecs import decode_cache_entry
from repro.trace import io as trace_io
from repro.trace.record import TraceRecord

SCALE = 0.05
BENCHMARKS = ("compress", "m88ksim")
PREDICTORS = ("l", "s2", "fcm2")
BACKENDS = {"serial": 1, "persistent": 2}


def _count_calls(monkeypatch, ledger, module, name):
    """Wrap ``module.name`` wherever ``repro`` bound it; log each call."""
    original = getattr(module, name)

    def spy(*args, **kwargs):
        with open(ledger / name, "a") as handle:
            handle.write("x")
        return original(*args, **kwargs)

    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and (
            loaded.__dict__.get(name) is original
        ):
            monkeypatch.setattr(loaded, name, spy)


def _calls(ledger, name) -> int:
    path = ledger / name
    return len(path.read_text()) if path.exists() else 0


@pytest.fixture
def ledger(tmp_path, monkeypatch):
    """A directory counting decoder, encoder and ``TraceRecord`` calls."""
    directory = tmp_path / "ledger"
    directory.mkdir()
    for name in (
        "loads_trace_binary",
        "dumps_trace_binary",
        "decode_trace_columns",
    ):
        _count_calls(monkeypatch, directory, trace_io, name)
    original_init = TraceRecord.__init__

    def counting_init(self, *args, **kwargs):
        with open(directory / "TraceRecord", "a") as handle:
            handle.write("x")
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(TraceRecord, "__init__", counting_init)
    return directory


@pytest.fixture
def observe_calls(monkeypatch):
    """Counts ``observe`` calls, the reference loop's step, by predictor class."""
    calls: dict[str, int] = {}
    for cls in (ValuePredictor, HybridPredictor):
        original = cls.observe

        def spy(self, *args, _original=original, **kwargs):
            calls[type(self).__name__] = calls.get(type(self).__name__, 0) + 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "observe", spy)
    return calls


def test_library_entry_points_run_no_reference_loop(monkeypatch, observe_calls):
    names = tuple(available_predictors())
    monkeypatch.setattr(campaign, "_DEFAULT_CONFIG", EngineConfig())
    result = campaign.run_campaign(
        scale=SCALE, predictors=names, benchmarks=BENCHMARKS, use_cache=False
    )
    engine = ExecutionEngine()
    rerun = engine.run(scale=SCALE, predictors=names, benchmarks=BENCHMARKS)
    assert engine.stats.simulations_computed == len(names) * len(BENCHMARKS)
    assert observe_calls == {}
    assert rerun.simulations == result.simulations


def _trace_bytes_by_benchmark(cache) -> dict[str, bytes]:
    """Every cached trace entry's v3 bytes, by benchmark."""
    entries = {}
    for path in cache.entry_paths():
        if path.parent.parent.name == "trace":
            key, payload = decode_cache_entry(path.read_bytes())
            entries[key["workload"]] = payload["trace_binary"]
    return entries


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_campaign_builds_no_records_and_ships_trace_phase_bytes(
    tmp_path, ledger, dispatch_spy, backend
):
    cache_dir = tmp_path / "cache"
    config = EngineConfig(jobs=BACKENDS[backend], backend=backend, cache_dir=cache_dir)
    results = []
    # Cold, then traces cached but simulations not, then fully warm.
    for temperature in ("cold", "traces-warm", "warm"):
        if temperature == "traces-warm":
            shutil.rmtree(cache_dir / "simulate")
            shutil.rmtree(cache_dir / "merge")
        encodes_before = _calls(ledger, "dumps_trace_binary")
        with ExecutionEngine(config) as engine:
            dispatched = dispatch_spy(engine)
            result = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
            stats = engine.stats
            trace_bytes = _trace_bytes_by_benchmark(engine.cache)
        results.append(result.simulations)

        assert _calls(ledger, "loads_trace_binary") == 0, temperature
        assert _calls(ledger, "TraceRecord") == 0, temperature
        encodes = _calls(ledger, "dumps_trace_binary") - encodes_before
        assert encodes == stats.traces_computed, temperature
        # One simulate payload per trace, carrying every predictor.  A
        # cold trace's unit collects the trace itself; a cached one gets
        # the trace phase's bytes, or in-process the trace object.
        simulate_payloads = [payload for payload in dispatched if "predictors" in payload]
        expected_units = 0 if temperature == "warm" else len(BENCHMARKS)
        assert len(simulate_payloads) == expected_units, temperature
        for benchmark, payload in zip(BENCHMARKS, simulate_payloads):
            assert [name for name, _ in payload["predictors"]] == list(PREDICTORS)
            if temperature == "cold":
                assert payload["trace_task"]["benchmark"] == benchmark
                assert "trace_bytes" not in payload and "trace" not in payload
            elif backend == "serial":
                assert "trace_bytes" not in payload
            else:
                assert payload["trace_bytes"] == trace_bytes[benchmark]
    assert results[0] == results[1] == results[2]


def test_serial_cold_campaign_decodes_nothing(tmp_path, ledger):
    config = EngineConfig(jobs=1, backend="serial", cache_dir=tmp_path / "cache")
    with ExecutionEngine(config) as engine:
        result = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert engine.stats.traces_computed == len(BENCHMARKS)
    assert _calls(ledger, "decode_trace_columns") == 0
    assert _calls(ledger, "loads_trace_binary") == 0
    # The cache holds the trace phase's bytes all the same: a fresh engine
    # reads the traces back and simulates nothing new.
    with ExecutionEngine(config) as engine:
        rerun = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert engine.stats.traces_computed == 0
    assert rerun.simulations == result.simulations


def test_value_profile_builds_no_list_columns(monkeypatch):
    from repro.simulation.value_profile import value_profile
    from repro.trace.stream import ValueTrace
    from repro.workloads.suite import get_workload

    trace = get_workload("compress").trace(scale=SCALE)
    calls = []
    original = ValueTrace.record_columns

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ValueTrace, "record_columns", counting)
    value_profile(trace)
    assert calls == []
