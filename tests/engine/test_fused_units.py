"""Pins on fused cold units: a cold trace is traced, simulated and merged in one unit.

The trace phase only probes the cache; every cold trace comes back
pending and the simulate phase runs one unit per trace, whatever the
number of traces and worker slots: the worker that collects the trace
also simulates every predictor over the collected columns and, for a
campaign, merges them, so no process decodes a cold trace.  The parent
caches the trace, shard and merge entries as each unit's outcome
arrives.  Entry bytes, results and the stats line's counts are the same
on every backend.
"""

from __future__ import annotations

import io
import os
import signal
import sys
import time
from pathlib import Path

import pytest

import repro.engine.scheduler as scheduler
from repro.engine import EngineConfig, ExecutionEngine
from repro.engine.progress import ConsoleProgress
from repro.engine.sweeps import SweepSpec
from repro.engine.worker import execute_simulate_task
from repro.errors import DispatchError
from repro.simulation import vectorized
from repro.trace import io as trace_io
from repro.workloads.suite import BENCHMARK_ORDER

SCALE = 0.05
BENCHMARKS = ("compress", "m88ksim", "xlisp")
PREDICTORS = ("l", "s2", "fcm2")
BACKENDS = {"serial": 1, "pool": 2, "persistent": 2}
PROCESS_BACKENDS = ("pool", "persistent")
#: The test process: forked workers see this value and their own pid.
TEST_PID = os.getpid()
INPUT_SWEEP = SweepSpec(benchmark="gcc", scale=SCALE, inputs=("all",), predictors=("l", "fcm2"))


def _config(backend: str, cache_dir: Path) -> EngineConfig:
    return EngineConfig(jobs=BACKENDS[backend], backend=backend, cache_dir=cache_dir)


def _tree(cache_dir: Path) -> dict[str, bytes]:
    files = sorted(path for path in cache_dir.rglob("*") if path.is_file())
    return {str(path.relative_to(cache_dir)): path.read_bytes() for path in files}


def _kinds(cache_dir: Path) -> dict[str, int]:
    return {
        kind: len(list((cache_dir / kind).rglob("*.rvpc")))
        for kind in ("trace", "simulate", "merge")
    }


@pytest.fixture
def decodes(tmp_path, monkeypatch):
    """A file counting ``decode_trace_columns`` calls in this process and
    in every worker forked from it."""
    ledger = tmp_path / "decodes"
    ledger.write_text("")
    original = trace_io.decode_trace_columns

    def spy(data):
        with open(ledger, "a") as handle:
            handle.write("x")
        return original(data)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            module.__dict__.get("decode_trace_columns") is original
        ):
            monkeypatch.setattr(module, "decode_trace_columns", spy)
    return lambda: len(ledger.read_text())


@pytest.mark.parametrize("backend", PROCESS_BACKENDS)
class TestNoDecode:
    def test_cold_campaign_of_every_benchmark(self, tmp_path, decodes, backend):
        with ExecutionEngine(_config(backend, tmp_path / "cache")) as engine:
            engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARK_ORDER)
            stats = engine.stats
        assert decodes() == 0
        assert (stats.traces_computed, stats.traces_cached) == (len(BENCHMARK_ORDER), 0)
        computed = len(BENCHMARK_ORDER) * len(PREDICTORS)
        assert (stats.simulations_computed, stats.simulations_cached) == (computed, 0)
        assert _kinds(tmp_path / "cache") == {
            "trace": len(BENCHMARK_ORDER),
            "simulate": computed,
            "merge": len(BENCHMARK_ORDER),
        }

    def test_cold_multi_input_sweep(self, tmp_path, decodes, backend):
        with ExecutionEngine(_config(backend, tmp_path / "cache")) as engine:
            result = engine.run_sweep(INPUT_SWEEP)
        assert decodes() == 0
        inputs = len({point.point.input_name for point in result.points})
        assert inputs > BACKENDS[backend]
        assert engine.stats.traces_computed == inputs
        assert _kinds(tmp_path / "cache") == {"trace": inputs, "simulate": 2 * inputs, "merge": 0}


@pytest.fixture
def trace_phase_calls(monkeypatch):
    """Every ``execute_trace_task`` call the scheduler makes (a trace
    repair runs it; the trace phase never does)."""
    calls: list[dict] = []
    original = scheduler.execute_trace_task

    def spy(payload):
        calls.append(payload)
        return original(payload)

    monkeypatch.setattr(scheduler, "execute_trace_task", spy)
    return calls


@pytest.mark.parametrize("benchmarks", [("gcc",), BENCHMARKS], ids=["1-benchmark", "3-benchmark"])
@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestTracePhaseDispatchesNothing:
    def test_cold_campaign(self, tmp_path, trace_phase_calls, dispatch_spy, backend, benchmarks):
        with ExecutionEngine(_config(backend, tmp_path / "cache")) as engine:
            dispatched = dispatch_spy(engine)
            engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=benchmarks)
        assert trace_phase_calls == []
        # One fused unit per benchmark, even with fewer benchmarks than slots.
        assert [payload["trace_task"]["benchmark"] for payload in dispatched] == list(benchmarks)
        assert [len(payload["predictors"]) for payload in dispatched] == [len(PREDICTORS)] * len(benchmarks)

    def test_cold_sweep(self, tmp_path, trace_phase_calls, dispatch_spy, backend, benchmarks):
        spec = SweepSpec(benchmarks=benchmarks, scale=SCALE, predictors=("l", "fcm2"))
        with ExecutionEngine(_config(backend, tmp_path / "cache")) as engine:
            dispatched = dispatch_spy(engine)
            engine.run_sweep(spec)
        assert trace_phase_calls == []
        assert [payload["trace_task"]["benchmark"] for payload in dispatched] == list(benchmarks)


class TestBackendParity:
    """Every backend leaves the same cache tree."""

    @staticmethod
    def _trees(tmp_path, run) -> dict[str, dict[str, bytes]]:
        trees = {}
        for backend in BACKENDS:
            cache_dir = tmp_path / backend
            with ExecutionEngine(_config(backend, cache_dir)) as engine:
                run(engine)
            trees[backend] = _tree(cache_dir)
        return trees

    def test_fused_campaign(self, tmp_path):
        trees = self._trees(
            tmp_path,
            lambda engine: engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS),
        )
        assert trees["serial"] == trees["pool"] == trees["persistent"]
        assert len(trees["serial"]) == len(BENCHMARKS) * (2 + len(PREDICTORS))

    def test_fused_sweep(self, tmp_path):
        trees = self._trees(tmp_path, lambda engine: engine.run_sweep(INPUT_SWEEP))
        assert trees["serial"] == trees["pool"] == trees["persistent"]

    def test_one_benchmark_run(self, tmp_path, dispatch_spy):
        payloads = {}

        def run(engine):
            payloads[engine.backend.name] = dispatch_spy(engine)
            engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=("compress",))

        trees = self._trees(tmp_path, run)
        assert trees["serial"] == trees["pool"] == trees["persistent"]
        # One cold trace on two slots is one unit that traces, simulates
        # and merges it.
        for backend in BACKENDS:
            (fused,) = payloads[backend]
            assert fused["trace_task"]["benchmark"] == "compress"
            assert fused["merge"] == list(PREDICTORS)


def _simulate_dying_late_on_xlisp(payload: dict) -> dict:
    """Kill the worker running xlisp's fused unit, once the others returned."""
    if payload.get("trace_task", {}).get("benchmark") == "xlisp":
        # A unit run in-process must not kill the test runner.
        assert os.getpid() != TEST_PID, "a self-killing unit ran in the test process"
        time.sleep(1.0)
        os.kill(os.getpid(), signal.SIGKILL)
    return execute_simulate_task(payload)


@pytest.mark.parametrize("backend", PROCESS_BACKENDS)
def test_worker_death_keeps_every_finished_benchmark(tmp_path, monkeypatch, backend):
    cache_dir = tmp_path / "cache"
    monkeypatch.setattr(scheduler, "execute_simulate_task", _simulate_dying_late_on_xlisp)
    with ExecutionEngine(_config(backend, cache_dir)) as engine:
        with pytest.raises(DispatchError) as error:
            engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
    message = str(error.value)
    assert message.startswith(
        f"simulate phase failed to dispatch {len(BENCHMARKS) * len(PREDICTORS)} pending task(s) "
        f"in {len(BENCHMARKS)} unit(s) on the {backend!r} backend"
    )
    assert "worker process died" in message
    # The two benchmarks whose units returned are cached whole.
    finished = len(BENCHMARKS) - 1
    assert _kinds(cache_dir) == {
        "trace": finished,
        "simulate": finished * len(PREDICTORS),
        "merge": finished,
    }
    monkeypatch.undo()

    with ExecutionEngine(_config(backend, cache_dir)) as engine:
        rerun = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        stats = engine.stats
    assert (stats.traces_computed, stats.traces_cached) == (1, finished)
    assert stats.simulations_computed == len(PREDICTORS)
    assert stats.simulations_cached == finished * len(PREDICTORS)
    with ExecutionEngine(_config("serial", tmp_path / "reference")) as engine:
        reference = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
    assert rerun.simulations == reference.simulations
    assert _tree(cache_dir) == _tree(tmp_path / "reference")


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_truncated_traces_with_surviving_simulate_entries(tmp_path, backend):
    cache_dir = tmp_path / "cache"
    with ExecutionEngine(_config(backend, cache_dir)) as engine:
        cold = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
    before = _tree(cache_dir)
    for path in (cache_dir / "trace").rglob("*.rvpc"):
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])

    with ExecutionEngine(_config(backend, cache_dir)) as engine:
        rerun = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        stats = engine.stats
    # A missed trace cannot probe its simulate entries: its unit simulates
    # (and counts) every predictor again and rewrites the same bytes.
    assert (stats.traces_computed, stats.traces_cached) == (len(BENCHMARKS), 0)
    assert stats.simulations_computed == len(BENCHMARKS) * len(PREDICTORS)
    assert rerun.simulations == cold.simulations
    assert {name: rerun.statistics[name] for name in BENCHMARKS} == cold.statistics
    assert _tree(cache_dir) == before


class TestKernelStateReleased:
    def test_serial_units_leave_no_kernel_state(self, tmp_path):
        config = _config("serial", tmp_path / "cache")
        for temperature in ("cold", "traces-warm"):
            if temperature == "traces-warm":
                for kind in ("simulate", "merge"):
                    for path in (tmp_path / "cache" / kind).rglob("*.rvpc"):
                        path.unlink()
            with ExecutionEngine(config) as engine:
                result = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
                assert engine.stats.simulations_computed == len(BENCHMARKS) * len(PREDICTORS)
            # The campaign still holds its traces; the kernel holds nothing.
            assert vectorized._current_trace is None, temperature
            assert len(result.traces) == len(BENCHMARKS)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_fused_time_is_split_between_trace_and_simulate(tmp_path, backend):
    with ExecutionEngine(_config(backend, tmp_path / "cache")) as engine:
        engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        stats = engine.stats
    # The units traced inside the simulate phase: each phase is credited
    # with its share of that phase's wall time, and neither reads zero.
    assert stats.trace_seconds > 0 and stats.simulate_seconds > 0
    assert stats.trace_seconds + stats.simulate_seconds <= stats.total_seconds


def test_console_progress_counts_each_phase_on_its_own(tmp_path):
    # Fused units finish their trace task inside the simulate phase, so
    # the two phases' events interleave; each keeps its own count.
    stream = io.StringIO()
    with ExecutionEngine(
        _config("serial", tmp_path / "cache"), progress=ConsoleProgress(stream)
    ) as engine:
        engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
    lines = stream.getvalue().splitlines()
    assert lines[:2] == [
        f"[trace] {len(BENCHMARKS)} task(s), 0 cached, {len(BENCHMARKS)} to run",
        f"[simulate] {len(BENCHMARKS) * len(PREDICTORS)} task(s), 0 cached, "
        f"{len(BENCHMARKS) * len(PREDICTORS)} to run",
    ]
    total = len(BENCHMARKS) * len(PREDICTORS)
    expected = []
    for index, benchmark in enumerate(BENCHMARKS):
        expected.append(f"[trace] {index + 1}/{len(BENCHMARKS)} {benchmark} (computed)")
        for offset, predictor in enumerate(PREDICTORS, start=index * len(PREDICTORS) + 1):
            expected.append(f"[simulate] {offset}/{total} {benchmark}:{predictor} (computed)")
    assert lines[2:-1] == expected
    assert lines[-1].startswith(f"[done] traces {len(BENCHMARKS)} computed / 0 cached")
