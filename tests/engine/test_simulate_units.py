"""Pins on the simulate phase's dispatch shape: one unit per trace.

A simulate unit is one trace plus the predictors whose ``(trace digest,
predictor)`` entries missed, under every backend: the worker gets the
trace once and runs the predictors back to back, in campaign order,
however few units a dispatch has beside the backend's worker slots.
Cache entries, stats and results stay per (trace, predictor).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.engine import EngineConfig, ExecutionEngine
from repro.engine import worker as worker_module
from repro.engine.fingerprint import predictor_signature, trace_digest
from repro.engine.tasks import SimulateTask
from repro.trace.io import decode_trace

SCALE = 0.05
BENCHMARKS = ("compress", "m88ksim", "xlisp")
PREDICTORS = ("l", "s2", "fcm2", "fcm1")
BACKENDS = {"serial": 1, "pool": 2, "persistent": 2}


def _simulate_payloads(dispatched: list[dict]) -> list[dict]:
    return [payload for payload in dispatched if "predictors" in payload]


def _names(payload: dict) -> list[str]:
    return [name for name, _ in payload["predictors"]]


def _payload_digest(payload: dict) -> str:
    trace = payload["trace"] if "trace" in payload else decode_trace(payload["trace_bytes"])
    return trace_digest(trace)


def _config(backend: str, cache_dir: Path) -> EngineConfig:
    return EngineConfig(jobs=BACKENDS[backend], backend=backend, cache_dir=cache_dir)


def _delete_simulate_entries(engine, result, deleted: dict[str, tuple[str, ...]]) -> None:
    """Delete the named simulate entries and every merge entry."""
    for benchmark, predictors in deleted.items():
        digest = trace_digest(result.traces[benchmark])
        for predictor in predictors:
            task = SimulateTask(predictor, digest, predictor_signature(predictor))
            engine.cache.path_for("simulate", task.cache_key()).unlink()
    for path in list(engine.cache.entry_paths()):
        if path.parent.parent.name == "merge":
            path.unlink()


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestOnePayloadPerTrace:
    def test_cold_campaign_dispatches_one_payload_per_trace(self, tmp_path, dispatch_spy, backend):
        with ExecutionEngine(_config(backend, tmp_path / "cache")) as engine:
            dispatched = dispatch_spy(engine)
            engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        # As many cold traces as slots: each benchmark is one unit that
        # traces, simulates and merges it, and nothing else is dispatched.
        payloads = _simulate_payloads(dispatched)
        assert payloads == dispatched
        assert [_names(payload) for payload in payloads] == [list(PREDICTORS)] * len(BENCHMARKS)
        assert [payload["trace_task"]["benchmark"] for payload in payloads] == list(BENCHMARKS)
        for payload in payloads:
            assert payload["merge"] == list(PREDICTORS)
            assert "trace" not in payload and "trace_bytes" not in payload
            assert "shards" not in payload
            # Only an in-process unit hands live objects (the trace's
            # tallies, the merged result) back.
            assert payload.get("inline", False) == (backend == "serial")
        # Accounting stays per cache entry.
        entries = len(BENCHMARKS) * len(PREDICTORS)
        assert engine.stats.traces_computed == len(BENCHMARKS)
        assert engine.stats.simulations_computed == entries
        assert len(list((tmp_path / "cache" / "simulate").rglob("*.rvpc"))) == entries

    def test_payloads_carry_only_the_missing_predictors(self, tmp_path, dispatch_spy, backend):
        config = _config(backend, tmp_path / "cache")
        with ExecutionEngine(config) as cold:
            cold_result = cold.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        deleted = {"compress": ("fcm1", "s2"), "m88ksim": (), "xlisp": ("l",)}
        _delete_simulate_entries(cold, cold_result, deleted)

        with ExecutionEngine(config) as engine:
            dispatched = dispatch_spy(engine)
            result = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        payloads = _simulate_payloads(dispatched)
        # Campaign order within a unit, whatever order the entries went in.
        assert [_names(payload) for payload in payloads] == [["s2", "fcm1"], ["l"]]
        assert [_payload_digest(payload) for payload in payloads] == [
            trace_digest(result.traces[benchmark]) for benchmark in ("compress", "xlisp")
        ]
        assert engine.stats.simulations_computed == 3
        assert engine.stats.simulations_cached == len(BENCHMARKS) * len(PREDICTORS) - 3
        assert result.simulations == cold_result.simulations


@pytest.mark.parametrize("backend", ["pool", "persistent"])
class TestOneTraceOnTwoWorkers:
    def test_cold_run_dispatches_one_unit(self, tmp_path, dispatch_spy, backend):
        with ExecutionEngine(_config(backend, tmp_path / "cache")) as engine:
            dispatched = dispatch_spy(engine)
            engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=("compress",))
        (payload,) = _simulate_payloads(dispatched)
        assert _names(payload) == list(PREDICTORS)
        assert payload["trace_task"]["benchmark"] == "compress"

    def test_missing_predictors_ride_in_one_unit(self, tmp_path, dispatch_spy, backend):
        config = _config(backend, tmp_path / "cache")
        with ExecutionEngine(config) as cold:
            cold_result = cold.run(scale=SCALE, predictors=PREDICTORS, benchmarks=("compress",))
        _delete_simulate_entries(cold, cold_result, {"compress": ("fcm1", "s2", "l")})

        with ExecutionEngine(config) as engine:
            dispatched = dispatch_spy(engine)
            result = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=("compress",))
        (payload,) = _simulate_payloads(dispatched)
        assert _names(payload) == ["l", "s2", "fcm1"]
        assert _payload_digest(payload) == trace_digest(result.traces["compress"])
        # The unit merges the trace, with the one shard that was a hit.
        assert payload["merge"] == list(PREDICTORS)
        assert list(payload["shards"]) == ["fcm2"]
        assert result.simulations == cold_result.simulations


def test_workers_decode_each_trace_once(tmp_path, monkeypatch):
    # Forked workers inherit the spy, which logs to a file per call.
    log = tmp_path / "decodes"
    log.write_text("")
    original = worker_module.decode_trace

    def spy(data):
        with open(log, "a") as handle:
            handle.write("x")
        return original(data)

    monkeypatch.setattr(worker_module, "decode_trace", spy)
    config = _config("persistent", tmp_path / "cache")
    with ExecutionEngine(config) as engine:
        cold = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
    # A cold unit simulates the columns it collected.
    assert log.read_text() == ""
    _delete_simulate_entries(engine, cold, {benchmark: PREDICTORS for benchmark in BENCHMARKS})
    with ExecutionEngine(config) as engine:
        engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
    assert len(log.read_text()) == len(BENCHMARKS)


def _tree(cache_dir: Path) -> dict[str, bytes]:
    files = sorted(path for path in cache_dir.rglob("*") if path.is_file())
    return {str(path.relative_to(cache_dir)): path.read_bytes() for path in files}


def test_two_concurrent_campaigns_share_one_cache_directory(tmp_path):
    # Two CLI processes start together on one empty cache directory and
    # race on every trace, simulate and merge entry they both write.
    source = Path(repro.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(source)}
    shared = tmp_path / "shared"

    def argv(cache_dir: Path) -> list[str]:
        return [
            sys.executable,
            "-m",
            "repro",
            "campaign",
            "--scale",
            str(SCALE),
            "--benchmarks",
            "compress",
            "m88ksim",
            "--cache-dir",
            str(cache_dir),
        ]

    racers = [
        subprocess.Popen(
            argv(shared),
            env=env,
            cwd=tmp_path,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    try:
        outputs = [racer.communicate(timeout=120) for racer in racers]
    finally:
        for racer in racers:
            racer.kill()
    for racer, (_, stderr) in zip(racers, outputs):
        assert racer.returncode == 0, stderr
    assert outputs[0][0].splitlines()[:-1] == outputs[1][0].splitlines()[:-1]

    serial = tmp_path / "serial"
    subprocess.run(argv(serial), env=env, cwd=tmp_path, check=True, capture_output=True, timeout=120)
    assert _tree(shared) == _tree(serial)
