"""Telemetry suite: sink semantics, instrumented runs, and the on/off invariant.

The telemetry contract has one load-bearing clause: results and cache
entries are **byte-identical** with telemetry on or off — the observability
sidecar workers attach to their outcomes is stripped before anything is
decoded or cached, and the sinks only observe.  On top of that invariant
this file pins the JSONL record schema round-trip, manifest contents, the
span parent chain, and the recorded-run summary ``repro-vp inspect``
renders, including the per-task worker pid and worker-side seconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.engine import EngineConfig, ExecutionEngine
from repro.engine.sweeps import SweepSpec
from repro.engine.telemetry import (
    NULL_TELEMETRY,
    TELEMETRY_KEY,
    NullTelemetry,
    RunTelemetry,
    read_manifest,
    read_metrics,
    summarize_run,
)
from repro.engine.worker import execute_simulate_task, execute_trace_task

SCALE = 0.05
BENCHMARKS = ("compress", "m88ksim")
PREDICTORS = ("l", "fcm2")


def _entry_bytes(cache_dir):
    """Relative path -> raw bytes of every entry in a cache directory."""
    return {
        str(path.relative_to(cache_dir)): path.read_bytes()
        for path in cache_dir.glob("*/*/*")
        if path.is_file()
    }


def _campaign(tmp_path, name, telemetry=None, backend="serial"):
    cache_dir = tmp_path / f"cache-{name}"
    with ExecutionEngine(
        EngineConfig(jobs=2, cache_dir=cache_dir, backend=backend),
        telemetry=telemetry,
    ) as engine:
        result = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
    return result, cache_dir, engine.stats


class TestNullTelemetry:
    def test_every_operation_is_inert(self):
        sink = NullTelemetry()
        assert not sink.enabled
        assert sink.run_id is None
        with sink.span("phase", phase="trace") as span:
            span.set(total=3)
        sink.span_record("task", 0.25, label="gcc")
        sink.event("cache.gc", removed=1)
        sink.count("cache.hit")
        sink.annotate(backend="serial")
        sink.close()

    def test_span_is_shared_singleton(self):
        assert NULL_TELEMETRY.span("a") is NULL_TELEMETRY.span("b")


class TestRunTelemetry:
    def test_jsonl_schema_round_trip(self, tmp_path):
        with RunTelemetry(tmp_path, run_id="run-1", argv=["x"], command="test") as sink:
            with sink.span("run", kind="campaign") as run_span:
                with sink.span("phase", phase="trace") as phase_span:
                    phase_span.set(total=2)
                    sink.span_record("task", 0.5, label="gcc")
                run_span.set(tasks_computed=2)
            sink.event("cache.gc", removed=1)
            sink.count("cache.hit", 3)
            sink.count("cache.hit")
        records = list(read_metrics(tmp_path))
        by_type = {}
        for record in records:
            assert record["run"] == "run-1"
            by_type.setdefault(record["type"], []).append(record)
        spans = {record["name"]: record for record in by_type["span"]}
        assert spans["run"]["parent"] is None
        assert spans["phase"]["parent"] == spans["run"]["id"]
        assert spans["task"]["parent"] == spans["phase"]["id"]
        assert spans["task"]["dt"] == 0.5
        assert spans["phase"]["attrs"]["total"] == 2
        assert spans["run"]["attrs"]["tasks_computed"] == 2
        for span in spans.values():
            assert span["dt"] >= 0.0 and span["t"] > 0
        (event,) = by_type["event"]
        assert event["name"] == "cache.gc" and event["attrs"] == {"removed": 1}
        (counter,) = by_type["counter"]
        assert counter["name"] == "cache.hit" and counter["value"] == 4

    def test_manifest_contents_and_annotate(self, tmp_path):
        sink = RunTelemetry(tmp_path, argv=["repro-vp", "campaign"], command="campaign")
        sink.annotate(backend="persistent", jobs=4)
        sink.close()
        manifest = read_manifest(tmp_path)
        assert manifest["command"] == "campaign"
        assert manifest["argv"] == ["repro-vp", "campaign"]
        assert manifest["run_id"] == sink.run_id
        assert manifest["backend"] == "persistent"
        assert manifest["jobs"] == 4
        for pin in ("task_format_version", "cache_entry_version"):
            assert isinstance(manifest[pin], int)
        assert "protocol_version" not in manifest
        assert manifest["finished_wall"] >= manifest["created_wall"]

    def test_concurrent_annotates_share_no_temporary_file(self, tmp_path):
        # Regression: the manifest's temporary file was named per process,
        # so threads annotating one run collided on it.
        sink = RunTelemetry(tmp_path, argv=[], command="test")
        errors = []

        def annotate_many(thread):
            for index in range(300):
                try:
                    sink.annotate(**{f"thread{thread}": index})
                except Exception as error:  # noqa: BLE001 - collected below
                    errors.append(error)

        threads = [threading.Thread(target=annotate_many, args=(n,)) for n in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        sink.close()
        assert errors == []
        manifest = read_manifest(tmp_path)
        assert [manifest[f"thread{n}"] for n in range(4)] == [299] * 4
        assert not list(tmp_path.glob("*.tmp"))

    def test_manifest_records_version_from_a_source_checkout(self, tmp_path):
        # Run from a checkout on PYTHONPATH there is no installed
        # distribution to ask; the manifest still names the version.
        source = Path(repro.__file__).resolve().parents[1]
        script = (
            "import sys\n"
            "from repro.engine.telemetry import RunTelemetry\n"
            "RunTelemetry(sys.argv[1], argv=[]).close()\n"
        )
        subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(source)},
            cwd=tmp_path,
            check=True,
            timeout=120,
        )
        assert read_manifest(tmp_path)["package_version"] == "1.0.0"

    def test_manifest_platform_spawns_no_subprocess(self, tmp_path):
        # platform.platform() forks `uname -p` on Linux for a field it then
        # drops; the manifest records the same string without the fork.
        source = Path(repro.__file__).resolve().parents[1]
        script = (
            "import json, platform, subprocess, sys\n"
            "spawned = []\n"
            "class Spy(subprocess.Popen):\n"
            "    def __init__(self, args, *rest, **kwargs):\n"
            "        spawned.append(args)\n"
            "        super().__init__(args, *rest, **kwargs)\n"
            "subprocess.Popen = Spy\n"
            "from repro.engine.telemetry import RunTelemetry\n"
            "RunTelemetry(sys.argv[1], argv=[]).close()\n"
            "manifest_spawns = len(spawned)\n"
            "print(json.dumps([manifest_spawns, platform.platform(), len(spawned)]))\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(source)},
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        manifest_spawns, expected, all_spawns = json.loads(run.stdout)
        assert manifest_spawns == 0
        assert read_manifest(tmp_path)["platform"] == expected
        if sys.platform == "linux":
            assert all_spawns > 0  # the spy sees the fork platform.platform() makes

    def test_error_escaping_span_is_stamped(self, tmp_path):
        sink = RunTelemetry(tmp_path, run_id="run-err", argv=[])
        with pytest.raises(ValueError):
            with sink.span("run"):
                raise ValueError("boom")
        sink.close()
        (span,) = [r for r in read_metrics(tmp_path) if r["type"] == "span"]
        assert span["attrs"]["error"] == "ValueError: boom"

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        sink = RunTelemetry(tmp_path, run_id="run-t", argv=[])
        sink.event("ok")
        sink.close()
        metrics = tmp_path / "metrics.jsonl"
        with open(metrics, "a", encoding="utf-8") as handle:
            handle.write('{"run": "run-t", "type": "ev')  # killed mid-write
        records = list(read_metrics(tmp_path))
        assert [record["name"] for record in records] == ["ok"]


class TestSidecar:
    def test_worker_outcomes_carry_sidecar(self):
        outcome = execute_trace_task({"benchmark": "compress", "scale": SCALE})
        sidecar = outcome[TELEMETRY_KEY]
        assert sidecar["function"] == "trace"
        assert sidecar["execute_seconds"] > 0
        assert isinstance(sidecar["pid"], int)
        (entry,) = outcome["outcomes"]
        assert TELEMETRY_KEY not in entry
        simulate = execute_simulate_task(
            {"trace_bytes": entry["trace_binary"], "predictors": [["l", None], ["s2", None]]}
        )
        # One sidecar per unit, none in its entries.
        assert simulate[TELEMETRY_KEY]["function"] == "simulate"
        assert len(simulate["outcomes"]) == 2
        assert not any(TELEMETRY_KEY in entry for entry in simulate["outcomes"])

    def test_sidecar_never_reaches_cache_entries(self, tmp_path):
        _, cache_dir, _ = _campaign(tmp_path, "probe")
        for relative, blob in _entry_bytes(cache_dir).items():
            assert TELEMETRY_KEY.encode() not in blob, relative


class TestOnOffParity:
    def test_campaign_results_and_cache_entries_identical(self, tmp_path):
        telemetry = RunTelemetry(tmp_path / "telemetry", argv=[], command="campaign")
        on, on_cache, _ = _campaign(tmp_path, "on", telemetry=telemetry)
        telemetry.close()
        off, off_cache, _ = _campaign(tmp_path, "off", telemetry=None)
        for benchmark in BENCHMARKS:
            assert on.statistics[benchmark] == off.statistics[benchmark]
            assert on.simulations[benchmark] == off.simulations[benchmark]
        assert _entry_bytes(on_cache) == _entry_bytes(off_cache)

    def test_sweep_results_and_cache_entries_identical(self, tmp_path):
        spec = SweepSpec(benchmarks=("compress", "m88ksim"), scale=SCALE, predictors=("l", "s2"))
        points = {}
        entries = {}
        for mode in ("on", "off"):
            telemetry = (
                RunTelemetry(tmp_path / "telemetry-sweep", argv=[], command="sweep")
                if mode == "on"
                else None
            )
            cache_dir = tmp_path / f"sweep-cache-{mode}"
            with ExecutionEngine(
                EngineConfig(jobs=2, cache_dir=cache_dir, backend="pool"),
                telemetry=telemetry,
            ) as engine:
                result = engine.run_sweep(spec)
            if telemetry is not None:
                telemetry.close()
                # Per-task spans carry the worker process's pid and its
                # own execute seconds, measured on the worker side: the
                # two benchmarks' simulate units go to the pool.
                tasks = summarize_run(tmp_path / "telemetry-sweep")["tasks"]
                simulate = [task for task in tasks if task["phase"] == "simulate"]
                assert len(simulate) == 2
                for task in simulate:
                    assert task["seconds"] > 0
                    assert isinstance(task["worker_pid"], int)
                    assert task["worker_pid"] != os.getpid()
            points[mode] = [
                (entry.point, entry.record_count, entry.accuracy)
                for entry in result.points
            ]
            entries[mode] = _entry_bytes(cache_dir)
        assert points["on"] == points["off"]
        assert entries["on"] == entries["off"]


class TestInstrumentedRun:
    def test_campaign_records_phases_tasks_and_cache_counters(self, tmp_path):
        telemetry = RunTelemetry(tmp_path / "telemetry", argv=[], command="campaign")
        _campaign(tmp_path, "cold", telemetry=telemetry)
        telemetry.close()
        summary = summarize_run(tmp_path / "telemetry")
        assert summary["manifest"]["backend"] == "serial"
        phase_names = [phase["phase"] for phase in summary["phases"]]
        assert phase_names == ["trace", "simulate"]
        for phase in summary["phases"]:
            assert phase["seconds"] > 0
        computed = len(BENCHMARKS) * (1 + len(PREDICTORS))
        # The trace phase only probes: its cold traces are computed by the
        # simulate phase, one task span per benchmark, whose unit traced,
        # simulated and merged it and splits its worker time by stage.
        assert summary["phases"][0]["computed"] == len(BENCHMARKS)
        assert "deferred" not in summary["phases"][0]
        assert len(summary["tasks"]) == len(BENCHMARKS)
        for task in summary["tasks"]:
            assert task["seconds"] > 0 and isinstance(task["worker_pid"], int)
            assert task["phase"] == "simulate" and task["tasks"] == len(PREDICTORS)
            stages = [task["trace_s"], task["simulate_s"], task["merge_s"]]
            assert min(stages) > 0 and sum(stages) <= task["seconds"]
        # slowest-first ordering
        seconds = [task["seconds"] for task in summary["tasks"]]
        assert seconds == sorted(seconds, reverse=True)
        assert summary["cache"]["writes"] > 0
        assert summary["cache"]["write_bytes"] > 0
        assert summary["cache"]["misses"] > 0
        (run,) = summary["runs"]
        assert run["kind"] == "campaign" and run["tasks_computed"] == computed

    def test_warm_run_records_cache_hits(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir)) as engine:
            engine.run(scale=SCALE, predictors=("l",), benchmarks=("compress",))
        telemetry = RunTelemetry(tmp_path / "telemetry", argv=[], command="campaign")
        with ExecutionEngine(
            EngineConfig(jobs=1, cache_dir=cache_dir),
            telemetry=telemetry,
        ) as engine:
            engine.run(scale=SCALE, predictors=("l",), benchmarks=("compress",))
        telemetry.close()
        assert engine.stats.cache_hit_bytes > 0
        assert engine.stats.cache_write_bytes == 0
        summary = summarize_run(tmp_path / "telemetry")
        assert summary["cache"]["hits"] > 0
        assert summary["cache"]["hit_ratio"] == 1.0
        assert summary["cache"]["hit_bytes"] == engine.stats.cache_hit_bytes

    def test_engine_stats_carry_phase_seconds(self, tmp_path):
        _, _, stats = _campaign(tmp_path, "seconds")
        assert stats.trace_seconds > 0
        assert stats.simulate_seconds > 0
        assert stats.trace_seconds + stats.simulate_seconds <= stats.total_seconds * 1.01


class TestInspectCli:
    def _record_run(self, tmp_path):
        telemetry = RunTelemetry(tmp_path / "telemetry", argv=[], command="campaign")
        _campaign(tmp_path, "inspect", telemetry=telemetry)
        telemetry.close()
        return tmp_path / "telemetry"

    def test_inspect_renders_recorded_run(self, tmp_path, capsys):
        run_dir = self._record_run(tmp_path)
        assert main(["inspect", str(run_dir)]) == 0
        output = capsys.readouterr().out
        assert "Phases" in output
        assert "Slowest tasks" in output
        assert "cache:" in output

    def test_inspect_json(self, tmp_path, capsys):
        run_dir = self._record_run(tmp_path)
        assert main(["inspect", str(run_dir), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["manifest"]["command"] == "campaign"
        assert summary["phases"]

    def test_inspect_missing_directory_fails_cleanly(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope")]) == 2
        assert "telemetry" in capsys.readouterr().err

    def test_campaign_cli_writes_telemetry(self, tmp_path, capsys):
        code = main(
            [
                "campaign",
                "--scale",
                str(SCALE),
                "--predictors",
                "l",
                "--benchmarks",
                "compress",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--telemetry-dir",
                str(tmp_path / "telemetry"),
            ]
        )
        assert code == 0
        manifest = read_manifest(tmp_path / "telemetry")
        assert manifest["command"] == "campaign"
        assert manifest["backend"] == "serial"
        assert (tmp_path / "telemetry" / "metrics.jsonl").stat().st_size > 0
        capsys.readouterr()
        assert main(["inspect", str(tmp_path / "telemetry")]) == 0

    def test_campaign_manifest_records_whole_engine_config(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        code = main(
            [
                "campaign",
                "--scale",
                str(SCALE),
                "--predictors",
                "l",
                "--benchmarks",
                "compress",
                "--cache-max-bytes",
                "10MB",
                "--cache-dir",
                str(cache_dir),
                "--cache-max-age",
                "7d",
                "--telemetry-dir",
                str(tmp_path / "telemetry"),
            ]
        )
        assert code == 0
        capsys.readouterr()
        manifest = read_manifest(tmp_path / "telemetry")
        recorded = {
            field: manifest[field]
            for field in (
                "jobs",
                "cache_dir",
                "use_cache",
                "cache_max_bytes",
                "cache_max_age",
                "backend",
            )
        }
        assert recorded == {
            "jobs": 1,
            "cache_dir": str(cache_dir),
            "use_cache": True,
            "cache_max_bytes": 10 * 1024**2,
            "cache_max_age": 7 * 86400.0,
            "backend": "serial",
        }
        assert "kernel" not in manifest
        assert "resolved_kernel" not in manifest
        assert "shard_window" not in manifest
        assert "workers" not in manifest
