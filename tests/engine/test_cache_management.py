"""Tests for binary cache entries and the cache-management layer."""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine import EngineConfig, ExecutionEngine
from repro.engine.cache import ResultCache
from repro.engine.codecs import decode_cache_entry, encode_cache_entry, payload_trace
from repro.engine.sweeps import SweepSpec
from repro.engine.tasks import TraceTask
from repro.engine.telemetry import RunTelemetry
from repro.trace.io import dumps_trace, dumps_trace_binary
from repro.trace.synthetic import trace_from_values

SCALE = 0.05
BENCHMARKS = ("compress",)
PREDICTORS = ("l", "s2")


def _age(path, seconds):
    """Backdate an entry's mtime, as if it had been idle for ``seconds``."""
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


class TestCacheEntryEnvelope:
    def test_round_trip_plain_payload(self):
        key = {"kind": "simulate", "trace": "abc", "predictor": "l"}
        payload = {"shard": {"correctness": "ff00", "record_count": 16}}
        for compress in (False, True):
            blob = encode_cache_entry(key, payload, compress=compress)
            restored_key, restored_payload = decode_cache_entry(blob)
            assert restored_key == key
            assert restored_payload == payload

    def test_round_trip_trace_payload_is_bit_identical(self):
        trace = trace_from_values([3, 1, 4, 1, 5] * 20, name="envelope test")
        trace.set_total_dynamic_instructions(250)
        payload = {
            "trace_binary": dumps_trace_binary(trace, compress=True),
            "digest": "0" * 64,
            "statistics": {"predicted": 100},
        }
        _, restored = decode_cache_entry(encode_cache_entry({"kind": "trace"}, payload))
        # The v3 bytes come back exactly as stored, still undecoded, and
        # decode to the original trace.
        assert restored == payload
        assert dumps_trace(payload_trace(restored)) == dumps_trace(trace)

    def test_reencoding_a_decoded_payload_round_trips(self):
        trace = trace_from_values([9, 8, 7], name="re-encode")
        payload = {"trace_binary": dumps_trace_binary(trace)}
        _, decoded = decode_cache_entry(encode_cache_entry({"k": 1}, payload))
        _, again = decode_cache_entry(encode_cache_entry({"k": 1}, decoded))
        assert again == payload

    def test_key_stays_greppable(self):
        blob = encode_cache_entry({"workload": "compress-grep-me"}, {"x": 1})
        assert b"compress-grep-me" in blob

    def test_trace_payload_shrinks(self):
        trace = trace_from_values(list(range(500)), name="size")
        payload = {"trace_binary": dumps_trace_binary(trace)}
        binary = encode_cache_entry({"kind": "trace"}, payload)
        assert len(binary) < len(dumps_trace(trace).encode("utf-8")) // 4

    @pytest.mark.parametrize("keep", [3, 12, 40])
    def test_truncated_envelope_rejected(self, keep):
        blob = encode_cache_entry({"kind": "x"}, {"p": list(range(50))})
        with pytest.raises(ValueError):
            decode_cache_entry(blob[:keep])

    def test_truncation_mid_varint_raises_value_error(self):
        # The corruption contract is ValueError even where the underlying
        # varint reader signals truncation with TraceError.
        from repro.engine.codecs import CACHE_ENTRY_MAGIC

        with pytest.raises(ValueError):
            decode_cache_entry(CACHE_ENTRY_MAGIC + b"\xff")


class TestCacheStorage:
    KEY = {"kind": "trace", "workload": "w"}

    def _trace_payload(self):
        trace = trace_from_values([1, 2, 3] * 30, name="fmt")
        return {"trace_binary": dumps_trace_binary(trace), "statistics": {"n": 90}}

    def test_binary_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = self._trace_payload()
        assert cache.put("trace", self.KEY, payload).suffix == ".rvpc"
        assert cache.get("trace", self.KEY) == payload

    def test_json_entry_is_never_read(self, tmp_path):
        # A plain-JSON entry an older version wrote under the same digest
        # is a miss; the .rvpc written next to it leaves it in place for
        # `cache verify --remove` to delete.
        cache = ResultCache(tmp_path)
        payload = self._trace_payload()
        rvpc = cache.path_for("trace", self.KEY)
        legacy = rvpc.with_suffix(".json")
        legacy.parent.mkdir(parents=True)
        legacy.write_text(json.dumps({"key": self.KEY, "payload": {"statistics": {"n": 90}}}))
        assert cache.get("trace", self.KEY) is None
        assert cache.put("trace", self.KEY, payload) == rvpc
        assert legacy.exists()
        assert cache.get("trace", self.KEY) == payload
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.verify(remove=True).corrupt == [legacy]
        assert list(cache.entry_paths()) == [rvpc]

    def test_hit_counts_the_bytes_it_read(self, tmp_path, monkeypatch):
        # The count is the length of what the read returned; no stat
        # follows it, so a concurrent replace cannot change the figure.
        cache = ResultCache(tmp_path)
        path = cache.put("trace", self.KEY, self._trace_payload())
        size = len(path.read_bytes())

        def no_stat(self, *args, **kwargs):
            raise AssertionError("a hit must not stat its entry")

        monkeypatch.setattr(Path, "stat", no_stat)
        assert cache.get("trace", self.KEY) is not None
        assert cache.get("trace", self.KEY) is not None
        assert cache.hit_bytes == 2 * size

    def test_corrupt_binary_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("trace", self.KEY, self._trace_payload())
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cache.get("trace", self.KEY) is None
        assert cache.misses == 1

    def test_entry_count_sees_binary_entries(self, tmp_path):
        # Regression: enumeration used to glob only ``*/*/*.json``.  It
        # lists every entry file — a ``.json`` entry left by an older
        # version included — so stats and GC account for all of them.
        cache = ResultCache(tmp_path)
        cache.put("trace", self.KEY, self._trace_payload())
        legacy = tmp_path / "simulate" / "00" / f"{'0' * 64}.json"
        legacy.parent.mkdir(parents=True)
        legacy.write_text('{"key": {}, "payload": {}}')
        assert cache.entry_count() == 2
        stats = cache.stats()
        assert stats.entries == 2
        assert set(stats.kinds) == {"trace", "simulate"}
        assert stats.bytes == sum(path.stat().st_size for path in cache.entry_paths())

    def test_concurrent_puts_of_one_key_in_one_process(self, tmp_path):
        # Regression: the temporary file was named per process, so threads
        # putting one key shared it and one thread's rename could take the
        # file away from under another (126 FileNotFoundErrors of 1,200).
        cache = ResultCache(tmp_path)
        payload = self._trace_payload()
        errors = []

        def put_many():
            for _ in range(300):
                try:
                    cache.put("trace", self.KEY, payload)
                except Exception as error:  # noqa: BLE001 - collected below
                    errors.append(error)

        threads = [threading.Thread(target=put_many) for _ in range(4)]
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
        assert errors == []
        assert cache.get("trace", self.KEY) == payload
        assert [path.name for path in cache.path_for("trace", self.KEY).parent.iterdir()] == [
            cache.path_for("trace", self.KEY).name
        ]

    def test_failed_put_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        path = cache.path_for("trace", self.KEY)

        def fail(source, target):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            cache.put("trace", self.KEY, self._trace_payload())
        assert list(path.parent.iterdir()) == []

    def test_put_counts_the_bytes_it_wrote(self, tmp_path, monkeypatch):
        # The entry's size is the length of the encoded blob put wrote, so
        # it never stats the entry (and never reads another writer's file).
        cache = ResultCache(tmp_path)
        stats = []
        original = Path.stat

        def stat(path, *args, **kwargs):
            if path.suffix == ".rvpc":
                stats.append(path)
            return original(path, *args, **kwargs)

        monkeypatch.setattr(Path, "stat", stat)
        paths = [
            cache.put("trace", self.KEY, self._trace_payload()),
            cache.put("simulate", {"kind": "simulate", "predictor": "l"}, {"x": 1}),
        ]
        monkeypatch.undo()
        assert stats == []
        assert cache.write_bytes == sum(path.stat().st_size for path in paths)

    def test_tmp_files_not_counted(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("trace", self.KEY, {"x": 1})
        shard_dir = next(iter(cache.entry_paths())).parent
        (shard_dir / "orphan.json.123.tmp").write_text("partial")
        assert cache.entry_count() == 1


class TestGarbageCollection:
    def _populate(self, cache, count, kind="simulate"):
        paths = []
        for index in range(count):
            path = cache.put(kind, {"k": index}, {"blob": "x" * 200})
            paths.append(path)
        return paths

    def test_max_age_evicts_only_idle_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        paths = self._populate(cache, 4)
        _age(paths[0], 5000)
        _age(paths[1], 5000)
        report = cache.gc(max_age=3600)
        assert report.removed_entries == 2
        assert cache.entry_count() == 2
        assert all(path.exists() for path in paths[2:])

    def test_max_bytes_evicts_least_recently_used_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        paths = self._populate(cache, 4)
        for index, path in enumerate(paths):
            _age(path, 1000 - index)  # paths[0] oldest, paths[3] newest
        entry_size = paths[0].stat().st_size
        report = cache.gc(max_bytes=2 * entry_size)
        assert report.removed_entries == 2
        assert not paths[0].exists() and not paths[1].exists()
        assert paths[2].exists() and paths[3].exists()
        assert report.remaining_bytes <= 2 * entry_size

    def test_gc_respects_constructor_defaults(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=0)
        self._populate(cache, 3)
        for path in cache.entry_paths():
            _age(path, 10)
        assert cache.gc().removed_entries == 3
        assert cache.entry_count() == 0

    def test_gc_never_evicts_entries_newer_than_its_start(self, tmp_path):
        # In-flight protection: entries that land after the GC pass began
        # must survive even a zero-byte budget.
        cache = ResultCache(tmp_path)
        paths = self._populate(cache, 2)
        for path in paths:
            _age(path, 100)
        in_flight = cache.put("simulate", {"k": "new"}, {"blob": "y"})
        future = time.time() + 30
        os.utime(in_flight, (future, future))
        report = cache.gc(max_bytes=0)
        assert in_flight.exists()
        assert report.removed_entries == 2
        assert cache.entry_count() == 1

    def test_cache_hit_refreshes_lru_position(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = cache.put("simulate", {"k": 1}, {"v": "a" * 100})
        second = cache.put("simulate", {"k": 2}, {"v": "b" * 100})
        _age(first, 500)
        _age(second, 100)
        assert cache.get("simulate", {"k": 1}) is not None  # refresh the older one
        report = cache.gc(max_bytes=first.stat().st_size)
        assert report.removed_entries == 1
        assert first.exists() and not second.exists()

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._populate(cache, 3)
        assert cache.clear() == 3
        assert cache.entry_count() == 0

    def test_gc_on_missing_root_is_a_no_op(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        report = cache.gc(max_bytes=0, max_age=0)
        assert report.removed_entries == 0
        assert report.remaining_entries == 0


class TestAutoGC:
    """Bounded GC runs automatically after engine runs — but must never
    evict what the finishing run just produced or read."""

    def test_no_auto_gc_without_bounds(self, tmp_path):
        engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=tmp_path / "cache"))
        engine.run(scale=SCALE, predictors=("l",), benchmarks=("compress",))
        assert engine.last_gc is None
        assert engine.cache.entry_count() > 0

    def test_current_run_survives_budget_smaller_than_its_output(self, tmp_path):
        # Regression: with --max-bytes smaller than one run's output, the
        # post-run GC pass used to be able to evict the run's own entries
        # (they all have mtimes before the pass starts).  Stale entries
        # from previous runs must go; the current run's must all stay.
        cache_dir = tmp_path / "cache"
        stale = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
        stale.run(scale=SCALE, predictors=PREDICTORS, benchmarks=("m88ksim",))
        stale_paths = list(stale.cache.entry_paths())
        assert stale_paths
        for path in stale_paths:
            _age(path, 5000)

        engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir, cache_max_bytes=1))
        engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert engine.last_gc is not None
        assert engine.last_gc.removed_entries == len(stale_paths)
        assert all(not path.exists() for path in stale_paths)

        # Every entry the budget-constrained run produced is still warm.
        warm = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
        warm.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert warm.stats.traces_computed == 0
        assert warm.stats.simulations_computed == 0

    def test_warm_entries_read_by_the_run_are_protected_too(self, tmp_path):
        # A hit bumps the mtime, so entries the run *reused* count as part
        # of the run and survive a tight budget as well.
        cache_dir = tmp_path / "cache"
        cold = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
        cold.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        for path in cold.cache.entry_paths():
            _age(path, 5000)

        bounded = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir, cache_max_bytes=1))
        bounded.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert bounded.stats.simulations_cached == len(PREDICTORS)
        # A fully-warm run reads the trace and merge entries (bumping
        # them); the per-predictor shards it never opened are the only
        # legitimately evictable entries under the tight budget.
        assert bounded.last_gc.removed_entries == len(PREDICTORS)

        warm = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
        warm.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert warm.stats.simulations_computed == 0
        assert warm.stats.traces_computed == 0

    def test_auto_gc_after_sweeps(self, tmp_path):
        cache_dir = tmp_path / "cache"
        spec = SweepSpec.input_study(benchmark="compress", predictor="l", scale=SCALE)
        engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir, cache_max_bytes=1))
        engine.run_sweep(spec)
        assert engine.last_gc is not None

        warm = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
        warm.run_sweep(spec)
        assert warm.stats.traces_computed == 0
        assert warm.stats.simulations_computed == 0


class TestVerify:
    def test_verify_passes_on_healthy_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("trace", {"k": 1}, {"x": 1})
        cache.put("simulate", {"k": 2}, {"x": 2})
        report = cache.verify()
        assert report.checked == 2 and report.ok

    def test_verify_flags_corrupt_embedded_trace(self, tmp_path):
        # An envelope can be structurally intact while its embedded trace
        # bytes are not; `get` defers trace decoding, `verify` does not.
        cache = ResultCache(tmp_path)
        path = cache.put("trace", {"k": 1}, {"trace_binary": b"not a trace"})
        assert cache.verify().corrupt == [path]

    def test_verify_flags_truncated_and_misfiled_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = cache.put("trace", {"k": 1}, {"x": 1})
        truncated = cache.put("trace", {"k": 2}, {"x": 2})
        truncated.write_bytes(truncated.read_bytes()[:6])
        misfiled = good.with_name(f"{'0' * 64}.rvpc")
        misfiled.write_bytes(encode_cache_entry({"k": 3}, {"x": 3}))
        report = cache.verify()
        assert set(report.corrupt) == {truncated, misfiled}
        cache.verify(remove=True)
        assert cache.entry_count() == 1
        assert good.exists()


class TestEntryKeyCheck:
    """``get`` trusts the key inside an entry, never its filename alone."""

    def test_entry_copied_onto_another_path_is_a_miss(self, tmp_path):
        telemetry = RunTelemetry(tmp_path / "telemetry", argv=[])
        cache = ResultCache(tmp_path / "cache")
        cache.telemetry = telemetry
        first = cache.put("simulate", {"k": "a"}, {"v": "a"})
        second = cache.put("simulate", {"k": "b"}, {"v": "b"})
        second.write_bytes(first.read_bytes())
        assert cache.get("simulate", {"k": "b"}) is None
        assert cache.get("simulate", {"k": "a"}) == {"v": "a"}
        assert (cache.hits, cache.misses) == (1, 1)
        assert telemetry.counters()["cache.key_mismatch"] == 1
        telemetry.close()

    def test_campaign_recomputes_an_entry_under_another_key(self, tmp_path):
        cache_dir = tmp_path / "cache"
        reference = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir)).run(
            scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS
        )
        first, second = sorted((cache_dir / "simulate").glob("*/*.rvpc"))
        second.write_bytes(first.read_bytes())
        for path in (cache_dir / "merge").glob("*/*"):
            path.unlink()

        warm = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
        result = warm.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert warm.stats.simulations_computed == 1
        assert warm.stats.simulations_cached == 1
        assert result.simulations == reference.simulations
        assert warm.cache.verify().ok


class TestEngineBinaryCachePath:
    def test_warm_rerun_from_binary_cache_is_bit_identical(self, tmp_path):
        reference = ExecutionEngine(EngineConfig(jobs=1)).run(
            scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS
        )
        cache_dir = tmp_path / "cache"
        cold = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
        cold.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert all(path.suffix == ".rvpc" for path in cold.cache.entry_paths())

        warm = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
        result = warm.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert warm.stats.traces_computed == 0
        assert warm.stats.simulations_computed == 0
        for benchmark in BENCHMARKS:
            assert result.simulations[benchmark] == reference.simulations[benchmark]
            assert result.statistics[benchmark] == reference.statistics[benchmark]

    def test_corrupt_binary_trace_entry_recomputes(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
        cold_result = cold.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        trace_entries = [
            path for path in cold.cache.entry_paths() if path.parent.parent.name == "trace"
        ]
        assert trace_entries
        for path in trace_entries:
            path.write_bytes(path.read_bytes()[:20])

        warm = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
        result = warm.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert warm.stats.traces_computed == len(BENCHMARKS)
        for benchmark in BENCHMARKS:
            assert result.simulations[benchmark] == cold_result.simulations[benchmark]

    @pytest.mark.parametrize("backend", ["serial", "pool", "persistent"])
    def test_corrupt_embedded_trace_recomputes(self, tmp_path, dispatch_spy, backend):
        # The envelope decodes fine but the v3 bytes inside do not: the
        # scheduler must fall back to re-tracing, not crash the run, and
        # never dispatch the bad bytes to the simulations it recomputes.
        cache_dir = tmp_path / "cache"
        config = EngineConfig(
            jobs=1 if backend == "serial" else 2, backend=backend, cache_dir=cache_dir
        )
        with ExecutionEngine(config) as cold:
            cold_result = cold.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        for benchmark in BENCHMARKS:
            key = TraceTask.for_workload(benchmark, SCALE).cache_key()
            path = cold.cache.path_for("trace", key)
            assert path.exists()
            path.write_bytes(encode_cache_entry(key, {"trace_binary": b"\x00garbage"}))
        for entry_path in list(cold.cache.entry_paths()):
            if entry_path.parent.parent.name in ("simulate", "merge"):
                entry_path.unlink()

        with ExecutionEngine(config) as warm:
            dispatched = dispatch_spy(warm)
            result = warm.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert warm.stats.traces_computed == len(BENCHMARKS)
        assert warm.stats.traces_cached == 0
        for benchmark in BENCHMARKS:
            assert result.simulations[benchmark] == cold_result.simulations[benchmark]
        simulate_payloads = [payload for payload in dispatched if "predictors" in payload]
        carried = sum(len(payload["predictors"]) for payload in simulate_payloads)
        assert carried == len(BENCHMARKS) * len(PREDICTORS)
        for payload in simulate_payloads:
            if "trace_bytes" in payload:
                assert payload_trace({"trace_binary": payload["trace_bytes"]})

    def test_engine_takes_no_cache_format(self, tmp_path):
        # .rvpc is the only entry format, so there is nothing to choose.
        with pytest.raises(TypeError):
            ExecutionEngine(EngineConfig(cache_dir=tmp_path), cache_format="binary")
