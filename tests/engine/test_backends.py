"""Backend-parity suite for the pluggable executor backends.

The backend contract: serial, pool and persistent-worker execution must
produce bit-identical campaign and sweep results — the same cache entries
(same digests, hence same filenames) and the same joint ``subset_counts``
merges — because a backend only decides *where* a work unit executes,
never what it computes.
"""

from __future__ import annotations

import os

import pytest

from repro.engine import EngineConfig, ExecutionEngine
from repro.engine.backends import (
    ExecutorBackend,
    PersistentWorkerBackend,
    PoolBackend,
    SerialBackend,
    resolve_backend,
)
from repro.engine.sweeps import SweepSpec

SCALE = 0.05
BENCHMARKS = ("compress", "m88ksim")
PREDICTORS = ("l", "s2", "fcm2")
BACKENDS = ("serial", "pool", "persistent")


def _pid_worker(payload: dict) -> dict:
    return {"pid": os.getpid(), "echo": payload.get("value")}


def _entry_names(cache_dir):
    """Relative entry paths of a cache directory (digest-addressed)."""
    return sorted(
        str(path.relative_to(cache_dir))
        for path in cache_dir.glob("*/*/*")
        if path.is_file()
    )


def _campaign_with(backend, tmp_path):
    cache_dir = tmp_path / f"cache-{backend}"
    with ExecutionEngine(EngineConfig(jobs=2, cache_dir=cache_dir, backend=backend)) as engine:
        result = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
    return result, cache_dir


class TestCampaignParity:
    def test_backends_bit_identical_and_same_cache_entries(self, tmp_path):
        results = {}
        entries = {}
        for backend in BACKENDS:
            results[backend], cache_dir = _campaign_with(backend, tmp_path)
            entries[backend] = _entry_names(cache_dir)
        reference = results["serial"]
        for backend in ("pool", "persistent"):
            other = results[backend]
            assert other.benchmarks() == reference.benchmarks()
            for benchmark in BENCHMARKS:
                assert other.statistics[benchmark] == reference.statistics[benchmark]
                assert other.simulations[benchmark] == reference.simulations[benchmark]
                assert (
                    other.simulations[benchmark].subset_counts
                    == reference.simulations[benchmark].subset_counts
                )
                assert (
                    other.simulations[benchmark].subset_counts_by_category
                    == reference.simulations[benchmark].subset_counts_by_category
                )
            assert entries[backend] == entries["serial"]

    def test_cache_written_by_one_backend_warms_another(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with ExecutionEngine(
            EngineConfig(jobs=2, cache_dir=cache_dir, backend="persistent")
        ) as engine:
            cold = engine.run(scale=SCALE, predictors=("l",), benchmarks=("compress",))
        warm_engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir, backend="serial"))
        warm = warm_engine.run(scale=SCALE, predictors=("l",), benchmarks=("compress",))
        assert warm_engine.stats.simulations_computed == 0
        assert warm_engine.stats.traces_computed == 0
        assert warm.simulations["compress"] == cold.simulations["compress"]


class TestKernelParity:
    """Cross-kernel cache identity: the kernel never changes what is cached.

    Cache entries written under ``--kernel vector`` must be byte-identical
    to the scalar ones (same digest-addressed filenames, same bytes), and
    a warm rerun on the *other* kernel must serve everything from cache —
    the kernel is not part of any cache key.
    """

    @staticmethod
    def _campaign(cache_dir, backend, kernel):
        pytest.importorskip("numpy")
        with ExecutionEngine(
            EngineConfig(jobs=2, cache_dir=cache_dir, backend=backend, kernel=kernel),
        ) as engine:
            result = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        return result, engine.stats

    @pytest.mark.parametrize("backend", ("serial", "persistent"))
    def test_vector_cache_byte_identical_to_scalar(self, tmp_path, backend):
        caches = {}
        for kernel in ("scalar", "vector"):
            caches[kernel] = tmp_path / f"cache-{backend}-{kernel}"
            self._campaign(caches[kernel], backend, kernel)
        names = _entry_names(caches["scalar"])
        assert names == _entry_names(caches["vector"])
        assert names  # non-vacuous: the campaign wrote entries
        for name in names:
            assert (caches["scalar"] / name).read_bytes() == (
                caches["vector"] / name
            ).read_bytes(), name

    @pytest.mark.parametrize("backend", ("serial", "persistent"))
    @pytest.mark.parametrize(
        "cold_kernel,warm_kernel", (("scalar", "vector"), ("vector", "scalar"))
    )
    def test_cross_kernel_rerun_fully_cached(
        self, tmp_path, backend, cold_kernel, warm_kernel
    ):
        cache_dir = tmp_path / "cache"
        cold, _ = self._campaign(cache_dir, backend, cold_kernel)
        warm, stats = self._campaign(cache_dir, backend, warm_kernel)
        assert stats.simulations_computed == 0
        assert stats.traces_computed == 0
        for benchmark in BENCHMARKS:
            assert warm.simulations[benchmark] == cold.simulations[benchmark]

    def test_invalid_kernel_rejected_at_construction(self):
        with pytest.raises(Exception, match="unknown simulation kernel"):
            ExecutionEngine(EngineConfig(kernel="turbo"))


class TestSweepParity:
    SPEC = SweepSpec(
        benchmark="gcc",
        scale=SCALE,
        inputs=("gcc.i", "jump.i"),
        predictors=("l", "fcm2"),
    )

    def test_backends_bit_identical_and_same_cache_entries(self, tmp_path):
        results = {}
        entries = {}
        for backend in BACKENDS:
            cache_dir = tmp_path / f"cache-{backend}"
            with ExecutionEngine(
                EngineConfig(jobs=2, cache_dir=cache_dir, backend=backend)
            ) as engine:
                results[backend] = engine.run_sweep(self.SPEC)
            entries[backend] = _entry_names(cache_dir)
        reference = results["serial"]
        for backend in ("pool", "persistent"):
            other = results[backend]
            assert len(other.points) == len(reference.points) == 4
            for left, right in zip(other.points, reference.points):
                assert left.point == right.point
                assert left.record_count == right.record_count
                assert left.statistics == right.statistics
                assert left.result == right.result
            assert entries[backend] == entries["serial"]


class TestPersistentWorkers:
    def test_workers_stay_warm_across_dispatches(self):
        with PersistentWorkerBackend(jobs=2) as backend:
            spawned = {process.pid for process in backend._ensure_pool()._pool}
            first = backend.map(_pid_worker, [{"value": i} for i in range(4)])
            second = backend.map(_pid_worker, [{"value": i} for i in range(4)])
        first_pids = {outcome["pid"] for outcome in first}
        second_pids = {outcome["pid"] for outcome in second}
        # No fresh processes between dispatches: every unit of both
        # dispatches ran on one of the originally spawned (warm) workers.
        assert first_pids | second_pids <= spawned
        assert os.getpid() not in spawned
        assert [outcome["echo"] for outcome in first] == [0, 1, 2, 3]

    def test_close_then_reuse_spawns_fresh_workers(self):
        backend = PersistentWorkerBackend(jobs=1)
        first = backend.map(_pid_worker, [{}])
        backend.close()
        second = backend.map(_pid_worker, [{}])
        backend.close()
        assert first[0]["pid"] != os.getpid()
        assert second[0]["pid"] != os.getpid()

    def test_single_task_still_goes_to_workers(self):
        with PersistentWorkerBackend(jobs=1) as backend:
            assert backend.inline_payloads(1) is False
            outcome = backend.map(_pid_worker, [{}])
        assert outcome[0]["pid"] != os.getpid()


class TestBackendSelection:
    def test_default_is_serial_for_one_job(self):
        assert isinstance(ExecutionEngine(EngineConfig(jobs=1)).backend, SerialBackend)

    def test_default_is_pool_for_many_jobs(self):
        engine = ExecutionEngine(EngineConfig(jobs=4))
        assert isinstance(engine.backend, PoolBackend)
        assert engine.backend.jobs == 4

    def test_names_select_backends(self):
        serial = ExecutionEngine(EngineConfig(jobs=4, backend="serial"))
        assert isinstance(serial.backend, SerialBackend)
        assert isinstance(ExecutionEngine(EngineConfig(jobs=1, backend="pool")).backend, PoolBackend)
        assert isinstance(
            ExecutionEngine(EngineConfig(jobs=1, backend="persistent")).backend,
            PersistentWorkerBackend,
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            ExecutionEngine(EngineConfig(backend="distributed"))

    def test_instance_is_shared_not_owned(self):
        shared = SerialBackend()
        engine = ExecutionEngine(backend=shared)
        assert engine.backend is shared
        engine.close()  # must not close the caller-owned backend

    def test_engine_owns_backend_built_from_name(self, tmp_path):
        engine = ExecutionEngine(EngineConfig(jobs=1, backend="persistent"))
        engine.run(scale=SCALE, predictors=("l",), benchmarks=("compress",))
        pool = engine.backend._pool
        assert pool is not None
        engine.close()
        assert engine.backend._pool is None

    def test_resolve_backend_passthrough(self):
        backend = PoolBackend(3)
        assert resolve_backend(backend, jobs=1) is backend
        assert isinstance(resolve_backend(None, jobs=1), SerialBackend)
        assert isinstance(resolve_backend(None, jobs=2), PoolBackend)


class TestInlinePayloadPolicy:
    def test_serial_always_inline(self):
        assert SerialBackend().inline_payloads(0) is True
        assert SerialBackend().inline_payloads(100) is True

    def test_pool_inline_only_for_tiny_dispatches(self):
        backend = PoolBackend(4)
        assert backend.inline_payloads(1) is True
        assert backend.inline_payloads(2) is False
        assert PoolBackend(1).inline_payloads(10) is True

    def test_abstract_backend_is_abstract(self):
        with pytest.raises(NotImplementedError):
            ExecutorBackend().inline_payloads(1)
        with pytest.raises(NotImplementedError):
            ExecutorBackend().map(_pid_worker, [{}])
