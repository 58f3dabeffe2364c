"""Backend-parity and failure suite for the pluggable executor backends.

The backend contract: serial, pool and persistent-worker execution must
produce bit-identical campaign and sweep results — the same cache entries
(same digests, hence same filenames) and the same joint ``subset_counts``
merges — because a backend only decides *where* a work unit executes,
never what it computes.  The two process backends must also fail
cleanly: a dead worker raises :class:`~repro.errors.DispatchError`
instead of hanging, and a task's own exception keeps its type.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import signal
import threading
import time

import pytest

import repro.engine.backends as backends_module
import repro.engine.scheduler as scheduler
from repro.cli import main
from repro.engine import EngineConfig, ExecutionEngine
from repro.engine.backends import (
    ExecutorBackend,
    PersistentWorkerBackend,
    PoolBackend,
    SerialBackend,
    resolve_backend,
)
from repro.engine.codecs import (
    decode_cache_entry,
    encode_cache_entry,
    payload_trace,
    shard_to_dict,
)
from repro.engine.sweeps import SweepSpec
from repro.engine.telemetry import RunTelemetry, read_metrics
from repro.engine.worker import execute_simulate_task
from repro.errors import DispatchError
from repro.simulation.campaign import clear_campaign_cache, reset_campaign_defaults
from repro.simulation.simulator import simulate_shard_scalar

SCALE = 0.05
BENCHMARKS = ("compress", "m88ksim")
PREDICTORS = ("l", "s2", "fcm2")
BACKENDS = ("serial", "pool", "persistent")
PROCESS_BACKENDS = {"pool": PoolBackend, "persistent": PersistentWorkerBackend}
ALL_BACKENDS = {"serial": lambda jobs: SerialBackend(), **PROCESS_BACKENDS}
#: The test process: forked workers see this value beside their own pid.
TEST_PID = os.getpid()


def _kill_this_worker() -> None:
    """SIGKILL the worker process running the calling unit, as the OOM killer would.

    A unit dispatched in-process (a one-unit pool dispatch) would kill the
    test runner instead, so that fails the test at once.
    """
    assert os.getpid() != TEST_PID, "a self-killing unit ran in the test process"
    os.kill(os.getpid(), signal.SIGKILL)


def _pid_worker(payload: dict) -> dict:
    return {"pid": os.getpid(), "echo": payload.get("value")}


def _dying_worker(payload: dict) -> dict:
    """Kill the worker process running a ``die`` unit."""
    if payload.get("die"):
        _kill_this_worker()
    return _pid_worker(payload)


def _slow_dying_worker(payload: dict) -> dict:
    """Like :func:`_dying_worker`, but let the other units return first."""
    if payload.get("die"):
        time.sleep(1.0)
    return _dying_worker(payload)


def _always_dying_worker(payload: dict) -> dict:
    _kill_this_worker()
    return {}


def _staggered_worker(payload: dict) -> dict:
    """Finish later units first, so input order differs from completion order."""
    time.sleep(payload["delay"])
    return {"echo": payload["value"]}


def _unpicklable_worker(payload: dict) -> dict:
    return {"lock": threading.Lock()}


def _raising_worker(payload: dict) -> dict:
    raise ValueError(f"synthetic task failure {payload.get('value')}")


def _raising_or_sleeping_worker(payload: dict) -> dict:
    """Fail unit 0 at once while the others are still running."""
    if payload["value"]:
        time.sleep(60)
    return _raising_worker(payload)


def _simulate_dying_on_m88ksim(payload: dict) -> dict:
    """Kill the worker running m88ksim's cold unit."""
    if payload.get("trace_task", {}).get("benchmark") == "m88ksim":
        _kill_this_worker()
    return execute_simulate_task(payload)


def _simulate_dying_late_on_m88ksim(payload: dict) -> dict:
    """Like :func:`_simulate_dying_on_m88ksim`, but let the other units return first."""
    if payload.get("trace_task", {}).get("benchmark") == "m88ksim":
        time.sleep(1.0)
    return _simulate_dying_on_m88ksim(payload)


@contextlib.contextmanager
def _deadline(seconds: int):
    """Fail the test instead of hanging it when a dispatch never returns."""

    def expired(signum, frame):
        raise TimeoutError(f"dispatch still blocked after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
        caches = {}
        entries = {}
        for backend in BACKENDS:
            results[backend], caches[backend] = _campaign_with(backend, tmp_path)
            entries[backend] = _entry_names(caches[backend])
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
            for name in entries["serial"]:
                assert (caches[backend] / name).read_bytes() == (
                    caches["serial"] / name
                ).read_bytes(), name
        assert entries["serial"]  # non-vacuous: the campaign wrote entries

    @pytest.mark.parametrize(
        "cold_backend,warm_backend", list(itertools.permutations(BACKENDS, 2))
    )
    def test_every_backend_warms_every_other(self, tmp_path, cold_backend, warm_backend):
        cache_dir = tmp_path / "cache"
        results = []
        for backend in (cold_backend, warm_backend):
            with ExecutionEngine(
                EngineConfig(jobs=2, cache_dir=cache_dir, backend=backend)
            ) as engine:
                results.append(
                    engine.run(scale=SCALE, predictors=("l", "s2"), benchmarks=("compress",))
                )
        assert engine.stats.traces_computed == 0
        assert engine.stats.simulations_computed == 0
        assert results[1].simulations["compress"] == results[0].simulations["compress"]

    @pytest.mark.parametrize("backend", sorted(PROCESS_BACKENDS))
    def test_fully_warm_run_never_starts_workers(self, tmp_path, monkeypatch, backend):
        cache_dir = tmp_path / "cache"
        ExecutionEngine(EngineConfig(cache_dir=cache_dir)).run(
            scale=SCALE, predictors=PREDICTORS, benchmarks=("compress",)
        )

        def refuse(workers):
            raise AssertionError("a fully cached run started worker processes")

        monkeypatch.setattr(backends_module, "_new_executor", refuse)
        with ExecutionEngine(
            EngineConfig(jobs=2, cache_dir=cache_dir, backend=backend)
        ) as engine:
            engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=("compress",))
            assert getattr(engine.backend, "_executor", None) is None
        assert engine.stats.simulations_computed == 0


class TestReferenceEntries:
    """Engine-written simulate entries are the reference loop's entries.

    Whatever the backend, each ``(trace, predictor)`` entry the engine
    writes is byte for byte the cache entry of the scalar reference
    loop's shard under the same key: the vector kernel never changes
    what is cached.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_simulate_entries_equal_reference_shards(self, tmp_path, backend):
        cache_dir = tmp_path / "cache"
        with ExecutionEngine(
            EngineConfig(jobs=2, cache_dir=cache_dir, backend=backend)
        ) as engine:
            engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        traces = {}
        for path in cache_dir.glob("trace/*/*"):
            _, payload = decode_cache_entry(path.read_bytes())
            traces[payload["digest"]] = payload_trace(payload)
        entries = sorted(cache_dir.glob("simulate/*/*"))
        assert len(entries) == len(BENCHMARKS) * len(PREDICTORS)
        for path in entries:
            blob = path.read_bytes()
            key, _ = decode_cache_entry(blob)
            shard = simulate_shard_scalar(traces[key["trace"]], key["predictor"])
            assert blob == encode_cache_entry(key, {"shard": shard_to_dict(shard)}), path


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
            first = backend.map(_pid_worker, [{"value": i} for i in range(4)])
            spawned = set(backend._executor._processes)
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

    def test_broken_pool_is_dropped(self):
        backend = PersistentWorkerBackend(jobs=2)
        with _deadline(30), pytest.raises(DispatchError):
            backend.map(_dying_worker, [{"die": True}, {"value": 1}])
        assert backend._executor is None
        backend.close()  # idempotent after the drop

    def test_idle_worker_death_is_replaced_not_fatal(self):
        with PersistentWorkerBackend(jobs=2) as backend, _deadline(30):
            backend.map(_pid_worker, [{"value": i} for i in range(2)])
            broken = backend._executor
            os.kill(next(iter(broken._processes)), signal.SIGKILL)
            while not broken._broken:  # the executor notices the death
                time.sleep(0.01)
            # Between dispatches (e.g. the OOM killer between two tables):
            # no unit was lost, so the next dispatch gets a fresh pool.
            outcomes = backend.map(_pid_worker, [{"value": i} for i in range(3)])
            assert backend._executor is not broken
        assert [outcome["echo"] for outcome in outcomes] == [0, 1, 2]

    def test_single_task_still_goes_to_workers(self):
        with PersistentWorkerBackend(jobs=1) as backend:
            assert backend.inline_payloads(1) is False
            outcome = backend.map(_pid_worker, [{}])
        assert outcome[0]["pid"] != os.getpid()


@pytest.mark.parametrize("name", sorted(ALL_BACKENDS))
class TestDispatchContract:
    """What every backend promises the phase executor, in-process or not."""

    def test_outcomes_and_progress_in_input_order(self, name):
        seen = []
        payloads = [{"value": i, "delay": 0.02 * (5 - i)} for i in range(6)]

        def arrived(index, outcome):
            seen.append((index, outcome["echo"]))

        with ALL_BACKENDS[name](3) as backend:
            outcomes = backend.map(_staggered_worker, payloads, on_result=arrived)
        assert [outcome["echo"] for outcome in outcomes] == list(range(6))
        # Each outcome reaches the callback with its index, in input order.
        assert seen == [(index, index) for index in range(6)]

    def test_empty_dispatch_returns_empty_list(self, name):
        seen = []
        with ALL_BACKENDS[name](2) as backend:
            assert backend.map(_pid_worker, [], on_result=seen.append) == []
            assert getattr(backend, "_executor", None) is None
        assert seen == []

    def test_dispatch_span_records_backend_and_units(self, name, tmp_path):
        sink = RunTelemetry(tmp_path, run_id="run-dispatch", argv=[])
        with ALL_BACKENDS[name](2) as backend:
            backend.telemetry = sink
            backend.map(_pid_worker, [{"value": i} for i in range(3)])
        sink.close()
        (span,) = [
            record
            for record in read_metrics(tmp_path)
            if record["type"] == "span" and record["name"] == "dispatch"
        ]
        assert span["attrs"]["backend"] == name
        assert span["attrs"]["units"] == 3
        if name != "serial":
            assert span["attrs"]["workers"] == 2


class TestPoolBackend:
    def test_single_unit_runs_in_the_parent(self):
        with PoolBackend(4) as backend:
            (outcome,) = backend.map(_pid_worker, [{"value": 5}])
        assert outcome == {"pid": os.getpid(), "echo": 5}

    def test_workers_capped_by_unit_count(self):
        with PoolBackend(8) as backend:
            outcomes = backend.map(_pid_worker, [{"value": 0}, {"value": 1}])
        pids = {outcome["pid"] for outcome in outcomes}
        assert os.getpid() not in pids
        assert len(pids) <= 2


@pytest.mark.parametrize("name", sorted(PROCESS_BACKENDS))
class TestWorkerFailure:
    """A lost worker or a failing unit ends the dispatch; it never hangs it."""

    def test_killed_worker_raises_dispatch_error(self, name):
        with PROCESS_BACKENDS[name](2) as backend, _deadline(30):
            started = time.monotonic()
            with pytest.raises(DispatchError, match="worker process died"):
                backend.map(_dying_worker, [{"value": 0}, {"die": True}, {"value": 2}])
        assert time.monotonic() - started < 10

    def test_killed_worker_names_the_phase(self, name, monkeypatch):
        monkeypatch.setattr(scheduler, "execute_simulate_task", _simulate_dying_on_m88ksim)
        with ExecutionEngine(EngineConfig(jobs=2, backend=name)) as engine, _deadline(30):
            with pytest.raises(DispatchError) as error:
                engine.run(scale=SCALE, predictors=("l", "s2"), benchmarks=BENCHMARKS)
        message = str(error.value)
        assert message.startswith("simulate phase failed to dispatch 4 pending task(s) in 2 unit(s)")
        assert f"on the {name!r} backend" in message
        assert "worker process died" in message

    def test_next_dispatch_after_a_break_is_served(self, name):
        with PROCESS_BACKENDS[name](2) as backend, _deadline(30):
            with pytest.raises(DispatchError):
                backend.map(_dying_worker, [{"die": True}, {"value": 1}])
            outcomes = backend.map(_pid_worker, [{"value": i} for i in range(3)])
        assert [outcome["echo"] for outcome in outcomes] == [0, 1, 2]
        assert os.getpid() not in {outcome["pid"] for outcome in outcomes}

    def test_task_exception_keeps_its_type(self, name):
        with PROCESS_BACKENDS[name](2) as backend, _deadline(30):
            with pytest.raises(ValueError, match="synthetic task failure 1"):
                backend.map(_raising_worker, [{"value": 1}, {"value": 2}])
            # A failing unit is not a broken pool: the backend still serves.
            assert backend.map(_pid_worker, [{"value": 7}, {"value": 8}])[0]["echo"] == 7

    def test_every_worker_killed_raises_dispatch_error(self, name):
        with PROCESS_BACKENDS[name](2) as backend, _deadline(30):
            with pytest.raises(DispatchError, match="worker process died after 0 of 4"):
                backend.map(_always_dying_worker, [{"value": i} for i in range(4)])

    def test_dispatch_error_counts_returned_units(self, name):
        with PROCESS_BACKENDS[name](2) as backend, _deadline(30):
            with pytest.raises(DispatchError, match=r"after 1 of 3 unit\(s\) returned"):
                backend.map(_slow_dying_worker, [{"value": 0}, {"die": True}, {"value": 2}])

    def test_unpicklable_outcome_raises_instead_of_hanging(self, name):
        with PROCESS_BACKENDS[name](2) as backend, _deadline(30):
            with pytest.raises(Exception, match="pickle"):
                backend.map(_unpicklable_worker, [{"value": 0}, {"value": 1}])
            # The worker survived the failed send: the backend still serves.
            assert backend.map(_pid_worker, [{"value": 3}, {"value": 4}])[1]["echo"] == 4

    def test_failure_does_not_wait_for_running_units(self, name):
        started = time.monotonic()
        with _deadline(30), pytest.raises(ValueError, match="synthetic task failure 0"):
            with PROCESS_BACKENDS[name](2) as backend:
                backend.map(_raising_or_sleeping_worker, [{"value": 0}, {"value": 1}])
        # The 60 s unit was killed when the backend closed, not waited for.
        assert time.monotonic() - started < 10

    def test_raising_progress_callback_propagates(self, name):
        def explode(index, outcome):
            raise RuntimeError("listener bug")

        with PROCESS_BACKENDS[name](2) as backend, _deadline(30):
            with pytest.raises(RuntimeError, match="listener bug"):
                backend.map(_pid_worker, [{"value": 0}, {"value": 1}], on_result=explode)


@pytest.mark.parametrize("name", sorted(PROCESS_BACKENDS))
class TestCliWorkerDeath:
    """A dead worker ends the command with exit 1 and one stderr line."""

    @staticmethod
    def _argv(command, name, tmp_path):
        return [
            command,
            "--scale",
            str(SCALE),
            "--benchmarks",
            *BENCHMARKS,
            "--predictors",
            "l",
            "s2",
            "--jobs",
            "2",
            "--backend",
            name,
            "--cache-dir",
            str(tmp_path / "cache"),
        ]

    @staticmethod
    def _assert_one_line_failure(name, capsys):
        captured = capsys.readouterr()
        (line,) = captured.err.strip().splitlines()
        assert line.startswith("simulate phase failed to dispatch")
        assert f"on the {name!r} backend" in line
        assert "Traceback" not in captured.err

    def test_campaign_cli_exits_1_on_worker_death_and_rerun_resumes(
        self, name, tmp_path, monkeypatch, capsys
    ):
        argv = self._argv("campaign", name, tmp_path)
        monkeypatch.setattr(scheduler, "execute_simulate_task", _simulate_dying_late_on_m88ksim)
        with _deadline(60):
            assert main(argv) == 1
        self._assert_one_line_failure(name, capsys)
        monkeypatch.undo()
        # compress's unit returned before m88ksim's worker died: its trace,
        # simulate and merge entries are cached as they arrive, and the
        # rerun only computes m88ksim, the benchmark that was lost.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "traces: 1 computed, 1 cached; simulations: 2 computed, 2 cached" in out

    def test_sweep_cli_exits_1_on_worker_death(self, name, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(scheduler, "execute_simulate_task", _simulate_dying_on_m88ksim)
        with _deadline(60):
            assert main(self._argv("sweep", name, tmp_path)) == 1
        self._assert_one_line_failure(name, capsys)

    def test_experiments_cli_exits_1_on_worker_death(self, name, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(scheduler, "execute_simulate_task", _simulate_dying_on_m88ksim)
        argv = ["experiments", "table2", "--scale", str(SCALE), "--jobs", "2", "--backend", name]
        clear_campaign_cache()  # a memoised campaign would never dispatch
        try:
            with _deadline(60):
                assert main(argv + ["--cache-dir", str(tmp_path / "cache")]) == 1
        finally:
            reset_campaign_defaults()
            clear_campaign_cache()
        self._assert_one_line_failure(name, capsys)


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
        assert engine.backend._executor is not None
        engine.close()
        assert engine.backend._executor is None

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
