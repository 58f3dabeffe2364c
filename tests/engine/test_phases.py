"""Unit and equivalence tests for the shared phase executor.

``run_phase`` is the single implementation of the probe → dispatch → put
protocol both the campaign scheduler and the sweep layer configure.  The
unit tests drive it directly with toy specs; the equivalence pins assert
that the phase-executor-backed campaign and sweep paths still reproduce
the pre-refactor goldens — the lockstep simulation loop — bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.engine import EngineConfig, ExecutionEngine
from repro.engine.codecs import decode_cache_entry
from repro.engine.phases import PhaseSpec, PhaseTask, UnitPayloads, dispatch_chunks, run_phase
from repro.engine.sweeps import SweepSpec
from repro.engine.telemetry import TELEMETRY_KEY, RunTelemetry, summarize_run
from repro.simulation.simulator import simulate_trace
from repro.workloads.suite import get_workload

SCALE = 0.05


def _echo_worker(payload: dict) -> dict:
    return {
        "outcomes": [{"value": value * 10} for value in payload["values"]],
        TELEMETRY_KEY: {"function": "echo", "execute_seconds": 0.5, "pid": 1},
    }


class _Recorder:
    """Progress listener recording every event in order."""

    def __init__(self):
        self.events = []

    def phase_started(self, phase, total, cached):
        self.events.append(("started", phase, total, cached))

    def task_finished(self, phase, label, cached):
        self.events.append(("finished", phase, label, cached))

    def campaign_finished(self, stats):
        self.events.append(("done",))


def _spec(tasks, seen, accept_cached=None, built=None, payloads=None, **overrides):
    """A toy phase; ``built`` logs ``(uid, inline)`` per task a payload
    carries, ``payloads`` logs each payload's uids."""

    def default_accept(uid, payload):
        seen[uid] = payload["value"]
        return True

    def accept_fresh(uid, outcome):
        seen[uid] = outcome["value"]

    def build_payload(chunk, inline):
        if built is not None:
            built.extend((task.uid, inline) for task in chunk)
        if payloads is not None:
            payloads.append([task.uid for task in chunk])
        return {"values": [task.value for task in chunk]}

    options = dict(
        name="trace",
        kind="trace",
        counter="traces",
        tasks=tasks,
        build_payload=build_payload,
        worker=_echo_worker,
        accept_cached=accept_cached or default_accept,
        accept_fresh=accept_fresh,
    )
    options.update(overrides)
    return PhaseSpec(**options)


@dataclass(frozen=True)
class _ToyTask(PhaseTask):
    value: int


def _task(uid, value, unit=None):
    return _ToyTask(
        uid=uid,
        label=f"unit-{uid}",
        cache_key={"kind": "trace", "unit": uid},
        unit=uid if unit is None else unit,
        value=value,
    )


class TestRunPhase:
    def test_cold_phase_computes_and_populates_cache(self, tmp_path):
        engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=tmp_path / "cache"))
        seen: dict = {}
        computed = run_phase(engine, _spec([_task("a", 1), _task("b", 2)], seen))
        assert [task.uid for task in computed] == ["a", "b"]
        assert seen == {"a": 10, "b": 20}
        assert engine.stats.traces_computed == 2
        assert engine.stats.traces_cached == 0
        assert engine.cache.entry_count() == 2

    def test_warm_phase_serves_from_cache_without_building_payloads(self, tmp_path):
        engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=tmp_path / "cache"))
        run_phase(engine, _spec([_task("a", 1)], {}))

        warm = ExecutionEngine(EngineConfig(jobs=1, cache_dir=tmp_path / "cache"))
        built: list = []
        seen: dict = {}
        computed = run_phase(warm, _spec([_task("a", 1)], seen, built=built))
        assert computed == []
        assert built == []  # payloads are lazy: never built on the warm path
        assert seen == {"a": 10}
        assert warm.stats.traces_cached == 1
        assert warm.stats.traces_computed == 0

    def test_declined_probe_turns_hit_into_miss(self, tmp_path):
        engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=tmp_path / "cache"))
        run_phase(engine, _spec([_task("a", 1)], {}))

        picky = ExecutionEngine(EngineConfig(jobs=1, cache_dir=tmp_path / "cache"))
        seen: dict = {}
        computed = run_phase(
            picky, _spec([_task("a", 1)], seen, accept_cached=lambda uid, payload: False)
        )
        assert [task.uid for task in computed] == ["a"]
        assert picky.stats.traces_computed == 1
        assert picky.stats.traces_cached == 0

    def test_raising_probe_counts_as_miss(self, tmp_path):
        engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=tmp_path / "cache"))
        run_phase(engine, _spec([_task("a", 1)], {}))

        def explode(uid, payload):
            raise KeyError("corrupt entry")

        again = ExecutionEngine(EngineConfig(jobs=1, cache_dir=tmp_path / "cache"))
        computed = run_phase(again, _spec([_task("a", 1)], {}, accept_cached=explode))
        assert [task.uid for task in computed] == ["a"]
        assert again.stats.traces_computed == 1

    def test_no_cache_everything_computes(self):
        engine = ExecutionEngine(EngineConfig(jobs=1))
        seen: dict = {}
        run_phase(engine, _spec([_task("a", 1), _task("b", 2)], seen))
        assert seen == {"a": 10, "b": 20}
        assert engine.stats.traces_computed == 2

    def test_progress_events_and_presatisfied_accounting(self, tmp_path):
        engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=tmp_path / "cache"))
        run_phase(engine, _spec([_task("a", 1)], {}))

        recorder = _Recorder()
        warm = ExecutionEngine(
            EngineConfig(jobs=1, cache_dir=tmp_path / "cache"),
            progress=recorder,
        )
        run_phase(
            warm,
            _spec(
                [_task("a", 1), _task("b", 2)],
                {},
                total=5,
                presatisfied_count=2,
                presatisfied_labels=("pre:*",),
            ),
        )
        assert recorder.events[0] == ("started", "trace", 5, 3)  # 2 presatisfied + 1 hit
        assert ("finished", "trace", "pre:*", True) in recorder.events
        assert ("finished", "trace", "unit-a", True) in recorder.events
        assert ("finished", "trace", "unit-b", False) in recorder.events

    def test_inline_flag_follows_backend(self, tmp_path):
        built: list = []
        serial = ExecutionEngine(EngineConfig(jobs=1))
        run_phase(serial, _spec([_task("a", 1)], {}, built=built))
        assert built == [("a", True)]

        built.clear()
        with ExecutionEngine(EngineConfig(jobs=2, backend="persistent")) as persistent:
            run_phase(persistent, _spec([_task("a", 1), _task("b", 2)], {}, built=built))
        assert built == [("a", False), ("b", False)]

    def test_put_writes_rvpc_entries_under_the_task_key(self, tmp_path):
        engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=tmp_path / "cache"))
        run_phase(engine, _spec([_task("a", 1)], {}))
        (path,) = engine.cache.entry_paths()
        assert path.suffix == ".rvpc"
        key, payload = decode_cache_entry(path.read_bytes())
        assert key == {"kind": "trace", "unit": "a"}
        assert payload == {"value": 10}

    def test_tasks_sharing_a_unit_ride_in_one_payload(self, tmp_path):
        recorder = _Recorder()
        telemetry = RunTelemetry(tmp_path / "telemetry", argv=[], command="test")
        engine = ExecutionEngine(
            EngineConfig(jobs=1, cache_dir=tmp_path / "cache"),
            telemetry=telemetry,
            progress=recorder,
        )
        seen: dict = {}
        payloads: list = []
        tasks = [_task("a", 1, "x"), _task("b", 2, "y"), _task("c", 3, "x")]
        computed = run_phase(engine, _spec(tasks, seen, payloads=payloads))
        telemetry.close()
        # One payload per unit, in first-appearance order; every task is
        # still accounted, cached and reported on its own.
        assert payloads == [["a", "c"], ["b"]]
        assert [task.uid for task in computed] == ["a", "b", "c"]
        assert seen == {"a": 10, "b": 20, "c": 30}
        assert engine.stats.traces_computed == 3
        assert engine.cache.entry_count() == 3
        finished = [event[2] for event in recorder.events if event[0] == "finished"]
        assert finished == ["unit-a", "unit-c", "unit-b"]
        spans = summarize_run(tmp_path / "telemetry")["tasks"]
        assert sorted((span["label"], span["tasks"]) for span in spans) == [
            ("unit-a", 2),
            ("unit-b", 1),
        ]

    def test_cached_tasks_leave_their_unit(self, tmp_path):
        engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=tmp_path / "cache"))
        run_phase(engine, _spec([_task("b", 2, "x")], {}))
        payloads: list = []
        tasks = [_task("a", 1, "x"), _task("b", 2, "x"), _task("c", 3, "x")]
        run_phase(engine, _spec(tasks, {}, payloads=payloads))
        assert payloads == [["a", "c"]]

    @pytest.mark.parametrize("backend", ["pool", "persistent"])
    def test_one_unit_is_cut_into_a_chunk_per_worker(self, backend):
        payloads: list = []
        seen: dict = {}
        tasks = [_task(uid, value, "x") for value, uid in enumerate("abcde", start=1)]
        with ExecutionEngine(EngineConfig(jobs=2, backend=backend)) as engine:
            run_phase(engine, _spec(tasks, seen, payloads=payloads))
        assert payloads == [["a", "b", "c"], ["d", "e"]]
        assert seen == {"a": 10, "b": 20, "c": 30, "d": 40, "e": 50}

    def test_outcome_count_must_match_the_payload(self):
        def short_worker(payload):
            return {"outcomes": [{"value": 0}]}

        engine = ExecutionEngine(EngineConfig(jobs=1))
        tasks = [_task("a", 1, "x"), _task("b", 2, "x")]
        with pytest.raises(ValueError):
            run_phase(engine, _spec(tasks, {}, worker=short_worker))


class TestDispatchChunks:
    @staticmethod
    def _sizes(units, slots):
        chunks = dispatch_chunks(units, slots)
        # Chunks partition the units in order, never reorder a task.
        assert [task for chunk in chunks for task in chunk] == [task for unit in units for task in unit]
        return [len(chunk) for chunk in chunks]

    def test_enough_units_stay_whole(self):
        units = [list("abc"), list("d")]
        assert dispatch_chunks(units, 2) == units
        assert dispatch_chunks(units, 1) == units

    def test_one_unit_is_cut_into_slots_chunks(self):
        assert self._sizes([list("abcdefgh")], 2) == [4, 4]
        assert self._sizes([list("abcde")], 2) == [3, 2]
        assert self._sizes([list("abcdefgh")], 3) == [3, 3, 2]

    def test_never_more_chunks_than_tasks(self):
        assert self._sizes([list("a")], 4) == [1]
        assert self._sizes([list("ab"), list("c")], 8) == [1, 1, 1]

    def test_extra_chunks_go_to_the_largest_units(self):
        assert self._sizes([list("abcde"), list("f")], 3) == [3, 2, 1]
        assert self._sizes([list("ab"), list("cdef")], 4) == [1, 1, 2, 2]

    def test_no_units_no_chunks(self):
        assert dispatch_chunks([], 2) == []


class TestUnitPayloads:
    """Payloads built one unit at a time fail loudly, whatever the error."""

    @staticmethod
    def _build(chunk, inline):
        if chunk[0].uid == "b":
            raise IndexError("raised while building b")
        return {"values": [task.value for task in chunk]}

    def test_iterating_propagates_an_index_error_from_a_build(self):
        payloads = UnitPayloads(self._build, [[_task("a", 1)], [_task("b", 2)]], inline=False)
        with pytest.raises(IndexError, match="building b"):
            list(payloads)

    @pytest.mark.parametrize("backend, jobs", [("serial", 1), ("pool", 2)])
    def test_an_index_error_from_a_build_fails_the_dispatch(self, backend, jobs):
        tasks = [_task("a", 1), _task("b", 2), _task("c", 3)]
        with ExecutionEngine(EngineConfig(jobs=jobs, backend=backend)) as engine:
            with pytest.raises(IndexError, match="building b"):
                run_phase(engine, _spec(tasks, {}, build_payload=self._build))


class TestPreRefactorGoldens:
    """The refactored phases still reproduce the lockstep loop exactly."""

    def test_campaign_phases_match_lockstep_goldens(self):
        engine = ExecutionEngine(EngineConfig(jobs=1))
        result = engine.run(scale=SCALE, predictors=("l", "fcm2"), benchmarks=("compress",))
        golden_trace = get_workload("compress").trace(scale=SCALE)
        golden = simulate_trace(golden_trace, ("l", "fcm2"))
        assert result.simulations["compress"] == golden

    def test_sweep_phases_match_lockstep_goldens(self):
        spec = SweepSpec(benchmark="gcc", scale=SCALE, inputs=("gcc.i",), predictors=("fcm1",))
        sweep = ExecutionEngine(EngineConfig(jobs=1)).run_sweep(spec)
        golden_trace = get_workload("gcc").trace(scale=SCALE, input_name="gcc.i")
        golden = simulate_trace(golden_trace, ("fcm1",))
        assert sweep.points[0].result == golden.results["fcm1"]
        assert sweep.points[0].record_count == len(golden_trace)
