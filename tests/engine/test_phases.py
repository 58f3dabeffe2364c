"""Unit and equivalence tests for the shared phase executor.

``run_phase`` is the single implementation of the probe → dispatch → put
protocol both the campaign scheduler and the sweep layer configure.  The
unit tests drive it directly with toy specs; the equivalence pins assert
that the phase-executor-backed campaign and sweep paths still reproduce
the pre-refactor goldens — the lockstep simulation loop — bit-identically.
"""

from __future__ import annotations

from repro.engine import EngineConfig, ExecutionEngine
from repro.engine.codecs import decode_cache_entry
from repro.engine.phases import PhaseSpec, PhaseTask, run_phase
from repro.engine.sweeps import SweepSpec
from repro.simulation.simulator import simulate_trace
from repro.workloads.suite import get_workload

SCALE = 0.05


def _echo_worker(payload: dict) -> dict:
    return {"value": payload["value"] * 10}


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


def _spec(tasks, seen, accept_cached=None, **overrides):
    def default_accept(uid, payload):
        seen[uid] = payload["value"]
        return True

    def accept_fresh(uid, outcome):
        seen[uid] = outcome["value"]

    options = dict(
        name="trace",
        kind="trace",
        counter="traces",
        tasks=tasks,
        worker=_echo_worker,
        accept_cached=accept_cached or default_accept,
        accept_fresh=accept_fresh,
    )
    options.update(overrides)
    return PhaseSpec(**options)


def _task(uid, value, built=None):
    def build(inline):
        if built is not None:
            built.append((uid, inline))
        return {"value": value}

    return PhaseTask(
        uid=uid, label=f"unit-{uid}", cache_key={"kind": "trace", "unit": uid}, build_payload=build
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
        computed = run_phase(warm, _spec([_task("a", 1, built)], seen))
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
        run_phase(serial, _spec([_task("a", 1, built)], {}))
        assert built == [("a", True)]

        built.clear()
        with ExecutionEngine(EngineConfig(jobs=2, backend="persistent")) as persistent:
            run_phase(persistent, _spec([_task("a", 1, built), _task("b", 2, built)], {}))
        assert built == [("a", False), ("b", False)]

    def test_put_writes_rvpc_entries_under_the_task_key(self, tmp_path):
        engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=tmp_path / "cache"))
        run_phase(engine, _spec([_task("a", 1)], {}))
        (path,) = engine.cache.entry_paths()
        assert path.suffix == ".rvpc"
        key, payload = decode_cache_entry(path.read_bytes())
        assert key == {"kind": "trace", "unit": "a"}
        assert payload == {"value": 10}


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
