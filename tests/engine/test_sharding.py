"""Intra-trace sharding suite: window plans, state handoff, bit identity.

The sharding contract (:mod:`repro.engine.sharding`): splitting one
(benchmark, predictor) pair into windows with predictor-state handoff must
be *bit-identical* to the unsharded run — the same stitched shard dicts,
the same pair-level cache entries (byte for byte) and the same
``SIMULATION_COUNTER`` accounting — because sharding only decides how the
work is cut, never what it computes.  Driven over every registered
predictor configuration (the state codec must cover each one), synthetic
traces engineered to put window boundaries mid hot-PC run, and all local
backends plus an in-process remote worker pair.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.registry import available_predictors, create_predictor
from repro.engine import EngineConfig, ExecutionEngine
from repro.engine.codecs import shard_from_dict, shard_to_dict, simulation_to_dict
from repro.engine.remote import WorkerServer
from repro.engine.sharding import (
    concat_packed_bits,
    merge_window_shards,
    normalize_shard_window,
    plan_shard_windows,
    plan_windows,
    resolve_shard_window,
)
from repro.engine.sweeps import SweepSpec
from repro.engine.worker import execute_replay_task, execute_simulate_task
from repro.errors import SimulationError
from repro.isa.opcodes import CATEGORY_OF, Opcode
from repro.simulation.simulator import (
    SIMULATION_COUNTER,
    pack_outcomes,
    simulate_shard,
)
from repro.simulation.state import (
    replay_records,
    restore_predictor,
    snapshot_predictor,
)
from repro.trace.record import TraceRecord
from repro.trace.stream import ValueTrace

SCALE = 0.05
PREDICTORS = ("l", "s2", "fcm2")

#: Every statically registered name plus dynamic-suffix names, so the
#: state codec and window stitching are proven over each configuration.
ALL_NAMES = tuple(available_predictors()) + (
    "fcm0",
    "fcm4",
    "fcm2-single",
    "fcm2-small",
    "fcm2-full",
)


def synthetic_trace(seed: int, length: int, pcs: int) -> ValueTrace:
    """A seeded random trace mixing strides, repeats, cycles and noise.

    With ``pcs == 1`` every record is one hot PC, so any window boundary
    lands mid-run of that PC — the handoff-sensitive case.
    """
    opcodes = (Opcode.ADD, Opcode.LW, Opcode.AND, Opcode.SLL, Opcode.MULT, Opcode.LUI)
    rng = random.Random(seed)
    pc_pool = [0x400000 + 4 * index for index in range(pcs)]
    opcode_of = {pc: rng.choice(opcodes) for pc in pc_pool}
    behaviour_of = {pc: rng.choice(("stride", "repeat", "cycle", "noisy")) for pc in pc_pool}
    state: dict[int, object] = {}
    records = []
    for index in range(length):
        pc = pc_pool[min(int(rng.random() ** 2 * pcs), pcs - 1)]
        behaviour = behaviour_of[pc]
        if behaviour == "stride":
            value = state.get(pc, rng.randint(-500, 500))
            state[pc] = value + rng.choice((1, 1, 1, 4))
        elif behaviour == "repeat":
            value = state.setdefault(pc, rng.randint(-50, 50))
            if rng.random() < 0.1:
                state[pc] = rng.randint(-50, 50)
        elif behaviour == "cycle":
            value = (index // 3) % 5
        else:
            value = rng.randrange(-(2**31), 2**31)
        opcode = opcode_of[pc]
        records.append(
            TraceRecord(
                serial=index + 1,
                pc=pc,
                opcode=opcode,
                category=CATEGORY_OF[opcode],
                value=value,
            )
        )
    return ValueTrace(f"shard-synthetic-{seed}-{length}-{pcs}", records)


def _entry_bytes(cache_dir, exclude_kinds=()):
    """Map of relative entry path -> file contents, optionally per-kind filtered."""
    return {
        str(path.relative_to(cache_dir)): path.read_bytes()
        for path in cache_dir.glob("*/*/*")
        if path.is_file() and path.relative_to(cache_dir).parts[0] not in exclude_kinds
    }


# --------------------------------------------------------------------------- #
# Window planning
# --------------------------------------------------------------------------- #
class TestPlanning:
    def test_normalize(self):
        assert normalize_shard_window(None) is None
        assert normalize_shard_window(0) is None
        assert normalize_shard_window("0") is None
        assert normalize_shard_window("auto") == "auto"
        assert normalize_shard_window(7) == 7
        assert normalize_shard_window("12") == 12

    @pytest.mark.parametrize("bad", ("bogus", -3, "-1", "2.5"))
    def test_normalize_rejects(self, bad):
        with pytest.raises(ValueError):
            normalize_shard_window(bad)

    def test_resolve_disables_when_pointless(self):
        # Window >= trace length, a trace too short to split, an empty
        # trace, and auto on a single-slot backend all mean "unsharded".
        assert resolve_shard_window(100, 100, 4) is None
        assert resolve_shard_window(500, 100, 4) is None
        assert resolve_shard_window(10, 1, 4) is None
        assert resolve_shard_window(10, 0, 4) is None
        assert resolve_shard_window("auto", 100, 1) is None
        assert resolve_shard_window(None, 100, 4) is None

    def test_resolve_auto_divides_by_slots(self):
        assert resolve_shard_window("auto", 10, 4) == 3
        assert resolve_shard_window("auto", 1000, 4) == 250

    def test_plan_covers_trace_exactly(self):
        assert plan_windows(10, 3) == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert plan_windows(6, 3) == [(0, 3), (3, 6)]
        assert plan_windows(5, 1) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]

    def test_plan_shard_windows_end_to_end(self):
        assert plan_shard_windows(None, 100, 4) is None
        assert plan_shard_windows(200, 100, 4) is None
        windows = plan_shard_windows("auto", 10, 4)
        assert windows == [(0, 3), (3, 6), (6, 9), (9, 10)]


# --------------------------------------------------------------------------- #
# Correctness-bit concatenation
# --------------------------------------------------------------------------- #
class TestConcatPackedBits:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_matches_single_pack(self, seed):
        rng = random.Random(seed)
        outcomes = [rng.random() < 0.5 for _ in range(rng.randint(1, 300))]
        cuts = sorted(rng.sample(range(len(outcomes) + 1), rng.randint(0, 6)))
        bounds = [0, *cuts, len(outcomes)]
        chunks = [
            (pack_outcomes(outcomes[a:b]), b - a)
            for a, b in zip(bounds, bounds[1:])
        ]
        assert concat_packed_bits(chunks) == pack_outcomes(outcomes)

    def test_empty(self):
        assert concat_packed_bits([]) == b""
        assert concat_packed_bits([(b"", 0), (b"", 0)]) == b""

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            concat_packed_bits([(b"\x01", -1)])


# --------------------------------------------------------------------------- #
# Predictor state codec
# --------------------------------------------------------------------------- #
class TestStateCodec:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_replay_restore_continues_identically(self, name):
        # update()-only replay to a boundary, snapshot, restore into a
        # fresh predictor: the continuation must produce the exact
        # per-record outcomes of the uninterrupted run.
        trace = synthetic_trace(11, 240, 6)
        split = 117
        continuous = create_predictor(name)
        expected = [
            continuous.observe(r.pc, r.value, r.category) for r in trace.records
        ]
        replayed = create_predictor(name)
        replay_records(replayed, trace.records[:split])
        state = snapshot_predictor(replayed)
        resumed = create_predictor(name)
        restore_predictor(resumed, state)
        tail = [
            resumed.observe(r.pc, r.value, r.category)
            for r in trace.records[split:]
        ]
        assert tail == expected[split:]

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_snapshot_round_trips(self, name):
        trace = synthetic_trace(12, 150, 4)
        source = create_predictor(name)
        replay_records(source, trace.records)
        state = snapshot_predictor(source)
        # JSON round-trip: the remote wire ships states as JSON, so the
        # codec must survive tuples-become-lists and string keys.
        state = json.loads(json.dumps(state))
        target = create_predictor(name)
        restore_predictor(target, state)
        assert snapshot_predictor(target) == snapshot_predictor(source)

    def test_unknown_predictor_type_rejected(self):
        class Mystery:
            pass

        with pytest.raises(SimulationError):
            snapshot_predictor(Mystery())
        with pytest.raises(SimulationError):
            restore_predictor(Mystery(), {})


# --------------------------------------------------------------------------- #
# Window workers + stitching (every predictor, no engine)
# --------------------------------------------------------------------------- #
def stitched_shard(trace: ValueTrace, name: str, window: int, kernel: str | None = None):
    """Replay + window-simulate + stitch, via the real worker functions."""
    windows = plan_windows(len(trace), window)
    boundaries = [start for start, _ in windows if start > 0]
    states: dict[str, dict] = {}
    if boundaries:
        outcome = execute_replay_task(
            {"predictor": name, "trace": trace, "boundaries": boundaries}
        )
        states = outcome["states"]
    shards = []
    for start, stop in windows:
        payload = {
            "predictor": name,
            "trace": trace[start:stop],
            "window": [start, stop],
            "state": json.loads(json.dumps(states[str(start)])) if start else None,
            "kernel": kernel,
        }
        shards.append(
            shard_from_dict(execute_simulate_task(payload)["shard"])
        )
    return merge_window_shards(name, shards)


class TestWindowStitching:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_predictor_bit_identical(self, name):
        trace = synthetic_trace(21, 260, 7)
        whole = simulate_shard(trace, name)
        merged = stitched_shard(trace, name, window=37)
        assert json.dumps(shard_to_dict(merged)) == json.dumps(shard_to_dict(whole))

    def test_boundary_mid_hot_pc_run(self):
        # One hot PC: every boundary interrupts its run, so any handoff
        # state drift (hysteresis counters, stride transients, FCM
        # histories) breaks bit identity here first.
        trace = synthetic_trace(4, 256, 1)
        for name in ("lv-counter", "lv-consecutive", "s2", "stride-counter", "fcm3"):
            whole = simulate_shard(trace, name)
            merged = stitched_shard(trace, name, window=100)
            assert json.dumps(shard_to_dict(merged)) == json.dumps(
                shard_to_dict(whole)
            ), name

    def test_window_of_one(self):
        trace = synthetic_trace(5, 48, 3)
        for name in ("l", "fcm2"):
            whole = simulate_shard(trace, name)
            merged = stitched_shard(trace, name, window=1)
            assert json.dumps(shard_to_dict(merged)) == json.dumps(shard_to_dict(whole))

    def test_counter_incremented_once_per_pair(self):
        trace = synthetic_trace(6, 90, 3)
        before = SIMULATION_COUNTER.count
        stitched_shard(trace, "l", window=30)
        assert SIMULATION_COUNTER.count == before + 1

    @pytest.mark.parametrize("kernel", ("scalar", "vector"))
    def test_whole_trace_is_the_window_from_zero(self, kernel):
        # One simulate worker: a payload without a window and the window
        # [0, L) from a fresh predictor are the same task.
        trace = synthetic_trace(8, 120, 5)
        base = {"predictor": "fcm2", "trace": trace, "kernel": kernel}
        before = SIMULATION_COUNTER.count
        whole = execute_simulate_task(base)["shard"]
        window = execute_simulate_task({**base, "window": [0, len(trace)], "state": None})
        assert SIMULATION_COUNTER.count == before + 2
        assert json.dumps(window["shard"]) == json.dumps(whole)
        assert json.dumps(whole) == json.dumps(shard_to_dict(simulate_shard(trace, "fcm2")))

    @pytest.mark.parametrize("name", PREDICTORS)
    def test_scalar_kernel_windows_bit_identical(self, name):
        # The scalar loop restored from handoff states is the path a
        # vector plan falls back to; it must stitch as exactly as the
        # vector kernel does.
        trace = synthetic_trace(22, 200, 6)
        whole = simulate_shard(trace, name, kernel="scalar")
        before = SIMULATION_COUNTER.count
        merged = stitched_shard(trace, name, window=45, kernel="scalar")
        assert SIMULATION_COUNTER.count == before + 1
        assert json.dumps(shard_to_dict(merged)) == json.dumps(shard_to_dict(whole))


# --------------------------------------------------------------------------- #
# Engine-level parity (campaigns, sweeps, backends, cache)
# --------------------------------------------------------------------------- #
def _campaign(tmp_path, tag, **engine_kwargs):
    cache_dir = tmp_path / f"cache-{tag}"
    with ExecutionEngine(EngineConfig(cache_dir=cache_dir, **engine_kwargs)) as engine:
        result = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=("compress",))
    return result, engine.stats, cache_dir


def _dump(result):
    return {
        benchmark: json.dumps(simulation_to_dict(simulation), sort_keys=True)
        for benchmark, simulation in result.simulations.items()
    }


class TestEngineSharding:
    def test_serial_sharded_matches_unsharded_and_cache_bytes(self, tmp_path):
        reference, _, serial_dir = _campaign(tmp_path, "plain", jobs=1)
        sharded, stats, sharded_dir = _campaign(
            tmp_path, "sharded", jobs=1, shard_window=400
        )
        assert _dump(sharded) == _dump(reference)
        assert stats.windows_computed > 0
        assert stats.simulations_computed == len(PREDICTORS)
        # Identical pair-level entries, byte for byte; only the extra
        # simulate-window kind distinguishes the sharded cache.
        assert _entry_bytes(sharded_dir, exclude_kinds=("simulate-window",)) == (
            _entry_bytes(serial_dir)
        )

    @pytest.mark.parametrize("backend", ("pool", "persistent"))
    def test_process_backends_bit_identical(self, tmp_path, backend):
        reference, _, _ = _campaign(tmp_path, "ref", jobs=1)
        sharded, stats, _ = _campaign(
            tmp_path, backend, jobs=2, backend=backend, shard_window="auto"
        )
        assert _dump(sharded) == _dump(reference)
        assert stats.windows_computed > 0

    def test_remote_backend_bit_identical(self, tmp_path):
        reference, _, serial_dir = _campaign(tmp_path, "ref", jobs=1)
        with WorkerServer() as first, WorkerServer() as second:
            sharded, stats, remote_dir = _campaign(
                tmp_path,
                "remote",
                jobs=1,
                backend="remote",
                workers=[first.address, second.address],
                shard_window="auto",
            )
        assert _dump(sharded) == _dump(reference)
        assert stats.windows_computed > 0
        assert _entry_bytes(remote_dir, exclude_kinds=("simulate-window",)) == (
            _entry_bytes(serial_dir)
        )

    def test_sharded_cold_warms_unsharded_and_vice_versa(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with ExecutionEngine(
            EngineConfig(jobs=1, cache_dir=cache_dir, shard_window=300)
        ) as engine:
            engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=("compress",))
        with ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir)) as engine:
            engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=("compress",))
            assert engine.stats.simulations_computed == 0
        other_dir = tmp_path / "other"
        with ExecutionEngine(EngineConfig(jobs=1, cache_dir=other_dir)) as engine:
            engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=("compress",))
        with ExecutionEngine(
            EngineConfig(jobs=1, cache_dir=other_dir, shard_window=300)
        ) as engine:
            engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=("compress",))
            assert engine.stats.simulations_computed == 0
            assert engine.stats.windows_computed == 0

    def test_warm_windows_resume_interrupted_shard(self, tmp_path):
        # Window entries persist individually, so a rerun after losing the
        # pair-level entry re-stitches from warm windows without
        # re-simulating any of them.
        cache_dir = tmp_path / "cache"
        with ExecutionEngine(
            EngineConfig(jobs=1, cache_dir=cache_dir, shard_window=300)
        ) as engine:
            reference = engine.run(
                scale=SCALE, predictors=PREDICTORS, benchmarks=("compress",)
            )
        for kind in ("simulate", "merge"):
            for path in (cache_dir / kind).glob("**/*"):
                if path.is_file():
                    path.unlink()
        with ExecutionEngine(
            EngineConfig(jobs=1, cache_dir=cache_dir, shard_window=300)
        ) as engine:
            rerun = engine.run(
                scale=SCALE, predictors=PREDICTORS, benchmarks=("compress",)
            )
            assert engine.stats.windows_computed == 0
            assert engine.stats.windows_cached > 0
        assert _dump(rerun) == _dump(reference)

    def test_mixed_sharded_and_unsharded_benchmarks(self, tmp_path):
        # A window between the two trace lengths shards one benchmark and
        # leaves the other on the pair-level path within the same run.
        benchmarks = ("compress", "m88ksim")
        with ExecutionEngine(EngineConfig(jobs=1)) as engine:
            reference = engine.run(
                scale=SCALE, predictors=PREDICTORS, benchmarks=benchmarks
            )
        lengths = sorted(len(reference.traces[name]) for name in benchmarks)
        assert lengths[0] < lengths[1], "fixture needs distinct trace lengths"
        window = lengths[0] + (lengths[1] - lengths[0]) // 2
        with ExecutionEngine(EngineConfig(jobs=1, shard_window=window)) as engine:
            mixed = engine.run(
                scale=SCALE, predictors=PREDICTORS, benchmarks=benchmarks
            )
            assert engine.stats.windows_computed > 0
        assert _dump(mixed) == _dump(reference)

    def test_sharded_vector_matches_unsharded_scalar_cache_bytes(self, tmp_path):
        # The acceptance bar for vector-windowed execution: a sharded run
        # on the vector kernel writes the same pair-level (and merge)
        # entries, byte for byte, as an unsharded scalar run.
        pytest.importorskip("numpy")
        reference, _, scalar_dir = _campaign(tmp_path, "scalar", jobs=1, kernel="scalar")
        sharded, stats, vector_dir = _campaign(
            tmp_path, "vector-sharded", jobs=1, kernel="vector", shard_window=400
        )
        assert _dump(sharded) == _dump(reference)
        assert stats.windows_computed > 0
        assert _entry_bytes(vector_dir, exclude_kinds=("simulate-window",)) == (
            _entry_bytes(scalar_dir)
        )

    def test_window_entries_bit_identical_across_kernels(self, tmp_path):
        # Same sharding, different kernels: every cache kind — the
        # per-window entries included — must match byte for byte.
        pytest.importorskip("numpy")
        _, _, scalar_dir = _campaign(
            tmp_path, "win-scalar", jobs=1, kernel="scalar", shard_window=400
        )
        _, stats, vector_dir = _campaign(
            tmp_path, "win-vector", jobs=1, kernel="vector", shard_window=400
        )
        assert stats.windows_computed > 0
        assert _entry_bytes(vector_dir) == _entry_bytes(scalar_dir)

    def test_sweep_sharded_parity(self, tmp_path):
        spec = SweepSpec(benchmark="compress", scale=SCALE, predictors=PREDICTORS)
        with ExecutionEngine(EngineConfig(jobs=1)) as engine:
            reference = engine.run_sweep(spec)
        with ExecutionEngine(EngineConfig(jobs=1, shard_window=400)) as engine:
            sharded = engine.run_sweep(spec)
            assert engine.stats.windows_computed > 0
        for expected, actual in zip(reference.points, sharded.points):
            assert expected.point == actual.point
            assert json.dumps(shard_to_dict_like(actual.result)) == json.dumps(
                shard_to_dict_like(expected.result)
            )


def shard_to_dict_like(result):
    """Stable rendering of a PredictorResult for equality assertions."""
    return {
        "predictor": result.predictor,
        "total": result.total,
        "correct": result.correct,
        "category_total": {str(k): v for k, v in result.category_total.items()},
        "category_correct": {str(k): v for k, v in result.category_correct.items()},
        "pc_correct": {str(k): v for k, v in result.pc_correct.items()},
    }
