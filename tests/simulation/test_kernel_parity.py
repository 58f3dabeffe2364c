"""Differential harness pinning the vector kernel to the scalar reference.

The scalar loop of :mod:`repro.simulation.simulator` is the golden
reference; the columnar kernel (:mod:`repro.simulation.vectorized`) must be
*bit-identical* to it — not just equal totals, but the same packed
per-record correctness bits and the same dict insertion orders, because
cache entries are JSON renderings of these dicts and the two kernels must
produce byte-identical entries.  The harness drives every registered
predictor configuration over seeded synthetic traces engineered to stress
each plan: skewed PC reuse, stride runs with breaks, repeating FCM
contexts, mixed instruction categories and occasional extreme values.
The same harness pins the engine's simulate worker — every kernel and
trace transport — and each shard's accounting to the scalar reference.
"""

from __future__ import annotations

import functools
import json
import random

import pytest

from repro.core.registry import PAPER_PREDICTORS, available_predictors, create_predictor
from repro.engine.codecs import shard_to_dict, simulation_to_dict
from repro.engine.fingerprint import predictor_signature
from repro.engine.tasks import SimulateTask
from repro.engine.telemetry import TELEMETRY_KEY
from repro.engine.worker import execute_simulate_task
from repro.errors import SimulationError
from repro.isa.opcodes import CATEGORY_OF, Opcode
from repro.simulation import vectorized
from repro.simulation.simulator import (
    SIMULATION_COUNTER,
    merge_shards,
    pack_outcomes,
    simulate_shard,
    simulate_trace,
)
from repro.trace.io import decode_trace_columns, dumps_trace_binary, trace_columns
from repro.trace.record import TraceRecord
from repro.trace.stream import ValueTrace

requires_numpy = pytest.mark.skipif(
    vectorized.numpy_or_none() is None, reason="vector kernel requires numpy"
)

#: Register-writing opcodes spanning all predicted categories (Table 3).
_OPCODES = (
    Opcode.ADD,
    Opcode.ADDI,
    Opcode.LW,
    Opcode.LB,
    Opcode.AND,
    Opcode.XOR,
    Opcode.SLL,
    Opcode.SLT,
    Opcode.MULT,
    Opcode.LUI,
    Opcode.MOV,
)

_EXTREMES = (2**63 - 1, -(2**63), -1, 0)


@functools.lru_cache(maxsize=None)
def synthetic_trace(seed: int, length: int, pcs: int) -> ValueTrace:
    """A seeded random trace with per-PC value behaviours.

    Each static PC gets one behaviour: arithmetic strides with occasional
    breaks (stride adoption/two-delta hysteresis), mostly-constant values
    (last-value hits), short repeating cycles (FCM contexts that recur) or
    uniform 64-bit noise.  PC selection is skewed so a few PCs dominate,
    as in real traces; rare extreme values exercise the zigzag boundaries.
    """
    rng = random.Random(seed)
    pc_pool = [0x400000 + 4 * index for index in range(pcs)]
    opcode_of = {pc: rng.choice(_OPCODES) for pc in pc_pool}
    behaviour_of = {pc: rng.choice(("stride", "repeat", "cycle", "noisy")) for pc in pc_pool}
    state: dict[int, object] = {}
    occurrences: dict[int, int] = {}
    records = []
    serial = 0
    for _ in range(length):
        serial += rng.randint(1, 4)
        # Quadratic skew: low-index PCs are reused far more often.
        pc = pc_pool[min(int(rng.random() ** 2 * pcs), pcs - 1)]
        occurrence = occurrences.get(pc, 0)
        occurrences[pc] = occurrence + 1
        behaviour = behaviour_of[pc]
        if behaviour == "stride":
            base, stride = state.setdefault(
                pc, (rng.randint(-1000, 1000), rng.choice((-8, -1, 1, 4, 8)))
            )
            value = base
            if rng.random() < 0.05:
                stride = rng.choice((-8, -1, 1, 4, 8))
            state[pc] = (base + stride, stride)
        elif behaviour == "repeat":
            value = state.setdefault(pc, rng.randint(-50, 50))
            if rng.random() < 0.1:
                value = rng.randint(-50, 50)
                state[pc] = value
        elif behaviour == "cycle":
            pattern = state.setdefault(
                pc, tuple(rng.randint(-9, 9) for _ in range(rng.randint(2, 5)))
            )
            value = pattern[occurrence % len(pattern)]
        else:
            value = rng.randrange(-(2**63), 2**63)
        if rng.random() < 0.01:
            value = rng.choice(_EXTREMES)
        opcode = opcode_of[pc]
        records.append(
            TraceRecord(
                serial=serial,
                pc=pc,
                opcode=opcode,
                category=CATEGORY_OF[opcode],
                value=value,
            )
        )
    trace = ValueTrace(f"synthetic-{seed}-{length}-{pcs}", records)
    trace.set_total_dynamic_instructions(serial + rng.randint(0, 5))
    return trace


#: (seed, length, pcs) — dozens of shapes: hot single PCs, wide PC sets,
#: tiny traces, deep per-PC streams.
SCENARIOS = (
    (1, 400, 8),
    (2, 640, 3),
    (3, 500, 40),
    (4, 256, 1),
    (5, 700, 16),
    (6, 123, 5),
    (7, 810, 25),
    (8, 320, 64),
)

#: Every statically registered name plus dynamic-suffix names, covering
#: both the vectorized plans and the scalar-fallback configurations.
ALL_NAMES = tuple(available_predictors()) + (
    "fcm0",
    "fcm4",
    "fcm2-single",
    "fcm2-small",
    "fcm2-full",
)

#: ALL_NAMES without its repeats, for tests that run once per configuration.
UNIQUE_NAMES = tuple(dict.fromkeys(ALL_NAMES))


def assert_shard_parity(trace: ValueTrace, name: str) -> None:
    scalar = simulate_shard(trace, name, kernel="scalar")
    vector = simulate_shard(trace, name, kernel="vector")
    assert json.dumps(shard_to_dict(scalar)) == json.dumps(shard_to_dict(vector))


@requires_numpy
class TestShardParity:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: f"seed{s[0]}")
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_predictor_every_scenario(self, scenario, name):
        assert_shard_parity(synthetic_trace(*scenario), name)

    def test_every_name_has_a_vector_plan(self):
        # Guard against the parity tests comparing scalar against a silent
        # scalar fallback: every registered name — and every dynamic fcm
        # spelling — must have a real plan.
        for name in ALL_NAMES + ("fcm5-single", "fcm6-small", "fcm1-full"):
            assert vectorized.vector_plan(name) is not None, name

    def test_vector_kernel_actually_engages(self):
        columns = trace_columns(synthetic_trace(*SCENARIOS[0]))
        assert columns is not None
        assert vectorized.simulate_shard_vector(columns, "fcm2") is not None

    def test_vector_plan_memoized_per_registry_name(self):
        from repro.core.registry import register_predictor, registered_factory
        from repro.core.last_value import LastValuePredictor

        assert vectorized.vector_plan("lv-counter") is vectorized.vector_plan("lv-counter")
        assert vectorized.vector_plan("fcm5") is vectorized.vector_plan("fcm5")
        original = registered_factory("lv-counter")
        first = vectorized.vector_plan("lv-counter")
        register_predictor(
            "lv-counter",
            lambda: LastValuePredictor(
                hysteresis="counter", counter_max=1, counter_threshold=1
            ),
            overwrite=True,
        )
        try:
            # Re-binding the name swaps the factory token, so the memoised
            # plan must be rebuilt for the new configuration.
            assert vectorized.vector_plan("lv-counter") is not first
        finally:
            register_predictor("lv-counter", original, overwrite=True)
        assert vectorized.vector_plan("lv-counter") is not None


@requires_numpy
class TestMergeParity:
    @pytest.mark.parametrize("scenario", SCENARIOS[:4], ids=lambda s: f"seed{s[0]}")
    def test_simulate_trace_parity(self, scenario):
        trace = synthetic_trace(*scenario)
        scalar = simulate_trace(trace, PAPER_PREDICTORS, kernel="scalar")
        vector = simulate_trace(trace, PAPER_PREDICTORS, kernel="vector")
        assert json.dumps(simulation_to_dict(scalar)) == json.dumps(simulation_to_dict(vector))

    def test_merge_parity_mixed_shards(self):
        # Shards computed by either kernel merge identically on either kernel.
        trace = synthetic_trace(*SCENARIOS[1])
        names = ("l", "s2", "fcm1", "fcm2-small")
        shards = {
            name: simulate_shard(trace, name, kernel="vector" if index % 2 else "scalar")
            for index, name in enumerate(names)
        }
        scalar = merge_shards(trace, shards, kernel="scalar")
        vector = merge_shards(trace, shards, kernel="vector")
        assert json.dumps(simulation_to_dict(scalar)) == json.dumps(simulation_to_dict(vector))

    def test_subset_excluding_fcm(self):
        trace = synthetic_trace(*SCENARIOS[2])
        scalar = simulate_trace(trace, ("l", "s2"), kernel="scalar")
        vector = simulate_trace(trace, ("l", "s2"), kernel="vector")
        assert json.dumps(simulation_to_dict(scalar)) == json.dumps(simulation_to_dict(vector))


def _edge_trace(name: str, triples) -> ValueTrace:
    """Build a tiny trace from (pc, opcode, value) triples."""
    records = [
        TraceRecord(
            serial=index + 1,
            pc=pc,
            opcode=opcode,
            category=CATEGORY_OF[opcode],
            value=value,
        )
        for index, (pc, opcode, value) in enumerate(triples)
    ]
    return ValueTrace(name, records)


@requires_numpy
class TestEdgeCases:
    EDGE_NAMES = ("l", "s", "s2", "fcm1", "fcm2", "fcm3", "fcm0", "fcm2-single")

    @pytest.mark.parametrize("name", EDGE_NAMES)
    def test_empty_trace(self, name):
        assert_shard_parity(ValueTrace("empty", []), name)

    @pytest.mark.parametrize("name", EDGE_NAMES)
    def test_single_record(self, name):
        assert_shard_parity(_edge_trace("one", [(0x10, Opcode.ADD, 7)]), name)

    @pytest.mark.parametrize("name", EDGE_NAMES)
    def test_single_hot_pc(self, name):
        triples = [(0x10, Opcode.LW, value) for value in (3, 5, 7, 9, 9, 9, 11, 3, 5, 7)]
        assert_shard_parity(_edge_trace("hot", triples), name)

    @pytest.mark.parametrize("name", EDGE_NAMES)
    def test_interleaved_aliasing_pcs(self, name):
        # Two PCs in lockstep with identical values: per-PC grouping must
        # not leak one PC's history into the other's table walk.
        triples = []
        for value in (1, 2, 3, 5, 8, 13, 21):
            triples.append((0x10, Opcode.ADD, value))
            triples.append((0x20, Opcode.SUB, value))
        assert_shard_parity(_edge_trace("alias", triples), name)

    @pytest.mark.parametrize("name", EDGE_NAMES)
    def test_extreme_values_through_zigzag(self, name):
        triples = [
            (0x10, Opcode.LUI, 2**63 - 1),
            (0x10, Opcode.LUI, -(2**63)),
            (0x10, Opcode.LUI, 2**63 - 1),
            (0x14, Opcode.ADD, -(2**63)),
            (0x14, Opcode.ADD, -1),
            (0x14, Opcode.ADD, 2**63 - 2),
            (0x10, Opcode.LUI, -(2**63)),
        ]
        assert_shard_parity(_edge_trace("extreme", triples), name)

    @pytest.mark.parametrize("compress", (False, True))
    def test_columnar_decode_matches_object_columns(self, compress):
        # The wire-bytes fast path and the record-object path must build
        # the same columns — boundary values and all.
        np = vectorized.numpy_or_none()
        trace = synthetic_trace(9, 300, 12)
        decoded = decode_trace_columns(dumps_trace_binary(trace, compress=compress))
        reference = trace_columns(trace)
        assert decoded is not None and reference is not None
        assert decoded.name == reference.name
        assert decoded.total_dynamic_instructions == reference.total_dynamic_instructions
        assert decoded.categories == reference.categories
        for field in ("serials", "pcs", "values", "category_codes"):
            assert np.array_equal(getattr(decoded, field), getattr(reference, field)), field


@pytest.fixture
def temporary_predictor():
    """Register throwaway configurations; pop them again on teardown."""
    from repro.core import registry

    names: list[str] = []

    def _register(name: str, factory) -> str:
        registry.register_predictor(name, factory)
        names.append(name)
        return name

    yield _register
    for name in names:
        registry._REGISTRY.pop(name, None)
        vectorized._PLAN_CACHE.pop(name, None)


@requires_numpy
class TestCounterEdges:
    """Saturation-counter boundaries: counter_max=1 and threshold==counter_max."""

    def _cases(self):
        from repro.core.last_value import LastValuePredictor
        from repro.core.stride import CounterStridePredictor

        return (
            ("edge-lv-m1", lambda: LastValuePredictor(
                hysteresis="counter", counter_max=1, counter_threshold=1)),
            ("edge-lv-tmax", lambda: LastValuePredictor(
                hysteresis="counter", counter_max=3, counter_threshold=3)),
            ("edge-lv-run1", lambda: LastValuePredictor(
                hysteresis="consecutive", required_run=1)),
            ("edge-sc-m1", lambda: CounterStridePredictor(counter_max=1, threshold=1)),
            ("edge-sc-tmax", lambda: CounterStridePredictor(counter_max=3, threshold=3)),
        )

    def test_counter_boundary_parity(self, temporary_predictor):
        for name, factory in self._cases():
            temporary_predictor(name, factory)
            for scenario in SCENARIOS[:4]:
                assert_shard_parity(synthetic_trace(*scenario), name)

    def test_counter_boundary_hot_pc(self, temporary_predictor):
        # A value flip-flop drives the counter across every saturation and
        # replacement edge on a single entry.
        values = (5, 5, 5, 9, 5, 9, 9, 5, 5, 9, 9, 9, 5, 13, 13, 5, 9)
        triples = [(0x40, Opcode.ADD, value) for value in values]
        for name, factory in self._cases():
            temporary_predictor(name, factory)
            assert_shard_parity(_edge_trace("flipflop", triples), name)


@requires_numpy
class TestAccounting:
    def test_counter_counts_one_per_trace_predictor_pair(self):
        trace = synthetic_trace(10, 200, 6)
        SIMULATION_COUNTER.reset()
        simulate_trace(trace, PAPER_PREDICTORS, kernel="vector")
        assert SIMULATION_COUNTER.count == len(PAPER_PREDICTORS)
        SIMULATION_COUNTER.reset()
        simulate_shard(trace, "fcm1", kernel="vector")
        assert SIMULATION_COUNTER.count == 1


@requires_numpy
class TestWorkerParity:
    """The simulate worker returns the scalar reference shard on every path.

    One simulate unit is one (trace, predictor) pair run by
    :func:`execute_simulate_task` from a fresh predictor over the whole
    trace.  Its payload carries the trace inline (in-process dispatch) or
    as v3 bytes (pool and remote wire), and each kernel decodes it its own
    way; all four combinations must return the same shard dict.
    """

    @pytest.mark.parametrize("transport", ("inline", "bytes"))
    @pytest.mark.parametrize("kernel", ("scalar", "vector"))
    @pytest.mark.parametrize("name", UNIQUE_NAMES)
    def test_worker_shard_matches_reference(self, name, kernel, transport):
        trace = synthetic_trace(*SCENARIOS[6])
        task = SimulateTask(
            benchmark="synthetic",
            predictor=name,
            trace_digest="unused",
            predictor_signature=predictor_signature(name),
        )
        payload = task.payload(trace, inline=transport == "inline", kernel=kernel)
        outcome = execute_simulate_task(payload)
        reference = shard_to_dict(simulate_shard(trace, name, kernel="scalar"))
        assert json.dumps(outcome["shard"]) == json.dumps(reference)
        sidecar = outcome[TELEMETRY_KEY]
        assert sidecar["kernel"] == kernel
        assert sidecar["kernel_fallback"] is False
        assert sidecar["predictor"] == name


@requires_numpy
class TestFreshPredictor:
    @pytest.mark.parametrize("name", UNIQUE_NAMES)
    def test_each_unit_starts_from_a_fresh_predictor(self, name):
        # No predictor table and no memoised vector plan may carry state
        # from one simulated trace into the next.
        first = synthetic_trace(*SCENARIOS[0])
        second = synthetic_trace(*SCENARIOS[4])
        for kernel in ("scalar", "vector"):
            alone = shard_to_dict(simulate_shard(second, name, kernel=kernel))
            simulate_shard(first, name, kernel=kernel)
            after = shard_to_dict(simulate_shard(second, name, kernel=kernel))
            assert json.dumps(after) == json.dumps(alone), kernel


@requires_numpy
class TestShardAccounting:
    """Each shard agrees with the predictor's own observe loop and stats."""

    @pytest.mark.parametrize("kernel", ("scalar", "vector"))
    @pytest.mark.parametrize("name", UNIQUE_NAMES)
    def test_shard_agrees_with_predictor_statistics(self, name, kernel):
        trace = synthetic_trace(*SCENARIOS[2])
        predictor = create_predictor(name)
        outcomes = [
            predictor.observe(record.pc, record.value, record.category)
            for record in trace.records
        ]
        shard = simulate_shard(trace, name, kernel=kernel)
        result = shard.result
        stats = predictor.stats
        assert shard.record_count == len(trace)
        assert shard.correctness == pack_outcomes(outcomes)
        assert result.total == stats.lookups == len(trace)
        assert result.correct == stats.correct == sum(outcomes)
        assert result.category_total == stats.per_category_lookups
        assert result.category_correct == stats.per_category_correct
        assert sum(result.pc_correct.values()) == result.correct
        assert sum(bin(byte).count("1") for byte in shard.correctness) == result.correct


class TestKernelResolution:
    def test_default_is_scalar(self, monkeypatch):
        monkeypatch.delenv(vectorized.KERNEL_ENV, raising=False)
        assert vectorized.resolve_kernel(None) == "scalar"

    def test_empty_environment_is_scalar(self, monkeypatch):
        monkeypatch.setenv(vectorized.KERNEL_ENV, "")
        assert vectorized.resolve_kernel(None) == "scalar"

    @requires_numpy
    def test_environment_forces_vector(self, monkeypatch):
        monkeypatch.setenv(vectorized.KERNEL_ENV, "vector")
        assert vectorized.resolve_kernel(None) == "vector"

    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv(vectorized.KERNEL_ENV, "vector")
        assert vectorized.resolve_kernel("scalar") == "scalar"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SimulationError, match="unknown simulation kernel"):
            vectorized.resolve_kernel("turbo")

    def test_unknown_environment_kernel_names_source(self, monkeypatch):
        monkeypatch.setenv(vectorized.KERNEL_ENV, "turbo")
        with pytest.raises(SimulationError, match=vectorized.KERNEL_ENV):
            vectorized.resolve_kernel(None)

    def test_auto_without_numpy_is_scalar(self, monkeypatch):
        monkeypatch.setattr(vectorized, "_numpy_module", None)
        assert vectorized.resolve_kernel("auto") == "scalar"

    def test_forced_vector_without_numpy_is_clean_error(self, monkeypatch):
        monkeypatch.setattr(vectorized, "_numpy_module", None)
        with pytest.raises(SimulationError, match="requires numpy"):
            vectorized.resolve_kernel("vector")
        with pytest.raises(SimulationError, match="requires numpy"):
            simulate_shard(synthetic_trace(11, 20, 2), "l", kernel="vector")
