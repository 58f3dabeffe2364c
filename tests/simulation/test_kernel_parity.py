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
The same harness pins the engine's simulate worker — on both trace
transports — and each shard's accounting to the scalar reference.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import random
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.core.registry import PAPER_PREDICTORS, available_predictors, create_predictor
from repro.engine.codecs import shard_to_dict, simulation_to_dict
from repro.engine.fingerprint import predictor_signature
from repro.engine.tasks import SimulateTask, simulate_payload
from repro.engine.telemetry import TELEMETRY_KEY
from repro.engine.worker import execute_simulate_task
from repro.errors import SimulationError, TraceError
from repro.isa.opcodes import CATEGORY_OF, Opcode
from repro.simulation import vectorized
from repro.simulation.simulator import (
    SIMULATION_COUNTER,
    PredictionSimulator,
    merge_shards,
    merge_shards_scalar,
    pack_outcomes,
    simulate_shard,
    simulate_shard_scalar,
    simulate_trace,
)
from repro.trace.io import decode_trace_columns, dumps_trace_binary, trace_columns
from repro.trace.record import TraceRecord
from repro.trace.stream import RecordColumns, ValueTrace

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "trace"))
import oracles  # noqa: E402

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

#: Every statically registered name plus dynamic-suffix names.
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
    """The vector plan itself (never a fallback) equals the reference loop."""
    vector = vectorized.simulate_shard_vector(trace_columns(trace), name)
    assert vector is not None
    scalar = simulate_shard_scalar(trace, name)
    assert json.dumps(shard_to_dict(scalar)) == json.dumps(shard_to_dict(vector))


class TestShardParity:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: f"seed{s[0]}")
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_predictor_every_scenario(self, scenario, name):
        assert_shard_parity(synthetic_trace(*scenario), name)

    def test_every_name_has_a_vector_plan(self):
        # Every registered name — and every dynamic fcm spelling — has a
        # real plan, so no registered name takes the reference loop.
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


def reference_simulation(trace: ValueTrace, names):
    """The lockstep reference loop's joint result."""
    return PredictionSimulator.from_names(tuple(names)).run(trace)


class TestMergeParity:
    @pytest.mark.parametrize("scenario", SCENARIOS[:4], ids=lambda s: f"seed{s[0]}")
    def test_simulate_trace_parity(self, scenario):
        trace = synthetic_trace(*scenario)
        scalar = reference_simulation(trace, PAPER_PREDICTORS)
        vector = simulate_trace(trace, PAPER_PREDICTORS)
        assert json.dumps(simulation_to_dict(scalar)) == json.dumps(simulation_to_dict(vector))

    def test_merge_parity_mixed_shards(self):
        # Shards from the vector kernel and the reference loop merge
        # identically on the vector merge and the reference merge loop.
        trace = synthetic_trace(*SCENARIOS[1])
        names = ("l", "s2", "fcm1", "fcm2-small")
        shards = {
            name: (simulate_shard if index % 2 else simulate_shard_scalar)(trace, name)
            for index, name in enumerate(names)
        }
        scalar = merge_shards_scalar(trace, shards)
        vector = merge_shards(trace, shards)
        assert json.dumps(simulation_to_dict(scalar)) == json.dumps(simulation_to_dict(vector))

    def test_subset_excluding_fcm(self):
        trace = synthetic_trace(*SCENARIOS[2])
        scalar = reference_simulation(trace, ("l", "s2"))
        vector = simulate_trace(trace, ("l", "s2"))
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


class TestEdgeCases:
    @pytest.mark.parametrize("name", UNIQUE_NAMES)
    def test_empty_trace(self, name):
        assert_shard_parity(ValueTrace("empty", []), name)

    @pytest.mark.parametrize("name", UNIQUE_NAMES)
    def test_single_record(self, name):
        assert_shard_parity(_edge_trace("one", [(0x10, Opcode.ADD, 7)]), name)

    @pytest.mark.parametrize("name", UNIQUE_NAMES)
    def test_single_hot_pc(self, name):
        triples = [(0x10, Opcode.LW, value) for value in (3, 5, 7, 9, 9, 9, 11, 3, 5, 7)]
        assert_shard_parity(_edge_trace("hot", triples), name)

    @pytest.mark.parametrize("name", UNIQUE_NAMES)
    def test_interleaved_aliasing_pcs(self, name):
        # Two PCs in lockstep with identical values: per-PC grouping must
        # not leak one PC's history into the other's table walk.
        triples = []
        for value in (1, 2, 3, 5, 8, 13, 21):
            triples.append((0x10, Opcode.ADD, value))
            triples.append((0x20, Opcode.SUB, value))
        assert_shard_parity(_edge_trace("alias", triples), name)

    @pytest.mark.parametrize("name", UNIQUE_NAMES)
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


#: Exact-count FCM spellings at shallow and deep orders, plus a hybrid
#: whose ``fcm3`` component runs the same streams.
FCM_NAMES = tuple(
    f"fcm{order}{suffix}" for order in (0, 1, 2, 3, 8) for suffix in ("", "-single", "-full")
) + ("hybrid-s2-fcm3",)


class TestExactFcmStreams:
    """Hand-built traces for the exact-count FCM streams' corner cases.

    A stream reads each context's elements from its order's sort and runs
    the count machinery only on contexts whose value changes, with pair
    counts read from the next order's sort; each case pins one edge of
    that to the reference loop.
    """

    @pytest.mark.parametrize("name", FCM_NAMES)
    def test_context_turns_multi_valued_after_a_long_run(self, name):
        values = [5] * 30 + [6, 5, 6, 6, 7] + [6] * 31 + [5] * 3
        triples = [(0x10, Opcode.ADD, value) for value in values]
        triples += [(0x20, Opcode.LW, value) for value in [9] * 12 + [8, 9]]
        assert_shard_parity(_edge_trace("run-then-change", triples), name)

    @pytest.mark.parametrize("name", FCM_NAMES)
    def test_recent_value_against_leader_ties(self, name):
        # Order 0 walks through a recent value tying the maximum (it wins),
        # a tie among older values (the first inserted wins) and a recent
        # value below the maximum (the leader wins).
        values = [1, 2, 2, 1, 3, 2, 1, 1, 3, 3, 3, 2, 2, 1, 3, 2, 1]
        triples = [(0x10, Opcode.ADD, value) for value in values]
        triples += [(0x20, Opcode.XOR, value) for value in values[::-1]]
        assert_shard_parity(_edge_trace("ties", triples), name)

    @pytest.mark.parametrize("name", FCM_NAMES)
    def test_lazy_feed_single_valued_where_full_feed_is_not(self, name):
        values = [1, 1, 2, 1, 2, 2, 2, 2, 3, 1]
        trace = _edge_trace("lazy", [(0x10, Opcode.ADD, value) for value in values])
        # Under lazy exclusion order 0 sees only the records whose order-1
        # context is new: all 1s, where the full feed is mostly 2s.  So the
        # last record, the first after a 3, predicts 1 from the lazy feed
        # and 2 from the full one.
        group = vectorized._Grouping(np, trace_columns(trace))
        group.by_context(1)
        full, _ = group.by_context(0)
        lazy = full[group.matched[full] <= 0]
        assert set(group.vs[lazy].tolist()) == {1}
        assert set(group.vs[full].tolist()) == {1, 2, 3}
        assert_shard_parity(trace, name)

    @pytest.mark.parametrize("name", FCM_NAMES)
    def test_pc_last_record_repeats_a_pair(self, name):
        # Each PC's last record repeats an earlier (context, value) pair of
        # its context at orders 0 and 1, and has no next record to list it.
        triples = [(0x10, Opcode.ADD, value) for value in (1, 2, 1, 3, 1, 2)]
        triples += [(0x20, Opcode.SLL, value) for value in (4, 4, 5, 4, 6, 4, 5)]
        assert_shard_parity(_edge_trace("last-repeats", triples), name)

    @pytest.mark.parametrize("name", FCM_NAMES)
    def test_streams_deeper_than_every_pc(self, name):
        # No PC has more than three records, so every stream at order 2 or
        # deeper holds PC-last records only.
        triples = []
        for round_values in ((1, 1, 2, 2, 3), (1, 2, 2, 3, 3), (1, 1, 1, 2, 3)):
            for pc, value in zip((0x10, 0x20, 0x30, 0x40, 0x50), round_values):
                triples.append((pc, Opcode.ADD, value))
        triples += [(0x60, Opcode.LW, 7), (0x60, Opcode.LW, 7)]
        assert_shard_parity(_edge_trace("shallow", triples), name)


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


@functools.lru_cache(maxsize=None)
def deep_single_pc_trace(length: int = 5000) -> ValueTrace:
    """One PC, ``length`` records deep, cycling through value behaviours.

    Runs of repeats (with one-off glitches), strides (some wrapping past
    64 bits), two-value flip-flops and 64-bit noise drive every counter
    and hysteresis edge many times over on a single table entry.
    """
    rng = random.Random(length)
    values: list[int] = []
    value = 0
    while len(values) < length:
        behaviour = rng.choice(("repeat", "stride", "flip", "noise"))
        stride = rng.choice((-8, 1, 4, 2**62))
        other = rng.randint(-9, 9)
        for step in range(rng.randint(3, 60)):
            if behaviour == "repeat":
                emitted = rng.randint(-9, 9) if rng.random() < 0.1 else value
            elif behaviour == "stride":
                value = (value + stride + 2**63) % 2**64 - 2**63
                emitted = value
            elif behaviour == "flip":
                emitted = value if step % 2 else other
            else:
                emitted = rng.randrange(-(2**63), 2**63)
            values.append(emitted)
    return _edge_trace("deep", [(0x40, Opcode.ADD, value) for value in values[:length]])


class TestDeepStream:
    """A PC stream deeper than 4,096 records, on a single-PC trace."""

    @pytest.mark.parametrize("name", ("lv-counter", "lv-consecutive", "stride-counter"))
    def test_counter_plans_stay_vectorized(self, name):
        # The per-PC counter loops have no depth guard: the shard comes
        # from the vector plan, never from the reference loop.
        trace = deep_single_pc_trace()
        shard = vectorized.simulate_shard_vector(trace_columns(trace), name)
        assert shard is not None
        reference = simulate_shard_scalar(trace, name)
        assert json.dumps(shard_to_dict(shard)) == json.dumps(shard_to_dict(reference))

    @pytest.mark.parametrize("name", UNIQUE_NAMES)
    def test_deep_stream_parity(self, name):
        assert_shard_parity(deep_single_pc_trace(), name)

    @pytest.mark.parametrize("name", ("fcm0-small", "fcm3-small"))
    def test_saturating_fcm_stays_vectorized(self, name):
        # Fresh 64-bit values between the hot ones leave about 4,400 of the
        # PC's 5,000 records unmatched at order 1, so order 0 runs one
        # context stream over 4,096 deep, where the hot value's count
        # saturates and halves over and over.  The per-context loops take
        # any depth.
        rng = random.Random(5000)
        values = [7 if index % 8 == 0 else rng.randrange(-(2**63), 2**63) for index in range(5000)]
        trace = _edge_trace("deep-noise", [(0x40, Opcode.ADD, value) for value in values])
        shard = vectorized.simulate_shard_vector(trace_columns(trace), name)
        assert shard is not None
        reference = simulate_shard_scalar(trace, name)
        assert json.dumps(shard_to_dict(shard)) == json.dumps(shard_to_dict(reference))


def _fresh_columns(trace: ValueTrace):
    """A new ``TraceColumns`` for ``trace``, sharing no kernel state."""
    return decode_trace_columns(dumps_trace_binary(trace))


class TestSharedTraceWork:
    """Work derived from one trace is done once for every plan over it."""

    @staticmethod
    def _spy(monkeypatch, name, record):
        original = getattr(vectorized, name)

        def spy(*args):
            record(*args)
            return original(*args)

        monkeypatch.setattr(vectorized, name, spy)

    def test_deep_fcm_context_sorts_grow_linearly(self, compress_trace, monkeypatch):
        calls = Counter()
        self._spy(monkeypatch, "_sort_pairs", lambda *args: calls.update(["sort"]))
        self._spy(monkeypatch, "_fcm_exact", lambda *args: calls.update(["stream"]))
        shard = vectorized.simulate_shard_vector(_fresh_columns(compress_trace), "fcm500")
        monkeypatch.undo()
        depth = max(Counter(compress_trace.record_columns().pcs).values())
        # One sort per context order the deepest stream reaches, shared by
        # every FCM stream — not one per order per order, nor one per stream.
        assert 0 < calls["stream"] <= depth
        assert 0 < calls["sort"] <= depth
        assert shard is not None
        reference = simulate_shard_scalar(compress_trace, "fcm500")
        assert json.dumps(shard_to_dict(shard)) == json.dumps(shard_to_dict(reference))

    def test_exact_fcm_streams_sort_nothing(self):
        # Once the context orders are built, an exact-count stream reads its
        # group order and its pair counts from them: any sort raises here.
        class NoSorts:
            def __getattr__(self, name):
                if name in ("argsort", "lexsort", "sort", "unique"):
                    raise AssertionError(f"np.{name} called inside an FCM stream")
                return getattr(np, name)

        group = vectorized._Grouping(np, trace_columns(synthetic_trace(*SCENARIOS[4])))
        group.by_context(9)
        for order in range(9):
            for lazy in (False, True):
                vectorized._fcm_eval(NoSorts(), group, order, lazy, None)

    def test_orders_and_hybrid_components_computed_once(self, monkeypatch):
        trace = synthetic_trace(*SCENARIOS[4])
        names = tuple(f"fcm{order}" for order in range(9)) + (
            "hybrid-s2-fcm3",
            "hybrid-type-s2-fcm3",
            "hybrid-oracle",
        )
        calls = Counter()
        blended_orders: list[int] = []
        self._spy(monkeypatch, "_sort_pairs", lambda *args: calls.update(["sort"]))
        self._spy(monkeypatch, "_plan_two_delta", lambda *args: calls.update(["s2"]))
        self._spy(
            monkeypatch,
            "_plan_blended_fcm",
            lambda np, group, order, *rest: blended_orders.append(order),
        )
        columns = _fresh_columns(trace)
        shards = {name: vectorized.simulate_shard_vector(columns, name) for name in names}
        monkeypatch.undo()
        # Context orders 1..9 are each sorted once, for all 12 plans: order
        # 9 lists fcm8's (context, value) pairs for its running counts.
        assert calls["sort"] == 9
        # fcm0..fcm8 once each, then one fcm3 and one s2 for all three hybrids.
        assert blended_orders == [*range(9), 3]
        assert calls["s2"] == 1
        for name, shard in shards.items():
            reference = simulate_shard_scalar(trace, name)
            assert json.dumps(shard_to_dict(shard)) == json.dumps(shard_to_dict(reference)), name

    def test_blended_fcms_share_lower_orders(self, monkeypatch):
        # fcmN runs one stream at its top order and reuses the lower
        # orders' predictions: 9 tops + 8 lower orders + the hybrids' fcm3
        # top is 18 streams, where a full per-N walk runs 49.
        trace = synthetic_trace(*SCENARIOS[4])
        names = tuple(f"fcm{order}" for order in range(9)) + (
            "hybrid-s2-fcm3",
            "hybrid-type-s2-fcm3",
            "hybrid-oracle",
        )
        calls = Counter()
        self._spy(monkeypatch, "_fcm_exact", lambda *args: calls.update(["stream"]))
        columns = _fresh_columns(trace)
        shards = {name: vectorized.simulate_shard_vector(columns, name) for name in names}
        monkeypatch.undo()
        assert 0 < calls["stream"] <= 18
        for name, shard in shards.items():
            reference = simulate_shard_scalar(trace, name)
            assert json.dumps(shard_to_dict(shard)) == json.dumps(shard_to_dict(reference)), name

    def test_shards_read_the_grouping(self, monkeypatch):
        # Per-PC and per-category tallies come from the trace's grouping
        # and a bincount: the whole-trace first-occurrence sort runs once
        # per trace (the shared category totals), not twice per shard.
        trace = synthetic_trace(*SCENARIOS[4])
        calls = Counter()
        self._spy(
            monkeypatch,
            "_first_occurrence_order",
            lambda *args: calls.update(["first_occurrence"]),
        )
        columns = _fresh_columns(trace)
        shards = {
            name: vectorized.simulate_shard_vector(columns, name)
            for name in available_predictors()
        }
        monkeypatch.undo()
        assert calls["first_occurrence"] <= 1
        for name, shard in shards.items():
            reference = simulate_shard_scalar(trace, name)
            assert json.dumps(shard_to_dict(shard)) == json.dumps(shard_to_dict(reference)), name


class TestKernelStateLifetime:
    """The kernel keeps derived state for the current trace only."""

    def test_moving_to_another_trace_releases_the_first(self):
        first = _fresh_columns(synthetic_trace(*SCENARIOS[0]))
        second = _fresh_columns(synthetic_trace(*SCENARIOS[1]))
        vectorized.simulate_shard_vector(first, "hybrid-oracle")
        first_state = weakref.ref(vectorized._current_trace[1])
        vectorized.simulate_shard_vector(second, "hybrid-oracle")
        gc.collect()
        assert first_state() is None
        first_columns = weakref.ref(first)
        del first
        gc.collect()
        assert first_columns() is None

    def test_state_dies_with_its_trace(self):
        columns = _fresh_columns(synthetic_trace(*SCENARIOS[0]))
        vectorized.simulate_shard_vector(columns, "fcm3")
        state = weakref.ref(vectorized._current_trace[1])
        del columns
        gc.collect()
        assert state() is None
        assert vectorized._current_trace is None

    def test_blended_fcm_state_dies_with_its_trace(self):
        # The match orders, the value ranks and the lower-order memo live
        # on the grouping, so they go with the trace like the rest.
        columns = _fresh_columns(synthetic_trace(*SCENARIOS[4]))
        for name in ("fcm5", "fcm2-full"):
            vectorized.simulate_shard_vector(columns, name)
        group = vectorized._current_trace[1]
        assert len(group.lower) == 2
        arrays = [group.matched, group.ranks(), *(pred for _, pred in group.lower.values())]
        references = [weakref.ref(array) for array in arrays]
        del columns, group, arrays
        gc.collect()
        assert [reference() for reference in references] == [None] * len(references)
        assert vectorized._current_trace is None


class TestAccounting:
    def test_counter_counts_one_per_trace_predictor_pair(self):
        trace = synthetic_trace(10, 200, 6)
        SIMULATION_COUNTER.reset()
        simulate_trace(trace, PAPER_PREDICTORS)
        assert SIMULATION_COUNTER.count == len(PAPER_PREDICTORS)
        SIMULATION_COUNTER.reset()
        simulate_shard(trace, "fcm1")
        assert SIMULATION_COUNTER.count == 1


class TestWorkerParity:
    """The simulate worker returns the scalar reference shard on every path.

    One simulate unit is one trace plus some predictors, run by
    :func:`execute_simulate_task` back to back, each from a fresh
    predictor over the whole trace.  Its payload carries the trace inline
    (in-process dispatch) or as v3 bytes (the process backends' wire
    format); both must return each predictor's reference shard dict.
    """

    @pytest.mark.parametrize("transport", ("inline", "bytes"))
    @pytest.mark.parametrize("name", UNIQUE_NAMES)
    def test_worker_shard_matches_reference(self, name, transport):
        trace = synthetic_trace(*SCENARIOS[6])
        (entry,) = _worker_outcomes(trace, (name,), transport)
        reference = shard_to_dict(simulate_shard_scalar(trace, name))
        assert json.dumps(entry["shard"]) == json.dumps(reference)

    @pytest.mark.parametrize("transport", ("inline", "bytes"))
    @pytest.mark.parametrize("name", UNIQUE_NAMES)
    def test_extreme_trace_shard_matches_reference(self, name, transport):
        # The in-domain edge of the wide trace refused below: values at
        # int64's extremes run on the vector kernel on both transports.
        trace = extreme_synthetic_trace()
        (entry,) = _worker_outcomes(trace, (name,), transport)
        reference = shard_to_dict(simulate_shard_scalar(trace, name))
        assert json.dumps(entry["shard"]) == json.dumps(reference)

    @pytest.mark.parametrize("transport", ("inline", "bytes"))
    def test_one_unit_of_every_predictor_matches_reference(self, transport):
        # The unit's predictors share one trace object and so the kernel's
        # per-trace state; none may see another's predictor state.
        trace = synthetic_trace(*SCENARIOS[6])
        names = UNIQUE_NAMES + UNIQUE_NAMES[::-1]
        entries = _worker_outcomes(trace, names, transport)
        assert len(entries) == len(names)
        for name, entry in zip(names, entries):
            reference = shard_to_dict(simulate_shard_scalar(trace, name))
            assert json.dumps(entry["shard"]) == json.dumps(reference), name

    def test_mismatched_signature_fails_the_unit(self):
        trace = synthetic_trace(*SCENARIOS[6])
        payload = {"predictors": [["l", predictor_signature("l")], ["s2", "stale"]], "trace": trace}
        with pytest.raises(SimulationError, match="configured differently"):
            execute_simulate_task(payload)


@functools.lru_cache(maxsize=None)
def extreme_synthetic_trace() -> ValueTrace:
    """A synthetic trace with int64's extremes sprinkled through it.

    Every 37th value is ``2**63 - 1`` or ``-(2**63)`` in turn, the
    in-domain edge of the values :func:`wide_synthetic_columns` carries,
    so strides between them span the whole int64 range.
    """
    base = synthetic_trace(*SCENARIOS[6])
    columns = base.record_columns()
    values = [
        (2**63 - 1 if index % 2 else -(2**63)) if index % 37 == 0 else value
        for index, value in enumerate(columns.values)
    ]
    records = map(TraceRecord, *columns._replace(values=values))
    return ValueTrace("extreme-synthetic", records, base.total_dynamic_instructions)


def wide_synthetic_columns() -> RecordColumns:
    """A synthetic trace's list columns with values outside int64 sprinkled through them."""
    base = synthetic_trace(*SCENARIOS[6]).record_columns()
    values = [
        (2**64 + index if index % 2 else -(2**70) - index) if index % 37 == 0 else value
        for index, value in enumerate(base.values)
    ]
    return base._replace(values=values)


def _worker_outcomes(trace: ValueTrace, names, transport: str) -> list[dict]:
    """The worker's entries for one unit of ``names`` over ``trace``."""
    tasks = [
        SimulateTask(
            predictor=name,
            trace_digest="unused",
            predictor_signature=predictor_signature(name),
        )
        for name in names
    ]
    if transport == "inline":
        payload = simulate_payload(tasks, trace=trace)
    else:
        payload = simulate_payload(tasks, trace_bytes=dumps_trace_binary(trace, compress=True))
    outcome = execute_simulate_task(payload)
    assert outcome[TELEMETRY_KEY]["function"] == "simulate"
    return outcome["outcomes"]


class TestWorkerReferenceInputs:
    """The worker's reference-loop path, chosen by the input, on both transports."""

    def test_wide_trace_is_refused_on_both_transports(self):
        # No trace object can hold a value outside int64 (inline), and
        # the worker's decoder refuses v3 bytes that carry one (bytes).
        columns = wide_synthetic_columns()
        with pytest.raises(TraceError, match="outside int64"):
            ValueTrace("wide-synthetic", map(TraceRecord, *columns))
        tasks = [
            SimulateTask(
                predictor="l", trace_digest="unused", predictor_signature=predictor_signature("l")
            )
        ]
        blob = oracles.dumps_binary("wide-synthetic", len(columns.values), columns, compress=True)
        with pytest.raises(TraceError, match="wider than 64 bits"):
            execute_simulate_task(simulate_payload(tasks, trace_bytes=blob))

    @pytest.mark.parametrize("transport", ("inline", "bytes"))
    def test_predictor_class_without_a_plan(self, transport, temporary_predictor):
        from repro.core.stride import CounterStridePredictor

        class ExternalStride(CounterStridePredictor):
            """A predictor class the kernel's planner does not know."""

        name = temporary_predictor("external-stride", ExternalStride)
        assert vectorized.vector_plan(name) is None
        trace = synthetic_trace(*SCENARIOS[6])
        (entry,) = _worker_outcomes(trace, (name,), transport)
        reference = shard_to_dict(simulate_shard_scalar(trace, name))
        assert json.dumps(entry["shard"]) == json.dumps(reference)


#: The two shard loops, by the name of the kernel that runs them.
SHARD_LOOPS = {"scalar": simulate_shard_scalar, "vector": simulate_shard}


class TestFreshPredictor:
    @pytest.mark.parametrize("name", UNIQUE_NAMES)
    def test_each_unit_starts_from_a_fresh_predictor(self, name):
        # No predictor table and no memoised vector plan may carry state
        # from one simulated trace into the next.
        first = synthetic_trace(*SCENARIOS[0])
        second = synthetic_trace(*SCENARIOS[4])
        for kernel, shard_loop in SHARD_LOOPS.items():
            alone = shard_to_dict(shard_loop(second, name))
            shard_loop(first, name)
            after = shard_to_dict(shard_loop(second, name))
            assert json.dumps(after) == json.dumps(alone), kernel


class TestShardAccounting:
    """Each shard agrees with the predictor's own observe loop and stats."""

    @pytest.mark.parametrize("kernel", sorted(SHARD_LOOPS))
    @pytest.mark.parametrize("name", UNIQUE_NAMES)
    def test_shard_agrees_with_predictor_statistics(self, name, kernel):
        trace = synthetic_trace(*SCENARIOS[2])
        predictor = create_predictor(name)
        outcomes = [
            predictor.observe(record.pc, record.value, record.category)
            for record in trace.records
        ]
        shard = SHARD_LOOPS[kernel](trace, name)
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


class TestReferenceLoopInputs:
    """The inputs production hands to the reference loops.

    A predictor class from outside the package has no vector plan, and
    more than 62 predictors' joint outcomes do not pack into one merge
    key.  A trace with a field outside int64 never reaches them: it
    cannot be built.
    """

    def test_value_outside_int64_builds_no_trace(self):
        triples = [(0x10, Opcode.ADD, 2**64), (0x10, Opcode.ADD, 2**64), (0x14, Opcode.SUB, -(2**70))]
        with pytest.raises(TraceError, match="record 1: value"):
            _edge_trace("wide", triples)

    def test_predictor_class_without_a_plan(self, temporary_predictor):
        from repro.core.last_value import LastValuePredictor

        class ExternalLastValue(LastValuePredictor):
            """A predictor class the kernel's planner does not know."""

        name = temporary_predictor("external-last-value", ExternalLastValue)
        assert vectorized.vector_plan(name) is None
        trace = synthetic_trace(*SCENARIOS[0])
        reference = simulate_shard_scalar(trace, name)
        assert json.dumps(shard_to_dict(simulate_shard(trace, name))) == json.dumps(
            shard_to_dict(reference)
        )

    def test_merge_of_more_than_62_predictors(self):
        trace = synthetic_trace(*SCENARIOS[5])
        names = tuple(f"fcm{order}-single" for order in range(63))
        shards = {name: simulate_shard(trace, name) for name in names}
        assert vectorized.merge_shards_vector(trace_columns(trace), shards) is None
        merged = merge_shards(trace, shards)
        assert merged.predictor_names == names
        assert json.dumps(simulation_to_dict(merged)) == json.dumps(
            simulation_to_dict(merge_shards_scalar(trace, shards))
        )


class TestSegmentedCummax:
    """The offset packing restarts the running maximum at every group.

    Keys fill each group's whole span ``[scale, (size + 1) * scale)``, at
    a small scale and at the widest one the documented bound allows for
    the stream (``2 * m * scale`` below 2**63).
    """

    @staticmethod
    def _check(sizes, keys_of):
        """``keys_of(size, scale)`` lists one group's keys; compare with itertools."""
        m = sum(sizes)
        gid = np.repeat(np.arange(len(sizes)), sizes)
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)
        for scale in (7, (2**63 - 1) // (2 * m)):
            groups = [keys_of(size, scale) for size in sizes]
            keys = np.array([key for group in groups for key in group], dtype=np.int64)
            result = vectorized._segmented_cummax(np, gid, starts, keys, scale)
            expected = [key for group in groups for key in itertools.accumulate(group, max)]
            assert result.tolist() == expected, (sizes, scale)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_per_group_accumulate(self, seed):
        rng = random.Random(seed)

        def keys_of(size, scale):
            low, high = scale, (size + 1) * scale
            # The span's edges are drawn often.
            return [rng.choice((low, high - 1, rng.randrange(low, high))) for _ in range(size)]

        for sizes in (
            [rng.randint(1, 300)],  # one group
            [1] * rng.randint(1, 300),  # many one-record groups
            [rng.randint(1, 40) for _ in range(rng.randint(1, 30))],
        ):
            self._check(sizes, keys_of)

    def test_descending_groups_do_not_leak(self):
        # Every group starts at its span's top key and descends, so a
        # maximum leaking across any boundary would show.
        self._check(
            [5, 3, 4, 1, 2], lambda size, scale: [(size + 1) * scale - 1 - k for k in range(size)]
        )


class TestResolveKernel:
    def test_vector_is_the_only_kernel(self):
        assert vectorized.resolve_kernel("vector") == "vector"
        for name in ("scalar", "auto", "turbo"):
            with pytest.raises(SimulationError, match="unknown simulation kernel"):
                vectorized.resolve_kernel(name)
