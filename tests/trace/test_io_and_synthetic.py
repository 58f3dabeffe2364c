"""Tests for trace serialisation and synthetic trace construction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceError
from repro.isa.opcodes import Category, Opcode
from repro.trace.io import dumps_trace, load_trace_file, loads_trace, save_trace_file
from repro.trace.synthetic import (
    interleave_traces,
    representative_opcode,
    trace_from_streams,
    trace_from_values,
)


class TestSyntheticTraces:
    def test_trace_from_values_single_pc(self):
        trace = trace_from_values([3, 1, 4], pc=8, opcode=Opcode.LW)
        assert [record.value for record in trace] == [3, 1, 4]
        assert all(record.pc == 8 for record in trace)
        assert all(record.category is Category.LOADS for record in trace)

    def test_trace_from_values_rejects_non_predicted_opcode(self):
        with pytest.raises(TraceError):
            trace_from_values([1], opcode=Opcode.SW)

    def test_trace_from_streams_round_robins(self):
        trace = trace_from_streams({0: [1, 2], 4: [10, 20]})
        assert [(record.pc, record.value) for record in trace] == [
            (0, 1), (4, 10), (0, 2), (4, 20),
        ]

    def test_trace_from_streams_handles_unequal_lengths(self):
        trace = trace_from_streams({0: [1, 2, 3], 4: [10]})
        assert len(trace) == 4

    def test_trace_from_streams_requires_streams(self):
        with pytest.raises(TraceError):
            trace_from_streams({})

    def test_interleave_offsets_pcs(self):
        first = trace_from_values([1, 2], pc=0)
        second = trace_from_values([5, 6], pc=0)
        merged = interleave_traces([first, second])
        assert len(merged) == 4
        assert len({record.pc for record in merged}) == 2

    def test_interleave_gives_each_input_its_own_pcs(self):
        trace = trace_from_streams({0: [1, 2], 8: [3, 4]})
        other = trace_from_values([5, 6, 7, 8], pc=4)
        merged = interleave_traces([trace, trace, other])
        pcs_by_input = [set(merged.record_columns().pcs[start::3]) for start in range(3)]
        assert pcs_by_input == [{0, 8}, {12, 20}, {28}]
        # No two inputs share a pc, even when one trace is passed twice.
        assert sum(map(len, pcs_by_input)) == len(set().union(*pcs_by_input))

    def test_interleave_requires_traces(self):
        with pytest.raises(TraceError):
            interleave_traces([])

    def test_representative_opcode_is_predicted(self):
        for category in (Category.ADDSUB, Category.LOADS, Category.SHIFT):
            assert representative_opcode(category) is not None
        with pytest.raises(TraceError):
            representative_opcode(Category.STORE)


class TestTraceSerialisation:
    def test_round_trip_preserves_records(self):
        trace = trace_from_streams({0: [1, -2, 3], 8: [100, 200]}, opcodes={8: Opcode.LW})
        trace.set_total_dynamic_instructions(12)
        restored = loads_trace(dumps_trace(trace))
        assert len(restored) == len(trace)
        assert restored.total_dynamic_instructions == 12
        for original, loaded in zip(trace, restored):
            assert (original.pc, original.opcode, original.value) == (
                loaded.pc, loaded.opcode, loaded.value,
            )

    def test_file_round_trip(self, tmp_path):
        trace = trace_from_values([1, 2, 3], name="file-test")
        path = tmp_path / "trace.txt"
        save_trace_file(trace, path)
        restored = load_trace_file(path)
        assert restored.name == "file-test"
        assert [record.value for record in restored] == [1, 2, 3]

    def test_missing_header_rejected(self):
        with pytest.raises(TraceError):
            loads_trace("not a trace\n")

    def test_malformed_record_rejected(self):
        text = "#repro-trace v1 name=x total=1 records=1\n1 2 add\n"
        with pytest.raises(TraceError):
            loads_trace(text)

    def test_record_count_mismatch_rejected(self):
        text = "#repro-trace v1 name=x total=5 records=2\n0 0 add 1\n"
        with pytest.raises(TraceError):
            loads_trace(text)

    @pytest.mark.parametrize(
        "name",
        [
            "name with spaces",
            "name total=7 records=1",
            "tabs\tand\nnewlines",
            "percent %20 literal",
            "trailing space ",
            "compress:Loads",
        ],
    )
    def test_header_survives_awkward_names(self, name):
        # Regression: an unquoted name containing spaces used to corrupt
        # the space-separated key=value header fields on round-trip.
        trace = trace_from_values([1, 2, 3], name=name)
        trace.set_total_dynamic_instructions(9)
        restored = loads_trace(dumps_trace(trace))
        assert restored.name == name
        assert restored.total_dynamic_instructions == 9
        assert [record.value for record in restored] == [1, 2, 3]

    @given(values=st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, values):
        trace = trace_from_values(values)
        restored = loads_trace(dumps_trace(trace))
        assert [record.value for record in restored] == [int(v) for v in values]


class TestCollector:
    def test_collector_filters_non_register_writes(self, compress_trace):
        # Every record in a collected trace must carry a concrete value and a
        # predicted category.
        assert len(compress_trace) > 0
        for record in compress_trace.records[:200]:
            assert record.value is not None
            assert record.category.value in {
                "AddSub", "Loads", "Logic", "Shift", "Set", "MultDiv", "Lui", "Other",
            }

    def test_collector_total_includes_unpredicted_instructions(self, compress_trace):
        assert compress_trace.total_dynamic_instructions > len(compress_trace)
