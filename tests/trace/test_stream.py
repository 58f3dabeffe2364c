"""Tests for trace records, the ValueTrace container and its statistics."""

from __future__ import annotations

import pytest

from repro.errors import TraceError
from repro.isa.opcodes import Category, Opcode
from repro.trace.record import TraceRecord
from repro.trace.stream import ValueTrace
from repro.trace.synthetic import trace_from_streams, trace_from_values


def make_record(serial=0, pc=0, opcode=Opcode.ADD, value=1):
    return TraceRecord(
        serial=serial, pc=pc, opcode=opcode, category=Category.ADDSUB, value=value
    )


class TestValueTrace:
    def test_len_and_bool(self):
        trace = ValueTrace("t", [make_record(), make_record(serial=1, value=2)])
        assert len(trace) == 2
        assert bool(trace)
        assert not ValueTrace("empty")

    def test_records_are_views_of_the_columns(self):
        trace = ValueTrace("t", [make_record(value=-(2**63)), make_record(serial=1, pc=4)])
        assert trace.columns.values.tolist() == [-(2**63), 1]
        assert trace.records is trace.records
        assert trace.record_columns() is trace.record_columns()
        assert trace[1] == make_record(serial=1, pc=4)

    @pytest.mark.parametrize(
        "records, match",
        [
            ([make_record(value=2**63)], "record 1: value 9223372036854775808 is outside int64"),
            ([make_record(), make_record(pc=-(2**63) - 1)], "record 2: pc"),
            ([make_record(serial=-1), make_record(serial=2**63 - 1)], "record 2: serial step"),
            ([make_record(opcode=Opcode.LW)], "record 1: opcode"),
        ],
        ids=["value", "pc", "serial-step", "category-not-the-opcode's"],
    )
    def test_constructor_rejects_records_outside_the_domain(self, records, match):
        with pytest.raises(TraceError, match=match):
            ValueTrace("t", records)

    def test_total_below_the_record_count_is_rejected(self):
        with pytest.raises(TraceError, match="smaller"):
            ValueTrace("t", [make_record(), make_record(serial=1)], total_dynamic_instructions=1)

    def test_total_dynamic_defaults_to_record_count(self):
        trace = trace_from_values([1, 2, 3])
        assert trace.total_dynamic_instructions == 3

    def test_total_dynamic_cannot_undercount(self):
        trace = trace_from_values([1, 2, 3])
        with pytest.raises(TraceError):
            trace.set_total_dynamic_instructions(2)

    def test_slicing_returns_a_trace(self):
        trace = trace_from_values(list(range(10)))
        head = trace[:3]
        assert isinstance(head, ValueTrace)
        assert len(head) == 3
        assert trace[4].value == 4

    def test_values_by_pc_groups_in_order(self):
        trace = trace_from_streams({0: [1, 2, 3], 8: [7, 7]})
        grouped = trace.values_by_pc()
        assert grouped[0] == [1, 2, 3]
        assert grouped[8] == [7, 7]

    def test_static_pcs_in_first_seen_order(self):
        trace = trace_from_streams({8: [1], 0: [2], 16: [3]})
        assert trace.static_pcs() == [0, 8, 16]

    def test_filter_category(self):
        records = [
            TraceRecord(0, 0, Opcode.ADD, Category.ADDSUB, 1),
            TraceRecord(1, 4, Opcode.LW, Category.LOADS, 2),
            TraceRecord(2, 8, Opcode.ADD, Category.ADDSUB, 3),
        ]
        trace = ValueTrace("mix", records)
        loads = trace.filter_category(Category.LOADS)
        assert len(loads) == 1
        assert loads.records[0].value == 2


class TestTraceStatistics:
    def test_statistics_counts_and_fractions(self):
        records = [
            TraceRecord(0, 0, Opcode.ADD, Category.ADDSUB, 1),
            TraceRecord(1, 4, Opcode.LW, Category.LOADS, 2),
            TraceRecord(2, 0, Opcode.ADD, Category.ADDSUB, 3),
        ]
        trace = ValueTrace("stats", records)
        trace.set_total_dynamic_instructions(6)
        stats = trace.statistics()
        assert stats.predicted_instructions == 3
        assert stats.total_dynamic_instructions == 6
        assert stats.fraction_predicted == pytest.approx(0.5)
        assert stats.static_instruction_count == 2
        assert stats.category_dynamic_counts[Category.ADDSUB] == 2
        assert stats.category_static_counts[Category.ADDSUB] == 1
        percentages = stats.category_dynamic_percentages()
        assert percentages[Category.ADDSUB] == pytest.approx(200.0 / 3)

    def test_empty_trace_statistics(self):
        stats = ValueTrace("empty").statistics()
        assert stats.predicted_instructions == 0
        assert stats.fraction_predicted == 0.0
