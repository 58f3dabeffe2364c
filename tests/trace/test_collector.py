"""Collected traces against copies built from their records.

:func:`collect_trace` builds its trace's columns by array indexing and
never creates a :class:`TraceRecord` unless asked.  For every
(benchmark, input, flags) configuration, the encoders and statistics
must give the same output for that trace as for a trace constructed from
the same records as objects, whose columns the constructor builds.
"""

from __future__ import annotations

import pytest

from repro.trace.collector import collect_trace
from repro.trace.io import dumps_trace, dumps_trace_binary
from repro.trace.stream import ValueTrace
from repro.workloads.suite import BENCHMARK_ORDER, get_workload

SCALE = 0.05

CONFIGURATIONS = [
    (name, input_name, flags)
    for name in BENCHMARK_ORDER
    for input_name in get_workload(name).input_sets
    for flags in get_workload(name).flag_sets
]


def _ordered_statistics(trace):
    statistics = trace.statistics()
    return (
        statistics.name,
        statistics.total_dynamic_instructions,
        statistics.predicted_instructions,
        statistics.static_instruction_count,
        list(statistics.category_dynamic_counts.items()),
        list(statistics.category_static_counts.items()),
    )


@pytest.mark.parametrize("name, input_name, flags", CONFIGURATIONS)
def test_column_trace_encodes_like_its_records(name, input_name, flags):
    program, memory = get_workload(name).build(SCALE, input_name, flags)
    columns_trace, result = collect_trace(program, memory=memory)
    assert "records" not in vars(columns_trace)  # nothing materialised yet

    text = dumps_trace(columns_trace)
    binary = dumps_trace_binary(columns_trace, compress=True)
    statistics = _ordered_statistics(columns_trace)
    assert "records" not in vars(columns_trace)  # the encoders read columns

    records_trace = ValueTrace(
        columns_trace.name, columns_trace.records, result.retired_instructions
    )
    assert len(records_trace) == len(columns_trace) == result.register_writes
    assert dumps_trace(records_trace) == text
    assert dumps_trace_binary(records_trace, compress=True) == binary
    assert _ordered_statistics(records_trace) == statistics


def test_records_are_built_once_and_kept():
    program, memory = get_workload("compress").build(SCALE, "ref", "ref")
    trace, _ = collect_trace(program, memory=memory)
    assert trace.records is trace.records
    assert trace[0] is trace.records[0]
    assert [record.serial for record in trace][:3] == list(trace.record_columns().serials[:3])

