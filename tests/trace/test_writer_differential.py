"""Differential tests: the numpy trace writers and tallies against the Python loops.

With numpy, a trace's text, its v3 bytes, its statistics and its Figure 10
profile are computed from array columns, and the collector builds those
columns by array indexing; the Python loops stay as the fallback when
numpy is missing or a field does not fit the arrays.  The two must never
disagree: text byte for byte, v3 bytes with compression on and off, and
statistics and profiles including their dict orders.  The Python side runs
with numpy blocked (``sys.modules["numpy"] = None``), which is the
fallback a numpy-less install takes, or on list columns.

Inputs are seeds of ``tests/isa/random_programs.py`` plus hand-built
traces for the edges: int64 extremes, deltas that overflow int64, the
empty trace, a single record, names that need percent-encoding, a pc
with two categories, a decoded v3 file with a permuted opcode table and a
value outside int64.
``pytest tests/trace/test_writer_differential.py --hypothesis-profile=nightly``
runs many more seeds than the default profile.
"""

from __future__ import annotations

import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("numpy")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "isa"))
from random_programs import random_program  # noqa: E402

from repro.errors import ReproError  # noqa: E402
from repro.isa.opcodes import Opcode, category_of  # noqa: E402
from repro.simulation.value_profile import value_profile  # noqa: E402
from repro.trace import io as trace_io  # noqa: E402
from repro.trace.collector import collect_trace  # noqa: E402
from repro.trace.io import (  # noqa: E402
    BINARY_FORMAT_VERSION,
    BINARY_MAGIC,
    decode_trace,
    dumps_trace,
    dumps_trace_binary,
    encode_uvarint,
    loads_trace,
    loads_trace_binary,
    trace_columns,
)
from repro.trace.record import TraceRecord  # noqa: E402
from repro.trace.stream import RecordColumns, ValueTrace  # noqa: E402

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def _without_numpy():
    """A context in which ``import numpy`` fails, as on an install without it."""
    return mock.patch.dict(sys.modules, {"numpy": None})


def _python_text(trace) -> str:
    with _without_numpy():
        return dumps_trace(trace)


def _python_binary(trace, compress) -> bytes:
    with _without_numpy():
        return dumps_trace_binary(trace, compress=compress)


def _list_backed(trace) -> ValueTrace:
    """The same records as list columns, which the Python tallies read."""
    columns = RecordColumns(*map(list, trace.record_columns()))
    return ValueTrace.from_columns(trace.name, columns, trace.total_dynamic_instructions)


def _ordered(statistics):
    """Statistics with their dicts as item lists, so order is compared too."""
    return (
        statistics.name,
        statistics.total_dynamic_instructions,
        statistics.predicted_instructions,
        statistics.static_instruction_count,
        list(statistics.category_dynamic_counts.items()),
        list(statistics.category_static_counts.items()),
    )


def _assert_writers_agree(trace):
    """Text, v3, statistics and profile: numpy path equals Python path."""
    assert trace_columns(trace) is not None
    assert dumps_trace(trace) == _python_text(trace)
    for compress in (False, True):
        assert dumps_trace_binary(trace, compress=compress) == _python_binary(trace, compress)
    reference = _list_backed(trace)
    assert _ordered(trace.statistics()) == _ordered(reference.statistics())
    assert value_profile(trace) == value_profile(reference)


def _trace(records, name="hand-built", total=None):
    rows = [
        TraceRecord(serial=serial, pc=pc, opcode=opcode, category=category_of(opcode), value=value)
        for serial, pc, opcode, value in records
    ]
    return ValueTrace(name, rows, total_dynamic_instructions=total)


def _collected(seed):
    program, memory, budget = random_program(seed)
    try:
        return collect_trace(program, memory=memory, max_instructions=budget)
    except ReproError:
        return None


@settings(deadline=None)
@given(seed=SEEDS)
def test_random_program_traces_write_and_tally_alike(seed):
    collected = _collected(seed)
    if collected is None:
        return
    trace, _ = collected
    assert trace.array_columns() is not None
    _assert_writers_agree(trace)
    _assert_writers_agree(decode_trace(dumps_trace_binary(trace, compress=True)))


@settings(deadline=None)
@given(seed=SEEDS)
def test_numpy_collector_matches_list_collector(seed):
    program, memory, budget = random_program(seed)
    try:
        trace, result = collect_trace(program, memory=memory, max_instructions=budget)
    except ReproError:
        return
    program, memory, budget = random_program(seed)
    with _without_numpy():
        listed, listed_result = collect_trace(program, memory=memory, max_instructions=budget)
    assert trace.array_columns() is not None and listed.array_columns() is None
    assert trace.name == listed.name
    assert trace.total_dynamic_instructions == listed.total_dynamic_instructions
    assert list(map(list, trace.record_columns())) == list(map(list, listed.record_columns()))
    assert result == listed_result
    assert list(result.category_counts.items()) == list(listed_result.category_counts.items())


EXTREMES = [0, -1, 1, INT64_MAX, INT64_MIN, INT64_MIN + 1, 9, 10, 9999, 10_000, -10_000, 10**18]


@pytest.mark.parametrize(
    "trace",
    [
        pytest.param(
            _trace([(2 * i, 4 * (i % 3), Opcode.ADDI, v) for i, v in enumerate(EXTREMES)]),
            id="int64-extreme-values",
        ),
        pytest.param(
            _trace([(INT64_MAX, INT64_MIN, Opcode.LW, -1), (INT64_MAX, INT64_MAX, Opcode.LW, 0)]),
            id="int64-extreme-serials-and-pcs",
        ),
        pytest.param(_trace([]), id="empty"),
        pytest.param(_trace([], total=7), id="empty-with-total"),
        pytest.param(_trace([(0, 0, Opcode.LI, 42)]), id="single-record"),
        pytest.param(
            _trace([(3, 8, Opcode.SUB, 5)], name="a b%c=d/é\n"), id="percent-encoded-name"
        ),
        pytest.param(
            _trace(
                [
                    (0, 4, Opcode.ADD, 1),
                    (1, 8, Opcode.LW, 2),
                    (2, 4, Opcode.LW, 1),
                    (3, 4, Opcode.JAL, 3),
                    (5, 12, Opcode.SLL, 3),
                    (6, 8, Opcode.ADD, 2),
                ]
            ),
            id="pcs-with-several-categories",
        ),
        pytest.param(
            _trace([(i, -4 * i, Opcode.MOV, -i) for i in range(20_000)]),
            id="several-chunks-negative-pcs",
        ),
    ],
)
def test_hand_built_traces_write_and_tally_alike(trace):
    _assert_writers_agree(trace)
    text = dumps_trace(trace)
    assert dumps_trace(loads_trace(text)) == text
    blob = dumps_trace_binary(trace)
    assert dumps_trace_binary(decode_trace(blob)) == blob


@pytest.mark.parametrize(
    "serials, pcs",
    [
        ([INT64_MIN, INT64_MAX], [0, 4]),
        ([0, 1], [INT64_MAX, INT64_MIN]),
        ([INT64_MAX], [INT64_MIN]),
    ],
    ids=["serial-delta", "pc-delta", "first-delta-in-range"],
)
def test_deltas_overflowing_int64_take_the_python_loop(serials, pcs):
    trace = _trace([(s, p, Opcode.ADD, 0) for s, p in zip(serials, pcs)])
    columns = trace_columns(trace)
    assert columns is not None
    overflows = any(
        not INT64_MIN <= after - before <= INT64_MAX
        for column in (serials, pcs)
        for before, after in zip([0, *column], column)
    )
    assert (trace_io._binary_body(columns) is None) == overflows
    _assert_writers_agree(trace)
    for compress in (False, True):
        blob = dumps_trace_binary(trace, compress=compress)
        assert list(map(list, loads_trace_binary(blob).record_columns())) == list(
            map(list, trace.record_columns())
        )


def test_value_outside_int64_takes_the_python_path_and_round_trips():
    trace = _trace([(0, 0, Opcode.ADD, 2**64), (1, 4, Opcode.SUB, -(2**70))])
    assert trace_columns(trace) is None
    text = dumps_trace(trace)
    assert text == _python_text(trace)
    assert list(map(list, loads_trace(text).record_columns())) == list(
        map(list, trace.record_columns())
    )
    for compress in (False, True):
        blob = dumps_trace_binary(trace, compress=compress)
        assert blob == _python_binary(trace, compress)
        assert dumps_trace(decode_trace(blob)) == text


def _v3_with_table(trace, table) -> bytes:
    """``trace`` as uncompressed v3 bytes whose header lists opcodes as ``table``."""
    columns = trace.record_columns()
    zigzag = trace_io._zigzag
    body = bytearray()
    serial = pc = 0
    for record in zip(columns.serials, columns.pcs, columns.opcodes, columns.values):
        body += encode_uvarint(zigzag(record[0] - serial))
        body += encode_uvarint(zigzag(record[1] - pc))
        body += encode_uvarint(table.index(record[2]))
        body += encode_uvarint(zigzag(record[3]))
        serial, pc = record[0], record[1]
    name = trace.name.encode("ascii")
    out = bytearray(BINARY_MAGIC)
    for field in (BINARY_FORMAT_VERSION, 0, len(name)):
        out += encode_uvarint(field)
    out += name
    out += encode_uvarint(trace.total_dynamic_instructions)
    out += encode_uvarint(len(trace))
    out += encode_uvarint(len(table))
    for opcode in table:
        out += encode_uvarint(len(opcode.value)) + opcode.value.encode("ascii")
    out += encode_uvarint(len(body)) + body
    return bytes(out)


def test_decoded_trace_with_a_permuted_opcode_table_is_remapped():
    collected = None
    seed = 0
    while collected is None:
        collected = _collected(seed)
        seed += 1
    trace, _ = collected
    table = tuple(reversed(Opcode))
    decoded = decode_trace(_v3_with_table(trace, table))
    assert decoded.array_columns().opcodes == table
    _assert_writers_agree(decoded)
    assert dumps_trace(decoded) == dumps_trace(trace)
    for compress in (False, True):
        assert dumps_trace_binary(decoded, compress=compress) == dumps_trace_binary(
            trace, compress=compress
        )
