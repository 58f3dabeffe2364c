"""Differential tests: the numpy trace writers and tallies against the Python loops.

A trace's text, its v3 bytes, its statistics and its Figure 10 profile
are computed from array columns, and the collector builds those columns
by array indexing.  The Python record loops of ``tests/trace/oracles.py``
do the same work over list columns, and the two must never disagree:
text byte for byte, v3 bodies with compression on and off, and
statistics and profiles including their dict orders.

Inputs are seeds of ``tests/isa/random_programs.py`` plus hand-built
traces for the edges: int64 extremes, steps at the edge of int64, the
empty trace, a single record, names that need percent-encoding, a pc
with two categories and a decoded v3 file with a permuted opcode table;
a step or a value outside int64 raises :class:`TraceError` instead.
``pytest tests/trace/test_writer_differential.py --hypothesis-profile=nightly``
runs many more seeds than the default profile.  Writers and decoder work
in ``_CHUNK_RECORDS``-record chunks, so the seeded and hand-built cases
also run with three-record chunks, where every example spans several.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "isa"))
sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles  # noqa: E402
from oracles import INT64_MAX, INT64_MIN  # noqa: E402
from random_programs import random_program  # noqa: E402

from repro.errors import ReproError, TraceError  # noqa: E402
from repro.isa.machine import Machine  # noqa: E402
from repro.isa.opcodes import Opcode, category_of  # noqa: E402
from repro.simulation.value_profile import pc_tallies, profile_from_tallies, value_profile  # noqa: E402
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
)
from repro.trace.record import TraceRecord  # noqa: E402
from repro.trace.stream import ValueTrace  # noqa: E402

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _text_records(text: str) -> str:
    """The record lines of a canonical text, without its header line."""
    return text.partition("\n")[2]


def _python_text_records(trace) -> str:
    """The record lines the text writer's Python loop renders."""
    return oracles.text_records(trace.record_columns())


def _body(blob: bytes) -> bytes:
    """The (inflated) record block of v3 bytes."""
    return trace_io._parse_binary_container(blob)[4]


def _python_body(trace) -> bytes:
    """The v3 record block the Python loop writes."""
    return oracles.binary_body(trace.record_columns())


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
    """Text, v3, statistics, tallies and profile: numpy path equals Python path."""
    assert _text_records(dumps_trace(trace)) == _python_text_records(trace)
    for compress in (False, True):
        assert _body(dumps_trace_binary(trace, compress=compress)) == _python_body(trace)
    columns = trace.record_columns()
    reference = oracles.statistics(trace.name, trace.total_dynamic_instructions, columns)
    assert _ordered(trace.statistics()) == _ordered(reference)
    tallies = oracles.pc_tallies(columns)
    assert pc_tallies(trace) == tallies
    assert value_profile(trace) == profile_from_tallies(tallies)


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
    kwargs = {} if budget is None else {"max_instructions": budget}
    machine = Machine(program, memory=memory, **kwargs)
    listed_result = machine.run()
    listed = oracles.list_columns(program, machine)
    assert trace.name == program.name
    assert trace.total_dynamic_instructions == listed_result.retired_instructions
    assert list(map(list, trace.record_columns())) == list(map(list, listed))
    assert result == listed_result
    # Categories in order of first retirement, tallied one retirement at a time.
    tallied: dict = {}
    for index in machine.retired:
        category = program.instructions[index].category
        tallied[category] = tallied.get(category, 0) + 1
    assert list(result.category_counts.items()) == list(tallied.items())


EXTREMES = [0, -1, 1, INT64_MAX, INT64_MIN, INT64_MIN + 1, 9, 10, 9999, 10_000, -10_000, 10**18]


HAND_BUILT = [
    pytest.param(
        _trace([(2 * i, 4 * (i % 3), Opcode.ADDI, v) for i, v in enumerate(EXTREMES)]),
        id="int64-extreme-values",
    ),
    pytest.param(
        # Steps of exactly INT64_MIN and INT64_MAX.
        _trace(
            [
                (INT64_MAX, INT64_MIN, Opcode.LW, -1),
                (INT64_MAX, -1, Opcode.LW, 0),
                (-1, INT64_MAX - 1, Opcode.LW, 1),
            ]
        ),
        id="int64-extreme-serials-and-pcs",
    ),
    pytest.param(_trace([]), id="empty"),
    pytest.param(_trace([], total=7), id="empty-with-total"),
    pytest.param(_trace([(0, 0, Opcode.LI, 42)]), id="single-record"),
    pytest.param(_trace([(3, 8, Opcode.SUB, 5)], name="a b%c=d/é\n"), id="percent-encoded-name"),
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
]


@pytest.mark.parametrize("trace", HAND_BUILT)
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
    ],
    ids=["serial-step", "pc-step"],
)
def test_steps_overflowing_int64_raise(serials, pcs):
    records = [(s, p, Opcode.ADD, 0) for s, p in zip(serials, pcs)]
    with pytest.raises(TraceError, match="record 2: .* step"):
        _trace(records)


@pytest.mark.parametrize(
    "serials, pcs",
    [
        ([INT64_MAX], [INT64_MIN]),
        ([-1, INT64_MAX - 1], [INT64_MAX, -1]),
    ],
    ids=["first-step-from-zero", "steps-at-the-int64-edge"],
)
def test_steps_at_the_edge_of_int64_write_alike(serials, pcs):
    trace = _trace([(s, p, Opcode.ADD, 0) for s, p in zip(serials, pcs)])
    _assert_writers_agree(trace)
    for compress in (False, True):
        blob = dumps_trace_binary(trace, compress=compress)
        assert list(map(list, decode_trace(blob).record_columns())) == list(
            map(list, trace.record_columns())
        )


def test_value_outside_int64_raises():
    with pytest.raises(TraceError, match="record 2: value"):
        _trace([(0, 0, Opcode.ADD, 1), (1, 4, Opcode.SUB, -(2**70))])


def _v3_with_table(trace, table) -> bytes:
    """``trace`` as uncompressed v3 bytes whose header lists opcodes as ``table``."""
    columns = trace.record_columns()
    zigzag = oracles.zigzag
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
    assert decoded.columns.opcodes == table
    _assert_writers_agree(decoded)
    assert dumps_trace(decoded) == dumps_trace(trace)
    for compress in (False, True):
        assert dumps_trace_binary(decoded, compress=compress) == dumps_trace_binary(
            trace, compress=compress
        )


@pytest.fixture
def small_chunks(monkeypatch):
    """Writers and decoder at three records per chunk."""
    monkeypatch.setattr(trace_io, "_CHUNK_RECORDS", 3)


def test_random_program_traces_in_small_chunks(small_chunks):
    test_random_program_traces_write_and_tally_alike()


def test_hand_built_traces_in_small_chunks(small_chunks):
    for param in HAND_BUILT:
        (trace,) = param.values
        # The 20,000-record case spans several default-size chunks already.
        if len(trace) < 1000:
            test_hand_built_traces_write_and_tally_alike(trace)


def test_permuted_opcode_table_in_small_chunks(small_chunks):
    test_decoded_trace_with_a_permuted_opcode_table_is_remapped()
