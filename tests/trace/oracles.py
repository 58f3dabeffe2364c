"""Python record loops: the oracles the trace codecs are tested against.

The program holds every trace as int64 numpy columns and reads and
writes them in array passes.  These loops do the same work one record at
a time over plain list columns (:class:`RecordColumns`), in Python's
arbitrary-precision ints, so the differential tests can compare the two
on traces inside the int64 domain and build text and v3 bytes for traces
outside it.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import io
import zlib
from array import array
from collections import Counter
from itertools import chain, compress, count
from operator import itemgetter, sub
from urllib.parse import quote

from repro.errors import TraceError
from repro.isa.opcodes import category_of
from repro.simulation.value_profile import PcTallies
from repro.trace import io as trace_io
from repro.trace.stream import RecordColumns, TraceStatistics
from repro.trace.varint import encode_uvarint

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def in_domain(columns: RecordColumns) -> bool:
    """Whether a trace of ``columns`` fits the int64 domain.

    Every serial, pc and value fits int64, and so does every serial and
    pc step from the previous record (the first record's step is from 0).
    """
    fits = lambda number: INT64_MIN <= number <= INT64_MAX  # noqa: E731
    return all(map(fits, chain(columns.serials, columns.pcs, columns.values))) and all(
        fits(after - before)
        for column in (columns.serials, columns.pcs)
        for before, after in zip(chain((0,), column), column)
    )


# --------------------------------------------------------------------------- #
# Varints
# --------------------------------------------------------------------------- #
def zigzag(value: int) -> int:
    """Map a signed integer to an unsigned one (0, -1, 1, -2 → 0, 1, 2, 3)."""
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


def encode_svarint(value: int) -> bytes:
    return encode_uvarint(zigzag(value))


class SvarintTable(dict):
    """Memo of :func:`encode_svarint`: ``table[value]`` is its encoding."""

    def __missing__(self, value: int) -> bytes:
        encoded = self[value] = encode_svarint(value)
        return encoded


# --------------------------------------------------------------------------- #
# Writers
# --------------------------------------------------------------------------- #
def text_records(columns: RecordColumns) -> str:
    """The canonical text's record lines: one formatted line per record."""
    buffer = io.StringIO()
    buffer.writelines(
        f"{serial} {pc} {opcode.value} {value}\n"
        for serial, pc, opcode, value in zip(
            columns.serials, columns.pcs, columns.opcodes, columns.values
        )
    )
    return buffer.getvalue()


def dumps_text(name: str, total: int, columns: RecordColumns) -> str:
    """The canonical v2 text of a trace of ``columns``."""
    return (
        f"#repro-trace v2 name={quote(name, safe='')} total={total} "
        f"records={len(columns.values)}\n" + text_records(columns)
    )


def binary_body(columns: RecordColumns) -> bytes:
    """The v3 record block: each record's four varints, in order."""
    svarint = SvarintTable()
    opcode_index = {
        opcode: encode_uvarint(index) for index, opcode in enumerate(trace_io._OPCODE_ORDER)
    }
    body = io.BytesIO()
    body.writelines(
        chain.from_iterable(
            zip(
                map(svarint.__getitem__, map(sub, columns.serials, chain((0,), columns.serials))),
                map(svarint.__getitem__, map(sub, columns.pcs, chain((0,), columns.pcs))),
                map(opcode_index.__getitem__, columns.opcodes),
                map(svarint.__getitem__, columns.values),
            )
        )
    )
    return body.getvalue()


def dumps_binary(name: str, total: int, columns: RecordColumns, compress: bool = False) -> bytes:
    """The v3 bytes of a trace of ``columns``, header included."""
    body = binary_body(columns)
    if compress:
        body = zlib.compress(body, level=6)
    name_bytes = quote(name, safe="").encode("ascii")
    out = bytearray(trace_io.BINARY_MAGIC)
    for field in (trace_io.BINARY_FORMAT_VERSION, int(compress), len(name_bytes)):
        out += encode_uvarint(field)
    out += name_bytes
    out += encode_uvarint(total) + encode_uvarint(len(columns.values))
    out += encode_uvarint(len(trace_io._OPCODE_ORDER))
    for opcode in trace_io._OPCODE_ORDER:
        out += encode_uvarint(len(opcode.value)) + opcode.value.encode("ascii")
    return bytes(out + encode_uvarint(len(body)) + body)


# --------------------------------------------------------------------------- #
# Decoder
# --------------------------------------------------------------------------- #
def decode_binary(data: bytes) -> tuple[str, int, RecordColumns]:
    """Decode v3 bytes one varint at a time: ``(name, total, columns)``.

    Raises :class:`TraceError` wherever the production decoder must: on
    corrupt data, on a varint longer than 10 bytes or above ``2**64 - 1``,
    and on a serial or pc sum outside int64.
    """
    name, total, expected_records, table, body = trace_io._parse_binary_container(data)
    position = 0

    def varint(record: int) -> int:
        nonlocal position
        raw = shift = 0
        while True:
            if position >= len(body):
                raise TraceError(
                    f"corrupt binary trace: body ends after {record} of "
                    f"{expected_records} records"
                )
            byte = body[position]
            position += 1
            raw |= (byte & 0x7F) << shift
            shift += 7
            if not byte & 0x80:
                break
        if shift > 70 or raw >> 64:
            raise TraceError("corrupt binary trace: a varint is wider than 64 bits")
        return raw

    columns = RecordColumns([], [], [], [], [])
    serial = pc = 0
    for record in range(expected_records):
        serial += unzigzag(varint(record))
        pc += unzigzag(varint(record))
        code = varint(record)
        value = unzigzag(varint(record))
        if code >= len(table):
            raise TraceError(f"corrupt binary trace: invalid opcode index in record {record + 1}")
        if not (INT64_MIN <= serial <= INT64_MAX and INT64_MIN <= pc <= INT64_MAX):
            raise TraceError(f"corrupt binary trace: record {record + 1} is outside int64")
        for column, field in zip(columns, (serial, pc, table[code], category_of(table[code]), value)):
            column.append(field)
    if position != len(body):
        raise TraceError(
            f"corrupt binary trace: {len(body) - position} trailing bytes after "
            f"{expected_records} records"
        )
    return name, total, columns


# --------------------------------------------------------------------------- #
# Collector and tallies
# --------------------------------------------------------------------------- #
def list_columns(program, machine) -> RecordColumns:
    """A run's trace as list columns, selected by C-level iterator pipelines."""
    instructions = program.instructions
    predicted = [instruction.writes_register for instruction in instructions]
    retired = machine.retired
    serials = array("q", compress(count(), map(predicted.__getitem__, retired)))
    static = list(map(retired.__getitem__, serials))
    pcs = [program.pc_of_index(index) for index in range(len(instructions))]
    opcodes = [instruction.opcode for instruction in instructions]
    categories = [instruction.category for instruction in instructions]
    return RecordColumns(
        serials=serials,
        pcs=array("q", map(pcs.__getitem__, static)),
        opcodes=list(map(opcodes.__getitem__, static)),
        categories=list(map(categories.__getitem__, static)),
        values=machine.values,
    )


def statistics(name: str, total: int, columns: RecordColumns) -> TraceStatistics:
    """:meth:`ValueTrace.statistics` by one count per (category, pc) pair."""
    dynamic_counts: dict = {}
    static_counts: dict = {}
    for (category, _pc), tally in Counter(zip(columns.categories, columns.pcs)).items():
        dynamic_counts[category] = dynamic_counts.get(category, 0) + tally
        static_counts[category] = static_counts.get(category, 0) + 1
    return TraceStatistics(
        name=name,
        total_dynamic_instructions=total,
        predicted_instructions=len(columns.values),
        static_instruction_count=len(set(columns.pcs)),
        category_dynamic_counts=dynamic_counts,
        category_static_counts=static_counts,
    )


def pc_tallies(columns: RecordColumns) -> PcTallies:
    """:func:`repro.simulation.value_profile.pc_tallies` by C-level passes over lists."""
    return PcTallies(
        unique=Counter(map(itemgetter(0), dict.fromkeys(zip(columns.pcs, columns.values)))),
        dynamic=Counter(columns.pcs),
        # Reversed, so the first record of each PC writes its category last.
        category=dict(zip(reversed(columns.pcs), reversed(columns.categories))),
    )
