"""(De)serialisation of value traces: text (v1/v2) and binary (v3).

Two wire formats share one record model (``serial pc opcode value``;
categories are recomputed from the opcode on load, so the Table 3 mapping
remains the single source of truth):

* **text** — a one-line header followed by one space-separated line per
  record.  This is the *canonical* encoding: trace digests
  (:func:`repro.engine.fingerprint.trace_digest`) and the worker wire
  format are defined over it, so it can never change shape silently.
* **binary (v3)** — a magic + version header followed by a
  length-prefixed, varint-packed record block (optionally
  zlib-compressed).  Roughly 4-8x smaller than the text form and faster
  to parse; used for cache storage.  ``docs/trace-format.md`` is the
  normative spec of all three versions.

Binary files and text files are distinguished by the leading magic bytes,
so :func:`load_trace_file` reads either transparently.

Every trace is held as int64 numpy :class:`TraceColumns`: each serial, pc
and value, and each serial and pc step between consecutive records, fits
int64.  That domain is checked where a trace enters the program — by
:func:`columns_of_records` (the :class:`~repro.trace.stream.ValueTrace`
constructor, and so the text loader) and by :func:`decode_trace_columns`
(v3) — and a violation raises :class:`TraceError`.  Each format then has
one writer and one decoder, all array passes over the columns in
fixed-size chunks (see "Columnar writers" below).  The Python record
loops they were checked against live in the test suite as oracles.
"""

from __future__ import annotations

import functools
import io
import zlib
from pathlib import Path
from typing import BinaryIO, Iterable, TextIO
from urllib.parse import quote, unquote

from repro.errors import TraceError
from repro.isa.opcodes import Opcode, category_of
from repro.trace.record import TraceRecord
from repro.trace.stream import RecordColumns, ValueTrace
from repro.trace.varint import decode_uvarint, encode_uvarint

#: v1 wrote the name verbatim (corrupting it if it contained spaces);
#: v2 percent-encodes it.  The loader keys decoding off the header version
#: so v1 files — whose names may contain literal ``%`` — stay readable.
_FORMAT_VERSION = 2
_HEADER_PREFIX = "#repro-trace"

#: Binary format version (text formats are v1/v2, binary starts at v3).
BINARY_FORMAT_VERSION = 3
#: PNG-style magic: the high bit catches text-mode mangling, ``RVPT`` names
#: the container ("Repro Value-Prediction Trace"), and CR/LF/EOF bytes catch
#: newline translation.  A text trace starts with ``#``, so the first byte
#: alone distinguishes the two families.
BINARY_MAGIC = b"\x89RVPT\r\n\x1a"

#: Header flag bits (varint-encoded after the version field).
_FLAG_ZLIB_BODY = 0x01

#: Stable opcode order used only as the *default* table layout; the binary
#: header embeds the table it actually used, so files survive enum edits.
_OPCODE_ORDER: tuple[Opcode, ...] = tuple(Opcode)
#: Each opcode's index in :data:`_OPCODE_ORDER`.
_OPCODE_INDEX: dict[Opcode, int] = {opcode: index for index, opcode in enumerate(_OPCODE_ORDER)}

#: The domain of every trace field and step.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


# --------------------------------------------------------------------------- #
# Text format (v1/v2)
# --------------------------------------------------------------------------- #
def dump_trace(trace: ValueTrace, destination: TextIO) -> None:
    """Write ``trace`` to an open text stream (canonical v2 text form).

    The name is percent-encoded so that whitespace (or ``=``) in a trace
    name cannot corrupt the space-separated ``key=value`` header fields.
    Records are rendered from the trace's columns in chunks of array
    passes.
    """
    import numpy as np

    destination.write(
        f"{_HEADER_PREFIX} v{_FORMAT_VERSION} name={quote(trace.name, safe='')} "
        f"total={trace.total_dynamic_instructions} records={len(trace)}\n"
    )
    columns = trace.columns
    mnemonics = _mnemonic_words(np, columns.opcodes)
    for start in range(0, len(columns), _CHUNK_RECORDS):
        rows = slice(start, start + _CHUNK_RECORDS)
        destination.write(
            _text_chunk(
                np, columns.serials[rows], columns.pcs[rows],
                mnemonics[columns.opcode_codes[rows]], columns.values[rows],
            ).decode("ascii")
        )


def dumps_trace(trace: ValueTrace) -> str:
    """Return the canonical text serialisation of ``trace`` as a string."""
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    return buffer.getvalue()


def load_trace(source: TextIO) -> ValueTrace:
    """Read a trace previously written by :func:`dump_trace`."""
    header = source.readline()
    if not header.startswith(_HEADER_PREFIX):
        raise TraceError("not a repro trace: missing header line")
    tokens = header.strip().split()
    version = 1
    for token in tokens[1:]:
        if len(token) > 1 and token[0] == "v" and token[1:].isdigit():
            version = int(token[1:])
            break
    fields = dict(part.split("=", 1) for part in tokens if "=" in part)
    name = fields.get("name", "trace")
    if version >= 2:
        name = unquote(name)
    try:
        total = int(fields["total"])
        expected_records = int(fields["records"])
    except (KeyError, ValueError) as exc:
        raise TraceError(f"malformed trace header: {header!r}") from exc

    records: list[TraceRecord] = []
    for line_number, line in enumerate(source, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise TraceError(f"malformed trace record on line {line_number}: {line!r}")
        try:
            serial, pc, value = int(parts[0]), int(parts[1]), int(parts[3])
            opcode = Opcode(parts[2])
        except ValueError as exc:
            raise TraceError(f"malformed trace record on line {line_number}: {line!r}") from exc
        records.append(
            TraceRecord(
                serial=serial,
                pc=pc,
                opcode=opcode,
                category=category_of(opcode),
                value=value,
            )
        )
    if len(records) != expected_records:
        raise TraceError(
            f"trace record count mismatch: header says {expected_records}, found {len(records)}"
        )
    return ValueTrace(name, records, total)


def loads_trace(text: str) -> ValueTrace:
    """Parse a trace from a string produced by :func:`dumps_trace`."""
    return load_trace(io.StringIO(text))


# --------------------------------------------------------------------------- #
# Binary format (v3)
# --------------------------------------------------------------------------- #
def dumps_trace_binary(trace: ValueTrace, compress: bool = False) -> bytes:
    """Serialise ``trace`` into the v3 binary framing.

    Layout (all integers LEB128 varints, signed fields zigzag-mapped)::

        magic(8) version flags
        name_len name_bytes          -- percent-encoded UTF-8, as in text v2
        total records
        opcode_count [op_len op_bytes]*   -- table of opcode mnemonics
        body_len body_bytes

    The body holds, per record, ``serial_delta pc_delta opcode_index
    value`` (deltas against the previous record, zigzag-encoded; the
    opcode index points into the header table).  ``compress=True`` runs
    the body — not the header — through zlib and sets flag bit 0, so the
    record count and name stay inspectable without inflating anything.
    """
    body_bytes = _binary_body(trace.columns)
    flags = 0
    if compress:
        flags |= _FLAG_ZLIB_BODY
        body_bytes = zlib.compress(body_bytes, level=6)

    name_bytes = quote(trace.name, safe="").encode("ascii")
    out = bytearray(BINARY_MAGIC)
    out += encode_uvarint(BINARY_FORMAT_VERSION)
    out += encode_uvarint(flags)
    out += encode_uvarint(len(name_bytes))
    out += name_bytes
    out += encode_uvarint(trace.total_dynamic_instructions)
    out += encode_uvarint(len(trace))
    out += encode_uvarint(len(_OPCODE_ORDER))
    for opcode in _OPCODE_ORDER:
        mnemonic = opcode.value.encode("ascii")
        out += encode_uvarint(len(mnemonic))
        out += mnemonic
    out += encode_uvarint(len(body_bytes))
    out += body_bytes
    return bytes(out)


def dump_trace_binary(trace: ValueTrace, destination: BinaryIO, compress: bool = False) -> None:
    """Write the v3 binary serialisation of ``trace`` to an open byte stream."""
    destination.write(dumps_trace_binary(trace, compress=compress))


def _ascii(field: memoryview, what: str) -> str:
    """Decode an ASCII header field, raising :class:`TraceError` if it is not."""
    try:
        return bytes(field).decode("ascii")
    except UnicodeDecodeError as exc:
        raise TraceError(f"corrupt binary trace: non-ASCII byte in the {what}") from exc


def _parse_binary_container(data: bytes) -> tuple[str, int, int, list[Opcode], bytes]:
    """Parse the v3 header and return ``(name, total, records, table, body)``.

    The body comes back decompressed; record decoding is
    :func:`decode_trace_columns`' half of the work.  Every header
    invariant is checked here, and any violation raises
    :class:`TraceError`.
    """
    view = memoryview(data)
    if bytes(view[: len(BINARY_MAGIC)]) != BINARY_MAGIC:
        raise TraceError("not a binary repro trace: bad magic")
    offset = len(BINARY_MAGIC)
    version, offset = decode_uvarint(view, offset)
    if version != BINARY_FORMAT_VERSION:
        raise TraceError(f"unsupported binary trace version v{version}")
    flags, offset = decode_uvarint(view, offset)
    name_length, offset = decode_uvarint(view, offset)
    if offset + name_length > len(view):
        raise TraceError("truncated binary trace: name overruns the data")
    name = unquote(_ascii(view[offset : offset + name_length], "trace name"))
    offset += name_length
    total, offset = decode_uvarint(view, offset)
    expected_records, offset = decode_uvarint(view, offset)
    if total < expected_records:
        raise TraceError(
            "corrupt binary trace: total dynamic instructions cannot be smaller "
            f"than the number of records ({total} < {expected_records})"
        )
    opcode_count, offset = decode_uvarint(view, offset)
    table: list[Opcode] = []
    for _ in range(opcode_count):
        length, offset = decode_uvarint(view, offset)
        if offset + length > len(view):
            raise TraceError("truncated binary trace: opcode table overruns the data")
        mnemonic = _ascii(view[offset : offset + length], "opcode table")
        offset += length
        try:
            table.append(Opcode(mnemonic))
        except ValueError as exc:
            raise TraceError(f"unknown opcode {mnemonic!r} in binary trace table") from exc
    body_length, offset = decode_uvarint(view, offset)
    if offset + body_length > len(view):
        raise TraceError(
            f"truncated binary trace: body declares {body_length} bytes, "
            f"{len(view) - offset} available"
        )
    body: bytes | memoryview = view[offset : offset + body_length]
    if flags & _FLAG_ZLIB_BODY:
        try:
            body = zlib.decompress(bytes(body))
        except zlib.error as exc:
            raise TraceError("corrupt binary trace: body fails to decompress") from exc
    return name, total, expected_records, table, bytes(body)


def load_trace_binary(source: BinaryIO) -> ValueTrace:
    """Read a trace previously written by :func:`dump_trace_binary`."""
    return loads_trace_binary(source.read())


# --------------------------------------------------------------------------- #
# Columns: the one in-memory form of a trace, and the v3 decoder
# --------------------------------------------------------------------------- #
#: Records decoded or rendered per numpy pass, so the decoder's and the
#: writers' scratch arrays stay the same size however long the trace is.
_CHUNK_RECORDS = 8192


class TraceColumns:
    """A trace as parallel numpy columns instead of ``TraceRecord`` objects.

    ``pcs``/``values``/``serials`` are ``int64`` arrays in program order;
    ``opcode_codes`` indexes ``opcodes`` (the file's embedded table) and
    ``category_codes`` indexes ``categories`` (the distinct categories of
    that table, in table order).  Every serial and pc step between
    consecutive records fits int64 too.  ``scratch`` is a plain dict where the
    vectorized kernel memoises small per-trace results (the per-category
    record totals) so they are computed once per trace, not once per
    predictor; its large derived structures live only while the trace is
    the one the kernel is running.
    """

    def __init__(self, name, total_dynamic_instructions, serials, pcs, values,
                 opcode_codes, opcodes, category_codes, categories) -> None:
        self.name = name
        self.total_dynamic_instructions = total_dynamic_instructions
        self.serials = serials
        self.pcs = pcs
        self.values = values
        self.opcode_codes = opcode_codes
        self.opcodes = opcodes
        self.category_codes = category_codes
        self.categories = categories
        self.scratch: dict = {}

    @classmethod
    def from_static(cls, np, name, total_dynamic_instructions, serials, static,
                    static_pcs, static_opcodes, values) -> "TraceColumns":
        """Columns whose record ``k`` comes from static instruction ``static[k]``.

        ``static_pcs`` and ``static_opcodes`` describe each static
        instruction; a record's pc, opcode and category are looked up in
        per-static tables, with opcodes coded in :data:`_OPCODE_ORDER`.
        """
        categories, op_to_cat = _category_mapping(_OPCODE_ORDER)
        opcode_codes = np.array([_OPCODE_INDEX[opcode] for opcode in static_opcodes])[static]
        return cls(
            name, total_dynamic_instructions, serials,
            np.asarray(static_pcs, dtype=np.int64)[static], values, opcode_codes,
            _OPCODE_ORDER, np.asarray(op_to_cat, dtype=np.int64)[opcode_codes], categories,
        )

    def __len__(self) -> int:
        return len(self.values)

    def record_columns(self) -> RecordColumns:
        """The same rows as list columns (:meth:`ValueTrace.record_columns`)."""
        return RecordColumns(
            serials=self.serials.tolist(),
            pcs=self.pcs.tolist(),
            opcodes=list(map(self.opcodes.__getitem__, self.opcode_codes.tolist())),
            categories=list(map(self.categories.__getitem__, self.category_codes.tolist())),
            values=self.values.tolist(),
        )


def _category_mapping(table: list[Opcode] | tuple[Opcode, ...]):
    """Distinct categories of an opcode table plus the per-opcode code map."""
    categories: list = []
    op_to_cat: list[int] = []
    for opcode in table:
        category = category_of(opcode)
        if category not in categories:
            categories.append(category)
        op_to_cat.append(categories.index(category))
    return tuple(categories), op_to_cat


def columns_of_records(
    name: str, records: Iterable[TraceRecord], total_dynamic_instructions: int | None
) -> TraceColumns:
    """The checked columns of hand-built ``records``: the trace constructor's boundary.

    Raises :class:`TraceError` naming the record and field when a serial,
    pc or value, or a serial or pc step from the previous record, falls
    outside int64, when a record's category is not its opcode's, or when
    ``total_dynamic_instructions`` is below the record count (``None``
    means the record count).
    """
    import numpy as np

    rows = list(records)
    total = len(rows) if total_dynamic_instructions is None else total_dynamic_instructions
    if total < len(rows):
        raise TraceError(
            "total dynamic instructions cannot be smaller than the number of "
            f"predicted records ({total} < {len(rows)})"
        )
    fields = {}
    for field in ("serial", "pc", "value"):
        column = [getattr(record, field) for record in rows]
        try:
            fields[field] = np.array(column, dtype=np.int64)
        except OverflowError:
            index = next(
                index for index, item in enumerate(column) if not _INT64_MIN <= item <= _INT64_MAX
            )
            raise TraceError(
                f"record {index + 1}: {field} {column[index]} is outside int64"
            ) from None
    for field in ("serial", "pc"):
        _check_steps(np, fields[field], field)
    for index, record in enumerate(rows):
        if record.opcode not in _OPCODE_INDEX or record.category is not category_of(record.opcode):
            raise TraceError(
                f"record {index + 1}: opcode {record.opcode!r} with category {record.category!r}"
            )
    categories, op_to_cat = _category_mapping(_OPCODE_ORDER)
    opcode_codes = np.array([_OPCODE_INDEX[record.opcode] for record in rows], dtype=np.int64)
    return TraceColumns(
        name, total, fields["serial"], fields["pc"], fields["value"], opcode_codes,
        _OPCODE_ORDER, np.asarray(op_to_cat, dtype=np.int64)[opcode_codes], categories,
    )


def _overflowed(before, after, steps):
    """Where ``after = before + steps`` wrapped: the exact int64 sign test."""
    return ((before ^ after) & (steps ^ after)) < 0


def _check_steps(np, column, field: str) -> None:
    """Raise :class:`TraceError` if a step between neighbours of ``column`` leaves int64."""
    before, after = column[:-1], column[1:]
    overflow = _overflowed(before, after, after - before)
    if overflow.any():
        index = int(np.argmax(overflow)) + 1
        raise TraceError(
            f"record {index + 1}: {field} step {int(column[index]) - int(column[index - 1])} "
            "from the previous record is outside int64"
        )


def _unzigzag_array(np, raw):
    """Zigzag-decode a ``uint64`` array (0, 1, 2, 3 → 0, -1, 1, -2), as ``int64``."""
    mask = (raw & np.uint64(1)) * np.uint64(0xFFFFFFFFFFFFFFFF)
    return ((raw >> np.uint64(1)) ^ mask).view(np.int64)


def _prefix_sum_int64(np, deltas, previous: int, out, field: str, start: int) -> None:
    """Write ``previous`` plus the running sum of ``deltas`` into ``out``.

    The sum wraps in int64 and the exact sign test of each step then finds
    the first record whose true sum left int64 (all earlier sums are
    exact); that record raises :class:`TraceError`.  ``start`` is the
    index of ``out``'s first record in the trace.
    """
    np.cumsum(deltas, out=out)
    out += previous
    before = np.empty_like(out)
    before[0] = previous
    before[1:] = out[:-1]
    overflow = _overflowed(before, out, deltas)
    if overflow.any():
        index = start + int(np.argmax(overflow))
        raise TraceError(f"corrupt binary trace: {field} of record {index + 1} is outside int64")


def _varint_ends(np, buf, count: int, guess: int):
    """Offsets of the last bytes of the first ``count`` varints in ``buf``.

    The span searched starts at ``guess`` bytes; a valid 64-bit varint is
    at most 10 bytes long, so when ``10 * count`` bytes do not hold
    ``count`` of them, one is longer and :class:`TraceError` is raised.
    """
    for span in (guess, 10 * count):
        ends = np.flatnonzero(buf[:span] < 0x80)
        if len(ends) >= count:
            return ends[:count]
    raise TraceError("corrupt binary trace: a varint is wider than 64 bits")


def _varint_values(np, buf, ends):
    """The varints of ``buf`` ending at ``ends``, as ``uint64``.

    Raises :class:`TraceError` for a varint wider than 64 bits.
    """
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    extra = ends - starts
    longest = int(extra.max())
    if longest > 9 or (longest == 9 and bool(np.any(buf[ends[extra == 9]] > 0x01))):
        raise TraceError("corrupt binary trace: a varint is wider than 64 bits")
    values = (buf[starts] & np.uint8(0x7F)).astype(np.uint64)
    for byte in range(1, longest + 1):
        rows = np.flatnonzero(extra >= byte)
        bits = (buf[starts[rows] + byte] & np.uint8(0x7F)).astype(np.uint64)
        values[rows] |= bits << np.uint64(7 * byte)
    return values


def decode_trace_columns(data: bytes) -> TraceColumns:
    """Decode v3 binary bytes straight into columns, building no record.

    The body is parsed :data:`_CHUNK_RECORDS` records at a time into
    preallocated columns, so its scratch arrays stay the same size however
    long the trace is.  Raises :class:`TraceError`, and only that, on
    corrupt data and on a trace outside the int64 domain: a varint wider
    than 64 bits, or a serial or pc sum that leaves int64.
    """
    import numpy as np

    name, total, expected_records, table, body = _parse_binary_container(data)
    categories, op_to_cat = _category_mapping(table)
    if expected_records == 0:
        if body:
            raise TraceError(
                f"corrupt binary trace: {len(body)} trailing bytes after 0 records"
            )
        empty = np.zeros(0, dtype=np.int64)
        columns = TraceColumns(
            name, total, empty, empty, empty.copy(), empty.copy(),
            tuple(table), empty.copy(), categories,
        )
        return columns

    buf = np.frombuffer(body, dtype=np.uint8)
    if buf.size == 0:
        raise TraceError(
            f"corrupt binary trace: body ends after 0 of {expected_records} records"
        )
    if buf[-1] & 0x80:
        raise TraceError("truncated varint")
    n_varints = int(np.count_nonzero(buf < 0x80))
    if n_varints < 4 * expected_records:
        raise TraceError(
            f"corrupt binary trace: body ends after {n_varints // 4} of "
            f"{expected_records} records"
        )
    if n_varints > 4 * expected_records:
        raise TraceError(
            f"corrupt binary trace: {n_varints - 4 * expected_records} trailing varints "
            f"after {expected_records} records"
        )
    # With the count right and the last byte ending a varint, the body
    # splits into exactly the expected varints: each chunk below finds its
    # own, from the bytes per varint of the whole body plus a margin.
    bytes_per_varint = buf.size / n_varints
    serials, pcs, values, opcode_codes = (np.empty(expected_records, dtype=np.int64) for _ in range(4))
    offset = serial = pc = 0
    for start in range(0, expected_records, _CHUNK_RECORDS):
        count = min(_CHUNK_RECORDS, expected_records - start)
        window = buf[offset:]
        ends = _varint_ends(np, window, 4 * count, int(4 * count * bytes_per_varint * 1.25) + 16)
        raw = _varint_values(np, window, ends)
        offset += int(ends[-1]) + 1
        raw = raw.reshape(count, 4)
        rows = slice(start, start + count)
        codes = raw[:, 2]
        if int(codes.max()) >= len(table):
            bad = start + int(np.argmax(codes >= np.uint64(len(table))))
            raise TraceError(f"corrupt binary trace: invalid opcode index in record {bad + 1}")
        opcode_codes[rows] = codes
        values[rows] = _unzigzag_array(np, raw[:, 3].copy())
        serial_deltas = _unzigzag_array(np, raw[:, 0].copy())
        _prefix_sum_int64(np, serial_deltas, serial, serials[rows], "serial", start)
        _prefix_sum_int64(np, _unzigzag_array(np, raw[:, 1].copy()), pc, pcs[rows], "pc", start)
        serial, pc = int(serials[start + count - 1]), int(pcs[start + count - 1])
    category_codes = np.asarray(op_to_cat, dtype=np.int64)[opcode_codes]
    return TraceColumns(
        name, total, serials, pcs, values, opcode_codes, tuple(table),
        category_codes, categories,
    )


def decode_trace(data: bytes) -> ValueTrace:
    """Parse a trace from bytes produced by :func:`dumps_trace_binary`.

    The trace holds :func:`decode_trace_columns`' arrays and builds no
    ``TraceRecord``.  Raises :class:`TraceError` on a bad magic, an
    unsupported version, a truncated body, a record-count mismatch or a
    field outside int64 — the cache treats any of those as a miss rather
    than a failure.
    """
    return ValueTrace.from_arrays(decode_trace_columns(data))


#: The public name of the binary loader.
loads_trace_binary = decode_trace


def trace_columns(trace: ValueTrace) -> TraceColumns:
    """The int64 columns ``trace`` holds."""
    return trace.columns


# --------------------------------------------------------------------------- #
# Columnar writers (the production path of dump_trace / dumps_trace_binary)
# --------------------------------------------------------------------------- #
def _word(np, text: bytes) -> int:
    """The ``uint32`` whose bytes in memory are ``text``, zero-padded."""
    return int(np.frombuffer(text.ljust(4, b"\0"), dtype=np.uint32)[0])


@functools.lru_cache(maxsize=None)
def _digit_words(np):
    """Four-digit groups as ``uint32`` words of ASCII bytes: ``(lowest, higher)``.

    Index ``r`` holds ``r`` (0..9999) right-aligned with its leading zeros
    as 0 bytes (the most significant group of a number); index
    ``10000 + r`` holds all four digits (a group with more above it).  The
    two tables differ only at 0: the lowest group of the number 0 is
    ``"0"``, any higher group of it is empty.
    """
    numbers = np.arange(10_000)
    digits = (numbers[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    full = digits.view(np.uint32).ravel().copy()
    lengths = np.searchsorted(np.array([10, 100, 1000]), numbers, side="right") + 1
    digits[np.arange(4) < (4 - lengths)[:, None]] = 0
    leading = digits.view(np.uint32).ravel()
    lowest = np.concatenate([leading, full])
    higher = lowest.copy()
    higher[0] = 0
    return lowest, higher


@functools.lru_cache(maxsize=8)
def _mnemonic_words(np, opcodes: tuple[Opcode, ...]):
    """Each opcode's ``" " + mnemonic`` as a row of zero-padded ``uint32`` words."""
    encoded = [b" " + opcode.value.encode("ascii") for opcode in opcodes]
    width = -(-max(map(len, encoded), default=1) // 4) * 4
    table = np.frombuffer(b"".join(text.ljust(width, b"\0") for text in encoded), np.uint8)
    return table.view(np.uint32).reshape(len(opcodes), width // 4)


def _decimal_words(np, column, separator: bytes) -> list:
    """``column``'s ``int64`` values as text, one ``uint32`` word array per position.

    The first word is ``separator`` plus the sign, then come the digits in
    groups of four, most significant first (:func:`_digit_words`).  Every
    byte that is not text is 0.
    """
    lowest, higher = _digit_words(np)
    negative = column < 0
    unsigned = column.view(np.uint64)
    magnitude = np.where(negative, -unsigned, unsigned)
    words = [np.where(negative, _word(np, separator + b"-"), _word(np, separator))]
    top = int(magnitude.max())
    table = lowest
    while True:
        if top <= 0xFFFFFFFF:
            magnitude = magnitude.astype(np.uint32, copy=False)
        quotient = magnitude // 10_000
        index = (magnitude - quotient * 10_000).astype(np.intp)
        index[quotient != 0] += 10_000
        words.insert(1, table.take(index))
        top //= 10_000
        if not top:
            return words
        magnitude, table = quotient, higher


def _text_chunk(np, serials, pcs, opcode_words, values) -> bytes:
    """Canonical text lines of a run of records, from their columns.

    Every field and separator of a record fills a row of ``uint32`` words
    whose padding bytes are 0; as no byte of a text record is 0, dropping
    the zero bytes of all rows in one pass leaves exactly the lines.
    """
    words = [
        *_decimal_words(np, serials, b""),
        *_decimal_words(np, pcs, b" "),
        *opcode_words.T,
        *_decimal_words(np, values, b" "),
        _word(np, b"\n"),
    ]
    rows = np.empty((len(values), len(words)), dtype=np.uint32)
    for position, word in enumerate(words):
        rows[:, position] = word
    text = rows.view(np.uint8).ravel()
    return np.compress(text != 0, text).tobytes()


def _zigzag_int64(np, column):
    """Zigzag-encode an ``int64`` array (0, -1, 1, -2 → 0, 1, 2, 3), as ``uint64``."""
    return (column.view(np.uint64) << np.uint64(1)) ^ (column >> 63).view(np.uint64)


def _varint_bytes(np, unsigned) -> list:
    """LEB128 encodings of a ``uint64`` array, one ``uint8`` array per byte.

    Byte ``k`` of a value whose encoding is shorter is 0; no byte of an
    encoding but its first can be 0.
    """
    width = max(1, -(-int(unsigned.max()).bit_length() // 7))
    columns = []
    for _ in range(width):
        more = unsigned >> np.uint64(7)
        columns.append(
            (unsigned.astype(np.uint8) & np.uint8(0x7F)) | ((more != 0).view(np.uint8) << 7)
        )
        unsigned = more
    return columns


def _deltas(np, column, previous: int):
    """``column`` minus each row's predecessor (``previous`` before the first).

    Every step of a trace's columns fits int64, so none wraps.
    """
    before = np.empty_like(column)
    before[0] = previous
    before[1:] = column[:-1]
    return column - before


def _binary_body(columns: TraceColumns) -> bytes:
    """The v3 record block of ``columns``.

    Opcode codes are remapped to :data:`_OPCODE_ORDER`, the table every
    v3 file is written with.
    """
    import numpy as np

    remap = np.array([_OPCODE_INDEX[opcode] for opcode in columns.opcodes], dtype=np.uint64)
    parts = []
    serial = pc = 0
    for start in range(0, len(columns), _CHUNK_RECORDS):
        rows = slice(start, start + _CHUNK_RECORDS)
        serials, pcs = columns.serials[rows], columns.pcs[rows]
        serial_deltas = _deltas(np, serials, serial)
        pc_deltas = _deltas(np, pcs, pc)
        serial, pc = int(serials[-1]), int(pcs[-1])
        fields = [
            _varint_bytes(np, _zigzag_int64(np, serial_deltas)),
            _varint_bytes(np, _zigzag_int64(np, pc_deltas)),
            _varint_bytes(np, remap.take(columns.opcode_codes[rows])),
            _varint_bytes(np, _zigzag_int64(np, columns.values[rows])),
        ]
        record = np.empty((len(serials), sum(map(len, fields))), dtype=np.uint8)
        keep = np.zeros(record.shape, dtype=bool)
        position = 0
        for field in fields:
            keep[:, position] = True
            for byte in field:
                record[:, position] = byte
                position += 1
        keep |= record != 0
        body = record.ravel()
        parts.append(np.compress(keep.ravel(), body).tobytes())
    return b"".join(parts)


# --------------------------------------------------------------------------- #
# Format-aware file helpers
# --------------------------------------------------------------------------- #
def save_trace_file(
    trace: ValueTrace,
    path: str | Path,
    format: str = "text",
    compress: bool = False,
) -> None:
    """Serialise ``trace`` to ``path`` as ``"text"`` (v2) or ``"binary"`` (v3).

    ``compress`` only applies to the binary format; the text form is the
    canonical digest encoding and stays uncompressed.
    """
    if format == "text":
        with open(path, "w", encoding="utf-8") as handle:
            dump_trace(trace, handle)
    elif format == "binary":
        with open(path, "wb") as handle:
            dump_trace_binary(trace, handle, compress=compress)
    else:
        raise TraceError(f"unknown trace format {format!r} (expected 'text' or 'binary')")


def load_trace_file(path: str | Path) -> ValueTrace:
    """Load a trace from ``path``, auto-detecting text vs binary by magic."""
    with open(path, "rb") as handle:
        data = handle.read()
    if data.startswith(BINARY_MAGIC):
        return loads_trace_binary(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceError("not a repro trace: neither binary magic nor UTF-8 text") from exc
    return loads_trace(text)
