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

Each format has two writers and two decoders with byte-identical results.
:func:`dump_trace` and :func:`dumps_trace_binary` render a trace from its
numpy :class:`TraceColumns` in fixed-size chunks of array passes (see
"Columnar writers" below), and :func:`decode_trace_columns` decodes v3
straight to arrays.  The Python loops over
:meth:`~repro.trace.stream.ValueTrace.record_columns` —
:func:`_write_text_records`, :func:`_binary_body_records` and
:func:`loads_trace_binary` — take the fields outside int64, which the
arrays cannot hold, and are the oracles the differential tests compare
the array passes against.  The canonical text, and so the digest, is the
same whichever writer ran.
"""

from __future__ import annotations

import functools
import io
import zlib
from itertools import chain
from operator import sub
from pathlib import Path
from typing import BinaryIO, TextIO
from urllib.parse import quote, unquote

from repro.errors import TraceError
from repro.isa.opcodes import Opcode, category_of
from repro.trace.record import TraceRecord
from repro.trace.stream import RecordColumns, ValueTrace

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

#: Text-format mnemonic of each opcode (a dict lookup beats ``.value``).
_MNEMONIC: dict[Opcode, str] = {opcode: opcode.value for opcode in Opcode}


# --------------------------------------------------------------------------- #
# Varint primitives (shared with the engine's cache-entry envelope)
# --------------------------------------------------------------------------- #
def encode_uvarint(value: int) -> bytes:
    """LEB128-encode a non-negative integer."""
    if value < 0:
        raise TraceError(f"cannot uvarint-encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes | memoryview, offset: int) -> tuple[int, int]:
    """Decode a LEB128 varint at ``offset``; returns ``(value, next_offset)``."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise TraceError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def _zigzag(value: int) -> int:
    """Map a signed integer to an unsigned one (0, -1, 1, -2 → 0, 1, 2, 3)."""
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


def _encode_svarint(value: int) -> bytes:
    return encode_uvarint(_zigzag(value))


class _SvarintTable(dict):
    """Memo of :func:`_encode_svarint`: ``table[value]`` is its encoding.

    Trace fields repeat heavily (deltas, opcodes, predictable values), so
    the encoder looks each field up here, at C speed on a hit.
    """

    def __missing__(self, value: int) -> bytes:
        encoded = self[value] = _encode_svarint(value)
        return encoded


def _decode_svarint(data: bytes | memoryview, offset: int) -> tuple[int, int]:
    raw, offset = decode_uvarint(data, offset)
    return _unzigzag(raw), offset


# --------------------------------------------------------------------------- #
# Text format (v1/v2)
# --------------------------------------------------------------------------- #
def dump_trace(trace: ValueTrace, destination: TextIO) -> None:
    """Write ``trace`` to an open text stream (canonical v2 text form).

    The name is percent-encoded so that whitespace (or ``=``) in a trace
    name cannot corrupt the space-separated ``key=value`` header fields.
    Records are rendered from the trace's numpy columns
    (:func:`trace_columns`) when it has them, else line by line.
    """
    import numpy as np

    destination.write(
        f"{_HEADER_PREFIX} v{_FORMAT_VERSION} name={quote(trace.name, safe='')} "
        f"total={trace.total_dynamic_instructions} records={len(trace)}\n"
    )
    columns = trace_columns(trace)
    if columns is None:
        _write_text_records(trace.record_columns(), destination)
        return
    mnemonics = _mnemonic_words(np, columns.opcodes)
    for start in range(0, len(columns), _CHUNK_RECORDS):
        rows = slice(start, start + _CHUNK_RECORDS)
        destination.write(
            _text_chunk(
                np, columns.serials[rows], columns.pcs[rows],
                mnemonics[columns.opcode_codes[rows]], columns.values[rows],
            ).decode("ascii")
        )


def _write_text_records(columns: RecordColumns, destination: TextIO) -> None:
    """The text writer's Python loop: one formatted line per record."""
    mnemonics = map(_MNEMONIC.__getitem__, columns.opcodes)
    destination.writelines(
        f"{serial} {pc} {mnemonic} {value}\n"
        for serial, pc, mnemonic, value in zip(
            columns.serials, columns.pcs, mnemonics, columns.values
        )
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
    trace = ValueTrace(name, records)
    trace.set_total_dynamic_instructions(total)
    return trace


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
    columns = trace_columns(trace)
    body_bytes = None if columns is None else _binary_body(columns)
    if body_bytes is None:
        body_bytes = _binary_body_records(trace.record_columns())

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


def _binary_body_records(columns: RecordColumns) -> bytes:
    """The v3 writer's Python loop: each record's four varints, in order."""
    svarint = _SvarintTable()
    opcode_index = {opcode: encode_uvarint(index) for index, opcode in enumerate(_OPCODE_ORDER)}
    body = io.BytesIO()
    # writelines, not b"".join: join holds a buffer descriptor per part.
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

    The body comes back decompressed; record decoding — scalar
    (:func:`loads_trace_binary`) or columnar
    (:func:`decode_trace_columns`) — is the caller's half of the work.
    Every header invariant both decoders share is checked here, and any
    violation raises :class:`TraceError`.
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


def loads_trace_binary(data: bytes) -> ValueTrace:
    """Parse a trace from bytes produced by :func:`dumps_trace_binary`.

    Raises :class:`TraceError` on a bad magic, an unsupported version, a
    truncated body or a record-count mismatch — the cache treats any of
    those as a miss rather than a failure.
    """
    name, total, expected_records, table, body = _parse_binary_container(data)

    # One record is four varints; the decode loop is the hot path of every
    # warm cache read, so the varint reader is inlined rather than calling
    # _decode_svarint twelve-million times on a long trace.
    pairs = [(opcode, category_of(opcode)) for opcode in table]
    records: list[TraceRecord] = []
    append = records.append
    data = body
    position = 0
    serial = 0
    pc = 0
    try:
        for _ in range(expected_records):
            raw = data[position]
            position += 1
            if raw & 0x80:
                raw &= 0x7F
                shift = 7
                while True:
                    byte = data[position]
                    position += 1
                    raw |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
            serial += (raw >> 1) if not raw & 1 else -((raw + 1) >> 1)

            raw = data[position]
            position += 1
            if raw & 0x80:
                raw &= 0x7F
                shift = 7
                while True:
                    byte = data[position]
                    position += 1
                    raw |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
            pc += (raw >> 1) if not raw & 1 else -((raw + 1) >> 1)

            raw = data[position]
            position += 1
            if raw & 0x80:
                raw &= 0x7F
                shift = 7
                while True:
                    byte = data[position]
                    position += 1
                    raw |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
            opcode, category = pairs[raw]

            raw = data[position]
            position += 1
            if raw & 0x80:
                raw &= 0x7F
                shift = 7
                while True:
                    byte = data[position]
                    position += 1
                    raw |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
            append(
                TraceRecord(
                    serial=serial,
                    pc=pc,
                    opcode=opcode,
                    category=category,
                    value=(raw >> 1) if not raw & 1 else -((raw + 1) >> 1),
                )
            )
    except IndexError as exc:
        # data[position] fails only once position has reached the end of
        # the body; a pairs[raw] failure mid-body is a bad opcode index.
        if position < len(data):
            raise TraceError(
                f"corrupt binary trace: invalid opcode index in record {len(records) + 1}"
            ) from exc
        raise TraceError(
            f"corrupt binary trace: body ends after {len(records)} of "
            f"{expected_records} records"
        ) from exc
    if position != len(data):
        raise TraceError(
            f"corrupt binary trace: {len(body) - position} trailing bytes after "
            f"{expected_records} records"
        )
    trace = ValueTrace(name, records)
    trace.set_total_dynamic_instructions(total)
    return trace


def load_trace_binary(source: BinaryIO) -> ValueTrace:
    """Read a trace previously written by :func:`dump_trace_binary`."""
    return loads_trace_binary(source.read())


# --------------------------------------------------------------------------- #
# Columnar decode (the vectorized kernel's input representation)
# --------------------------------------------------------------------------- #
#: Records decoded or rendered per numpy pass, so the decoder's and the
#: writers' scratch arrays stay the same size however long the trace is.
_CHUNK_RECORDS = 8192


class TraceColumns:
    """A trace as parallel numpy columns instead of ``TraceRecord`` objects.

    ``pcs``/``values``/``serials`` are ``int64`` arrays in program order;
    ``opcode_codes`` indexes ``opcodes`` (the file's embedded table) and
    ``category_codes`` indexes ``categories`` (the distinct categories of
    that table, in table order).  ``scratch`` is a plain dict where the
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
        """The same rows as the list columns a :class:`ValueTrace` reads."""
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


def _unzigzag_array(np, raw):
    """Vectorised :func:`_unzigzag` over a ``uint64`` array, as ``int64``."""
    mask = (raw & np.uint64(1)) * np.uint64(0xFFFFFFFFFFFFFFFF)
    return ((raw >> np.uint64(1)) ^ mask).view(np.int64)


def _prefix_sum_int64(np, deltas, previous: int, out) -> bool:
    """Write ``previous`` plus the running sum of ``deltas`` into ``out``.

    Returns ``False``, writing nothing, if a sum could overflow int64.  The
    scalar decoder accumulates in arbitrary-precision Python ints; the
    columnar path must refuse (and fall back) rather than silently wrap.
    A float64 shadow sum bounds the true magnitude closely enough to gate
    on half the int64 range.  ``deltas`` is consumed.
    """
    shadow = np.cumsum(deltas.astype(np.float64))
    shadow += previous
    if np.abs(shadow).max() >= float(2**62):
        return False
    deltas[0] += previous
    np.cumsum(deltas, out=out)
    return True


def _varint_ends(np, buf, count: int, guess: int):
    """Offsets of the last bytes of the first ``count`` varints in ``buf``.

    The span searched starts at ``guess`` bytes; a valid 64-bit varint is
    at most 10 bytes long, so when ``10 * count`` bytes do not hold
    ``count`` of them, one is longer and ``None`` is returned.
    """
    for span in (guess, 10 * count):
        ends = np.flatnonzero(buf[:span] < 0x80)
        if len(ends) >= count:
            return ends[:count]
    return None


def _varint_values(np, buf, ends):
    """The varints of ``buf`` ending at ``ends``, as ``uint64``.

    ``None`` for a varint wider than a 64-bit zigzag value needs.
    """
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    extra = ends - starts
    longest = int(extra.max())
    if longest > 9 or (longest == 9 and bool(np.any(buf[ends[extra == 9]] > 0x01))):
        return None
    values = (buf[starts] & np.uint8(0x7F)).astype(np.uint64)
    for byte in range(1, longest + 1):
        rows = np.flatnonzero(extra >= byte)
        bits = (buf[starts[rows] + byte] & np.uint8(0x7F)).astype(np.uint64)
        values[rows] |= bits << np.uint64(7 * byte)
    return values


def decode_trace_columns(data: bytes) -> TraceColumns | None:
    """Decode v3 binary bytes straight into columns, skipping records.

    This is the production decoder (see :func:`decode_trace`).  The body
    is parsed :data:`_CHUNK_RECORDS` records at a time into preallocated
    columns, so its scratch arrays stay the same size however long the
    trace is.  Returns ``None`` for a field outside the 64-bit domain the
    vectorized kernel computes in (the scalar decoder handles those with
    arbitrary-precision ints).  Raises :class:`TraceError`, and only
    that, on corrupt data — exactly where :func:`loads_trace_binary` does.
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
    if n_varints != 4 * expected_records:
        raise TraceError(
            f"corrupt binary trace: body holds {n_varints} varints, "
            f"{4 * expected_records} expected"
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
        raw = None if ends is None else _varint_values(np, window, ends)
        if raw is None:
            # A varint longer than a 64-bit zigzag value needs: fall back
            # to the arbitrary-precision scalar decoder.
            return None
        offset += int(ends[-1]) + 1
        raw = raw.reshape(count, 4)
        rows = slice(start, start + count)
        codes = raw[:, 2]
        if int(codes.max()) >= len(table):
            bad = start + int(np.argmax(codes >= np.uint64(len(table))))
            raise TraceError(f"corrupt binary trace: invalid opcode index in record {bad + 1}")
        opcode_codes[rows] = codes
        values[rows] = _unzigzag_array(np, raw[:, 3].copy())
        if not (
            _prefix_sum_int64(np, _unzigzag_array(np, raw[:, 0].copy()), serial, serials[rows])
            and _prefix_sum_int64(np, _unzigzag_array(np, raw[:, 1].copy()), pc, pcs[rows])
        ):
            return None
        serial, pc = int(serials[start + count - 1]), int(pcs[start + count - 1])
    category_codes = np.asarray(op_to_cat, dtype=np.int64)[opcode_codes]
    return TraceColumns(
        name, total, serials, pcs, values, opcode_codes, tuple(table),
        category_codes, categories,
    )


def decode_trace(data: bytes) -> ValueTrace:
    """Decode v3 binary bytes into a trace, building no ``TraceRecord``.

    The trace is backed by :func:`decode_trace_columns`' arrays, which
    :func:`trace_columns` then returns for free; its list columns and
    records are built only when a caller asks for them.  Only when the
    columnar decoder declines (``None``) does the scalar
    :func:`loads_trace_binary` decode instead.  Raises
    :class:`TraceError` on corrupt data.
    """
    columns = decode_trace_columns(data)
    if columns is None:
        return loads_trace_binary(data)
    return ValueTrace.from_arrays(columns)


def trace_columns(trace: ValueTrace) -> TraceColumns | None:
    """Columnar view of an in-memory :class:`ValueTrace`, memoised on it.

    Returns ``None`` when any field falls outside int64 (the vectorized
    kernel then uses the scalar path).
    """
    import numpy as np

    cached = getattr(trace, "_columns", False)
    if cached is not False:
        return cached
    fields = trace.record_columns()
    count = len(fields.values)
    categories, op_to_cat = _category_mapping(_OPCODE_ORDER)
    try:
        serials = np.fromiter(fields.serials, dtype=np.int64, count=count)
        pcs = np.fromiter(fields.pcs, dtype=np.int64, count=count)
        values = np.fromiter(fields.values, dtype=np.int64, count=count)
    except OverflowError:
        trace._columns = None
        return None
    opcode_codes = np.fromiter(
        map(_OPCODE_INDEX.__getitem__, fields.opcodes), dtype=np.int64, count=count
    )
    category_codes = np.asarray(op_to_cat, dtype=np.int64)[opcode_codes]
    columns = TraceColumns(
        trace.name, trace.total_dynamic_instructions, serials, pcs, values,
        opcode_codes, _OPCODE_ORDER, category_codes, categories,
    )
    trace._columns = columns
    return columns


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
    """Vectorised :func:`_zigzag` of an ``int64`` array, as ``uint64``."""
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
    """``column`` minus each row's predecessor (``previous`` before the
    first), or ``None`` if a difference overflows int64."""
    before = np.empty_like(column)
    before[0] = previous
    before[1:] = column[:-1]
    deltas = column - before
    if np.any(((column ^ before) & (column ^ deltas)) < 0):
        return None
    return deltas


def _binary_body(columns: "TraceColumns") -> bytes | None:
    """The v3 record block of ``columns``, or ``None`` to use the Python loop.

    Byte for byte what :func:`_binary_body_records` writes.  Opcode codes
    are remapped to :data:`_OPCODE_ORDER`, the table every v3 file is
    written with.  Declines when a serial or pc delta does not fit int64.
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
        if serial_deltas is None or pc_deltas is None:
            return None
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
