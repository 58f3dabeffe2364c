"""Differential tests: the columnar v3 decoder against a Python oracle.

:func:`repro.trace.io.decode_trace_columns` is the one v3 decoder; the
record-at-a-time loop of ``tests/trace/oracles.py`` decodes the same bytes
in Python ints, raising where the int64 domain ends, so the two must
never disagree.  Each Hypothesis example is one seed of
``tests/isa/random_programs.py``: its collected trace must round-trip text
v2 ↔ v3 ↔ columns identically through both decoders, and seeded byte
mutations of its v3 bytes must make both decoders raise
:class:`~repro.errors.TraceError` (and nothing else) or return the same
content.  The
columnar decoder parses the body ``_CHUNK_RECORDS`` records at a time, so
both properties also run with three-record chunks, where every example
spans several chunks, and with mutants whose fault lies past the first
chunk; and a scale-1.0 trace decodes in bounded scratch memory.
``pytest tests/trace/test_decoder_differential.py --hypothesis-profile=nightly``
runs many more seeds than the default profile.
"""

from __future__ import annotations

import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "isa"))
sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles  # noqa: E402
from random_programs import random_program  # noqa: E402

from repro.errors import ReproError, TraceError  # noqa: E402
from repro.trace.collector import collect_trace  # noqa: E402
from repro.trace import io as trace_io  # noqa: E402
from repro.trace.io import (  # noqa: E402
    BINARY_FORMAT_VERSION,
    BINARY_MAGIC,
    decode_trace,
    decode_trace_columns,
    dumps_trace,
    dumps_trace_binary,
    encode_uvarint,
    loads_trace,
    loads_trace_binary,
)

#: Mutants made from each example's v3 bytes.
MUTANTS_PER_SEED = 20

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

#: Records per decoder chunk in the small-chunk runs.
SMALL_CHUNK = 3


def _collected(seed):
    """The trace of ``seed``'s program, or ``None`` if the program faults."""
    program, memory, budget = random_program(seed)
    try:
        trace, _ = collect_trace(program, memory=memory, max_instructions=budget)
    except ReproError:
        return None
    return trace


def _content(trace):
    """Everything a trace holds, as plain lists."""
    columns = trace.record_columns()
    return (trace.name, trace.total_dynamic_instructions, *map(list, columns))


def _columns_content(columns):
    return (columns.name, columns.total_dynamic_instructions, *columns.record_columns())


def _oracle_content(data):
    """The oracle decoder's reading of ``data``, as :func:`_content` lists it."""
    name, total, columns = oracles.decode_binary(data)
    return (name, total, *columns)


def _arrays(columns):
    return [
        columns.serials.tolist(),
        columns.pcs.tolist(),
        [columns.opcodes[code] for code in columns.opcode_codes.tolist()],
        [columns.categories[code] for code in columns.category_codes.tolist()],
        columns.values.tolist(),
    ]


def _mutate(blob: bytes, rng: random.Random) -> bytes:
    """One to three random bit flips, truncations, insertions or deletions."""
    data = bytearray(blob)
    for _ in range(rng.randint(1, 3)):
        operation = rng.randrange(4)
        if operation == 0 and data:
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        elif operation == 1 and data:
            del data[rng.randrange(len(data)) :]
        elif operation == 2:
            data.insert(rng.randint(0, len(data)), rng.randrange(256))
        elif operation == 3 and data:
            del data[rng.randrange(len(data))]
    return bytes(data)


def _decode(decoder, data):
    """``decoder(data)``, or :class:`TraceError` if it raised one."""
    try:
        return decoder(data)
    except TraceError:
        return TraceError


def _assert_decoders_agree(data):
    """Both decoders raise :class:`TraceError` on ``data``, or decode it alike."""
    expected = _decode(_oracle_content, data)
    columns = _decode(decode_trace_columns, data)
    if expected is TraceError or columns is TraceError:
        assert expected is columns, data
    else:
        assert _columns_content(columns) == expected, data


@settings(deadline=None)
@given(seed=SEEDS)
def test_round_trip_text_v3_columns_on_both_decoders(seed):
    trace = _collected(seed)
    if trace is None:
        return
    text = dumps_trace(trace)
    expected = _content(trace)
    assert _content(loads_trace(text)) == expected
    for compress in (False, True):
        blob = dumps_trace_binary(trace, compress=compress)
        columns = decode_trace_columns(blob)
        assert _oracle_content(blob) == expected
        assert _columns_content(columns) == expected
        assert _arrays(columns) == _arrays(trace.columns)
        decoded = decode_trace(blob)
        assert _content(decoded) == expected
        assert dumps_trace(decoded) == text
        assert dumps_trace_binary(decoded, compress=compress) == blob


@settings(deadline=None)
@given(seed=SEEDS, mutation_seed=SEEDS)
def test_mutated_v3_bytes_fail_alike_or_decode_alike(seed, mutation_seed):
    trace = _collected(seed)
    if trace is None:
        return
    rng = random.Random(mutation_seed)
    blobs = [dumps_trace_binary(trace, compress=compress) for compress in (False, True)]
    for _ in range(MUTANTS_PER_SEED):
        mutant = _mutate(rng.choice(blobs), rng)
        _assert_decoders_agree(mutant)


@pytest.fixture
def small_chunks(monkeypatch):
    """The columnar decoder (and the writers) at :data:`SMALL_CHUNK` records per chunk."""
    monkeypatch.setattr(trace_io, "_CHUNK_RECORDS", SMALL_CHUNK)


def test_round_trip_in_small_chunks(small_chunks):
    test_round_trip_text_v3_columns_on_both_decoders()


def test_mutated_v3_bytes_in_small_chunks(small_chunks):
    test_mutated_v3_bytes_fail_alike_or_decode_alike()


def _first_chunk_end(blob: bytes) -> int:
    """Offset in uncompressed v3 ``blob`` just past its first small chunk's varints."""
    body = trace_io._parse_binary_container(blob)[4]
    ends = [index for index, byte in enumerate(body) if not byte & 0x80]
    return len(blob) - len(body) + ends[4 * SMALL_CHUNK - 1] + 1


@settings(deadline=None)
@given(seed=SEEDS, mutation_seed=SEEDS)
def test_mutants_past_the_first_chunk_fail_alike_or_decode_alike(seed, mutation_seed):
    trace = _collected(seed)
    if trace is None or len(trace) <= 2 * SMALL_CHUNK:
        return
    rng = random.Random(mutation_seed)
    blob = dumps_trace_binary(trace)
    start = _first_chunk_end(blob)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace_io, "_CHUNK_RECORDS", SMALL_CHUNK)
        for _ in range(MUTANTS_PER_SEED):
            data = bytearray(blob)
            position = rng.randrange(start, len(data))
            operation = rng.randrange(4)
            if operation == 0:
                data[position] ^= 1 << rng.randrange(8)
            elif operation == 1:
                del data[position:]
            elif operation == 2:
                data.insert(position, rng.randrange(256))
            else:
                del data[position]
            mutant = bytes(data)
            _assert_decoders_agree(mutant)


def _hand_blob(records) -> bytes:
    """Uncompressed v3 bytes of raw ``(serial_delta, pc_delta, opcode, value)`` varints.

    A field given as bytes is written as it is.
    """
    body = b"".join(
        field if isinstance(field, bytes) else encode_uvarint(field)
        for record in records
        for field in record
    )
    out = bytearray(BINARY_MAGIC)
    for field in (BINARY_FORMAT_VERSION, 0, 1):
        out += encode_uvarint(field)
    out += b"x" + encode_uvarint(len(records)) + encode_uvarint(len(records))
    out += encode_uvarint(1) + encode_uvarint(3) + b"add"
    return bytes(out + encode_uvarint(len(body)) + body)


#: Seven well-formed records: serial and pc deltas 2 (zigzag of 1), opcode 0.
SEVEN = [(2, 2, 0, 2 * index) for index in range(7)]


def test_bad_opcode_in_a_later_chunk_is_reported_at_its_record(small_chunks):
    blob = _hand_blob([*SEVEN[:5], (2, 2, 1, 0), SEVEN[6]])
    for decoder in (oracles.decode_binary, decode_trace_columns):
        with pytest.raises(TraceError, match="invalid opcode index in record 6"):
            decoder(blob)


def test_chunks_carry_serials_and_pcs_across_boundaries(small_chunks):
    columns = decode_trace_columns(_hand_blob(SEVEN))
    assert columns.serials.tolist() == columns.pcs.tolist() == [1, 2, 3, 4, 5, 6, 7]
    assert columns.values.tolist() == list(range(7))


@pytest.mark.parametrize(
    "records",
    [
        [*SEVEN[:5], (2, 2, 0, 2**70), SEVEN[6]],
        [*SEVEN[:5], (2, 2, 0, b"\x80" * 10 + b"\x00"), SEVEN[6]],
        # The first serial is 2**63 - 10 and no delta of the second chunk
        # leaves int64: only the sum carried into it does.
        [(2**64 - 20, 2, 0, 0), *SEVEN[1:5], (40, 2, 0, 0), SEVEN[6]],
        [(2, 2**64 - 20, 0, 0), *SEVEN[1:5], (2, 40, 0, 0), SEVEN[6]],
    ],
    ids=[
        "value-wider-than-64-bits",
        "zero-in-eleven-bytes",
        "serial-sum-carried-past-2**63",
        "pc-sum-carried-past-2**63",
    ],
)
def test_field_outside_int64_in_a_later_chunk_raises(small_chunks, records):
    blob = _hand_blob(records)
    for decoder in (oracles.decode_binary, decode_trace_columns, loads_trace_binary):
        with pytest.raises(TraceError):
            decoder(blob)


def test_serials_and_pcs_in_the_top_quarter_of_int64_decode(small_chunks):
    # The first serial and pc are 2**62 - 10; the sum carried into the
    # second chunk passes 2**62 and stays below 2**63.
    blob = _hand_blob([(2**63 - 20, 2**63 - 20, 0, 0), *SEVEN[1:5], (40, 40, 0, 0), SEVEN[6]])
    columns = decode_trace_columns(blob)
    expected = [2**62 - 10 + step for step in (0, 1, 2, 3, 4, 24, 25)]
    assert columns.serials.tolist() == columns.pcs.tolist() == expected
    assert _columns_content(columns) == _oracle_content(blob)


#: What the whole-body decoder allocated at its peak to decode the
#: scale-1.0 ``go`` trace (49,591 records, 1.9 MB of columns).
WHOLE_BODY_PEAK_BYTES = 11.1e6


def test_scale_one_go_trace_decodes_in_half_the_whole_body_peak():
    from repro.engine.tasks import TraceTask
    from repro.engine.worker import execute_trace_task

    (entry,) = execute_trace_task(TraceTask.for_workload("go", 1.0).payload())["outcomes"]
    data = entry["trace_binary"]
    tracemalloc.start()
    try:
        columns = decode_trace_columns(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(columns) == 49_591
    assert peak <= WHOLE_BODY_PEAK_BYTES / 2, peak
