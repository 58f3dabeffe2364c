"""Differential tests: the columnar v3 decoder against the scalar one.

:func:`repro.trace.io.decode_trace_columns` is the production decoder and
:func:`repro.trace.io.loads_trace_binary` its fallback, so the two must
never disagree.  Each Hypothesis example is one seed of
``tests/isa/random_programs.py``: its collected trace must round-trip text
v2 ↔ v3 ↔ columns identically through both decoders, and seeded byte
mutations of its v3 bytes must make both decoders raise
:class:`~repro.errors.TraceError` (and nothing else) or return the same
content — unless the columnar decoder declines with ``None``.
``pytest tests/trace/test_decoder_differential.py --hypothesis-profile=nightly``
runs many more seeds than the default profile.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("numpy")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "isa"))
from random_programs import random_program  # noqa: E402

from repro.errors import ReproError, TraceError  # noqa: E402
from repro.trace.collector import collect_trace  # noqa: E402
from repro.trace.io import (  # noqa: E402
    decode_trace,
    decode_trace_columns,
    dumps_trace,
    dumps_trace_binary,
    loads_trace,
    loads_trace_binary,
    trace_columns,
)

#: Mutants made from each example's v3 bytes.
MUTANTS_PER_SEED = 20

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


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


@settings(deadline=None)
@given(seed=SEEDS)
def test_round_trip_text_v3_columns_on_both_decoders(seed):
    trace = _collected(seed)
    if trace is None:
        return
    text = dumps_trace(trace)
    expected = _content(trace)
    assert _content(loads_trace(text)) == expected
    reference = trace_columns(trace)
    for compress in (False, True):
        blob = dumps_trace_binary(trace, compress=compress)
        scalar = loads_trace_binary(blob)
        columns = decode_trace_columns(blob)
        assert columns is not None
        assert _content(scalar) == expected
        assert _columns_content(columns) == expected
        assert _arrays(columns) == _arrays(reference)
        decoded = decode_trace(blob)
        assert trace_columns(decoded) is not None
        assert _content(decoded) == expected
        for restored in (scalar, decoded):
            assert dumps_trace(restored) == text
            assert dumps_trace_binary(restored, compress=compress) == blob


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
        scalar = _decode(loads_trace_binary, mutant)
        columns = _decode(decode_trace_columns, mutant)
        if columns is None:
            continue
        if scalar is TraceError or columns is TraceError:
            assert scalar is columns, mutant
        else:
            assert _columns_content(columns) == _content(scalar), mutant
