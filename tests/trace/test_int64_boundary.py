"""The int64 domain, checked where a trace enters the program.

A trace holds int64 columns, so every serial, pc and value must fit
int64, and so must every serial and pc step between consecutive records.
Three doors let a trace in: the :class:`ValueTrace` constructor (hand-built
records), the text loader and the v3 decoder.  Each Hypothesis example
draws records on both sides of ±2**63, with serials and pcs often in
[2**62, 2**63) and steps that overflow, and all three doors — plus the
Python oracle decoder of ``tests/trace/oracles.py`` — must agree with
:func:`oracles.in_domain`: inside the domain each returns the drawn
records, outside it each raises :class:`TraceError` and nothing else.
Inside it the production writers also render the oracle writers' text
and v3 bytes.
``pytest tests/trace/test_int64_boundary.py --hypothesis-profile=nightly``
runs many more examples than the default profile.
"""

from __future__ import annotations

import sys
from operator import add
from pathlib import Path

from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles  # noqa: E402
from oracles import INT64_MAX, INT64_MIN  # noqa: E402

from repro.errors import TraceError  # noqa: E402
from repro.isa.opcodes import Opcode, category_of  # noqa: E402
from repro.trace.io import decode_trace_columns, dumps_trace, dumps_trace_binary, loads_trace  # noqa: E402
from repro.trace.record import TraceRecord  # noqa: E402
from repro.trace.stream import RecordColumns, ValueTrace  # noqa: E402

#: Points on and around the edges of the domain and of its top quarter.
EDGES = (INT64_MIN, INT64_MAX, INT64_MIN - 1, INT64_MAX + 1, 2**62, -(2**62), 2**64, 0)

FIELDS = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.builds(add, st.sampled_from(EDGES), st.integers(min_value=-3, max_value=3)),
    st.integers(min_value=2**62, max_value=INT64_MAX),
    st.integers(min_value=-(2**65), max_value=2**65),
)

OPCODES = (Opcode.ADD, Opcode.LW, Opcode.SLL, Opcode.LUI, Opcode.JAL)

RECORDS = st.lists(
    st.tuples(FIELDS, FIELDS, st.sampled_from(OPCODES), FIELDS), min_size=1, max_size=8
)


def _outcome(read):
    """``read()``'s rows as plain lists, or :class:`TraceError` if it raised one."""
    try:
        return list(map(list, read()))
    except TraceError:
        return TraceError


@settings(deadline=None)
@given(rows=RECORDS, extra=st.integers(min_value=0, max_value=5), compress=st.booleans())
def test_every_door_agrees_with_the_oracle(rows, extra, compress):
    serials, pcs, opcodes, values = map(list, zip(*rows))
    columns = RecordColumns(serials, pcs, opcodes, list(map(category_of, opcodes)), values)
    name, total = "boundary", len(rows) + extra
    expected = list(map(list, columns)) if oracles.in_domain(columns) else TraceError
    text = oracles.dumps_text(name, total, columns)
    blob = oracles.dumps_binary(name, total, columns, compress=compress)

    def construct():
        return ValueTrace(name, map(TraceRecord, *columns), total).record_columns()

    assert _outcome(construct) == expected
    assert _outcome(lambda: loads_trace(text).record_columns()) == expected
    assert _outcome(lambda: decode_trace_columns(blob).record_columns()) == expected
    assert _outcome(lambda: oracles.decode_binary(blob)[2]) == expected
    if expected is not TraceError:
        trace = ValueTrace(name, map(TraceRecord, *columns), total)
        assert dumps_trace(trace) == text
        assert dumps_trace_binary(trace, compress=compress) == blob
