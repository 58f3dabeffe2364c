"""Construct value traces directly from value sequences.

Tests, micro-experiments (Figures 1 and 2 of the paper) and the ablation
benchmarks need traces with precisely controlled value sequences per static
instruction; these helpers build them without going through the ISA
substrate.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.errors import TraceError
from repro.isa.opcodes import Category, Opcode, category_of, is_predicted_opcode
from repro.trace.record import TraceRecord
from repro.trace.stream import ValueTrace

#: Default opcode per category used when materialising synthetic records.
_REPRESENTATIVE_OPCODE: dict[Category, Opcode] = {
    Category.ADDSUB: Opcode.ADD,
    Category.LOADS: Opcode.LW,
    Category.LOGIC: Opcode.AND,
    Category.SHIFT: Opcode.SLL,
    Category.SET: Opcode.SLT,
    Category.MULTDIV: Opcode.MULT,
    Category.LUI: Opcode.LUI,
    Category.OTHER: Opcode.MOV,
}


def representative_opcode(category: Category) -> Opcode:
    """Return a register-writing opcode belonging to ``category``."""
    try:
        return _REPRESENTATIVE_OPCODE[category]
    except KeyError as exc:
        raise TraceError(f"category {category} has no predicted instructions") from exc


def trace_from_values(
    values: Sequence[int],
    pc: int = 0,
    opcode: Opcode = Opcode.ADD,
    name: str = "synthetic",
) -> ValueTrace:
    """Build a trace in which one static instruction produces ``values``."""
    if not is_predicted_opcode(opcode):
        raise TraceError(f"opcode {opcode} is not a predicted instruction")
    category = category_of(opcode)
    records = [
        TraceRecord(serial=i, pc=pc, opcode=opcode, category=category, value=int(v))
        for i, v in enumerate(values)
    ]
    return ValueTrace(name, records)


def trace_from_streams(
    streams: Mapping[int, Sequence[int]],
    opcodes: Mapping[int, Opcode] | None = None,
    name: str = "synthetic",
) -> ValueTrace:
    """Build a trace by round-robin interleaving per-PC value streams.

    ``streams`` maps a static PC to the ordered values it produces.  Records
    are interleaved one value per PC per round, which mimics a loop body
    containing all the static instructions.
    """
    if not streams:
        raise TraceError("streams must not be empty")
    opcodes = dict(opcodes or {})
    iterators = {pc: list(values) for pc, values in streams.items()}
    longest = max(len(values) for values in iterators.values())
    records: list[TraceRecord] = []
    serial = 0
    for round_index in range(longest):
        for pc in sorted(iterators):
            values = iterators[pc]
            if round_index >= len(values):
                continue
            opcode = opcodes.get(pc, Opcode.ADD)
            if not is_predicted_opcode(opcode):
                raise TraceError(f"opcode {opcode} is not a predicted instruction")
            records.append(
                TraceRecord(
                    serial=serial,
                    pc=pc,
                    opcode=opcode,
                    category=category_of(opcode),
                    value=int(values[round_index]),
                )
            )
            serial += 1
    return ValueTrace(name, records)


def interleave_traces(traces: Iterable[ValueTrace], name: str = "interleaved") -> ValueTrace:
    """Concatenate traces record-by-record in round-robin order.

    Useful for composing micro-traces with controlled per-PC behaviour.  PCs
    are offset per input position, so no two inputs alias in predictor
    tables, even when one trace is passed twice.
    """
    traces = list(traces)
    if not traces:
        raise TraceError("cannot interleave zero traces")
    offsets = []
    offset = 0
    for trace in traces:
        offsets.append(offset)
        max_pc = max(trace.record_columns().pcs, default=0)
        offset += max_pc + 4
    records: list[TraceRecord] = []
    serial = 0
    cursors = [0] * len(traces)
    remaining = sum(len(trace) for trace in traces)
    while remaining:
        for trace_index, trace in enumerate(traces):
            cursor = cursors[trace_index]
            if cursor >= len(trace):
                continue
            record = trace.records[cursor]
            records.append(
                TraceRecord(
                    serial=serial,
                    pc=record.pc + offsets[trace_index],
                    opcode=record.opcode,
                    category=record.category,
                    value=record.value,
                )
            )
            serial += 1
            cursors[trace_index] += 1
            remaining -= 1
    return ValueTrace(name, records)
