"""Collect value traces from the ISA substrate.

The collector implements the paper's filtering rule: only instructions that
write results into general purpose registers are predicted; stores, branches
and jumps are excluded.  (``jal`` writes a link value and is counted under
the ``Other`` category, matching the paper's treatment of "Floating, Jump,
Other".)

Collection reads the interpreter's own output: the static index of every
retired instruction and the value of every register-writing one (see
:class:`repro.isa.machine.Machine`).  With numpy, the trace's columns are
selected from those by array indexing into
:class:`~repro.trace.io.TraceColumns`, the form the writers, statistics
and kernel read; without it, by C-level iterator pipelines into list
columns.  No per-event object is built either way.
"""

from __future__ import annotations

from array import array
from itertools import compress, count

from repro.isa.machine import ExecutionResult, Machine
from repro.isa.memory import SparseMemory
from repro.isa.program import Program
from repro.trace.io import TraceColumns
from repro.trace.stream import RecordColumns, ValueTrace


def collect_trace(
    program: Program,
    memory: SparseMemory | None = None,
    max_instructions: int | None = None,
) -> tuple[ValueTrace, ExecutionResult]:
    """Run ``program`` and return its value trace plus the execution summary.

    The trace is column-backed: a record's serial is the position of its
    instruction among all retired ones, and its PC, opcode and category are
    those of the static instruction.
    """
    kwargs = {} if max_instructions is None else {"max_instructions": max_instructions}
    machine = Machine(program, memory=memory, **kwargs)
    result = machine.run()
    try:
        import numpy as np
    except ImportError:
        columns = _list_columns(program, machine)
        trace = ValueTrace.from_columns(program.name, columns, result.retired_instructions)
        return trace, result
    return ValueTrace.from_arrays(_array_columns(np, program, machine, result)), result


def _array_columns(np, program: Program, machine: Machine, result: ExecutionResult) -> TraceColumns:
    """The trace as numpy columns over the machine's own ``array('q')`` output."""
    instructions = program.instructions
    predicted = np.array([instruction.writes_register for instruction in instructions], dtype=bool)
    retired = np.frombuffer(machine.retired, dtype=np.int64)
    serials = np.flatnonzero(predicted[retired])
    return TraceColumns.from_static(
        np,
        program.name,
        result.retired_instructions,
        serials,
        retired[serials],
        [program.pc_of_index(index) for index in range(len(instructions))],
        [instruction.opcode for instruction in instructions],
        np.frombuffer(machine.values, dtype=np.int64),
    )


def _list_columns(program: Program, machine: Machine) -> RecordColumns:
    """The trace as list columns, for environments without numpy."""
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
