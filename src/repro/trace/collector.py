"""Collect value traces from the ISA substrate.

The collector implements the paper's filtering rule: only instructions that
write results into general purpose registers are predicted; stores, branches
and jumps are excluded.  (``jal`` writes a link value and is counted under
the ``Other`` category, matching the paper's treatment of "Floating, Jump,
Other".)

Collection reads the interpreter's own output: the static index of every
retired instruction and the value of every register-writing one (see
:class:`repro.isa.machine.Machine`).  The trace's columns are selected from
those with C-level iterator pipelines; no per-event object is built.
"""

from __future__ import annotations

from array import array
from itertools import compress, count

from repro.isa.machine import ExecutionResult, Machine
from repro.isa.memory import SparseMemory
from repro.isa.program import Program
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

    instructions = program.instructions
    predicted = [instruction.writes_register for instruction in instructions]
    retired = machine.retired
    serials = array("q", compress(count(), map(predicted.__getitem__, retired)))
    static = list(map(retired.__getitem__, serials))
    pcs = [program.pc_of_index(index) for index in range(len(instructions))]
    opcodes = [instruction.opcode for instruction in instructions]
    categories = [instruction.category for instruction in instructions]
    columns = RecordColumns(
        serials=serials,
        pcs=array("q", map(pcs.__getitem__, static)),
        opcodes=list(map(opcodes.__getitem__, static)),
        categories=list(map(categories.__getitem__, static)),
        values=machine.values,
    )
    trace = ValueTrace.from_columns(program.name, columns, result.retired_instructions)
    return trace, result
