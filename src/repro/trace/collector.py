"""Collect value traces from the ISA substrate.

The collector implements the paper's filtering rule: only instructions that
write results into general purpose registers are predicted; stores, branches
and jumps are excluded.  (``jal`` writes a link value and is counted under
the ``Other`` category, matching the paper's treatment of "Floating, Jump,
Other".)

Collection reads the interpreter's own output: the static index of every
retired instruction and the value of every register-writing one (see
:class:`repro.isa.machine.Machine`).  The trace's columns are selected
from those by array indexing into :class:`~repro.trace.io.TraceColumns`,
the one form of a trace, which the writers, statistics and kernel read;
no per-event object is built.
"""

from __future__ import annotations

from repro.isa.machine import ExecutionResult, Machine
from repro.isa.memory import SparseMemory
from repro.isa.program import Program
from repro.trace.io import TraceColumns
from repro.trace.stream import ValueTrace


def collect_trace(
    program: Program,
    memory: SparseMemory | None = None,
    max_instructions: int | None = None,
) -> tuple[ValueTrace, ExecutionResult]:
    """Run ``program`` and return its value trace plus the execution summary.

    A record's serial is the position of its
    instruction among all retired ones, and its PC, opcode and category are
    those of the static instruction.
    """
    import numpy as np

    kwargs = {} if max_instructions is None else {"max_instructions": max_instructions}
    machine = Machine(program, memory=memory, **kwargs)
    result = machine.run()
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

