"""MIPS-like instruction-set substrate (SimpleScalar substitute).

The paper's evaluation is trace driven: SimpleScalar executes SPEC95
binaries and feeds the result value of every register-writing instruction to
the predictors.  This package provides the equivalent substrate in pure
Python: a small general-purpose-register ISA, a sparse memory, a program
builder with symbolic labels, and an interpreter (:class:`Machine`) that
compiles a program into closures and records every retired instruction and
every result value as columns the trace collector reads.

The instruction categories exactly mirror Table 3 of the paper
(AddSub, Loads, Logic, Shift, Set, MultDiv, Lui, Other), plus the
non-predicted control/store instructions.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "opcodes": ("Opcode", "Category", "category_of", "is_predicted_opcode"),
        "instructions": ("Instruction",),
        "registers": ("RegisterFile", "NUM_REGISTERS"),
        "memory": ("SparseMemory",),
        "program": ("Program", "ProgramBuilder"),
        "machine": ("Machine", "ExecutionResult"),
    },
)
