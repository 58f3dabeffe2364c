"""The interpreter: each program compiled once into per-instruction closures.

The :class:`Machine` plays the role SimpleScalar plays in the paper: it runs
a program to completion and records, as two columns, the static index of
every retired instruction and the result value of every register-writing
one.  :func:`repro.trace.collector.collect_trace` turns those columns into
the value traces the predictors consume.

:meth:`Machine.run` first compiles every static instruction into a closure
that executes it and returns the index of the next instruction.  Operand
registers, immediates and branch targets are bound at compile time (branch
targets from the labels :class:`Program` has already validated), so the run
loop does no decoding: it records the index, calls the closure and follows
the index it returns.  Register values live in the register file's plain
list and are wrapped to 64 bits when written, never checked when read.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable

from repro.errors import ExecutionError, ExecutionLimitExceeded
from repro.isa.instructions import INSTRUCTION_SIZE, Instruction
from repro.isa.memory import WORD_SIZE, SparseMemory, invalid_address
from repro.isa.opcodes import Category, Opcode
from repro.isa.program import Program
from repro.isa.registers import REGISTER_WIDTH, RegisterFile, wrap_value

#: Default dynamic-instruction budget; guards against runaway programs.
DEFAULT_MAX_INSTRUCTIONS = 50_000_000

# ``((v + _SIGN) & _MASK) - _SIGN`` is :func:`wrap_value` as one expression.
_SIGN = 1 << (REGISTER_WIDTH - 1)
_MASK = (1 << REGISTER_WIDTH) - 1

#: A compiled instruction: executes it and returns the next instruction index.
Step = Callable[[], int]


@dataclass
class ExecutionResult:
    """Summary of one program execution."""

    program_name: str
    retired_instructions: int = 0
    register_writes: int = 0
    halted: bool = False
    category_counts: dict[Category, int] = field(default_factory=dict)

    def fraction_predicted(self) -> float:
        """Fraction of retired instructions that wrote a register."""
        if self.retired_instructions == 0:
            return 0.0
        return self.register_writes / self.retired_instructions


class _Halted(Exception):
    """Raised by the compiled ``halt`` to leave the run loop."""


class Machine:
    """Executes a :class:`Program` against a register file and memory.

    After :meth:`run`, :attr:`retired` holds the static index of every
    retired instruction in retirement order (its position is the
    instruction's serial number) and :attr:`values` the value of every
    register-writing one, in the same order.  ``halt`` is not retired.
    """

    def __init__(
        self,
        program: Program,
        memory: SparseMemory | None = None,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ) -> None:
        if max_instructions <= 0:
            raise ExecutionError("max_instructions must be positive")
        self.program = program
        self.registers = RegisterFile()
        self.memory = memory if memory is not None else SparseMemory()
        self.max_instructions = max_instructions
        self.retired = array("q")
        self.values = array("q")

    def run(self) -> ExecutionResult:
        """Execute the program until ``halt`` or the instruction budget."""
        program = self.program
        instructions = program.instructions
        self.retired = retired = array("q")
        self.values = values = array("q")
        steps = _Compiler(program, self.registers.cells, self.memory.words, values).compile()
        record = retired.append
        index = 0
        try:
            for _ in repeat(None, self.max_instructions):
                record(index)
                index = steps[index]()
        except _Halted:
            retired.pop()
        else:
            # The budget is spent: only a halt may come next.  Leaving the
            # program is reported first, as when budget remains.
            if index == len(instructions):
                steps[index]()  # raises ExecutionError
            if instructions[index].opcode is not Opcode.HALT:
                raise ExecutionLimitExceeded(
                    f"{program.name!r}: exceeded the budget of {self.max_instructions} "
                    f"dynamic instructions"
                )

        return ExecutionResult(
            program_name=program.name,
            retired_instructions=len(retired),
            register_writes=len(values),
            halted=True,
            category_counts=_category_counts(instructions, retired),
        )


def _category_counts(instructions: list[Instruction], retired: array) -> dict[Category, int]:
    """Retired instructions per category, categories in order of first retirement."""
    try:
        import numpy as np
    except ImportError:
        counts: dict[Category, int] = {}
        for static_index, count in Counter(retired).items():
            category = instructions[static_index].category
            counts[category] = counts.get(category, 0) + count
        return counts
    if not retired:
        return {}
    categories = list(dict.fromkeys(instruction.category for instruction in instructions))
    static_codes = np.array(
        [categories.index(instruction.category) for instruction in instructions], dtype=np.int8
    )
    codes = static_codes[np.frombuffer(retired, dtype=np.int64)]
    totals = np.bincount(codes, minlength=len(categories))
    present = np.flatnonzero(totals).tolist()
    first = {code: int(np.argmax(codes == code)) for code in present}
    return {
        categories[code]: int(totals[code]) for code in sorted(present, key=first.__getitem__)
    }


class _Compiler:
    """Compiles one program into :data:`Step` closures over one run's state.

    Each ``_<opcode>`` method (``_add`` for :attr:`Opcode.ADD`, ...) returns
    the closure of one instruction; ``nxt`` is the index of the instruction
    after it.  A register-writing closure stores its wrapped result and
    appends it to the values column.
    """

    def __init__(
        self, program: Program, registers: list[int], words: dict[int, int], values: array
    ) -> None:
        self.program = program
        self.r = registers
        self.words = words
        self.values = values
        self.put = values.append

    def compile(self) -> list[Step]:
        """One closure per instruction, plus one past the end that raises."""
        steps = []
        for index, instruction in enumerate(self.program.instructions):
            step = _STEP_BUILDERS[instruction.opcode](self, instruction, index + 1)
            if instruction.writes_register and instruction.rd == 0:
                step = self._discard(step)
            steps.append(step)
        steps.append(self._outside(len(steps)))
        return steps

    def _target(self, instruction: Instruction) -> int:
        return self.program.labels[instruction.target]

    def _left_program(self, index: int) -> ExecutionError:
        return ExecutionError(
            f"{self.program.name!r}: control transferred outside the program (index {index})"
        )

    def _outside(self, index: int) -> Step:
        left = self._left_program

        def step():
            raise left(index)

        return step

    def _discard(self, step: Step) -> Step:
        """A write to ``r0`` executes, then leaves ``r0`` and its value at 0."""
        r, values = self.r, self.values

        def discarding():
            nxt = step()
            r[0] = 0
            values[-1] = 0
            return nxt

        return discarding

    # ------------------------------------------------------------------ #
    # Addition / subtraction
    # ------------------------------------------------------------------ #
    def _add(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, t = self.r, self.put, i.rd, i.rs, i.rt

        def step():
            r[d] = v = ((r[s] + r[t] + _SIGN) & _MASK) - _SIGN
            put(v)
            return nxt

        return step

    def _addi(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, imm = self.r, self.put, i.rd, i.rs, i.imm

        def step():
            r[d] = v = ((r[s] + imm + _SIGN) & _MASK) - _SIGN
            put(v)
            return nxt

        return step

    def _sub(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, t = self.r, self.put, i.rd, i.rs, i.rt

        def step():
            r[d] = v = ((r[s] - r[t] + _SIGN) & _MASK) - _SIGN
            put(v)
            return nxt

        return step

    def _subi(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, imm = self.r, self.put, i.rd, i.rs, i.imm

        def step():
            r[d] = v = ((r[s] - imm + _SIGN) & _MASK) - _SIGN
            put(v)
            return nxt

        return step

    # ------------------------------------------------------------------ #
    # Memory
    # ------------------------------------------------------------------ #
    def _lw(self, i: Instruction, nxt: int) -> Step:
        r, words, put, d, s, imm = self.r, self.words, self.put, i.rd, i.rs, i.imm

        def step():
            address = r[s] + imm
            if address < 0:
                raise invalid_address(address)
            r[d] = v = words.get(address // WORD_SIZE, 0)
            put(v)
            return nxt

        return step

    def _lb(self, i: Instruction, nxt: int) -> Step:
        r, words, put, d, s, imm = self.r, self.words, self.put, i.rd, i.rs, i.imm

        def step():
            address = r[s] + imm
            if address < 0:
                raise invalid_address(address)
            r[d] = v = words.get(address // WORD_SIZE, 0) & 0xFF
            put(v)
            return nxt

        return step

    def _sw(self, i: Instruction, nxt: int) -> Step:
        r, words, s, t, imm = self.r, self.words, i.rs, i.rt, i.imm

        def step():
            address = r[s] + imm
            if address < 0:
                raise invalid_address(address)
            words[address // WORD_SIZE] = r[t]
            return nxt

        return step

    def _sb(self, i: Instruction, nxt: int) -> Step:
        r, words, s, t, imm = self.r, self.words, i.rs, i.rt, i.imm

        def step():
            address = r[s] + imm
            if address < 0:
                raise invalid_address(address)
            word = address // WORD_SIZE
            words[word] = (words.get(word, 0) & ~0xFF) | (r[t] & 0xFF)
            return nxt

        return step

    # ------------------------------------------------------------------ #
    # Logic (on two's-complement ints these equal the unsigned 64-bit
    # operation wrapped back to signed, so no masking is needed)
    # ------------------------------------------------------------------ #
    def _and(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, t = self.r, self.put, i.rd, i.rs, i.rt

        def step():
            r[d] = v = r[s] & r[t]
            put(v)
            return nxt

        return step

    def _andi(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, imm = self.r, self.put, i.rd, i.rs, wrap_value(i.imm)

        def step():
            r[d] = v = r[s] & imm
            put(v)
            return nxt

        return step

    def _or(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, t = self.r, self.put, i.rd, i.rs, i.rt

        def step():
            r[d] = v = r[s] | r[t]
            put(v)
            return nxt

        return step

    def _ori(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, imm = self.r, self.put, i.rd, i.rs, wrap_value(i.imm)

        def step():
            r[d] = v = r[s] | imm
            put(v)
            return nxt

        return step

    def _xor(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, t = self.r, self.put, i.rd, i.rs, i.rt

        def step():
            r[d] = v = r[s] ^ r[t]
            put(v)
            return nxt

        return step

    def _xori(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, imm = self.r, self.put, i.rd, i.rs, wrap_value(i.imm)

        def step():
            r[d] = v = r[s] ^ imm
            put(v)
            return nxt

        return step

    def _nor(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, t = self.r, self.put, i.rd, i.rs, i.rt

        def step():
            r[d] = v = ~(r[s] | r[t])
            put(v)
            return nxt

        return step

    # ------------------------------------------------------------------ #
    # Shifts
    # ------------------------------------------------------------------ #
    def _sll(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, amount = self.r, self.put, i.rd, i.rs, i.imm & 63

        def step():
            r[d] = v = (((r[s] << amount) + _SIGN) & _MASK) - _SIGN
            put(v)
            return nxt

        return step

    def _srl(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, amount = self.r, self.put, i.rd, i.rs, i.imm & 63

        def step():
            r[d] = v = ((((r[s] & _MASK) >> amount) + _SIGN) & _MASK) - _SIGN
            put(v)
            return nxt

        return step

    def _sra(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, amount = self.r, self.put, i.rd, i.rs, i.imm & 63

        def step():
            r[d] = v = r[s] >> amount
            put(v)
            return nxt

        return step

    def _sllv(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, t = self.r, self.put, i.rd, i.rs, i.rt

        def step():
            r[d] = v = (((r[s] << (r[t] & 63)) + _SIGN) & _MASK) - _SIGN
            put(v)
            return nxt

        return step

    def _srlv(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, t = self.r, self.put, i.rd, i.rs, i.rt

        def step():
            r[d] = v = ((((r[s] & _MASK) >> (r[t] & 63)) + _SIGN) & _MASK) - _SIGN
            put(v)
            return nxt

        return step

    # ------------------------------------------------------------------ #
    # Compare-and-set
    # ------------------------------------------------------------------ #
    def _slt(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, t = self.r, self.put, i.rd, i.rs, i.rt

        def step():
            r[d] = v = 1 if r[s] < r[t] else 0
            put(v)
            return nxt

        return step

    def _slti(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, imm = self.r, self.put, i.rd, i.rs, i.imm

        def step():
            r[d] = v = 1 if r[s] < imm else 0
            put(v)
            return nxt

        return step

    def _sltu(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, t = self.r, self.put, i.rd, i.rs, i.rt

        def step():
            r[d] = v = 1 if (r[s] & _MASK) < (r[t] & _MASK) else 0
            put(v)
            return nxt

        return step

    def _seq(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, t = self.r, self.put, i.rd, i.rs, i.rt

        def step():
            r[d] = v = 1 if r[s] == r[t] else 0
            put(v)
            return nxt

        return step

    def _sne(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, t = self.r, self.put, i.rd, i.rs, i.rt

        def step():
            r[d] = v = 1 if r[s] != r[t] else 0
            put(v)
            return nxt

        return step

    # ------------------------------------------------------------------ #
    # Multiply / divide (``int(a / b)``: float division truncated toward
    # zero, exactly as the paper-era interpreter computed it)
    # ------------------------------------------------------------------ #
    def _mult(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, t = self.r, self.put, i.rd, i.rs, i.rt

        def step():
            r[d] = v = ((r[s] * r[t] + _SIGN) & _MASK) - _SIGN
            put(v)
            return nxt

        return step

    def _div(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, t = self.r, self.put, i.rd, i.rs, i.rt

        def step():
            divisor = r[t]
            v = 0 if divisor == 0 else int(r[s] / divisor)
            r[d] = v = ((v + _SIGN) & _MASK) - _SIGN
            put(v)
            return nxt

        return step

    def _rem(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s, t = self.r, self.put, i.rd, i.rs, i.rt

        def step():
            divisor = r[t]
            dividend = r[s]
            v = 0 if divisor == 0 else dividend - int(dividend / divisor) * divisor
            r[d] = v = ((v + _SIGN) & _MASK) - _SIGN
            put(v)
            return nxt

        return step

    # ------------------------------------------------------------------ #
    # Constants, moves and jump-and-link
    # ------------------------------------------------------------------ #
    def _constant(self, d: int, value: int, nxt: int) -> Step:
        r, put = self.r, self.put

        def step():
            r[d] = value
            put(value)
            return nxt

        return step

    def _lui(self, i: Instruction, nxt: int) -> Step:
        return self._constant(i.rd, wrap_value(i.imm << 16), nxt)

    def _li(self, i: Instruction, nxt: int) -> Step:
        return self._constant(i.rd, wrap_value(i.imm), nxt)

    def _mov(self, i: Instruction, nxt: int) -> Step:
        r, put, d, s = self.r, self.put, i.rd, i.rs

        def step():
            r[d] = v = r[s]
            put(v)
            return nxt

        return step

    def _jal(self, i: Instruction, nxt: int) -> Step:
        r, put, d, taken = self.r, self.put, i.rd, self._target(i)
        link = wrap_value(nxt * INSTRUCTION_SIZE)

        def step():
            r[d] = link
            put(link)
            return taken

        return step

    # ------------------------------------------------------------------ #
    # Control flow
    # ------------------------------------------------------------------ #
    def _beq(self, i: Instruction, nxt: int) -> Step:
        r, s, t, taken = self.r, i.rs, i.rt, self._target(i)

        def step():
            return taken if r[s] == r[t] else nxt

        return step

    def _bne(self, i: Instruction, nxt: int) -> Step:
        r, s, t, taken = self.r, i.rs, i.rt, self._target(i)

        def step():
            return taken if r[s] != r[t] else nxt

        return step

    def _blt(self, i: Instruction, nxt: int) -> Step:
        r, s, t, taken = self.r, i.rs, i.rt, self._target(i)

        def step():
            return taken if r[s] < r[t] else nxt

        return step

    def _bge(self, i: Instruction, nxt: int) -> Step:
        r, s, t, taken = self.r, i.rs, i.rt, self._target(i)

        def step():
            return taken if r[s] >= r[t] else nxt

        return step

    def _ble(self, i: Instruction, nxt: int) -> Step:
        r, s, t, taken = self.r, i.rs, i.rt, self._target(i)

        def step():
            return taken if r[s] <= r[t] else nxt

        return step

    def _bgt(self, i: Instruction, nxt: int) -> Step:
        r, s, t, taken = self.r, i.rs, i.rt, self._target(i)

        def step():
            return taken if r[s] > r[t] else nxt

        return step

    def _j(self, i: Instruction, nxt: int) -> Step:
        taken = self._target(i)

        def step():
            return taken

        return step

    def _jr(self, i: Instruction, nxt: int) -> Step:
        r, s, name, left = self.r, i.rs, self.program.name, self._left_program
        count = len(self.program.instructions)

        def step():
            address = r[s]
            index, misalignment = divmod(address, INSTRUCTION_SIZE)
            if misalignment:
                raise ExecutionError(
                    f"{name!r}: jr to byte address {address}, which is not a multiple "
                    f"of the instruction size {INSTRUCTION_SIZE}"
                )
            if not 0 <= index < count:
                raise left(index)
            return index

        return step

    def _nop(self, i: Instruction, nxt: int) -> Step:
        def step():
            return nxt

        return step

    def _halt(self, i: Instruction, nxt: int) -> Step:
        def step():
            raise _Halted

        return step


#: The closure builder of every opcode; building the table fails on import
#: if an opcode has no ``_Compiler`` method.
_STEP_BUILDERS: dict[Opcode, Callable[[_Compiler, Instruction, int], Step]] = {
    opcode: getattr(_Compiler, "_" + opcode.name.lower()) for opcode in Opcode
}
