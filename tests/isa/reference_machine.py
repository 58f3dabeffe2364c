"""Test-only reference interpreter: the original fetch/decode/execute loop.

This is the ``if``/``elif`` interpreter :class:`repro.isa.machine.Machine`
replaced, kept unchanged as the oracle of the differential tests: each
retired instruction is delivered to observers as a
:class:`RetiredInstruction` event, and :func:`collect_trace` (the original
observer-based collector, also unchanged) builds a records-backed
:class:`ValueTrace` from those events.  Nothing under ``src/`` imports it.

It returns the production :class:`ExecutionResult` type, so results of
the two interpreters compare equal.  One deliberate difference in
behaviour remains: a ``jr`` to a byte address that is not a multiple of
``INSTRUCTION_SIZE`` jumps to instruction ``address // INSTRUCTION_SIZE``
here, where the production interpreter raises :class:`ExecutionError`;
the random programs only ``jr`` to return addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import ExecutionError, ExecutionLimitExceeded, InvalidInstructionError
from repro.isa.instructions import INSTRUCTION_SIZE, Instruction
from repro.isa.machine import ExecutionResult
from repro.isa.memory import SparseMemory
from repro.isa.opcodes import Category, Opcode
from repro.isa.program import Program
from repro.isa.registers import RegisterFile, to_unsigned, wrap_value
from repro.trace.record import TraceRecord
from repro.trace.stream import ValueTrace

#: Default dynamic-instruction budget; guards against runaway programs.
DEFAULT_MAX_INSTRUCTIONS = 50_000_000


@dataclass(frozen=True)
class RetiredInstruction:
    """A single retirement event delivered to observers.

    ``value`` is ``None`` for instructions that do not write a register
    (stores, branches, jumps, nop, halt).
    """

    serial: int
    pc: int
    opcode: Opcode
    category: Category
    value: int | None
    annotation: str = ""


RetirementObserver = Callable[[RetiredInstruction, Instruction], None]


class Machine:
    """Executes a :class:`Program` against a register file and memory."""

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
        self._observers: list[RetirementObserver] = []
        self._serial = 0

    # ------------------------------------------------------------------ #
    # Observer management
    # ------------------------------------------------------------------ #
    def add_observer(self, observer: RetirementObserver) -> None:
        """Register a callback invoked for every retired instruction."""
        self._observers.append(observer)

    def remove_observer(self, observer: RetirementObserver) -> None:
        """Unregister a previously added observer."""
        self._observers.remove(observer)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self) -> ExecutionResult:
        """Execute the program until ``halt`` or the instruction budget."""
        result = ExecutionResult(program_name=self.program.name)
        instructions = self.program.instructions
        labels = self.program.labels
        registers = self.registers
        memory = self.memory
        observers = self._observers
        category_counts = result.category_counts
        index = 0
        limit = self.max_instructions
        retired = 0

        while True:
            if index < 0 or index >= len(instructions):
                raise ExecutionError(
                    f"{self.program.name!r}: control transferred outside the program "
                    f"(index {index})"
                )
            instruction = instructions[index]
            opcode = instruction.opcode
            if opcode is Opcode.HALT:
                result.halted = True
                break
            if retired >= limit:
                raise ExecutionLimitExceeded(
                    f"{self.program.name!r}: exceeded the budget of {limit} dynamic instructions"
                )

            next_index = index + 1
            value: int | None = None

            if opcode is Opcode.ADD:
                value = registers.write(
                    instruction.rd, registers.read(instruction.rs) + registers.read(instruction.rt)
                )
            elif opcode is Opcode.ADDI:
                value = registers.write(
                    instruction.rd, registers.read(instruction.rs) + instruction.imm
                )
            elif opcode is Opcode.SUB:
                value = registers.write(
                    instruction.rd, registers.read(instruction.rs) - registers.read(instruction.rt)
                )
            elif opcode is Opcode.SUBI:
                value = registers.write(
                    instruction.rd, registers.read(instruction.rs) - instruction.imm
                )
            elif opcode is Opcode.LW:
                address = registers.read(instruction.rs) + instruction.imm
                value = registers.write(instruction.rd, memory.load_word(address))
            elif opcode is Opcode.LB:
                address = registers.read(instruction.rs) + instruction.imm
                value = registers.write(instruction.rd, memory.load_byte(address))
            elif opcode is Opcode.SW:
                address = registers.read(instruction.rs) + instruction.imm
                memory.store_word(address, registers.read(instruction.rt))
            elif opcode is Opcode.SB:
                address = registers.read(instruction.rs) + instruction.imm
                memory.store_byte(address, registers.read(instruction.rt))
            elif opcode is Opcode.AND:
                value = registers.write(
                    instruction.rd,
                    to_unsigned(registers.read(instruction.rs))
                    & to_unsigned(registers.read(instruction.rt)),
                )
            elif opcode is Opcode.ANDI:
                value = registers.write(
                    instruction.rd,
                    to_unsigned(registers.read(instruction.rs)) & to_unsigned(instruction.imm),
                )
            elif opcode is Opcode.OR:
                value = registers.write(
                    instruction.rd,
                    to_unsigned(registers.read(instruction.rs))
                    | to_unsigned(registers.read(instruction.rt)),
                )
            elif opcode is Opcode.ORI:
                value = registers.write(
                    instruction.rd,
                    to_unsigned(registers.read(instruction.rs)) | to_unsigned(instruction.imm),
                )
            elif opcode is Opcode.XOR:
                value = registers.write(
                    instruction.rd,
                    to_unsigned(registers.read(instruction.rs))
                    ^ to_unsigned(registers.read(instruction.rt)),
                )
            elif opcode is Opcode.XORI:
                value = registers.write(
                    instruction.rd,
                    to_unsigned(registers.read(instruction.rs)) ^ to_unsigned(instruction.imm),
                )
            elif opcode is Opcode.NOR:
                value = registers.write(
                    instruction.rd,
                    ~(
                        to_unsigned(registers.read(instruction.rs))
                        | to_unsigned(registers.read(instruction.rt))
                    ),
                )
            elif opcode is Opcode.SLL:
                value = registers.write(
                    instruction.rd, registers.read(instruction.rs) << (instruction.imm & 63)
                )
            elif opcode is Opcode.SRL:
                value = registers.write(
                    instruction.rd,
                    to_unsigned(registers.read(instruction.rs)) >> (instruction.imm & 63),
                )
            elif opcode is Opcode.SRA:
                value = registers.write(
                    instruction.rd, registers.read(instruction.rs) >> (instruction.imm & 63)
                )
            elif opcode is Opcode.SLLV:
                value = registers.write(
                    instruction.rd,
                    registers.read(instruction.rs) << (registers.read(instruction.rt) & 63),
                )
            elif opcode is Opcode.SRLV:
                value = registers.write(
                    instruction.rd,
                    to_unsigned(registers.read(instruction.rs))
                    >> (registers.read(instruction.rt) & 63),
                )
            elif opcode is Opcode.SLT:
                value = registers.write(
                    instruction.rd,
                    1 if registers.read(instruction.rs) < registers.read(instruction.rt) else 0,
                )
            elif opcode is Opcode.SLTI:
                value = registers.write(
                    instruction.rd, 1 if registers.read(instruction.rs) < instruction.imm else 0
                )
            elif opcode is Opcode.SLTU:
                value = registers.write(
                    instruction.rd,
                    1
                    if to_unsigned(registers.read(instruction.rs))
                    < to_unsigned(registers.read(instruction.rt))
                    else 0,
                )
            elif opcode is Opcode.SEQ:
                value = registers.write(
                    instruction.rd,
                    1 if registers.read(instruction.rs) == registers.read(instruction.rt) else 0,
                )
            elif opcode is Opcode.SNE:
                value = registers.write(
                    instruction.rd,
                    1 if registers.read(instruction.rs) != registers.read(instruction.rt) else 0,
                )
            elif opcode is Opcode.MULT:
                value = registers.write(
                    instruction.rd, registers.read(instruction.rs) * registers.read(instruction.rt)
                )
            elif opcode is Opcode.DIV:
                divisor = registers.read(instruction.rt)
                dividend = registers.read(instruction.rs)
                value = registers.write(
                    instruction.rd, 0 if divisor == 0 else int(dividend / divisor)
                )
            elif opcode is Opcode.REM:
                divisor = registers.read(instruction.rt)
                dividend = registers.read(instruction.rs)
                value = registers.write(
                    instruction.rd,
                    0 if divisor == 0 else dividend - int(dividend / divisor) * divisor,
                )
            elif opcode is Opcode.LUI:
                value = registers.write(instruction.rd, wrap_value(instruction.imm << 16))
            elif opcode is Opcode.MOV:
                value = registers.write(instruction.rd, registers.read(instruction.rs))
            elif opcode is Opcode.LI:
                value = registers.write(instruction.rd, instruction.imm)
            elif opcode is Opcode.JAL:
                value = registers.write(instruction.rd, (index + 1) * INSTRUCTION_SIZE)
                next_index = labels[instruction.target]
            elif opcode is Opcode.BEQ:
                if registers.read(instruction.rs) == registers.read(instruction.rt):
                    next_index = labels[instruction.target]
            elif opcode is Opcode.BNE:
                if registers.read(instruction.rs) != registers.read(instruction.rt):
                    next_index = labels[instruction.target]
            elif opcode is Opcode.BLT:
                if registers.read(instruction.rs) < registers.read(instruction.rt):
                    next_index = labels[instruction.target]
            elif opcode is Opcode.BGE:
                if registers.read(instruction.rs) >= registers.read(instruction.rt):
                    next_index = labels[instruction.target]
            elif opcode is Opcode.BLE:
                if registers.read(instruction.rs) <= registers.read(instruction.rt):
                    next_index = labels[instruction.target]
            elif opcode is Opcode.BGT:
                if registers.read(instruction.rs) > registers.read(instruction.rt):
                    next_index = labels[instruction.target]
            elif opcode is Opcode.J:
                next_index = labels[instruction.target]
            elif opcode is Opcode.JR:
                next_index = registers.read(instruction.rs) // INSTRUCTION_SIZE
            elif opcode is Opcode.NOP:
                pass
            else:  # pragma: no cover - all opcodes handled above
                raise InvalidInstructionError(f"unhandled opcode {opcode}")

            category = instruction.category
            category_counts[category] = category_counts.get(category, 0) + 1
            retired += 1
            if value is not None:
                result.register_writes += 1
            if observers:
                event = RetiredInstruction(
                    serial=self._serial,
                    pc=index * INSTRUCTION_SIZE,
                    opcode=opcode,
                    category=category,
                    value=value,
                    annotation=instruction.annotation,
                )
                for observer in observers:
                    observer(event, instruction)
            self._serial += 1
            index = next_index

        result.retired_instructions = retired
        return result


def run_program(
    program: Program,
    observers: Iterable[RetirementObserver] = (),
    memory: SparseMemory | None = None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> ExecutionResult:
    """Convenience wrapper: build a machine, attach observers, run it."""
    machine = Machine(program, memory=memory, max_instructions=max_instructions)
    for observer in observers:
        machine.add_observer(observer)
    return machine.run()


class TraceCollector:
    """Machine observer that accumulates the records of a :class:`ValueTrace`."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.records: list[TraceRecord] = []
        self._dynamic_count = 0

    def __call__(self, event: RetiredInstruction, instruction: Instruction) -> None:
        self._dynamic_count += 1
        if event.value is None:
            return
        self.records.append(
            TraceRecord(
                serial=event.serial,
                pc=event.pc,
                opcode=event.opcode,
                category=event.category,
                value=event.value,
            )
        )

    def finalize(self) -> ValueTrace:
        """The finished trace of the collected records and the total dynamic count."""
        return ValueTrace(self.name, self.records, self._dynamic_count)


def collect_trace(
    program: Program,
    memory: SparseMemory | None = None,
    max_instructions: int | None = None,
) -> tuple[ValueTrace, ExecutionResult]:
    """Run ``program`` and return its value trace plus the execution summary."""
    collector = TraceCollector(program.name)
    kwargs = {} if max_instructions is None else {"max_instructions": max_instructions}
    machine = Machine(program, memory=memory, **kwargs)
    machine.add_observer(collector)
    result = machine.run()
    trace = collector.finalize()
    return trace, result
