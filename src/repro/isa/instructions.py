"""Instruction representation for the MIPS-like ISA.

An :class:`Instruction` is a frozen dataclass; programs are simply tuples of
instructions with PCs assigned by their position (``pc = index * 4`` to mimic
a word-addressed instruction memory).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InvalidInstructionError
from repro.isa.opcodes import (
    BRANCH_OPCODES,
    IMMEDIATE_OPCODES,
    Category,
    Opcode,
    category_of,
    is_predicted_opcode,
)

#: Byte distance between consecutive instructions (MIPS-style word addressing).
INSTRUCTION_SIZE = 4

#: Opcodes that read no source register.
_NO_SOURCE: frozenset[Opcode] = frozenset(
    {Opcode.LUI, Opcode.LI, Opcode.JAL, Opcode.J, Opcode.NOP, Opcode.HALT}
)
#: Opcodes that read ``rs`` only; every other opcode reads ``rs`` and ``rt``.
_RS_ONLY: frozenset[Opcode] = frozenset(
    {
        Opcode.ADDI,
        Opcode.SUBI,
        Opcode.ANDI,
        Opcode.ORI,
        Opcode.XORI,
        Opcode.SLL,
        Opcode.SRL,
        Opcode.SRA,
        Opcode.SLTI,
        Opcode.MOV,
        Opcode.LW,
        Opcode.LB,
        Opcode.JR,
    }
)


@dataclass(frozen=True)
class Instruction:
    """A single decoded instruction.

    Parameters
    ----------
    opcode:
        The operation to perform.
    rd:
        Destination register index; required by every register-writing
        opcode, ignored (and usually ``None``) for the others.
    rs:
        First source register index; required by every opcode that reads
        a register.
    rt:
        Second source register index; required by the register-register
        forms, stores and conditional branches.
    imm:
        Immediate operand (shift amounts, address offsets, constants).
    target:
        Symbolic label for branches/jumps; resolved to an instruction index
        by :class:`repro.isa.program.Program`.
    annotation:
        Optional free-form tag used by workloads to label the role of the
        instruction (useful when debugging synthetic kernels).
    """

    opcode: Opcode
    rd: int | None = None
    rs: int | None = None
    rt: int | None = None
    imm: int = 0
    target: str | None = None
    annotation: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        for name, reg in (("rd", self.rd), ("rs", self.rs), ("rt", self.rt)):
            if reg is not None and not 0 <= reg < 32:
                raise InvalidInstructionError(
                    f"{self.opcode}: register operand {name}={reg} out of range [0, 32)"
                )
        if self.opcode in BRANCH_OPCODES and self.target is None:
            raise InvalidInstructionError(f"{self.opcode}: branch requires a target label")
        if self.opcode in (Opcode.J, Opcode.JAL) and self.target is None:
            raise InvalidInstructionError(f"{self.opcode}: jump requires a target label")
        if is_predicted_opcode(self.opcode) and self.rd is None:
            raise InvalidInstructionError(f"{self.opcode}: requires a destination register rd")
        if self.opcode not in _NO_SOURCE:
            sources = ("rs",) if self.opcode in _RS_ONLY else ("rs", "rt")
            for name in sources:
                if getattr(self, name) is None:
                    raise InvalidInstructionError(
                        f"{self.opcode}: requires a source register {name}"
                    )

    @property
    def category(self) -> Category:
        """Reporting category of this instruction (Table 3 mapping)."""
        return category_of(self.opcode)

    @property
    def writes_register(self) -> bool:
        """``True`` if the instruction writes a general purpose register."""
        return is_predicted_opcode(self.opcode)

    @property
    def uses_immediate(self) -> bool:
        """``True`` if the second operand is an immediate rather than ``rt``."""
        return self.opcode in IMMEDIATE_OPCODES

    def __str__(self) -> str:
        parts = [self.opcode.value]
        if self.rd is not None:
            parts.append(f"r{self.rd}")
        if self.rs is not None:
            parts.append(f"r{self.rs}")
        if self.rt is not None:
            parts.append(f"r{self.rt}")
        if self.uses_immediate or self.imm:
            parts.append(str(self.imm))
        if self.target is not None:
            parts.append(self.target)
        return " ".join(parts)
