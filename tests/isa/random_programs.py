"""Seeded random programs over :mod:`repro.isa` that terminate by construction.

``random_program(seed)`` is a pure function of ``seed``: the same seed
always builds the same program, initial memory and instruction budget, so
a failing seed is a complete regression case.

Termination does not depend on the budget.  Every branch and ``j`` jumps
forward, to a label bound later in its own block.  The only backward
transfers are:

* counted loops, whose counter register (``r30`` or ``r29`` by nesting
  depth) no other instruction writes and which count down from at most
  ``MAX_TRIPS`` to zero;
* subroutine calls (``jal r28``) to a body that returns with ``jr r28``,
  where no body writes ``r28`` and no body contains another subroutine.

Everything else is random: the data registers start from random values,
every opcode appears, destinations include
``r0``, immediates include values far outside 64 bits, loads and stores
sometimes use a data register (which may be negative) as their base, a
forward branch may target the label one past the final ``halt``, a
``halt`` may stop the program early, and about a third of the programs
get a budget small enough to run out.
"""

from __future__ import annotations

import random

from repro.isa.instructions import Instruction
from repro.isa.memory import WORD_SIZE, SparseMemory
from repro.isa.opcodes import BRANCH_OPCODES, Opcode
from repro.isa.program import Program, ProgramBuilder

#: Registers the random instructions read and write (``r0`` included).
DATA_REGISTERS = tuple(range(24))
#: A base register holding a positive address, set once at the start.
POINTER = 24
#: Link register of subroutine calls.
LINK = 28
#: Loop counter by nesting depth.
COUNTERS = (30, 29)
#: Largest trip count of a counted loop.
MAX_TRIPS = 5
#: Label one past the final ``halt``: jumping there leaves the program.
EXIT = "exit"

_REGISTER_FORMS = tuple(
    Opcode(name)
    for name in "add sub and or xor nor sllv srlv slt sltu seq sne mult div rem".split()
)
_IMMEDIATE_FORMS = tuple(
    Opcode(name) for name in "addi subi andi ori xori sll srl sra slti".split()
)
_BRANCHES = tuple(sorted(BRANCH_OPCODES, key=lambda opcode: opcode.value))


class _Generator:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.builder = ProgramBuilder(f"random-{seed}")
        self.labels = 0

    def fresh_label(self) -> str:
        self.labels += 1
        return f"L{self.labels}"

    # ------------------------------------------------------------------ #
    # Operands
    # ------------------------------------------------------------------ #
    def register(self) -> int:
        return self.rng.choice(DATA_REGISTERS)

    def source(self) -> int:
        """A data register, or now and then a counter or the pointer."""
        if self.rng.random() < 0.1:
            return self.rng.choice((POINTER, LINK) + COUNTERS)
        return self.register()

    def immediate(self) -> int:
        roll = self.rng.random()
        if roll < 0.7:
            return self.rng.randint(-64, 64)
        if roll < 0.9:
            return self.rng.randint(-(2**63), 2**63 - 1)
        return self.rng.randint(-(2**70), 2**70)

    # ------------------------------------------------------------------ #
    # Instructions
    # ------------------------------------------------------------------ #
    def straight_instruction(self) -> None:
        """One instruction that falls through to the next."""
        rng = self.rng
        kind = rng.random()
        if kind < 0.35:
            opcode = rng.choice(_REGISTER_FORMS)
            self.emit(opcode, rd=self.register(), rs=self.source(), rt=self.source())
        elif kind < 0.65:
            opcode = rng.choice(_IMMEDIATE_FORMS)
            self.emit(opcode, rd=self.register(), rs=self.source(), imm=self.immediate())
        elif kind < 0.85:
            opcode = rng.choice((Opcode.LW, Opcode.LB, Opcode.SW, Opcode.SB))
            base = self.register() if rng.random() < 0.15 else rng.choice((0, POINTER))
            offset = rng.randrange(0, 64 * WORD_SIZE)
            if opcode in (Opcode.LW, Opcode.LB):
                self.emit(opcode, rd=self.register(), rs=base, imm=offset)
            else:
                self.emit(opcode, rt=self.source(), rs=base, imm=offset)
        else:
            opcode = rng.choice((Opcode.LUI, Opcode.LI, Opcode.MOV, Opcode.NOP))
            if opcode is Opcode.MOV:
                self.emit(opcode, rd=self.register(), rs=self.source())
            elif opcode is Opcode.NOP:
                self.emit(opcode)
            else:
                self.emit(opcode, rd=self.register(), imm=self.immediate())

    def emit(self, opcode: Opcode, **operands) -> None:
        self.builder.emit(Instruction(opcode, **operands))

    def block(self, size: int, depth: int, in_subroutine: bool, top_level: bool) -> None:
        """``size`` items; forward branches stay inside the block."""
        rng = self.rng
        builder = self.builder
        pending: list[list] = []  # [label, instructions left before binding]
        for _ in range(size):
            for entry in [entry for entry in pending if entry[1] <= 0]:
                builder.label(entry[0])
                pending.remove(entry)
            roll = rng.random()
            if roll < 0.12:
                label = self.fresh_label()
                if top_level and rng.random() < 0.05:
                    label = EXIT
                else:
                    pending.append([label, rng.randint(1, 6)])
                if rng.random() < 0.2:
                    builder.j(label)
                else:
                    opcode = rng.choice(_BRANCHES)
                    self.emit(opcode, rs=self.source(), rt=self.source(), target=label)
            elif roll < 0.16 and depth < len(COUNTERS):
                self.loop(depth, in_subroutine)
            elif roll < 0.19 and not in_subroutine:
                self.subroutine(depth)
            elif roll < 0.2 and top_level:
                builder.halt()
            else:
                self.straight_instruction()
            for entry in pending:
                entry[1] -= 1
        for label, _ in pending:
            builder.label(label)

    def loop(self, depth: int, in_subroutine: bool) -> None:
        counter = COUNTERS[depth]
        head = self.fresh_label()
        self.builder.li(counter, self.rng.randint(1, MAX_TRIPS))
        self.builder.label(head)
        self.block(self.rng.randint(1, 8), depth + 1, in_subroutine, top_level=False)
        self.builder.subi(counter, counter, 1)
        self.builder.bgt(counter, 0, head)

    def subroutine(self, depth: int) -> None:
        body, skip = self.fresh_label(), self.fresh_label()
        self.builder.j(skip)
        self.builder.label(body)
        self.block(self.rng.randint(1, 8), depth, in_subroutine=True, top_level=False)
        self.builder.jr(LINK)
        self.builder.label(skip)
        for _ in range(self.rng.randint(1, 2)):
            self.builder.jal(LINK, body)


def random_program(seed: int) -> tuple[Program, SparseMemory, int | None]:
    """The program, initial memory and budget (``None``: default) of ``seed``."""
    generator = _Generator(seed)
    rng = generator.rng
    builder = generator.builder
    builder.li(POINTER, rng.randrange(0, 64) * WORD_SIZE)
    for register in rng.sample(DATA_REGISTERS, rng.randint(0, len(DATA_REGISTERS))):
        builder.li(register, generator.immediate())
    generator.block(rng.randint(1, 60), depth=0, in_subroutine=False, top_level=True)
    builder.halt()
    builder.label(EXIT)
    program = builder.build()

    memory = SparseMemory(
        {
            rng.randrange(0, 128) * WORD_SIZE: generator.immediate()
            for _ in range(rng.randint(0, 12))
        }
    )
    budget = rng.randint(1, 100) if rng.random() < 0.3 else None
    return program, memory, budget
