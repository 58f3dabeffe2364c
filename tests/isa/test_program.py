"""Tests for instruction construction and the program builder."""

from __future__ import annotations

import pytest

from repro.errors import InvalidInstructionError, ProgramError
from repro.isa.instructions import INSTRUCTION_SIZE, Instruction
from repro.isa.opcodes import Category, Opcode
from repro.isa.program import ProgramBuilder


class TestInstruction:
    def test_register_range_validated(self):
        with pytest.raises(InvalidInstructionError):
            Instruction(Opcode.ADD, rd=32, rs=0, rt=0)
        with pytest.raises(InvalidInstructionError):
            Instruction(Opcode.ADD, rd=1, rs=-1, rt=0)

    def test_branch_requires_target(self):
        with pytest.raises(InvalidInstructionError):
            Instruction(Opcode.BEQ, rs=1, rt=2)

    def test_jr_requires_source_register(self):
        with pytest.raises(InvalidInstructionError):
            Instruction(Opcode.JR)

    def test_register_writing_opcode_requires_rd(self):
        with pytest.raises(InvalidInstructionError, match="destination register"):
            Instruction(Opcode.ADD, rs=1, rt=2)
        with pytest.raises(InvalidInstructionError, match="destination register"):
            Instruction(Opcode.LI, imm=3)

    def test_source_registers_required(self):
        with pytest.raises(InvalidInstructionError, match="source register rt"):
            Instruction(Opcode.ADD, rd=1, rs=2)
        with pytest.raises(InvalidInstructionError, match="source register rs"):
            Instruction(Opcode.LW, rd=1, imm=8)
        # Immediate forms need no rt; li/lui/j/nop/halt read no register.
        Instruction(Opcode.ADDI, rd=1, rs=2, imm=7)
        Instruction(Opcode.LUI, rd=1, imm=7)
        Instruction(Opcode.NOP)

    def test_category_and_write_properties(self):
        add = Instruction(Opcode.ADD, rd=1, rs=2, rt=3)
        store = Instruction(Opcode.SW, rt=1, rs=2)
        assert add.category is Category.ADDSUB
        assert add.writes_register
        assert store.category is Category.STORE
        assert not store.writes_register

    def test_string_rendering_mentions_opcode_and_registers(self):
        text = str(Instruction(Opcode.ADDI, rd=1, rs=2, imm=7))
        assert "addi" in text and "r1" in text and "7" in text


class TestProgramBuilder:
    def test_labels_resolve_to_instruction_indices(self):
        builder = ProgramBuilder("demo")
        builder.li(1, 0)
        builder.label("loop")
        builder.addi(1, 1, 1)
        builder.bne(1, 0, "loop")
        program = builder.build()
        assert program.index_of_label("loop") == 1
        assert program.pc_of_index(1) == INSTRUCTION_SIZE

    def test_halt_appended_automatically(self):
        builder = ProgramBuilder("demo")
        builder.li(1, 3)
        program = builder.build()
        assert program.instructions[-1].opcode is Opcode.HALT

    def test_duplicate_label_rejected(self):
        builder = ProgramBuilder("demo")
        builder.label("x")
        with pytest.raises(ProgramError):
            builder.label("x")

    def test_undefined_branch_target_rejected(self):
        builder = ProgramBuilder("demo")
        builder.li(1, 0)
        builder.beq(1, 0, "nowhere")
        with pytest.raises(ProgramError):
            builder.build()

    def test_empty_program_rejected(self):
        with pytest.raises(ProgramError):
            ProgramBuilder("empty").build()

    def test_fresh_labels_are_unique(self):
        builder = ProgramBuilder("demo")
        labels = {builder.fresh_label() for _ in range(100)}
        assert len(labels) == 100

    def test_unknown_label_lookup_raises(self):
        builder = ProgramBuilder("demo")
        builder.li(1, 0)
        program = builder.build()
        with pytest.raises(ProgramError):
            program.index_of_label("missing")

    def test_static_pcs_enumerate_all_instructions(self):
        builder = ProgramBuilder("demo")
        builder.li(1, 0)
        builder.addi(1, 1, 1)
        program = builder.build()
        assert program.static_pcs() == (0, 4, 8)  # includes the implicit halt
