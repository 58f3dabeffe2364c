"""Tests for the interpreter: instruction semantics and execution control."""

from __future__ import annotations

import pytest

from repro.errors import ExecutionError, ExecutionLimitExceeded, MemoryError_
from repro.isa.machine import Machine
from repro.isa.memory import SparseMemory
from repro.isa.opcodes import Opcode
from repro.isa.program import ProgramBuilder
from repro.trace.collector import collect_trace


def execute(build, memory=None, max_instructions=100_000):
    """Build a program with ``build(builder)`` and run it to completion."""
    builder = ProgramBuilder("test")
    build(builder)
    machine = Machine(builder.build(), memory=memory, max_instructions=max_instructions)
    result = machine.run()
    return machine, result


class TestArithmeticAndLogic:
    def test_add_sub_semantics(self):
        def build(b):
            b.li(1, 10)
            b.li(2, 3)
            b.add(3, 1, 2)
            b.sub(4, 1, 2)
            b.subi(5, 1, 25)

        machine, _ = execute(build)
        assert machine.registers[3] == 13
        assert machine.registers[4] == 7
        assert machine.registers[5] == -15

    def test_logic_semantics(self):
        def build(b):
            b.li(1, 0b1100)
            b.li(2, 0b1010)
            b.and_(3, 1, 2)
            b.or_(4, 1, 2)
            b.xor(5, 1, 2)
            b.nor(6, 1, 2)
            b.andi(7, 1, 0b0110)

        machine, _ = execute(build)
        assert machine.registers[3] == 0b1000
        assert machine.registers[4] == 0b1110
        assert machine.registers[5] == 0b0110
        assert machine.registers[6] == ~0b1110
        assert machine.registers[7] == 0b0100

    def test_shift_semantics(self):
        def build(b):
            b.li(1, -16)
            b.sll(2, 1, 2)
            b.sra(3, 1, 2)
            b.srl(4, 1, 60)
            b.li(5, 3)
            b.sllv(6, 1, 5)

        machine, _ = execute(build)
        assert machine.registers[2] == -64
        assert machine.registers[3] == -4
        assert machine.registers[4] == 15
        assert machine.registers[6] == -128

    def test_set_semantics(self):
        def build(b):
            b.li(1, 4)
            b.li(2, 9)
            b.slt(3, 1, 2)
            b.slt(4, 2, 1)
            b.seq(5, 1, 1)
            b.sne(6, 1, 2)
            b.slti(7, 1, 100)
            b.li(8, -1)
            b.sltu(9, 8, 1)   # unsigned: -1 is huge, so not < 4

        machine, _ = execute(build)
        assert machine.registers[3] == 1
        assert machine.registers[4] == 0
        assert machine.registers[5] == 1
        assert machine.registers[6] == 1
        assert machine.registers[7] == 1
        assert machine.registers[9] == 0

    def test_mult_div_rem_semantics(self):
        def build(b):
            b.li(1, 7)
            b.li(2, -3)
            b.mult(3, 1, 2)
            b.div(4, 1, 2)
            b.rem(5, 1, 2)
            b.li(6, 0)
            b.div(7, 1, 6)   # division by zero yields zero, not a crash

        machine, _ = execute(build)
        assert machine.registers[3] == -21
        assert machine.registers[4] == -2   # truncation towards zero
        assert machine.registers[5] == 1
        assert machine.registers[7] == 0

    def test_lui_mov_li(self):
        def build(b):
            b.lui(1, 5)
            b.mov(2, 1)
            b.li(3, -9)

        machine, _ = execute(build)
        assert machine.registers[1] == 5 << 16
        assert machine.registers[2] == 5 << 16
        assert machine.registers[3] == -9


class TestMemoryInstructions:
    def test_load_store_word_and_byte(self):
        def build(b):
            b.li(1, 0x100)
            b.li(2, 777)
            b.sw(2, 1, 0)
            b.lw(3, 1, 0)
            b.li(4, 0x1FF)
            b.sb(4, 1, 8)
            b.lb(5, 1, 8)

        machine, _ = execute(build)
        assert machine.registers[3] == 777
        assert machine.registers[5] == 0xFF

    def test_initial_memory_visible_to_loads(self):
        memory = SparseMemory({0x200: 42})

        def build(b):
            b.li(1, 0x200)
            b.lw(2, 1, 0)

        machine, _ = execute(build, memory=memory)
        assert machine.registers[2] == 42


class TestControlFlow:
    def test_loop_with_backward_branch(self):
        def build(b):
            b.li(1, 0)
            b.li(2, 10)
            b.label("loop")
            b.addi(1, 1, 1)
            b.blt(1, 2, "loop")

        machine, result = execute(build)
        assert machine.registers[1] == 10
        assert result.halted

    def test_jal_and_jr_round_trip(self):
        def build(b):
            b.li(1, 5)
            b.jal(31, "function")
            b.label("after")
            b.addi(2, 1, 100)
            b.j("end")
            b.label("function")
            b.addi(1, 1, 1)
            b.jr(31)
            b.label("end")

        machine, _ = execute(build)
        assert machine.registers[1] == 6
        assert machine.registers[2] == 106

    def test_conditional_branch_taken_and_not_taken(self):
        def build(b):
            b.li(1, 1)
            b.li(2, 2)
            b.beq(1, 2, "skip")
            b.li(3, 111)
            b.label("skip")
            b.bne(1, 2, "skip2")
            b.li(4, 222)
            b.label("skip2")

        machine, _ = execute(build)
        assert machine.registers[3] == 111   # beq not taken
        assert machine.registers[4] == 0     # bne taken, so li skipped


class TestExecutionControl:
    def test_instruction_budget_enforced(self):
        def build(b):
            b.label("spin")
            b.addi(1, 1, 1)
            b.j("spin")

        with pytest.raises(ExecutionLimitExceeded):
            execute(build, max_instructions=500)

    def test_invalid_budget_rejected(self):
        builder = ProgramBuilder("t")
        builder.li(1, 1)
        with pytest.raises(ExecutionError):
            Machine(builder.build(), max_instructions=0)

    def test_result_counts_instructions_and_register_writes(self):
        def build(b):
            b.li(1, 1)
            b.li(2, 2)
            b.add(3, 1, 2)
            b.sw(3, 0, 64)

        _, result = execute(build)
        assert result.retired_instructions == 4
        assert result.register_writes == 3
        assert result.fraction_predicted() == pytest.approx(0.75)

    def test_collected_trace_holds_every_register_write(self):
        builder = ProgramBuilder("observed")
        builder.li(1, 1)
        builder.addi(1, 1, 1)
        builder.sw(1, 0, 0)
        trace, result = collect_trace(builder.build())
        assert result.retired_instructions == 3
        assert trace.total_dynamic_instructions == 3
        # The store retires (serial 2) but writes no register: no record.
        assert [record.serial for record in trace] == [0, 1]
        assert [record.value for record in trace] == [1, 2]
        assert [record.opcode for record in trace] == [Opcode.LI, Opcode.ADDI]

    def test_exact_budget_then_halt_succeeds(self):
        def build(b):
            b.li(1, 1)
            b.li(2, 2)
            b.li(3, 3)

        _, result = execute(build, max_instructions=3)
        assert result.halted
        assert result.retired_instructions == 3
        with pytest.raises(ExecutionLimitExceeded):
            execute(build, max_instructions=2)

    def test_branch_to_end_label_leaves_the_program(self):
        builder = ProgramBuilder("falls-off")
        builder.li(1, 1)
        builder.j("end")
        builder.halt()
        builder.label("end")
        program = builder.build()
        assert program.labels["end"] == len(program)
        with pytest.raises(ExecutionError, match="outside the program"):
            Machine(program).run()

    def test_budget_spent_on_the_way_out_still_reports_leaving(self):
        builder = ProgramBuilder("falls-off")
        builder.j("end")
        builder.halt()
        builder.label("end")
        with pytest.raises(ExecutionError, match="outside the program") as caught:
            Machine(builder.build(), max_instructions=1).run()
        assert not isinstance(caught.value, ExecutionLimitExceeded)

    def test_negative_jr_index_is_rejected_not_wrapped(self):
        def build(b):
            b.li(1, -4)
            b.jr(1)

        with pytest.raises(ExecutionError, match="outside the program"):
            execute(build)

    def test_misaligned_jr_target_is_rejected(self):
        def build(b):
            b.li(1, 6)
            b.li(2, 7)
            b.jr(1)

        with pytest.raises(ExecutionError, match="byte address 6"):
            execute(build)

    def test_negative_address_raises_memory_error(self):
        def build(b):
            b.li(1, -8)
            b.lw(2, 1, 0)

        with pytest.raises(MemoryError_):
            execute(build)

    def test_write_to_r0_is_recorded_as_zero(self):
        builder = ProgramBuilder("r0")
        builder.li(0, 5)
        builder.addi(1, 0, 3)
        trace, _ = collect_trace(builder.build())
        assert [record.value for record in trace] == [0, 3]

    def test_final_registers_are_visible_after_run(self):
        def build(b):
            b.li(1, -(2**63))
            b.subi(2, 1, 1)   # wraps around to the largest positive value

        machine, _ = execute(build)
        assert machine.registers[2] == 2**63 - 1
        assert machine.registers.snapshot()[0] == 0
