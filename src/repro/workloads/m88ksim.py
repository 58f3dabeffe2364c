"""Synthetic ``124.m88ksim`` workload: a CPU simulator's dispatch loop.

m88ksim simulates a Motorola 88100 processor: it repeatedly fetches a target
instruction word, decodes its fields with shifts and masks, dispatches on the
opcode, and updates the simulated register file held in memory.  Because the
simulated target program is a small loop, the fetch/decode/execute values
repeat with a short period — exactly the behaviour that makes m88ksim the
most value-predictable SPEC95int benchmark in the paper.

The synthetic version embeds a small target program (encoded instruction
words in memory) and interprets it for a configurable number of steps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.workloads.base import Workload

if TYPE_CHECKING:  # the ISA loads when the workload is built
    from repro.isa.memory import SparseMemory
    from repro.isa.program import Program

TARGET_TEXT_BASE = 0x1_0000
TARGET_REGS_BASE = 0x2_0000
TARGET_DATA_BASE = 0x3_0000
STATS_BASE = 0x4_0000

#: Target-machine opcodes (encoded in the high byte of the instruction word).
OP_ADD, OP_ADDI, OP_LOAD, OP_STORE, OP_SHIFT, OP_BRANCH = 0, 1, 2, 3, 4, 5

#: Number of simulated target registers.
TARGET_REGISTERS = 16


def encode(op: int, rd: int, rs: int, imm: int) -> int:
    """Encode one target instruction word (op:8 | rd:8 | rs:8 | imm:16)."""
    return (op << 24) | ((rd & 0xFF) << 16) | ((rs & 0xFF) << 8) | (imm & 0xFF)


#: The simulated target program: a counted loop that sums an array, shifts an
#: accumulator and stores partial results — 12 instructions, so the host
#: simulator's fetch/decode values repeat with period 12.
TARGET_PROGRAM: tuple[int, ...] = (
    encode(OP_ADDI, 1, 1, 1),       # r1 += 1 (induction variable)
    encode(OP_LOAD, 2, 1, 0),       # r2 = data[r1]
    encode(OP_ADD, 3, 2, 3),        # r3 += r2 (running sum; rs doubles as addend)
    encode(OP_SHIFT, 4, 3, 2),      # r4 = r3 << 2
    encode(OP_ADDI, 5, 5, 4),       # r5 += 4 (address stride)
    encode(OP_STORE, 4, 5, 0),      # data[r5] = r4
    encode(OP_ADD, 6, 6, 1),        # r6 += 1 (iteration count mirror)
    encode(OP_ADDI, 7, 7, 3),       # r7 += 3
    encode(OP_SHIFT, 8, 7, 1),      # r8 = r7 << 1
    encode(OP_ADD, 9, 8, 2),        # r9 = r8 + r2
    encode(OP_ADDI, 10, 10, 0),     # r10 += 0 (constant result)
    encode(OP_BRANCH, 0, 1, 0),     # wrap back to the top
)


class M88ksimWorkload(Workload):
    """Fetch/decode/execute interpretation of a small embedded target loop."""

    name = "m88ksim"
    description = "CPU-simulator fetch/decode/execute dispatch loop"
    input_sets = ("ctl.raw", "dcrand")
    flag_sets = ("ref",)
    base_dynamic_instructions = 68_000

    #: Simulated target steps at scale = 1.0.
    _STEPS = {"ctl.raw": 1500, "dcrand": 700}

    def build(self, scale: float, input_name: str, flags: str) -> tuple[Program, SparseMemory]:
        steps = self.scaled(self._STEPS[input_name], scale, minimum=48)
        memory = self._build_memory(input_name)
        program = self._build_program(steps)
        return program, memory

    def _build_memory(self, input_name: str) -> SparseMemory:
        from repro.isa.memory import SparseMemory

        memory = SparseMemory()
        rng = self.rng(seed=0x88 + len(input_name))
        for index, word in enumerate(TARGET_PROGRAM):
            memory.store_word(TARGET_TEXT_BASE + index * 8, word)
        # Target data segment the simulated loads read from.
        for index in range(256):
            memory.store_word(TARGET_DATA_BASE + index * 8, rng.randrange(0, 64))
        return memory

    def _build_program(self, steps: int) -> Program:
        from repro.isa.program import ProgramBuilder

        b = ProgramBuilder(self.name)
        r_step, r_steps, r_simpc, r_insn = 1, 2, 3, 4
        r_op, r_rd, r_rs, r_imm = 5, 6, 7, 8
        r_addr, r_val, r_src, r_cond = 9, 10, 11, 12
        r_tmp, r_proglen, r_retired = 13, 14, 15

        b.li(r_step, 0, "host step counter")
        b.li(r_steps, steps, "simulated step budget")
        b.li(r_simpc, 0, "simulated PC (instruction index)")
        b.li(r_proglen, len(TARGET_PROGRAM), "target program length")
        b.li(r_retired, 0, "simulated retired instructions")

        step_loop = b.label("step_loop")
        step_done = b.fresh_label("step_done")
        b.slt(r_cond, r_step, r_steps, "steps left?")
        b.beq(r_cond, 0, step_done)

        # --- fetch ---------------------------------------------------------
        b.sll(r_addr, r_simpc, 3, "text offset")
        b.addi(r_addr, r_addr, TARGET_TEXT_BASE, "text address")
        b.lw(r_insn, r_addr, 0, "fetch target instruction")

        # --- decode --------------------------------------------------------
        b.srl(r_op, r_insn, 24, "opcode field")
        b.srl(r_rd, r_insn, 16, "rd field (raw)")
        b.andi(r_rd, r_rd, 0xFF, "rd field")
        b.srl(r_rs, r_insn, 8, "rs field (raw)")
        b.andi(r_rs, r_rs, 0xFF, "rs field")
        b.andi(r_imm, r_insn, 0xFF, "immediate field")

        # --- read the simulated source register -----------------------------
        b.sll(r_addr, r_rs, 3, "source register offset")
        b.addi(r_addr, r_addr, TARGET_REGS_BASE, "source register address")
        b.lw(r_src, r_addr, 0, "simulated source value")

        # --- dispatch --------------------------------------------------------
        do_add, do_addi, do_load = b.fresh_label("do_add"), b.fresh_label("do_addi"), b.fresh_label("do_load")
        do_store, do_shift, do_branch = b.fresh_label("do_store"), b.fresh_label("do_shift"), b.fresh_label("do_branch")
        writeback = b.fresh_label("writeback")
        advance = b.fresh_label("advance")

        b.li(r_tmp, OP_ADD, "ADD opcode")
        b.seq(r_cond, r_op, r_tmp, "is add?")
        b.bne(r_cond, 0, do_add)
        b.li(r_tmp, OP_ADDI, "ADDI opcode")
        b.seq(r_cond, r_op, r_tmp, "is addi?")
        b.bne(r_cond, 0, do_addi)
        b.li(r_tmp, OP_LOAD, "LOAD opcode")
        b.seq(r_cond, r_op, r_tmp, "is load?")
        b.bne(r_cond, 0, do_load)
        b.li(r_tmp, OP_STORE, "STORE opcode")
        b.seq(r_cond, r_op, r_tmp, "is store?")
        b.bne(r_cond, 0, do_store)
        b.li(r_tmp, OP_SHIFT, "SHIFT opcode")
        b.seq(r_cond, r_op, r_tmp, "is shift?")
        b.bne(r_cond, 0, do_shift)
        b.j(do_branch)

        b.label(do_add)
        b.sll(r_addr, r_rd, 3, "dest register offset")
        b.addi(r_addr, r_addr, TARGET_REGS_BASE, "dest register address")
        b.lw(r_val, r_addr, 0, "current dest value")
        b.add(r_val, r_val, r_src, "dest += src")
        b.j(writeback)

        b.label(do_addi)
        b.add(r_val, r_src, r_imm, "src + imm")
        b.j(writeback)

        b.label(do_load)
        b.andi(r_tmp, r_src, 0xFF, "wrap data index")
        b.sll(r_addr, r_tmp, 3, "data offset")
        b.addi(r_addr, r_addr, TARGET_DATA_BASE, "data address")
        b.lw(r_val, r_addr, 0, "simulated load")
        b.j(writeback)

        b.label(do_store)
        b.andi(r_tmp, r_src, 0xFF, "wrap data index")
        b.sll(r_addr, r_tmp, 3, "data offset")
        b.addi(r_addr, r_addr, TARGET_DATA_BASE, "data address")
        b.sw(r_rd, r_addr, 0, "simulated store (rd used as value index)")
        b.j(advance)

        b.label(do_shift)
        b.andi(r_tmp, r_imm, 7, "bounded shift amount")
        b.sllv(r_val, r_src, r_tmp, "src << imm")
        b.j(writeback)

        b.label(do_branch)
        b.li(r_simpc, -1, "branch: restart the target loop")
        b.j(advance)

        # --- write back to the simulated register file -----------------------
        b.label(writeback)
        b.sll(r_addr, r_rd, 3, "dest register offset")
        b.addi(r_addr, r_addr, TARGET_REGS_BASE, "dest register address")
        b.sw(r_val, r_addr, 0, "write simulated register")

        b.label(advance)
        b.addi(r_retired, r_retired, 1, "count retired target instruction")
        b.addi(r_simpc, r_simpc, 1, "advance simulated PC")
        b.slt(r_cond, r_simpc, r_proglen, "wrap target PC?")
        b.bne(r_cond, 0, _no_wrap := b.fresh_label("no_wrap"))
        b.li(r_simpc, 0, "wrap to target loop start")
        b.label(_no_wrap)
        b.addi(r_step, r_step, 1, "next host step")
        b.j(step_loop)

        b.label(step_done)
        b.sw(r_retired, 0, STATS_BASE, "store retired count")
        b.halt()
        return b.build()
