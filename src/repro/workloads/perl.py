"""Synthetic ``134.perl`` workload: interpreter dispatch and hash kernels.

perl's profile is dominated by its bytecode-style op dispatch loop, string
hashing for associative arrays, and string scanning.  The synthetic version
interprets a small op program (arithmetic, push/pop on an operand stack,
associative store/fetch) and hashes a dictionary of synthetic words into a
bucket table, mirroring the ``scrabbl.in`` run used by the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.workloads.base import Workload

if TYPE_CHECKING:  # the ISA loads when the workload is built
    from repro.isa.memory import SparseMemory
    from repro.isa.program import Program

OPS_BASE = 0x1_0000
STACK_BASE = 0x2_0000
HASHTAB_BASE = 0x4_0000
WORDS_BASE = 0x8_0000
RESULT_BASE = 0xC_0000

#: Interpreter opcodes.
OP_PUSH, OP_ADD, OP_SUB, OP_DUP, OP_STORE, OP_FETCH = 0, 1, 2, 3, 4, 5

#: Number of hash buckets (power of two).
BUCKETS = 1 << 10


class PerlWorkload(Workload):
    """Bytecode dispatch plus associative-array hashing."""

    name = "perl"
    description = "interpreter op dispatch, operand stack, string hashing"
    input_sets = ("scrabbl", "primes")
    flag_sets = ("ref",)
    base_dynamic_instructions = 36_000

    #: (op-program length, interpretation loops, dictionary words) per input.
    _SHAPE = {"scrabbl": (48, 22, 120), "primes": (32, 12, 40)}

    def build(self, scale: float, input_name: str, flags: str) -> tuple[Program, SparseMemory]:
        program_length, loops, words = self._SHAPE[input_name]
        loops = self.scaled(loops, scale, minimum=2)
        words = self.scaled(words, scale, minimum=8)
        memory = self._build_memory(program_length, words, input_name)
        program = self._build_program(program_length, loops, words)
        return program, memory

    def _build_memory(self, program_length: int, words: int, input_name: str) -> SparseMemory:
        from repro.isa.memory import SparseMemory

        memory = SparseMemory()
        rng = self.rng(seed=0x9E + len(input_name))
        # Op program: opcode in low byte, operand above.  Weighted towards
        # push/add like real interpreter profiles.
        weights = [OP_PUSH] * 4 + [OP_ADD] * 3 + [OP_SUB] * 2 + [OP_DUP] + [OP_STORE] + [OP_FETCH]
        for index in range(program_length):
            opcode = weights[rng.randrange(len(weights))]
            operand = rng.randrange(1, 100)
            memory.store_word(OPS_BASE + index * 8, opcode + (operand << 8))
        # Dictionary words: length-prefixed lowercase strings.
        for index in range(words):
            length = rng.randrange(3, 9)
            base = WORDS_BASE + index * 16 * 8
            memory.store_word(base, length)
            for offset in range(length):
                memory.store_word(base + 8 + offset * 8, 97 + rng.randrange(26))
        return memory

    def _build_program(self, program_length: int, loops: int, words: int) -> Program:
        from repro.isa.program import ProgramBuilder

        b = ProgramBuilder(self.name)
        r_loop, r_loops, r_ip, r_oplen = 1, 2, 3, 4
        r_word, r_opcode, r_operand, r_sp = 5, 6, 7, 8
        r_addr, r_a, r_bv, r_cond = 9, 10, 11, 12
        r_tmp, r_hash, r_len, r_chr = 13, 14, 15, 16
        r_widx, r_words, r_j, r_bucket = 17, 18, 19, 20

        # ================= Kernel 1: bytecode interpretation =================
        b.li(r_loop, 0, "interpretation loop counter")
        b.li(r_loops, loops, "interpretation loops")
        b.li(r_oplen, program_length, "op program length")
        b.li(r_sp, STACK_BASE, "operand stack pointer")

        outer_loop = b.label("outer_loop")
        outer_done = b.fresh_label("outer_done")
        b.slt(r_cond, r_loop, r_loops, "loops left?")
        b.beq(r_cond, 0, outer_done)
        b.li(r_ip, 0, "instruction pointer")

        dispatch = b.fresh_label("dispatch")
        program_done = b.fresh_label("program_done")
        b.label(dispatch)
        b.slt(r_cond, r_ip, r_oplen, "ops left?")
        b.beq(r_cond, 0, program_done)
        b.sll(r_addr, r_ip, 3, "op offset")
        b.addi(r_addr, r_addr, OPS_BASE, "op address")
        b.lw(r_word, r_addr, 0, "fetch op word")
        b.andi(r_opcode, r_word, 0xFF, "opcode")
        b.srl(r_operand, r_word, 8, "operand")

        next_op = b.fresh_label("next_op")
        labels = {
            OP_PUSH: b.fresh_label("op_push"),
            OP_ADD: b.fresh_label("op_add"),
            OP_SUB: b.fresh_label("op_sub"),
            OP_DUP: b.fresh_label("op_dup"),
            OP_STORE: b.fresh_label("op_store"),
            OP_FETCH: b.fresh_label("op_fetch"),
        }
        for opcode_value, label in list(labels.items())[:-1]:
            b.li(r_tmp, opcode_value, "opcode constant")
            b.seq(r_cond, r_opcode, r_tmp, "opcode match?")
            b.bne(r_cond, 0, label)
        b.j(labels[OP_FETCH])

        b.label(labels[OP_PUSH])
        b.sw(r_operand, r_sp, 0, "push operand")
        b.addi(r_sp, r_sp, 8, "sp++")
        b.j(next_op)

        b.label(labels[OP_ADD])
        b.subi(r_sp, r_sp, 8, "pop b")
        b.lw(r_bv, r_sp, 0, "b")
        b.subi(r_sp, r_sp, 8, "pop a")
        b.lw(r_a, r_sp, 0, "a")
        b.add(r_a, r_a, r_bv, "a + b")
        b.sw(r_a, r_sp, 0, "push result")
        b.addi(r_sp, r_sp, 8, "sp++")
        b.j(next_op)

        b.label(labels[OP_SUB])
        b.subi(r_sp, r_sp, 8, "pop b")
        b.lw(r_bv, r_sp, 0, "b")
        b.subi(r_sp, r_sp, 8, "pop a")
        b.lw(r_a, r_sp, 0, "a")
        b.sub(r_a, r_a, r_bv, "a - b")
        b.sw(r_a, r_sp, 0, "push result")
        b.addi(r_sp, r_sp, 8, "sp++")
        b.j(next_op)

        b.label(labels[OP_DUP])
        b.lw(r_a, r_sp, -8, "top of stack")
        b.sw(r_a, r_sp, 0, "duplicate")
        b.addi(r_sp, r_sp, 8, "sp++")
        b.j(next_op)

        b.label(labels[OP_STORE])
        b.subi(r_sp, r_sp, 8, "pop value")
        b.lw(r_a, r_sp, 0, "value")
        b.andi(r_tmp, r_operand, 0x3F, "variable slot")
        b.sll(r_tmp, r_tmp, 3, "slot offset")
        b.addi(r_addr, r_tmp, RESULT_BASE, "variable address")
        b.sw(r_a, r_addr, 0, "store variable")
        b.j(next_op)

        b.label(labels[OP_FETCH])
        b.andi(r_tmp, r_operand, 0x3F, "variable slot")
        b.sll(r_tmp, r_tmp, 3, "slot offset")
        b.addi(r_addr, r_tmp, RESULT_BASE, "variable address")
        b.lw(r_a, r_addr, 0, "fetch variable")
        b.sw(r_a, r_sp, 0, "push variable")
        b.addi(r_sp, r_sp, 8, "sp++")

        b.label(next_op)
        b.addi(r_ip, r_ip, 1, "next op")
        b.j(dispatch)
        b.label(program_done)
        # Guard against stack creep across interpretation loops.
        b.li(r_sp, STACK_BASE, "reset operand stack")
        b.addi(r_loop, r_loop, 1, "next interpretation loop")
        b.j(outer_loop)
        b.label(outer_done)

        # ================= Kernel 2: dictionary hashing =================
        b.li(r_widx, 0, "word index")
        b.li(r_words, words, "word count")
        word_loop = b.label("word_loop")
        word_done = b.fresh_label("word_done")
        b.slt(r_cond, r_widx, r_words, "words left?")
        b.beq(r_cond, 0, word_done)
        b.sll(r_addr, r_widx, 7, "word slot offset")
        b.addi(r_addr, r_addr, WORDS_BASE, "word base address")
        b.lw(r_len, r_addr, 0, "word length")
        b.li(r_hash, 0, "hash accumulator")
        b.li(r_j, 0, "character index")
        hash_loop = b.fresh_label("hash_loop")
        hash_done = b.fresh_label("hash_done")
        b.label(hash_loop)
        b.slt(r_cond, r_j, r_len, "characters left?")
        b.beq(r_cond, 0, hash_done)
        b.sll(r_tmp, r_j, 3, "character offset")
        b.add(r_tmp, r_tmp, r_addr, "character address")
        b.lw(r_chr, r_tmp, 8, "character")
        b.sll(r_tmp, r_hash, 4, "hash << 4")
        b.add(r_hash, r_tmp, r_chr, "hash = (hash<<4) + c")
        b.srl(r_tmp, r_hash, 12, "overflow bits")
        b.xor(r_hash, r_hash, r_tmp, "fold overflow")
        b.addi(r_j, r_j, 1, "next character")
        b.j(hash_loop)
        b.label(hash_done)
        b.andi(r_bucket, r_hash, BUCKETS - 1, "bucket index")
        b.sll(r_bucket, r_bucket, 3, "bucket offset")
        b.addi(r_bucket, r_bucket, HASHTAB_BASE, "bucket address")
        b.lw(r_tmp, r_bucket, 0, "bucket count")
        b.addi(r_tmp, r_tmp, 1, "increment")
        b.sw(r_tmp, r_bucket, 0, "write back bucket count")
        b.addi(r_widx, r_widx, 1, "next word")
        b.j(word_loop)
        b.label(word_done)
        b.halt()
        return b.build()
