"""Synthetic ``129.compress`` workload: LZW-style compression kernels.

The real benchmark spends its time hashing (prefix, character) pairs into a
probe table, walking the input buffer byte by byte, and packing variable
width output codes with shifts and masks.  The synthetic version reproduces
those three kernels:

* a byte-wise scan of a pseudo-text input buffer (stride addresses, byte
  values drawn from a skewed alphabet — a repeated non-stride sequence),
* open-addressing hash-table probes with XOR/shift hashing (non-stride load
  values, moderately predictable compare outcomes), and
* output bit-packing with variable shifts and OR accumulation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.workloads.base import Workload

if TYPE_CHECKING:  # the ISA loads when the workload is built
    from repro.isa.memory import SparseMemory
    from repro.isa.program import Program

# Memory layout (byte addresses; words are 8 bytes apart).
INPUT_BASE = 0x1_0000
HTAB_BASE = 0x4_0000
CODETAB_BASE = 0x8_0000
OUTPUT_BASE = 0xC_0000

#: Number of hash-table slots (power of two so masking works).
HASH_SLOTS = 1 << 12
HASH_MASK = (HASH_SLOTS - 1) * 8  # pre-scaled to a word-aligned byte offset

#: First LZW code assigned to a new (prefix, char) pair.
FIRST_FREE_CODE = 257


class CompressWorkload(Workload):
    """LZW-style compression over a synthetic text buffer."""

    name = "compress"
    description = "LZW hashing, input scanning and output bit-packing kernels"
    input_sets = ("ref", "test", "train")
    flag_sets = ("ref",)
    base_dynamic_instructions = 42_000

    #: Input buffer length (bytes) per input set at scale = 1.0.
    _INPUT_LENGTH = {"ref": 460, "test": 200, "train": 320}
    #: Alphabet skew per input set (smaller alphabet => more repetition).
    _ALPHABET = {"ref": 48, "test": 24, "train": 36}
    #: Number of compression passes over the buffer (the reference run
    #: compresses the same data repeatedly at its 30000-e setting, so the
    #: hashing kernels see the same value patterns many times).
    _PASSES = 3

    def build(self, scale: float, input_name: str, flags: str) -> tuple[Program, SparseMemory]:
        length = self.scaled(self._INPUT_LENGTH[input_name], scale, minimum=64)
        memory = self._build_memory(length, input_name)
        program = self._build_program(length, self._PASSES)
        return program, memory

    # ------------------------------------------------------------------ #
    # Input data
    # ------------------------------------------------------------------ #
    def _build_memory(self, length: int, input_name: str) -> SparseMemory:
        from repro.isa.memory import SparseMemory

        memory = SparseMemory()
        rng = self.rng(seed=0xC0 + len(input_name))
        alphabet = self._ALPHABET[input_name]
        # Markov-ish pseudo text: mostly repeats of a small working set of
        # characters with occasional jumps, which is what gives compress its
        # compressible (and value-predictable) input behaviour.
        current = 65
        for index in range(length):
            if rng.random() < 0.35:
                current = 65 + rng.randrange(alphabet)
            elif rng.random() < 0.15:
                current = 32  # space
            memory.store_byte(INPUT_BASE + index * 8, current)
        return memory

    # ------------------------------------------------------------------ #
    # Program
    # ------------------------------------------------------------------ #
    def _build_program(self, length: int, passes: int) -> Program:
        from repro.isa.program import ProgramBuilder

        b = ProgramBuilder(self.name)
        # Register conventions for this workload.
        r_index, r_limit, r_addr = 1, 2, 3
        r_char, r_prefix, r_fcode = 4, 5, 6
        r_hash, r_probe, r_loaded = 7, 8, 9
        r_free_code, r_cond, r_tmp = 10, 11, 12
        r_outbuf, r_bitcount, r_nbits = 13, 14, 15
        r_outidx, r_step, r_mask = 16, 17, 18
        r_pass, r_passes = 19, 20

        b.li(r_limit, length, "input length")
        b.li(r_free_code, FIRST_FREE_CODE, "next free code")
        b.li(r_mask, HASH_MASK, "hash mask")
        b.li(r_pass, 0, "compression pass")
        b.li(r_passes, passes, "compression passes")

        pass_loop = b.label("pass_loop")
        end = b.fresh_label("end")
        b.slt(r_cond, r_pass, r_passes, "passes left?")
        b.beq(r_cond, 0, end)
        b.li(r_index, 0, "input cursor")
        b.li(r_prefix, 0, "LZW prefix code")
        b.li(r_outbuf, 0, "output bit accumulator")
        b.li(r_bitcount, 0, "bits accumulated")
        b.li(r_nbits, 9, "current code width")
        b.li(r_outidx, 0, "output word index")

        main_loop = b.fresh_label("main_loop")
        pass_end = b.fresh_label("pass_end")
        b.label(main_loop)
        b.slt(r_cond, r_index, r_limit, "loop guard")
        b.beq(r_cond, 0, pass_end)

        # --- load next character ------------------------------------------------
        b.sll(r_addr, r_index, 3, "byte slot -> address offset")
        b.addi(r_addr, r_addr, INPUT_BASE, "input address")
        b.lb(r_char, r_addr, 0, "c = input[i]")

        # --- form fcode and hash -------------------------------------------------
        b.sll(r_fcode, r_char, 16, "c << 16")
        b.add(r_fcode, r_fcode, r_prefix, "fcode = (c<<16) + prefix")
        b.sll(r_hash, r_char, 8, "c << 8")
        b.xor(r_hash, r_hash, r_prefix, "hash = (c<<8) ^ prefix")
        b.sll(r_hash, r_hash, 3, "scale hash to word offset")
        b.and_(r_hash, r_hash, r_mask, "hash &= mask")

        # --- primary probe --------------------------------------------------------
        b.addi(r_probe, r_hash, HTAB_BASE, "probe address")
        b.lw(r_loaded, r_probe, 0, "htab[hash]")
        b.seq(r_cond, r_loaded, r_fcode, "hit?")
        hit = b.fresh_label("hit")
        b.bne(r_cond, 0, hit)
        b.seq(r_cond, r_loaded, 0, "empty slot?")
        insert = b.fresh_label("insert")
        b.bne(r_cond, 0, insert)

        # --- secondary probe (linear rehash) --------------------------------------
        b.addi(r_step, r_char, 8, "rehash step from character")
        b.sll(r_step, r_step, 3, "scale step")
        b.add(r_hash, r_hash, r_step, "hash += step")
        b.and_(r_hash, r_hash, r_mask, "wrap")
        b.addi(r_probe, r_hash, HTAB_BASE, "probe address")
        b.lw(r_loaded, r_probe, 0, "htab[rehash]")
        b.seq(r_cond, r_loaded, r_fcode, "hit on rehash?")
        b.bne(r_cond, 0, hit)
        b.j(insert)

        # --- hit: follow the chain -------------------------------------------------
        b.label(hit)
        b.addi(r_probe, r_hash, CODETAB_BASE - HTAB_BASE, "code table offset")
        b.addi(r_probe, r_probe, HTAB_BASE, "code table address")
        b.lw(r_prefix, r_probe, 0, "prefix = codetab[hash]")
        continue_label = b.fresh_label("continue")
        b.j(continue_label)

        # --- miss: insert and emit a code -------------------------------------------
        b.label(insert)
        b.addi(r_probe, r_hash, HTAB_BASE, "insert address")
        b.sw(r_fcode, r_probe, 0, "htab[hash] = fcode")
        b.addi(r_probe, r_hash, CODETAB_BASE, "code table address")
        b.sw(r_free_code, r_probe, 0, "codetab[hash] = free code")
        b.addi(r_free_code, r_free_code, 1, "allocate next code")

        # Emit the current prefix into the output bit buffer.
        b.sllv(r_tmp, r_prefix, r_bitcount, "prefix << bitcount")
        b.or_(r_outbuf, r_outbuf, r_tmp, "accumulate output bits")
        b.add(r_bitcount, r_bitcount, r_nbits, "bitcount += nbits")
        b.slti(r_cond, r_bitcount, 32, "buffer full?")
        no_flush = b.fresh_label("no_flush")
        b.bne(r_cond, 0, no_flush)
        b.sll(r_tmp, r_outidx, 3, "output offset")
        b.addi(r_tmp, r_tmp, OUTPUT_BASE, "output address")
        b.sw(r_outbuf, r_tmp, 0, "flush output word")
        b.addi(r_outidx, r_outidx, 1, "next output word")
        b.srl(r_outbuf, r_outbuf, 32, "keep residual bits")
        b.subi(r_bitcount, r_bitcount, 32, "bits remaining")
        b.label(no_flush)
        # Widen the code size as the dictionary grows (rarely taken).
        b.andi(r_tmp, r_free_code, 0x1FF, "dictionary growth check")
        b.sne(r_cond, r_tmp, 0, "not at power-of-two boundary?")
        b.bne(r_cond, 0, continue_label)
        b.addi(r_nbits, r_nbits, 1, "widen output code")

        b.label(continue_label)
        b.mov(r_prefix, r_char, "prefix = c")
        b.addi(r_index, r_index, 1, "advance input cursor")
        b.j(main_loop)

        b.label(pass_end)
        b.addi(r_pass, r_pass, 1, "next compression pass")
        b.j(pass_loop)

        b.label(end)
        b.halt()
        return b.build()
