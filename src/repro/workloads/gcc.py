"""Synthetic ``126.gcc`` workload: compiler front/middle-end kernels.

gcc is the least regular of the SPEC95int programs: it walks heterogeneous
IR structures, dispatches on many token/insn kinds, and touches large hashed
symbol tables.  The synthetic version models four kernels:

* a tokenizer/dispatch loop over a token stream (cascaded compare-and-branch
  dispatch, per-kind handling with different operation mixes),
* an RTL-like pass that walks a linked list of insn nodes, loads their
  fields, performs constant folding, and writes results back,
* register-allocation style bitset manipulation (AND/OR/XOR over word
  arrays), and
* symbol-table string hashing.

The workload exposes the five input files of Table 6 (``jump.i``,
``emit-rtl.i``, ``gcc.i``, ``recog.i``, ``stmt.i``) and the four flag
settings of Table 7 (``none``, ``-O1``, ``-O2``, ``ref``): inputs change the
size and shape of the token stream and IR list, flags change how many
optimisation passes run over the IR.
"""

from __future__ import annotations

from typing import TYPE_CHECKING
from zlib import crc32

from repro.workloads.base import Workload

if TYPE_CHECKING:  # the ISA loads when the workload is built
    from repro.isa.memory import SparseMemory
    from repro.isa.program import Program

TOKEN_BASE = 0x1_0000
IR_BASE = 0x10_0000
BITSET_BASE = 0x20_0000
SYMTAB_BASE = 0x30_0000
STRING_BASE = 0x40_0000

#: IR node field offsets (in bytes): opcode, src1, src2, dest, next pointer.
NODE_OPCODE, NODE_SRC1, NODE_SRC2, NODE_DEST, NODE_NEXT = 0, 8, 16, 24, 32
NODE_SIZE = 40

#: Number of distinct token kinds the dispatch loop distinguishes.
TOKEN_KINDS = 6


class GccWorkload(Workload):
    """Compiler-style token dispatch, IR rewriting, bitsets and hashing."""

    name = "gcc"
    description = "token dispatch, RTL-style IR passes, bitsets, symbol hashing"
    input_sets = ("gcc.i", "jump.i", "emit-rtl.i", "recog.i", "stmt.i")
    flag_sets = ("ref", "none", "-O1", "-O2")
    base_dynamic_instructions = 62_000

    #: (token stream length, IR node count, symbol count) per input file.
    _INPUT_SHAPE = {
        "jump.i": (300, 110, 60),
        "emit-rtl.i": (340, 130, 70),
        "gcc.i": (400, 150, 80),
        "recog.i": (550, 200, 100),
        "stmt.i": (760, 280, 130),
    }
    #: Number of IR optimisation passes per flag setting.
    _PASSES = {"none": 1, "-O1": 2, "-O2": 3, "ref": 3}
    #: Whether the peephole inner loop runs (models extra -O work).
    _PEEPHOLE = {"none": False, "-O1": False, "-O2": True, "ref": True}

    def build(self, scale: float, input_name: str, flags: str) -> tuple[Program, SparseMemory]:
        tokens, nodes, symbols = self._INPUT_SHAPE[input_name]
        token_count = self.scaled(tokens, scale, minimum=32)
        node_count = self.scaled(nodes, scale, minimum=16)
        symbol_count = self.scaled(symbols, scale, minimum=8)
        memory = self._build_memory(token_count, node_count, symbol_count, input_name)
        program = self._build_program(
            token_count,
            node_count,
            symbol_count,
            passes=self._PASSES[flags],
            peephole=self._PEEPHOLE[flags],
        )
        return program, memory

    # ------------------------------------------------------------------ #
    # Input data
    # ------------------------------------------------------------------ #
    def _build_memory(
        self, token_count: int, node_count: int, symbol_count: int, input_name: str
    ) -> SparseMemory:
        from repro.isa.memory import SparseMemory

        memory = SparseMemory()
        # crc32, not hash(): str hashing is randomized per process
        # (PYTHONHASHSEED), and the trace must be bit-identical across
        # processes for the engine's content-addressed result cache.
        rng = self.rng(seed=crc32(input_name.encode("utf-8")) & 0xFFFF)

        # Token stream: kind in the low bits, payload above.  Kind frequencies
        # are skewed (identifiers and operators dominate) like real source.
        kind_weights = [30, 22, 18, 14, 10, 6][:TOKEN_KINDS]
        population = [kind for kind, weight in enumerate(kind_weights) for _ in range(weight)]
        for index in range(token_count):
            kind = population[rng.randrange(len(population))]
            payload = rng.randrange(1, 200)
            memory.store_word(TOKEN_BASE + index * 8, kind + (payload << 8))

        # IR nodes: a singly linked list laid out contiguously but linked in a
        # shuffled order so the `next` pointers form a non-stride sequence.
        order = list(range(node_count))
        rng.shuffle(order)
        for position, node_index in enumerate(order):
            address = IR_BASE + node_index * NODE_SIZE
            opcode = rng.randrange(8)
            memory.store_word(address + NODE_OPCODE, opcode)
            memory.store_word(address + NODE_SRC1, rng.randrange(0, 64))
            memory.store_word(address + NODE_SRC2, rng.randrange(0, 64))
            memory.store_word(address + NODE_DEST, 0)
            if position + 1 < node_count:
                next_address = IR_BASE + order[position + 1] * NODE_SIZE
            else:
                next_address = 0
            memory.store_word(address + NODE_NEXT, next_address)
        # Record the list head where the program expects it.
        memory.store_word(IR_BASE - 8, IR_BASE + order[0] * NODE_SIZE)

        # Symbol strings: length-prefixed character arrays.
        for index in range(symbol_count):
            length = rng.randrange(3, 12)
            base = STRING_BASE + index * 16 * 8
            memory.store_word(base, length)
            for offset in range(length):
                memory.store_word(base + 8 + offset * 8, 97 + rng.randrange(26))

        # Live-register bitsets.
        for index in range(64):
            memory.store_word(BITSET_BASE + index * 8, rng.getrandbits(32))
            memory.store_word(BITSET_BASE + 0x1000 + index * 8, rng.getrandbits(32))
        return memory

    # ------------------------------------------------------------------ #
    # Program
    # ------------------------------------------------------------------ #
    def _build_program(
        self, token_count: int, node_count: int, symbol_count: int, passes: int, peephole: bool
    ) -> Program:
        from repro.isa.program import ProgramBuilder

        b = ProgramBuilder(self.name)
        r_i, r_limit, r_addr, r_tok = 1, 2, 3, 4
        r_kind, r_payload, r_cond, r_acc = 5, 6, 7, 8
        r_node, r_op, r_s1, r_s2 = 9, 10, 11, 12
        r_dest, r_tmp, r_pass, r_passes = 13, 14, 15, 16
        r_hash, r_len, r_chr, r_j = 17, 18, 19, 20
        r_base, r_depth, r_count = 21, 22, 23

        # ================= Kernel 1: token dispatch =================
        # The front end walks the token stream twice (parse, then semantic
        # analysis), as the real compiler re-traverses its input structures.
        b.li(r_pass, 0, "front-end pass")
        b.li(r_passes, 2, "front-end passes")
        fe_loop = b.label("fe_loop")
        fe_done = b.fresh_label("fe_done")
        b.slt(r_cond, r_pass, r_passes, "front-end passes left?")
        b.beq(r_cond, 0, fe_done)
        b.li(r_i, 0, "token cursor")
        b.li(r_limit, token_count, "token count")
        b.li(r_acc, 0, "parser state accumulator")
        b.li(r_depth, 0, "paren depth")
        token_loop = b.fresh_label("token_loop")
        token_done = b.fresh_label("token_done")
        b.label(token_loop)
        b.slt(r_cond, r_i, r_limit, "tokens left?")
        b.beq(r_cond, 0, token_done)
        b.sll(r_addr, r_i, 3, "token offset")
        b.addi(r_addr, r_addr, TOKEN_BASE, "token address")
        b.lw(r_tok, r_addr, 0, "token word")
        b.andi(r_kind, r_tok, 0xFF, "token kind")
        b.srl(r_payload, r_tok, 8, "token payload")

        next_token = b.fresh_label("next_token")
        # Cascaded dispatch on token kind; each arm has a distinct mix.
        kind_labels = [b.fresh_label(f"kind{k}") for k in range(TOKEN_KINDS)]
        for kind, kind_label in enumerate(kind_labels[:-1]):
            b.li(r_tmp, kind, "kind constant")
            b.seq(r_cond, r_kind, r_tmp, "kind match?")
            b.bne(r_cond, 0, kind_label)
        b.j(kind_labels[-1])

        b.label(kind_labels[0])  # identifier: symbol hash contribution
        b.sll(r_tmp, r_payload, 2, "payload << 2")
        b.xor(r_acc, r_acc, r_tmp, "mix into parser state")
        b.addi(r_count, r_count, 1, "identifier count")
        b.j(next_token)
        b.label(kind_labels[1])  # operator: arithmetic on accumulator
        b.add(r_acc, r_acc, r_payload, "acc += payload")
        b.j(next_token)
        b.label(kind_labels[2])  # literal: scale and add
        b.sll(r_tmp, r_payload, 1, "payload * 2")
        b.add(r_acc, r_acc, r_tmp, "acc += payload * 2")
        b.j(next_token)
        b.label(kind_labels[3])  # open bracket: push depth
        b.addi(r_depth, r_depth, 1, "depth++")
        b.j(next_token)
        b.label(kind_labels[4])  # close bracket: pop depth
        b.subi(r_depth, r_depth, 1, "depth--")
        b.slt(r_cond, r_depth, 0, "underflow?")
        b.beq(r_cond, 0, next_token)
        b.li(r_depth, 0, "clamp depth")
        b.j(next_token)
        b.label(kind_labels[5])  # punctuation / other
        b.ori(r_acc, r_acc, 1, "mark statement boundary")
        b.label(next_token)
        b.addi(r_i, r_i, 1, "next token")
        b.j(token_loop)
        b.label(token_done)
        b.addi(r_pass, r_pass, 1, "next front-end pass")
        b.j(fe_loop)
        b.label(fe_done)

        # ================= Kernel 2: IR passes over the insn list =================
        b.li(r_pass, 0, "pass counter")
        b.li(r_passes, passes, "pass budget")
        pass_loop = b.label("pass_loop")
        pass_done = b.fresh_label("pass_done")
        b.slt(r_cond, r_pass, r_passes, "passes left?")
        b.beq(r_cond, 0, pass_done)
        b.li(r_node, IR_BASE - 8, "address of list head")
        b.lw(r_node, r_node, 0, "head pointer")
        walk_loop = b.fresh_label("walk_loop")
        walk_done = b.fresh_label("walk_done")
        b.label(walk_loop)
        b.beq(r_node, 0, walk_done)
        b.lw(r_op, r_node, NODE_OPCODE, "node opcode")
        b.lw(r_s1, r_node, NODE_SRC1, "node src1")
        b.lw(r_s2, r_node, NODE_SRC2, "node src2")
        # Constant folding: a couple of opcode classes, others pass through.
        fold_add = b.fresh_label("fold_add")
        fold_logic = b.fresh_label("fold_logic")
        fold_shift = b.fresh_label("fold_shift")
        fold_store = b.fresh_label("fold_store")
        b.slti(r_cond, r_op, 3, "opcode < 3 -> arithmetic")
        b.bne(r_cond, 0, fold_add)
        b.slti(r_cond, r_op, 5, "opcode < 5 -> logic")
        b.bne(r_cond, 0, fold_logic)
        b.j(fold_shift)
        b.label(fold_add)
        b.add(r_dest, r_s1, r_s2, "fold: src1 + src2")
        b.j(fold_store)
        b.label(fold_logic)
        b.xor(r_dest, r_s1, r_s2, "fold: src1 ^ src2")
        b.j(fold_store)
        b.label(fold_shift)
        b.andi(r_tmp, r_s2, 7, "bounded shift amount")
        b.sllv(r_dest, r_s1, r_tmp, "fold: src1 << (src2 & 7)")
        b.label(fold_store)
        b.sw(r_dest, r_node, NODE_DEST, "write folded value")
        b.lw(r_node, r_node, NODE_NEXT, "follow next pointer")
        b.j(walk_loop)
        b.label(walk_done)

        # Optional peephole kernel: bitset AND/OR scan (register allocation).
        if peephole:
            b.li(r_j, 0, "bitset index")
            b.li(r_tmp, 64, "bitset words")
            peep_loop = b.fresh_label("peep_loop")
            peep_done = b.fresh_label("peep_done")
            b.label(peep_loop)
            b.slt(r_cond, r_j, r_tmp, "bitset words left?")
            b.beq(r_cond, 0, peep_done)
            b.sll(r_addr, r_j, 3, "bitset offset")
            b.addi(r_addr, r_addr, BITSET_BASE, "live set address")
            b.lw(r_s1, r_addr, 0, "live set word")
            b.lw(r_s2, r_addr, 0x1000, "use set word")
            b.and_(r_dest, r_s1, r_s2, "live & use")
            b.or_(r_s1, r_s1, r_s2, "live | use")
            b.sw(r_s1, r_addr, 0, "write back merged set")
            b.nor(r_dest, r_dest, 0, "complement for kill set")
            b.addi(r_j, r_j, 1, "next word")
            b.j(peep_loop)
            b.label(peep_done)

        b.addi(r_pass, r_pass, 1, "pass++")
        b.j(pass_loop)
        b.label(pass_done)

        # ================= Kernel 3: symbol-table hashing =================
        # Symbols are looked up repeatedly across compilation phases; model
        # this with two hashing sweeps over the symbol strings.
        b.li(r_pass, 0, "symbol pass")
        b.li(r_passes, 2, "symbol passes")
        symp_loop = b.label("symp_loop")
        symp_done = b.fresh_label("symp_done")
        b.slt(r_cond, r_pass, r_passes, "symbol passes left?")
        b.beq(r_cond, 0, symp_done)
        b.li(r_i, 0, "symbol index")
        b.li(r_limit, symbol_count, "symbol count")
        sym_loop = b.fresh_label("sym_loop")
        sym_done = b.fresh_label("sym_done")
        b.label(sym_loop)
        b.slt(r_cond, r_i, r_limit, "symbols left?")
        b.beq(r_cond, 0, sym_done)
        b.sll(r_base, r_i, 7, "string slot offset (16 words)")
        b.addi(r_base, r_base, STRING_BASE, "string base address")
        b.lw(r_len, r_base, 0, "string length")
        b.li(r_hash, 5381, "djb2 seed")
        b.li(r_j, 0, "character index")
        chr_loop = b.fresh_label("chr_loop")
        chr_done = b.fresh_label("chr_done")
        b.label(chr_loop)
        b.slt(r_cond, r_j, r_len, "chars left?")
        b.beq(r_cond, 0, chr_done)
        b.sll(r_addr, r_j, 3, "char offset")
        b.add(r_addr, r_addr, r_base, "char address")
        b.lw(r_chr, r_addr, 8, "load character")
        b.sll(r_tmp, r_hash, 5, "hash << 5")
        b.add(r_hash, r_hash, r_tmp, "hash * 33")
        b.add(r_hash, r_hash, r_chr, "+ character")
        b.addi(r_j, r_j, 1, "next character")
        b.j(chr_loop)
        b.label(chr_done)
        b.andi(r_tmp, r_hash, 0x3FF, "bucket index")
        b.sll(r_tmp, r_tmp, 3, "bucket offset")
        b.addi(r_addr, r_tmp, SYMTAB_BASE, "bucket address")
        b.lw(r_s1, r_addr, 0, "bucket occupancy")
        b.addi(r_s1, r_s1, 1, "increment bucket count")
        b.sw(r_s1, r_addr, 0, "write bucket count")
        b.addi(r_i, r_i, 1, "next symbol")
        b.j(sym_loop)
        b.label(sym_done)
        b.addi(r_pass, r_pass, 1, "next symbol pass")
        b.j(symp_loop)
        b.label(symp_done)
        b.halt()
        return b.build()
