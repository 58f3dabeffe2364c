"""Synthetic ``099.go`` workload: board-scanning and evaluation kernels.

The real go program repeatedly scans a 19x19 board, counts neighbouring
stones and liberties, hashes local patterns and scores candidate moves.  Its
data-dependent control flow and wide value ranges make it one of the harder
SPEC95int programs for value prediction, a property the synthetic version
reproduces by evaluating many distinct positions whose cell values change
between scans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.workloads.base import Workload

if TYPE_CHECKING:  # the ISA loads when the workload is built
    from repro.isa.memory import SparseMemory
    from repro.isa.program import Program

BOARD_BASE = 0x1_0000
SCORE_BASE = 0x8_0000
PATTERN_BASE = 0xA_0000

#: Board edge length (the real game uses 19).
BOARD_SIZE = 19
BOARD_CELLS = BOARD_SIZE * BOARD_SIZE


class GoWorkload(Workload):
    """Board scans, neighbour counting, liberty estimation, pattern hashing."""

    name = "go"
    description = "19x19 board scans with neighbour counts and pattern hashing"
    input_sets = ("ref", "test")
    flag_sets = ("ref",)
    base_dynamic_instructions = 55_000

    #: Number of candidate positions evaluated at scale = 1.0.  Each position
    #: evaluation scans the full 361-cell board, so a handful of positions is
    #: already tens of thousands of dynamic instructions.
    _POSITIONS = {"ref": 4, "test": 2}

    def build(self, scale: float, input_name: str, flags: str) -> tuple[Program, SparseMemory]:
        # At least two positions are always evaluated: successive board scans
        # are what give go its (limited) context-predictable repetition.
        positions = self.scaled(self._POSITIONS[input_name], scale, minimum=2)
        memory = self._build_memory(input_name)
        program = self._build_program(positions)
        return program, memory

    def _build_memory(self, input_name: str) -> SparseMemory:
        from repro.isa.memory import SparseMemory

        memory = SparseMemory()
        rng = self.rng(seed=0x60 + len(input_name))
        # Board cells: 0 empty, 1 black, 2 white with realistic density.
        for cell in range(BOARD_CELLS):
            roll = rng.random()
            if roll < 0.42:
                stone = 0
            elif roll < 0.72:
                stone = 1
            else:
                stone = 2
            memory.store_word(BOARD_BASE + cell * 8, stone)
        # Zobrist-style pattern keys.
        for cell in range(BOARD_CELLS):
            memory.store_word(PATTERN_BASE + cell * 8, rng.getrandbits(31))
        return memory

    def _build_program(self, positions: int) -> Program:
        from repro.isa.program import ProgramBuilder

        b = ProgramBuilder(self.name)
        r_pos, r_positions, r_cell, r_cells = 1, 2, 3, 4
        r_addr, r_stone, r_cond, r_tmp = 5, 6, 7, 8
        r_neighbors, r_liberties, r_score, r_hash = 9, 10, 11, 12
        r_row, r_col, r_friend, r_enemy = 13, 14, 15, 16
        r_key, r_turn, r_best, r_bestcell = 17, 18, 19, 20

        b.li(r_pos, 0, "position counter")
        b.li(r_positions, positions, "positions to evaluate")
        b.li(r_cells, BOARD_CELLS, "board cells")
        b.li(r_turn, 1, "side to move")

        pos_loop = b.label("pos_loop")
        pos_done = b.fresh_label("pos_done")
        b.slt(r_cond, r_pos, r_positions, "positions left?")
        b.beq(r_cond, 0, pos_done)
        b.li(r_best, -1_000_000, "best score so far")
        b.li(r_bestcell, 0, "best cell so far")
        b.li(r_hash, 0, "position hash")
        b.li(r_cell, 0, "cell cursor")

        cell_loop = b.fresh_label("cell_loop")
        cell_done = b.fresh_label("cell_done")
        b.label(cell_loop)
        b.slt(r_cond, r_cell, r_cells, "cells left?")
        b.beq(r_cond, 0, cell_done)
        b.sll(r_addr, r_cell, 3, "cell offset")
        b.addi(r_addr, r_addr, BOARD_BASE, "cell address")
        b.lw(r_stone, r_addr, 0, "stone at cell")

        # Pattern hash is accumulated for every occupied cell.
        skip_hash = b.fresh_label("skip_hash")
        b.beq(r_stone, 0, skip_hash)
        b.sll(r_tmp, r_cell, 3, "pattern offset")
        b.addi(r_tmp, r_tmp, PATTERN_BASE, "pattern address")
        b.lw(r_key, r_tmp, 0, "zobrist key")
        b.xor(r_hash, r_hash, r_key, "hash ^= key")
        b.label(skip_hash)

        # Only empty cells are candidate moves.
        next_cell = b.fresh_label("next_cell")
        b.bne(r_stone, 0, next_cell)

        # Row/column decomposition (div/rem keep MultDiv modestly represented).
        b.li(r_tmp, BOARD_SIZE, "board size")
        b.div(r_row, r_cell, r_tmp, "row = cell / size")
        b.rem(r_col, r_cell, r_tmp, "col = cell % size")

        # Count the four orthogonal neighbours.
        b.li(r_neighbors, 0, "neighbour stones")
        b.li(r_liberties, 0, "empty neighbours")
        b.li(r_friend, 0, "friendly neighbours")
        b.li(r_enemy, 0, "enemy neighbours")
        for delta, guard_reg, guard_value, direction in (
            (-BOARD_SIZE, r_row, 0, "north"),
            (BOARD_SIZE, r_row, BOARD_SIZE - 1, "south"),
            (-1, r_col, 0, "west"),
            (1, r_col, BOARD_SIZE - 1, "east"),
        ):
            skip = b.fresh_label(f"skip_{direction}")
            b.li(r_tmp, guard_value, f"{direction} edge value")
            b.seq(r_cond, guard_reg, r_tmp, f"on {direction} edge?")
            b.bne(r_cond, 0, skip)
            b.addi(r_tmp, r_cell, delta, f"{direction} neighbour index")
            b.sll(r_tmp, r_tmp, 3, "neighbour offset")
            b.addi(r_tmp, r_tmp, BOARD_BASE, "neighbour address")
            b.lw(r_tmp, r_tmp, 0, "neighbour stone")
            b.seq(r_cond, r_tmp, 0, "neighbour empty?")
            b.add(r_liberties, r_liberties, r_cond, "liberties += empty")
            b.sne(r_cond, r_tmp, 0, "neighbour occupied?")
            b.add(r_neighbors, r_neighbors, r_cond, "neighbours += occupied")
            b.seq(r_cond, r_tmp, r_turn, "friendly neighbour?")
            b.add(r_friend, r_friend, r_cond, "friends += match")
            b.label(skip)
        b.sub(r_enemy, r_neighbors, r_friend, "enemies = occupied - friends")

        # Score the move: liberties weigh positively, enemy walls negatively,
        # with a pattern-dependent pseudo-random tweak from the hash.
        b.sll(r_score, r_liberties, 4, "liberties * 16")
        b.sll(r_tmp, r_friend, 2, "friends * 4")
        b.add(r_score, r_score, r_tmp, "score += friends * 4")
        b.sll(r_tmp, r_enemy, 3, "enemies * 8")
        b.sub(r_score, r_score, r_tmp, "score -= enemies * 8")
        b.andi(r_tmp, r_hash, 0xF, "hash tweak")
        b.add(r_score, r_score, r_tmp, "score += tweak")

        better = b.fresh_label("better")
        b.slt(r_cond, r_best, r_score, "new best?")
        b.bne(r_cond, 0, better)
        b.j(next_cell)
        b.label(better)
        b.mov(r_best, r_score, "record best score")
        b.mov(r_bestcell, r_cell, "record best cell")
        b.label(next_cell)
        b.addi(r_cell, r_cell, 1, "next cell")
        b.j(cell_loop)
        b.label(cell_done)

        # Play the chosen move and flip the side to move.
        b.sll(r_addr, r_bestcell, 3, "chosen cell offset")
        b.addi(r_addr, r_addr, BOARD_BASE, "chosen cell address")
        b.sw(r_turn, r_addr, 0, "place stone")
        b.sll(r_tmp, r_pos, 3, "score log offset")
        b.addi(r_tmp, r_tmp, SCORE_BASE, "score log address")
        b.sw(r_best, r_tmp, 0, "log best score")
        b.li(r_tmp, 3, "colour flip constant")
        b.sub(r_turn, r_tmp, r_turn, "swap side to move (1 <-> 2)")
        b.addi(r_pos, r_pos, 1, "next position")
        b.j(pos_loop)
        b.label(pos_done)
        b.halt()
        return b.build()
