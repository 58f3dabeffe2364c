"""Synthetic ``130.li`` (xlisp) workload: cons cells, recursion and GC.

The xlisp interpreter running the 7-queens script spends its time allocating
cons cells, recursing over list structures, and periodically garbage
collecting the heap with a mark phase that chases pointers.  The synthetic
version reproduces those kernels:

* cons-cell allocation from a bump pointer (stride address values),
* building and walking list structures with an explicit recursion stack,
* an N-queens style backtracking search driving the allocation, and
* a mark-phase GC walk that chases car/cdr pointers (non-stride loads).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.workloads.base import Workload

if TYPE_CHECKING:  # the ISA loads when the workload is built
    from repro.isa.memory import SparseMemory
    from repro.isa.program import Program

HEAP_BASE = 0x10_0000
STACK_BASE = 0x1_0000
MARK_BASE = 0x40_0000
BOARD_BASE = 0x2_0000

#: A cons cell is two words: car (value or pointer) and cdr (pointer).
CELL_SIZE = 16


class XlispWorkload(Workload):
    """Cons allocation, list recursion, backtracking search and GC marking."""

    name = "xlisp"
    description = "cons allocation, n-queens backtracking, mark-phase GC"
    input_sets = ("7-queens", "6-queens")
    flag_sets = ("ref",)
    base_dynamic_instructions = 45_000

    #: (board size, GC trigger in cells, solutions searched) per input set.
    _SHAPE = {"7-queens": (7, 48, 5), "6-queens": (6, 32, 3)}

    def build(self, scale: float, input_name: str, flags: str) -> tuple[Program, SparseMemory]:
        board, gc_trigger, budget = self._SHAPE[input_name]
        # Scale controls how deep into the solution space the search runs.
        budget = self.scaled(budget, scale, minimum=1)
        from repro.isa.memory import SparseMemory

        memory = SparseMemory()
        program = self._build_program(board, gc_trigger, budget)
        return program, memory

    def _build_program(self, board: int, gc_trigger: int, solution_budget: int) -> Program:
        from repro.isa.program import ProgramBuilder

        b = ProgramBuilder(self.name)
        r_row, r_board, r_col, r_addr = 1, 2, 3, 4
        r_cond, r_tmp, r_qcol, r_diff = 5, 6, 7, 8
        r_i, r_ok, r_heap, r_cell = 9, 10, 11, 12
        r_sp, r_solutions, r_allocs, r_trigger = 13, 14, 15, 16
        r_ptr, r_mark, r_car, r_cdr = 17, 18, 19, 20
        r_lastcell, r_budget, r_marked = 21, 22, 23

        b.li(r_row, 0, "current row")
        b.li(r_board, board, "board size")
        b.li(r_heap, HEAP_BASE, "heap bump pointer")
        b.li(r_sp, STACK_BASE, "recursion stack pointer")
        b.li(r_solutions, 0, "solutions found")
        b.li(r_allocs, 0, "cells allocated since last GC")
        b.li(r_trigger, gc_trigger, "GC trigger")
        b.li(r_lastcell, 0, "most recent cons cell")
        b.li(r_budget, solution_budget, "solutions to search for")
        # board[row] = column of the queen in that row; start at column 0.
        b.li(r_col, 0, "first column to try")

        place_row = b.label("place_row")
        done = b.fresh_label("done")
        backtrack = b.fresh_label("backtrack")

        # If we've placed queens on all rows, record a solution and backtrack.
        b.slt(r_cond, r_row, r_board, "rows remaining?")
        solution = b.fresh_label("solution")
        b.beq(r_cond, 0, solution)

        try_column = b.fresh_label("try_column")
        b.label(try_column)
        b.slt(r_cond, r_col, r_board, "columns left in this row?")
        b.beq(r_cond, 0, backtrack)

        # --- conflict check against all previously placed rows ---------------
        b.li(r_i, 0, "conflict-scan row")
        b.li(r_ok, 1, "assume placement is safe")
        conflict_loop = b.fresh_label("conflict_loop")
        conflict_done = b.fresh_label("conflict_done")
        b.label(conflict_loop)
        b.slt(r_cond, r_i, r_row, "placed rows left to check?")
        b.beq(r_cond, 0, conflict_done)
        b.sll(r_addr, r_i, 3, "board offset")
        b.addi(r_addr, r_addr, BOARD_BASE, "board address")
        b.lw(r_qcol, r_addr, 0, "column of queen in row i")
        b.seq(r_cond, r_qcol, r_col, "same column?")
        conflict = b.fresh_label("conflict")
        b.bne(r_cond, 0, conflict)
        b.sub(r_diff, r_col, r_qcol, "column distance")
        b.sub(r_tmp, r_row, r_i, "row distance")
        b.seq(r_cond, r_diff, r_tmp, "same rising diagonal?")
        b.bne(r_cond, 0, conflict)
        b.sub(r_diff, r_qcol, r_col, "negative column distance")
        b.seq(r_cond, r_diff, r_tmp, "same falling diagonal?")
        b.bne(r_cond, 0, conflict)
        b.addi(r_i, r_i, 1, "next placed row")
        b.j(conflict_loop)
        b.label(conflict)
        b.li(r_ok, 0, "placement conflicts")
        b.label(conflict_done)

        advance_col = b.fresh_label("advance_col")
        b.beq(r_ok, 0, advance_col)

        # --- safe placement: cons a cell recording (row, col) ----------------
        b.sll(r_addr, r_row, 3, "board offset")
        b.addi(r_addr, r_addr, BOARD_BASE, "board address")
        b.sw(r_col, r_addr, 0, "board[row] = col")
        # cons cell: car = row*16 + col, cdr = previous cell pointer.
        b.mov(r_cell, r_heap, "new cell address")
        b.sll(r_tmp, r_row, 4, "row * 16")
        b.add(r_tmp, r_tmp, r_col, "encode (row, col)")
        b.sw(r_tmp, r_cell, 0, "car = encoded placement")
        b.sw(r_lastcell, r_cell, 8, "cdr = previous cell")
        b.mov(r_lastcell, r_cell, "remember newest cell")
        b.addi(r_heap, r_heap, CELL_SIZE, "bump heap pointer")
        b.addi(r_allocs, r_allocs, 1, "count allocation")

        # Maybe run a GC mark phase.
        no_gc = b.fresh_label("no_gc")
        b.slt(r_cond, r_allocs, r_trigger, "below GC trigger?")
        b.bne(r_cond, 0, no_gc)
        # --- mark phase: chase cdr pointers from the newest cell -------------
        b.mov(r_ptr, r_lastcell, "mark cursor")
        b.li(r_marked, 0, "cells marked this collection")
        mark_loop = b.fresh_label("mark_loop")
        mark_done = b.fresh_label("mark_done")
        b.label(mark_loop)
        b.beq(r_ptr, 0, mark_done)
        b.slt(r_cond, r_marked, r_trigger, "mark budget left?")
        b.beq(r_cond, 0, mark_done)
        b.addi(r_marked, r_marked, 1, "count marked cell")
        b.lw(r_car, r_ptr, 0, "load car")
        b.lw(r_cdr, r_ptr, 8, "load cdr")
        b.sub(r_tmp, r_ptr, 0, "cell address")
        b.srl(r_tmp, r_tmp, 4, "cell index")
        b.andi(r_tmp, r_tmp, 0xFFFF, "bounded mark index")
        b.sll(r_tmp, r_tmp, 3, "mark offset")
        b.addi(r_tmp, r_tmp, MARK_BASE, "mark bitmap address")
        b.ori(r_mark, r_car, 1, "mark value (tagged car)")
        b.sw(r_mark, r_tmp, 0, "set mark")
        b.mov(r_ptr, r_cdr, "follow cdr")
        b.j(mark_loop)
        b.label(mark_done)
        b.li(r_allocs, 0, "reset allocation counter")
        b.label(no_gc)

        # Recurse: push (row, col) and descend to the next row.
        b.sw(r_row, r_sp, 0, "push row")
        b.sw(r_col, r_sp, 8, "push col")
        b.addi(r_sp, r_sp, 16, "grow recursion stack")
        b.addi(r_row, r_row, 1, "next row")
        b.li(r_col, 0, "start at column 0")
        b.j(place_row)

        # --- advance to the next column in this row ---------------------------
        b.label(advance_col)
        b.addi(r_col, r_col, 1, "next column")
        b.j(try_column)

        # --- a full solution was found -----------------------------------------
        b.label(solution)
        b.addi(r_solutions, r_solutions, 1, "count solution")
        b.slt(r_cond, r_solutions, r_budget, "keep searching?")
        b.beq(r_cond, 0, done)
        b.j(backtrack)

        # --- backtrack: pop the last placement and advance its column ----------
        b.label(backtrack)
        b.li(r_tmp, STACK_BASE, "stack floor")
        b.sne(r_cond, r_sp, r_tmp, "anything to pop?")
        b.beq(r_cond, 0, done)
        b.subi(r_sp, r_sp, 16, "pop frame")
        b.lw(r_row, r_sp, 0, "restore row")
        b.lw(r_col, r_sp, 8, "restore col")
        b.addi(r_col, r_col, 1, "advance past the popped column")
        b.j(try_column)

        b.label(done)
        b.sw(r_solutions, 0, BOARD_BASE + 0x800, "store solution count")
        b.halt()
        return b.build()
