"""Synthetic ``132.ijpeg`` workload: block transform and quantisation kernels.

ijpeg spends its time in highly structured nested loops over 8x8 pixel
blocks: forward DCT butterflies, quantisation, and zig-zag reordering.  The
address streams are strides and the loop bookkeeping is extremely regular,
which is why the paper observes comparatively high computational-predictor
accuracy for ijpeg.  The synthetic version walks an image block by block and
applies a butterfly transform, a divide-based quantisation step and an
accumulation pass per block.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.workloads.base import Workload

if TYPE_CHECKING:  # the ISA loads when the workload is built
    from repro.isa.memory import SparseMemory
    from repro.isa.program import Program

IMAGE_BASE = 0x1_0000
COEFF_BASE = 0x20_0000
QUANT_BASE = 0x30_0000
OUTPUT_BASE = 0x40_0000

#: Square block edge (JPEG uses 8).
BLOCK = 8
BLOCK_PIXELS = BLOCK * BLOCK


class IjpegWorkload(Workload):
    """8x8 block transforms, quantisation and entropy-style accumulation."""

    name = "ijpeg"
    description = "blocked image transform, quantisation and accumulation"
    input_sets = ("specmun", "vigo", "penguin")
    flag_sets = ("ref",)
    base_dynamic_instructions = 48_000

    #: Image dimension in blocks per input set (image is square).
    _BLOCKS = {"specmun": 4, "vigo": 3, "penguin": 5}
    #: Quality settings the image is compressed at.  The SPEC reference run
    #: compresses the same image at several quality/smoothing settings, which
    #: is exactly what makes its kernels revisit the same pixel data.
    _QUALITY_PASSES = 2

    def build(self, scale: float, input_name: str, flags: str) -> tuple[Program, SparseMemory]:
        blocks_per_side = self._BLOCKS[input_name]
        total_blocks = self.scaled(blocks_per_side * blocks_per_side, scale, minimum=4)
        memory = self._build_memory(total_blocks, input_name)
        program = self._build_program(total_blocks, self._QUALITY_PASSES)
        return program, memory

    def _build_memory(self, total_blocks: int, input_name: str) -> SparseMemory:
        from repro.isa.memory import SparseMemory

        memory = SparseMemory()
        rng = self.rng(seed=0x1D + len(input_name))
        # Pixel data: smooth gradients plus noise, as in natural images.
        for block in range(total_blocks):
            base = IMAGE_BASE + block * BLOCK_PIXELS * 8
            dc = rng.randrange(40, 200)
            for pixel in range(BLOCK_PIXELS):
                row, col = divmod(pixel, BLOCK)
                value = dc + row * 2 + col + rng.randrange(-4, 5)
                memory.store_word(base + pixel * 8, max(0, min(255, value)))
        # Quantisation table: the standard luminance-style increasing steps.
        for pixel in range(BLOCK_PIXELS):
            row, col = divmod(pixel, BLOCK)
            memory.store_word(QUANT_BASE + pixel * 8, 4 + row + col)
        return memory

    def _build_program(self, total_blocks: int, quality_passes: int) -> Program:
        from repro.isa.program import ProgramBuilder

        b = ProgramBuilder(self.name)
        r_block, r_blocks, r_pixel, r_addr = 1, 2, 3, 4
        r_value, r_pair, r_sum, r_diff = 5, 6, 7, 8
        r_quant, r_coeff, r_cond, r_tmp = 9, 10, 11, 12
        r_base, r_outbase, r_acc, r_nonzero = 13, 14, 15, 16
        r_row, r_col, r_quality, r_passes = 17, 18, 19, 20

        b.li(r_blocks, total_blocks, "total blocks")
        b.li(r_quality, 0, "quality pass")
        b.li(r_passes, quality_passes, "quality passes")

        quality_loop = b.label("quality_loop")
        quality_done = b.fresh_label("quality_done")
        b.slt(r_cond, r_quality, r_passes, "quality passes left?")
        b.beq(r_cond, 0, quality_done)
        b.li(r_block, 0, "block counter")

        block_loop = b.fresh_label("block_loop")
        block_done = b.fresh_label("block_done")
        b.label(block_loop)
        b.slt(r_cond, r_block, r_blocks, "blocks left?")
        b.beq(r_cond, 0, block_done)
        b.li(r_tmp, BLOCK_PIXELS * 8, "block stride in bytes")
        b.mult(r_base, r_block, r_tmp, "block offset")
        b.addi(r_base, r_base, IMAGE_BASE, "block base address")
        b.mult(r_outbase, r_block, r_tmp, "output block offset")
        b.addi(r_outbase, r_outbase, COEFF_BASE, "coefficient base address")

        # --- butterfly pass: combine pixel pairs across the block ------------
        b.li(r_pixel, 0, "pixel index")
        b.li(r_tmp, BLOCK_PIXELS // 2, "pairs per block")
        bfly_loop = b.fresh_label("bfly_loop")
        bfly_done = b.fresh_label("bfly_done")
        b.label(bfly_loop)
        b.slt(r_cond, r_pixel, r_tmp, "pairs left?")
        b.beq(r_cond, 0, bfly_done)
        b.sll(r_addr, r_pixel, 3, "pixel offset")
        b.add(r_addr, r_addr, r_base, "pixel address")
        b.lw(r_value, r_addr, 0, "pixel p")
        b.lw(r_pair, r_addr, (BLOCK_PIXELS // 2) * 8, "mirror pixel q")
        b.add(r_sum, r_value, r_pair, "p + q")
        b.sub(r_diff, r_value, r_pair, "p - q")
        b.sra(r_sum, r_sum, 1, "(p + q) >> 1")
        b.sll(r_addr, r_pixel, 3, "coefficient offset")
        b.add(r_addr, r_addr, r_outbase, "coefficient address")
        b.sw(r_sum, r_addr, 0, "low-band coefficient")
        b.sw(r_diff, r_addr, (BLOCK_PIXELS // 2) * 8, "high-band coefficient")
        b.addi(r_pixel, r_pixel, 1, "next pair")
        b.j(bfly_loop)
        b.label(bfly_done)

        # --- quantisation pass -------------------------------------------------
        b.li(r_pixel, 0, "coefficient index")
        b.li(r_tmp, BLOCK_PIXELS, "coefficients per block")
        b.li(r_acc, 0, "block energy accumulator")
        b.li(r_nonzero, 0, "non-zero coefficient count")
        quant_loop = b.fresh_label("quant_loop")
        quant_done = b.fresh_label("quant_done")
        b.label(quant_loop)
        b.slt(r_cond, r_pixel, r_tmp, "coefficients left?")
        b.beq(r_cond, 0, quant_done)
        b.sll(r_addr, r_pixel, 3, "coefficient offset")
        b.add(r_addr, r_addr, r_outbase, "coefficient address")
        b.lw(r_coeff, r_addr, 0, "coefficient")
        b.sll(r_row, r_pixel, 3, "quant offset")
        b.addi(r_row, r_row, QUANT_BASE, "quant address")
        b.lw(r_quant, r_row, 0, "quant step")
        b.add(r_quant, r_quant, r_quality, "scale step by quality pass")
        b.div(r_coeff, r_coeff, r_quant, "quantise")
        b.sw(r_coeff, r_addr, 0, "write quantised coefficient")
        b.sne(r_cond, r_coeff, 0, "non-zero?")
        b.add(r_nonzero, r_nonzero, r_cond, "count non-zero coefficients")
        b.mult(r_col, r_coeff, r_coeff, "coefficient energy")
        b.add(r_acc, r_acc, r_col, "accumulate energy")
        b.addi(r_pixel, r_pixel, 1, "next coefficient")
        b.j(quant_loop)
        b.label(quant_done)

        # --- per-block summary (entropy-coder stand-in) -------------------------
        b.sll(r_addr, r_block, 3, "summary offset")
        b.addi(r_addr, r_addr, OUTPUT_BASE, "summary address")
        b.sll(r_tmp, r_nonzero, 16, "pack count")
        b.or_(r_tmp, r_tmp, r_acc, "pack energy")
        b.sw(r_tmp, r_addr, 0, "store block summary")
        b.addi(r_block, r_block, 1, "next block")
        b.j(block_loop)
        b.label(block_done)
        b.addi(r_quality, r_quality, 1, "next quality pass")
        b.j(quality_loop)
        b.label(quality_done)
        b.halt()
        return b.build()
