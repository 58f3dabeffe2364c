"""Workload abstraction shared by the seven synthetic benchmarks.

A workload knows how to build a :class:`Program` plus its initial memory
image for a given *input set*, *flags* setting and *scale* factor, and how to
run itself into a :class:`ValueTrace`.  Scale multiplies the loop trip counts
of the workload's kernels, so the dynamic instruction count grows roughly
linearly with it while the static program stays fixed — the same property the
original benchmarks have when given larger inputs.
"""

from __future__ import annotations

import abc
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import WorkloadError

if TYPE_CHECKING:  # the interpreter and collector load when a workload runs
    from repro.isa.machine import ExecutionResult
    from repro.isa.memory import SparseMemory
    from repro.isa.program import Program
    from repro.trace.stream import ValueTrace


@dataclass
class WorkloadRun:
    """The outcome of executing a workload once."""

    workload: str
    input_name: str
    flags: str
    scale: float
    trace: ValueTrace
    execution: ExecutionResult


class Workload(abc.ABC):
    """Base class for the synthetic SPEC95int workloads.

    Subclasses define:

    * :attr:`name` — the benchmark name used in the paper's tables.
    * :attr:`input_sets` — the named inputs the workload accepts (gcc has
      five, matching Table 6; the others have at least a ``ref`` and a
      ``test`` input).
    * :attr:`flag_sets` — named "compiler flag" settings (gcc has four,
      matching Table 7).
    * :meth:`build` — produce the program and its initial memory image.
    """

    #: Benchmark name (matches the paper's tables, e.g. ``"compress"``).
    name: str = "workload"
    #: Short description of the kernels the workload models.
    description: str = ""
    #: Named input sets; the first is the default ("reference") input.
    input_sets: tuple[str, ...] = ("ref",)
    #: Named flag settings; the first is the default.
    flag_sets: tuple[str, ...] = ("ref",)
    #: Baseline dynamic-instruction budget at scale=1.0 (approximate).
    base_dynamic_instructions: int = 50_000

    # ------------------------------------------------------------------ #
    # Required subclass hook
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def build(self, scale: float, input_name: str, flags: str) -> tuple[Program, SparseMemory]:
        """Return the program and initial memory for one configuration."""

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(
        self,
        scale: float = 1.0,
        input_name: str | None = None,
        flags: str | None = None,
        max_instructions: int | None = None,
    ) -> WorkloadRun:
        """Build, execute and trace the workload."""
        input_name = self.validate_input(input_name)
        flags = self.validate_flags(flags)
        if not (math.isfinite(scale) and scale > 0):
            raise WorkloadError(f"{self.name}: scale must be positive and finite, got {scale}")
        from repro.trace.collector import collect_trace

        program, memory = self.build(scale, input_name, flags)
        trace, execution = collect_trace(program, memory=memory, max_instructions=max_instructions)
        return WorkloadRun(
            workload=self.name,
            input_name=input_name,
            flags=flags,
            scale=scale,
            trace=trace,
            execution=execution,
        )

    def trace(self, scale: float = 1.0, input_name: str | None = None, flags: str | None = None) -> ValueTrace:
        """Convenience wrapper returning only the value trace."""
        return self.run(scale=scale, input_name=input_name, flags=flags).trace

    # ------------------------------------------------------------------ #
    # Parameter validation helpers
    # ------------------------------------------------------------------ #
    def validate_input(self, input_name: str | None) -> str:
        if input_name is None:
            return self.input_sets[0]
        if input_name not in self.input_sets:
            raise WorkloadError(
                f"{self.name}: unknown input {input_name!r}; expected one of {self.input_sets}"
            )
        return input_name

    def validate_flags(self, flags: str | None) -> str:
        if flags is None:
            return self.flag_sets[0]
        if flags not in self.flag_sets:
            raise WorkloadError(
                f"{self.name}: unknown flags {flags!r}; expected one of {self.flag_sets}"
            )
        return flags

    # ------------------------------------------------------------------ #
    # Shared helpers for subclasses
    # ------------------------------------------------------------------ #
    @staticmethod
    def rng(seed: int) -> random.Random:
        """A deterministic PRNG for generating synthetic input data."""
        return random.Random(seed)

    @staticmethod
    def scaled(count: int, scale: float, minimum: int = 1) -> int:
        """Scale a loop trip count, never dropping below ``minimum``."""
        return max(minimum, int(round(count * scale)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
