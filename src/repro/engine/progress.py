"""Progress reporting for engine runs.

The engine emits coarse-grained events (phase boundaries, one event per
completed work unit, a final summary).  :class:`NullProgress` swallows them
(the library default); :class:`ConsoleProgress` renders a compact live log
to a stream (the CLI uses stderr, keeping stdout clean for result tables).
"""

from __future__ import annotations

import sys
from typing import TextIO


class ProgressListener:
    """No-op base class; subclass and override what you need."""

    def phase_started(self, phase: str, total_tasks: int, cached_tasks: int) -> None:
        """A phase begins: ``total_tasks`` overall, ``cached_tasks`` already warm."""

    def task_finished(self, phase: str, label: str, cached: bool) -> None:
        """One work unit completed (or was served from cache)."""

    def campaign_finished(self, stats) -> None:
        """The whole campaign completed; ``stats`` is an ``EngineStats``."""


class NullProgress(ProgressListener):
    """Silent listener."""


class ConsoleProgress(ProgressListener):
    """Line-per-event progress log, suitable for interactive CLI runs.

    Counts are kept per phase: a cold trace is collected by its simulate
    unit, so its trace task finishes while the simulate phase runs.
    """

    def __init__(self, stream: TextIO | None = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._done: dict[str, int] = {}
        self._total: dict[str, int] = {}

    def _emit(self, message: str) -> None:
        print(message, file=self.stream, flush=True)

    def phase_started(self, phase: str, total_tasks: int, cached_tasks: int) -> None:
        self._done[phase] = 0
        self._total[phase] = total_tasks
        self._emit(
            f"[{phase}] {total_tasks} task(s), {cached_tasks} cached, "
            f"{total_tasks - cached_tasks} to run"
        )

    def task_finished(self, phase: str, label: str, cached: bool) -> None:
        self._done[phase] = self._done.get(phase, 0) + 1
        source = "cache" if cached else "computed"
        self._emit(
            f"[{phase}] {self._done[phase]}/{self._total.get(phase, 0)} {label} ({source})"
        )

    def campaign_finished(self, stats) -> None:
        line = (
            f"[done] traces {stats.traces_computed} computed / {stats.traces_cached} cached; "
            f"simulations {stats.simulations_computed} computed / "
            f"{stats.simulations_cached} cached; {stats.total_seconds:.2f}s"
        )
        # Phase timing and cache traffic exist on EngineStats since the
        # telemetry layer landed; getattr keeps older stats objects valid.
        trace_seconds = getattr(stats, "trace_seconds", 0.0)
        simulate_seconds = getattr(stats, "simulate_seconds", 0.0)
        if trace_seconds or simulate_seconds:
            line += f" (trace {trace_seconds:.2f}s, simulate {simulate_seconds:.2f}s)"
        hit_bytes = getattr(stats, "cache_hit_bytes", 0)
        write_bytes = getattr(stats, "cache_write_bytes", 0)
        if hit_bytes or write_bytes:
            line += f"; cache {hit_bytes} B read, {write_bytes} B written"
        self._emit(line)
