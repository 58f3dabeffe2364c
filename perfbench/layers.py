"""Traced ``repro-vp`` run: time every layer from outside the program.

Usage::

    python3 perfbench/layers.py LEDGER.json -- <repro-vp arguments>

The program is imported as installed on ``PYTHONPATH``; this file wraps
the public entry point of each layer (the functions the layer above
calls), runs the CLI in-process and writes the ledger as JSON.  Nothing
under ``src/`` is instrumented.

Every wrapper records a span.  A layer's time is its *self* time: the
span's duration minus the spans nested in it, so the layer times of one
process partition its wall.  A process-pool backend forks its workers
from this process, so they inherit the wrappers.  Each worker ships the
ledger of one task back inside the engine's ``__telemetry__`` sidecar,
and the parent adds it to its own ledger divided by the number of workers
the dispatch kept busy at once: its share of the dispatch's wall.  The
undivided figures are kept as busy time.
"""

from __future__ import annotations

import copy
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

#: Key under which a forked worker's ledger rides in the telemetry sidecar.
SIDECAR_KEY = "perfbench.ledger"


class Ledger:
    """Self times, busy times and counts of the spans of one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: Self seconds per layer, worker time counted as wall share.
        self.seconds: dict[str, float] = defaultdict(float)
        #: Self seconds per layer, worker time counted in full.
        self.busy: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [layer, start, nested seconds]

    def enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def leave(self) -> float:
        layer, start, nested = self._stack.pop()
        duration = time.perf_counter() - start
        self.seconds[layer] += duration - nested
        self.busy[layer] += duration - nested
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def inside(self, layer: str) -> bool:
        return any(frame[0] == layer for frame in self._stack)

    def move(self, seconds: float, source: str, target: str) -> None:
        """Re-attribute ``seconds`` of already recorded self time."""
        for table in (self.seconds, self.busy):
            table[source] -= seconds
            table[target] += seconds

    def take(self) -> dict:
        """Hand over everything recorded so far and start empty."""
        snapshot = {"seconds": dict(self.seconds), "counts": dict(self.counts)}
        self.reset()
        return snapshot

    def fold_worker(self, shipped: dict, execute_seconds: float, width: int) -> None:
        """Add one pool task's worker ledger inside the open dispatch span.

        Time of the task not covered by a wrapped layer is the worker's
        own (``worker.self``).  ``width`` workers ran at once, so each
        worker second is 1/width of a dispatch wall second.
        """
        seconds = dict(shipped["seconds"])
        seconds["worker.self"] = seconds.get("worker.self", 0.0) + max(
            0.0, execute_seconds - sum(seconds.values())
        )
        for layer, value in seconds.items():
            self.seconds[layer] += value / width
            self.busy[layer] += value
        for name, value in shipped["counts"].items():
            self.counts[name] += value
        self._stack[-1][2] += sum(seconds.values()) / width

    def to_payload(self) -> dict:
        return {
            "seconds": dict(self.seconds),
            "busy": dict(self.busy),
            "counts": dict(self.counts),
        }


LEDGER = Ledger()
#: The traced CLI process; every other pid running the wrappers is a worker.
PARENT_PID = os.getpid()


def timed(layer: str, function):
    """``function`` wrapped in a span of ``layer``."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        LEDGER.enter(layer)
        try:
            return function(*args, **kwargs)
        finally:
            LEDGER.leave()

    return wrapper


def patch(module_name: str, attribute: str, make) -> None:
    """Replace a function everywhere the program bound it by name.

    ``from module import name`` copies the binding, so every loaded
    ``repro`` module holding the same object is patched; lazy imports
    inside functions read the patched module attribute.
    """
    module = importlib.import_module(module_name)
    original = getattr(module, attribute)
    wrapper = make(original)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and (
            loaded.__dict__.get(attribute) is original
        ):
            setattr(loaded, attribute, wrapper)


def patch_method(cls, name: str, make) -> None:
    setattr(cls, name, make(cls.__dict__[name]))


# --------------------------------------------------------------------------- #
# Layer-specific wrappers (those that count, not only time)
# --------------------------------------------------------------------------- #
def _collect_trace(original):
    from repro.isa.machine import Machine

    @functools.wraps(original)
    def collect_trace(program, memory=None, max_instructions=None):
        LEDGER.enter("bench")
        try:
            pristine = copy.deepcopy(memory)
        finally:
            LEDGER.leave()
        LEDGER.enter("trace.collect")
        try:
            trace, result = original(program, memory=memory, max_instructions=max_instructions)
        finally:
            LEDGER.leave()
        # Interpretation alone: the same program on an untouched memory
        # image with no observer.  The re-run itself is tracing overhead;
        # its duration is the interpreter's share of the collection.
        kwargs = {} if max_instructions is None else {"max_instructions": max_instructions}
        LEDGER.enter("bench")
        try:
            started = time.perf_counter()
            Machine(program, memory=pristine, **kwargs).run()
            interpreted = time.perf_counter() - started
        finally:
            LEDGER.leave()
        LEDGER.move(interpreted, "trace.collect", "isa.interpret")
        LEDGER.counts["isa.instructions"] += result.retired_instructions
        LEDGER.counts["trace.records"] += len(trace)
        return trace, result

    return collect_trace


def _decode_records(original):
    @functools.wraps(original)
    def loads_trace_binary(data):
        LEDGER.enter("trace.decode_records")
        try:
            trace = original(data)
        finally:
            LEDGER.leave()
        LEDGER.counts["trace.records_decoded"] += len(trace)
        return trace

    return loads_trace_binary


def _kernel(original):
    @functools.wraps(original)
    def kernel(target, *args, **kwargs):
        outermost = not LEDGER.inside("simulation.kernel")
        LEDGER.enter("simulation.kernel")
        try:
            shard = original(target, *args, **kwargs)
        finally:
            LEDGER.leave()
        # A declined vector plan returns None and its caller falls back
        # to the scalar loop, which counts the unit.
        if outermost and shard is not None:
            LEDGER.counts["simulation.units"] += 1
            LEDGER.counts["simulation.record_visits"] += len(target)
        return shard

    return kernel


def _cache_get(original):
    @functools.wraps(original)
    def get(self, kind, key):
        before = self.hit_bytes
        LEDGER.enter("cache.get")
        try:
            payload = original(self, kind, key)
        finally:
            LEDGER.leave()
        LEDGER.counts["cache.hits" if payload is not None else "cache.misses"] += 1
        LEDGER.counts["cache.read_bytes"] += self.hit_bytes - before
        return payload

    return get


def _cache_put(original):
    @functools.wraps(original)
    def put(self, *args, **kwargs):
        before = self.write_bytes
        LEDGER.enter("cache.put")
        try:
            return original(self, *args, **kwargs)
        finally:
            LEDGER.leave()
            LEDGER.counts["cache.write_bytes"] += self.write_bytes - before

    return put


def _run_phase(original):
    @functools.wraps(original)
    def run_phase(engine, spec):
        layer = "engine.trace_phase" if spec.name == "trace" else "engine.simulate_phase"
        LEDGER.enter(layer)
        try:
            pending = original(engine, spec)
        finally:
            LEDGER.leave()
        total = len(spec.tasks) if spec.total is None else spec.total
        LEDGER.counts["engine.units_computed"] += len(pending)
        LEDGER.counts["engine.units_cached"] += total - len(pending)
        return pending

    return run_phase


def _backend_map(original):
    from repro.engine.telemetry import TELEMETRY_KEY

    @functools.wraps(original)
    def map(self, function, payloads, on_result=None):
        in_process = self.inline_payloads(len(payloads))
        if in_process:
            function = timed("worker.self", function)
        width = 1 if in_process else max(1, min(self.parallel_slots(), len(payloads)))
        busy = 0.0
        LEDGER.enter("backends.map")
        try:
            outcomes = original(self, function, payloads, on_result)
            for outcome in outcomes:
                sidecar = outcome.get(TELEMETRY_KEY) if isinstance(outcome, dict) else None
                if not sidecar:
                    continue
                execute_seconds = sidecar.get("execute_seconds", 0.0)
                busy += execute_seconds
                if sidecar.get("kernel_fallback"):
                    LEDGER.counts["simulation.kernel_fallbacks"] += 1
                shipped = sidecar.pop(SIDECAR_KEY, None)
                if shipped is not None:
                    LEDGER.fold_worker(shipped, execute_seconds, width)
        finally:
            wall = LEDGER.leave()
        LEDGER.counts["backends.dispatches"] += 1
        LEDGER.counts["backends.worker_busy_s"] += busy
        LEDGER.counts["backends.slot_s"] += wall * self.parallel_slots()
        return outcomes

    return map


def _telemetry_sidecar(original):
    @functools.wraps(original)
    def sidecar(*args, **kwargs):
        payload = original(*args, **kwargs)
        if os.getpid() != PARENT_PID:
            payload[SIDECAR_KEY] = LEDGER.take()
        return payload

    return sidecar


def install() -> None:
    """Wrap every layer's entry points (imports the program first)."""
    for name in (
        "repro.cli",
        "repro.artifact",
        "repro.engine.sharding",
        "repro.engine.tasks",
        "repro.simulation.vectorized",
    ):
        importlib.import_module(name)
    from repro.engine.backends import PersistentWorkerBackend, PoolBackend, SerialBackend
    from repro.engine.cache import ResultCache
    from repro.engine.scheduler import ExecutionEngine

    patch("repro.trace.collector", "collect_trace", _collect_trace)
    patch("repro.trace.io", "dumps_trace", lambda f: timed("trace.text_digest", f))
    patch("repro.trace.io", "dumps_trace_binary", lambda f: timed("trace.encode", f))
    patch("repro.trace.io", "loads_trace_binary", _decode_records)
    patch("repro.trace.io", "decode_trace_columns", lambda f: timed("trace.decode_columns", f))
    patch("repro.trace.io", "trace_columns", lambda f: timed("trace.decode_columns", f))
    # The trace task hashes the canonical text it just rendered.
    worker = importlib.import_module("repro.engine.worker")
    worker.sha256 = timed("trace.text_digest", worker.sha256)
    patch("repro.engine.worker", "_telemetry_sidecar", _telemetry_sidecar)
    patch_method(ResultCache, "get", _cache_get)
    patch_method(ResultCache, "put", _cache_put)
    patch("repro.engine.phases", "run_phase", _run_phase)
    patch("repro.engine.sweeps", "execute_sweep", lambda f: timed("sweeps.execute", f))
    patch_method(ExecutionEngine, "run", lambda f: timed("engine.scheduler", f))
    patch_method(ExecutionEngine, "run_sweep", lambda f: timed("engine.scheduler", f))
    for backend in (SerialBackend, PoolBackend, PersistentWorkerBackend):
        patch_method(backend, "map", _backend_map)
    patch("repro.simulation.vectorized", "simulate_shard_vector", _kernel)
    patch("repro.simulation.simulator", "simulate_shard", _kernel)
    patch("repro.simulation.simulator", "merge_shards", lambda f: timed("simulation.merge", f))
    patch("repro.reporting.experiments", "run_experiment", lambda f: timed("reporting.self", f))
    patch("repro.artifact.runner", "reproduce", lambda f: timed("artifact.self", f))
    patch("repro.artifact.check", "check_deliverable", lambda f: timed("artifact.check", f))
    patch("repro.artifact.check", "load_expected", lambda f: timed("artifact.check", f))
    patch(
        "repro.artifact.runner",
        "_write_deliverable_files",
        lambda f: timed("artifact.write", f),
    )
    os.register_at_fork(after_in_child=LEDGER.reset)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: layers.py LEDGER.json -- <repro-vp arguments>", file=sys.stderr)
        return 2
    ledger_path, program_argv = argv[0], argv[2:]
    install()
    from repro.cli import main as cli_main

    LEDGER.enter("cli.self")
    try:
        status = cli_main(program_argv)
    finally:
        LEDGER.leave()
    with open(ledger_path, "w", encoding="utf-8") as handle:
        json.dump(LEDGER.to_payload(), handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
