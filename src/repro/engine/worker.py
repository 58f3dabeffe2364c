"""Worker-side protocol of the execution engine.

These module-level functions are the only code that runs inside pool
workers, so they must stay importable (picklable by reference) and accept
plain-dict payloads built by :mod:`repro.engine.tasks`.  A payload carries
one work unit and its outcome lists one entry per task, under
``"outcomes"``, next to one telemetry sidecar; a simulate unit that
collected its own trace also returns that trace's entry (``"trace"``),
and a campaign's unit returns its trace's merged entry (``"merge"``).  Each entry is a JSON-compatible dict —
the exact representation the cache stores — so the parent handles pool
output and cache hits identically.
"""

from __future__ import annotations

import os
import time
from hashlib import sha256

from repro.core.registry import create_predictor
from repro.engine.codecs import shard_from_dict, shard_to_dict, simulation_to_dict, statistics_to_dict
from repro.engine.telemetry import TELEMETRY_KEY
from repro.errors import SimulationError
from repro.simulation.simulator import merge_shards, simulate_shard
from repro.simulation.value_profile import pc_tallies
from repro.trace.io import decode_trace, dumps_trace, dumps_trace_binary
from repro.trace.stream import ValueTrace
from repro.workloads.suite import get_workload


def _telemetry_sidecar(function: str, started_perf: float, **stages: float) -> dict:
    """The observability sidecar every worker outcome carries, once.

    Worker-side execute time is measured here — on the worker's own
    monotonic clock, whichever process that is — and travels back
    inside the outcome under the reserved :data:`TELEMETRY_KEY`, beside
    the outcome's entries: the phase executor decodes and caches only
    the entries, so cache entries and results never contain it.  ``stages``
    (``trace_s``, ``simulate_s``, ``merge_s``) split a unit's time by the
    stages it ran.
    """
    return {
        "function": function,
        "execute_seconds": time.perf_counter() - started_perf,
        "pid": os.getpid(),
        **stages,
    }


def execute_trace_task(payload: dict) -> dict:
    """Run one benchmark into a trace; its one entry holds v3 bytes and statistics.

    ``input``/``flags`` select the workload configuration (absent means the
    workload's default, as resolved by :meth:`TraceTask.for_workload`).
    The trace travels as compressed v3 binary bytes (``trace_binary``) —
    roughly an order of magnitude smaller on the pool wire than the
    canonical text, and exactly what the binary cache envelope embeds, so
    the parent never renders or re-parses text for a cold trace.  The
    ``digest`` that keys the simulate phase is defined over the canonical
    text (see ``docs/trace-format.md``), so the worker renders that text
    too, hashes it and drops it.  The workload's trace is the
    interpreter's output as array columns
    (:func:`repro.trace.collector.collect_trace`), and the text, the v3
    bytes and the statistics are all rendered from those arrays in chunked
    numpy passes: the worker builds no ``TraceRecord`` and no per-record
    Python object.  Only the entry leaves the unit: the trace is dropped
    with it.
    """
    started = time.perf_counter()
    entry, _ = _trace_entry(payload)
    return {"outcomes": [entry], TELEMETRY_KEY: _telemetry_sidecar("trace", started)}


def _trace_entry(payload: dict) -> tuple[dict, ValueTrace]:
    """Trace one benchmark; returns its trace-cache entry and the trace itself."""
    workload = get_workload(payload["benchmark"])
    trace = workload.trace(
        scale=payload["scale"],
        input_name=payload.get("input"),
        flags=payload.get("flags"),
    )
    text = dumps_trace(trace)
    entry = {
        "trace_binary": dumps_trace_binary(trace, compress=True),
        "digest": sha256(text.encode("utf-8")).hexdigest(),
        "statistics": statistics_to_dict(trace.statistics()),
    }
    return entry, trace


def execute_simulate_task(payload: dict) -> dict:
    """Simulate one trace's predictors back to back; one shard entry each.

    ``predictors`` lists ``[name, signature]`` pairs in dispatch order.
    The trace arrives in one of three forms, none of which builds a
    ``TraceRecord``:

    * ``trace`` — the trace object itself (in-process dispatch);
    * ``trace_bytes`` — the trace's cached compressed v3 bytes (the process
      backends' wire format), decoded once, straight to array columns
      (:func:`repro.trace.io.decode_trace`);
    * ``trace_task`` — a trace task's payload, for a benchmark whose trace
      entry missed: the unit collects the trace itself (as
      :func:`execute_trace_task` does, text dropped before simulating),
      returns the trace entry under ``"trace"`` and simulates the
      collected columns, so nothing decodes the trace.

    ``merge``, when present, lists a campaign's predictor names in
    campaign order: the unit merges the shards of those predictors — its
    own, plus the cache hits the parent ships under ``shards`` as shard
    entries by name — into the joint result and returns that entry under
    ``"merge"``.  A unit run in the parent's own process (``inline``)
    also hands back the merged
    :class:`~repro.simulation.simulator.SimulationResult` as it is, under
    ``"merged"``, so the parent does not rebuild it.  ``tallies`` (set
    only on in-process campaign units that collect their trace) hands
    back the collected trace's Figure 10 per-PC tallies under
    ``"tallies"`` — the one thing of the trace the parent may still need
    once the unit ends.  The tally pass costs 1-5 ms per scale-1.0
    trace, so a campaign whose caller never reads the tallies does not
    ask for it.

    Every predictor starts empty and runs over that one trace object, so
    the kernel's per-trace state (grouping, context tables, the
    lower-order FCM memo) is built once for the whole unit and released
    when the unit ends.  The sidecar splits the unit's time into
    ``trace_s``, ``simulate_s`` and (when merging) ``merge_s``.
    """
    # Imported here, like the kernel itself, so that a run that simulates
    # nothing (a warm one) never loads the kernel module.
    from repro.simulation.vectorized import release_kernel_state

    started = time.perf_counter()
    names = [_check_signature(name, signature) for name, signature in payload["predictors"]]
    inline = payload.get("inline", False)
    outcome: dict = {}
    stages: dict = {}
    trace = payload.get("trace")
    if "trace_task" in payload:
        outcome["trace"], trace = _trace_entry(payload["trace_task"])
        if payload.get("tallies"):
            outcome["tallies"] = pc_tallies(trace)
        stages["trace_s"] = time.perf_counter() - started
    elif trace is None:
        trace = decode_trace(payload["trace_bytes"])
    simulating = time.perf_counter()
    shards = {name: simulate_shard(trace, name) for name in names}
    stages["simulate_s"] = time.perf_counter() - simulating
    outcome["outcomes"] = [{"shard": shard_to_dict(shards[name])} for name in names]
    if "merge" in payload:
        merging = time.perf_counter()
        for name, entry in payload.get("shards", {}).items():
            shards[name] = shard_from_dict(entry)
        merged = merge_shards(trace, {name: shards[name] for name in payload["merge"]})
        outcome["merge"] = {"simulation": simulation_to_dict(merged)}
        if inline:
            outcome["merged"] = merged
        stages["merge_s"] = time.perf_counter() - merging
    release_kernel_state()
    outcome[TELEMETRY_KEY] = _telemetry_sidecar("simulate", started, **stages)
    return outcome


def _check_signature(name: str, expected_signature: str | None) -> str:
    """Validate a predictor's expected signature; returns the name.

    A worker whose registry binds the name differently than the
    scheduler's (possible under the spawn start method, where dynamic
    re-bindings are not inherited) must not produce a shard that would be
    cached under the scheduler's signature.  ``None`` skips the check.
    """
    if expected_signature is not None:
        local_signature = create_predictor(name).config_signature()
        if local_signature != expected_signature:
            raise SimulationError(
                f"predictor {name!r} is configured differently in this worker: "
                f"expected signature {expected_signature!r}, got {local_signature!r}"
            )
    return name
