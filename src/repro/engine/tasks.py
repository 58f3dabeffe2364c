"""Work-unit definitions for the campaign and sweep task graphs.

A campaign decomposes into trace tasks (:class:`TraceTask`, one per
benchmark) and simulate tasks (:class:`SimulateTask`, one per (trace,
predictor) pair, the grain of the simulate cache); a campaign merges
each trace's shards into its joint result in the unit that simulates
them, or in the parent when no one unit holds them all.
A parameter sweep (:mod:`repro.engine.sweeps`) reuses the same two task
kinds, with trace tasks spanning the sweep's *benchmark*, *input* and
*flags* axes.  Each task knows its cache key — the full set of inputs
its output depends on.  A trace task renders itself into a picklable
payload for the worker protocol (:mod:`repro.engine.worker`); simulate
tasks are dispatched per trace, so :func:`simulate_payload` renders one
trace (or, for a trace whose entry missed, its trace task) plus the
predictors of several tasks.  The shared phase executor
(:mod:`repro.engine.phases`) schedules both kinds over the engine's
executor backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.trace.stream import ValueTrace

#: Bump when the meaning of a task's output changes incompatibly, so stale
#: cache entries from older code are bypassed instead of misread.
#: Version 2: trace keys carry the resolved input/flags setting, so the
#: campaign's default-configuration traces and a sweep's explicit traces
#: address the same entries.
#: Version 3: worker outcomes may carry the reserved ``__telemetry__``
#: sidecar (worker-side execute time; see :mod:`repro.engine.telemetry`),
#: which the phase executor never caches.
#: Version 4: the (since removed) intra-trace window cache kind and its
#: worker functions.  No surviving key changed meaning when they went, so
#: the version stays.
#: The version keys only the result cache (every task's cache key carries
#: it) and CI's persisted-cache key, so a bump starts both cold.
TASK_FORMAT_VERSION = 4

#: Format of ``profile`` entries, Figure 10's per-PC tallies of one trace
#: (:func:`profile_cache_key`); bump it when their payload changes meaning.
PROFILE_FORMAT_VERSION = 1


def profile_cache_key(trace_digest: str) -> dict:
    """Cache key of the per-PC tallies of the trace with ``trace_digest``."""
    return {"kind": "profile", "format": PROFILE_FORMAT_VERSION, "trace": trace_digest}


def _canonical_scale(scale: float) -> str:
    """Render a scale factor stably for use inside cache keys."""
    return repr(round(float(scale), 9))


@dataclass(frozen=True)
class TraceTask:
    """Trace one benchmark at one scale, input set and flags setting.

    ``input_name``/``flags`` are stored *resolved* (never ``None``), so two
    tasks describing the same work — e.g. a campaign's implicit default and
    a sweep naming the default explicitly — produce identical cache keys.
    Build instances through :meth:`for_workload`, which resolves defaults
    against the workload's declared sets.
    """

    benchmark: str
    scale: float
    input_name: str
    flags: str

    @classmethod
    def for_workload(
        cls,
        benchmark: str,
        scale: float,
        input_name: str | None = None,
        flags: str | None = None,
    ) -> "TraceTask":
        """Build a task with input/flags resolved (and validated) by the workload."""
        from repro.workloads.suite import get_workload

        workload = get_workload(benchmark)
        return cls(
            benchmark=benchmark,
            scale=scale,
            input_name=workload.validate_input(input_name),
            flags=workload.validate_flags(flags),
        )

    def cache_key(self) -> dict:
        return {
            "kind": "trace",
            "format": TASK_FORMAT_VERSION,
            "workload": self.benchmark,
            "scale": _canonical_scale(self.scale),
            "input": self.input_name,
            "flags": self.flags,
        }

    def payload(self) -> dict:
        """Build the worker payload."""
        return {
            "benchmark": self.benchmark,
            "scale": self.scale,
            "input": self.input_name,
            "flags": self.flags,
        }


@dataclass(frozen=True)
class SimulateTask:
    """Simulate one predictor (by configuration) over one trace: one cache entry.

    ``trace_digest`` is ``None`` while the trace is still to be collected
    by the task's own unit; such a task has no cache key until the unit
    reports the digest.
    """

    predictor: str
    trace_digest: str | None
    predictor_signature: str

    def cache_key(self) -> dict:
        return {
            "kind": "simulate",
            "format": TASK_FORMAT_VERSION,
            "trace": self.trace_digest,
            "predictor": self.predictor,
            "signature": self.predictor_signature,
        }


def merge_cache_key(trace_digest: str, signatures: Sequence[Sequence[str]]) -> dict:
    """Cache key of a campaign's merged result for one trace.

    ``signatures`` lists the campaign's ``[name, signature]`` predictor
    pairs in campaign order, which fixes each predictor's position in the
    joint outcome tuples.
    """
    return {
        "kind": "merge",
        "format": TASK_FORMAT_VERSION,
        "trace": trace_digest,
        "predictors": [list(pair) for pair in signatures],
    }


def simulate_payload(
    tasks: Sequence[SimulateTask],
    *,
    trace: ValueTrace | None = None,
    trace_bytes: bytes | None = None,
    trace_task: TraceTask | None = None,
    inline: bool = False,
    merge: Sequence[str] | None = None,
    shards: Mapping[str, dict] | None = None,
    tallies: bool = False,
) -> dict:
    """Build one simulate unit's worker payload: one trace, several predictors.

    ``tasks`` all simulate one trace; their predictors travel in order,
    each with its expected configuration signature, so a worker whose
    registry disagrees (e.g. a ``spawn``-start process that re-imported a
    registry without a dynamic re-binding) fails loudly instead of
    simulating the wrong configuration.  The trace is given by exactly
    one of:

    * ``trace`` — the trace object itself, for in-process dispatch (no
      serialisation cost);
    * ``trace_bytes`` — the compressed v3 bytes the trace phase produced
      (its ``trace_binary``, off the worker wire or out of the cache),
      shipped to process backends as they are: nothing re-encodes a trace
      for the wire, and the worker decodes them once for all of the
      unit's predictors;
    * ``trace_task`` — the task of a trace whose entry missed (its
      ``tasks`` carry no digest yet): the worker collects the trace itself
      and simulates the collected columns.

    ``merge`` — a campaign's predictor names, in campaign order — has the
    worker merge those predictors' shards into the joint result: the ones
    it simulates, plus ``shards``, the shard entries (``shard_to_dict``
    form) of the rest by name.  ``inline`` (in-process dispatch only)
    asks the worker to hand back the merged result as a live object
    beside the entries, and ``tallies`` (likewise) the collected trace's
    Figure 10 per-PC tallies.
    """
    payload: dict = {
        "predictors": [[task.predictor, task.predictor_signature] for task in tasks],
    }
    if trace_task is not None:
        payload["trace_task"] = trace_task.payload()
    elif trace is not None:
        payload["trace"] = trace
    else:
        payload["trace_bytes"] = trace_bytes
    if merge is not None:
        payload["merge"] = list(merge)
        if shards:
            payload["shards"] = dict(shards)
    if inline:
        payload["inline"] = True
    if tallies:
        payload["tallies"] = True
    return payload
