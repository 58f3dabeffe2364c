"""Work-unit definitions for the campaign and sweep task graphs.

A campaign decomposes into trace tasks (:class:`TraceTask`, one per
benchmark) and simulate tasks (:class:`SimulateTask`, one per (trace,
predictor) pair, the grain of the simulate cache); the merge of simulate
shards back into joint results is cheap and always runs in the parent.
A parameter sweep (:mod:`repro.engine.sweeps`) reuses the same two task
kinds, with trace tasks spanning the sweep's *benchmark*, *input* and
*flags* axes.  Each task knows its cache key — the full set of inputs
its output depends on.  A trace task renders itself into a picklable
payload for the worker protocol (:mod:`repro.engine.worker`); simulate
tasks are dispatched per trace, so :func:`simulate_payload` renders one
trace plus the predictors of several tasks.  The shared phase executor
(:mod:`repro.engine.phases`) schedules both kinds over the engine's
executor backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.trace.stream import ValueTrace

#: Bump when the meaning of a task's output changes incompatibly, so stale
#: cache entries from older code are bypassed instead of misread.
#: Version 2: trace keys carry the resolved input/flags setting, so the
#: campaign's default-configuration traces and a sweep's explicit traces
#: address the same entries.
#: Version 3: worker outcomes may carry the reserved ``__telemetry__``
#: sidecar (worker-side execute time; see :mod:`repro.engine.telemetry`),
#: which the phase executor strips before caching.
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

    def payload(self, *, inline: bool = False) -> dict:
        """Build the worker payload.

        ``inline`` (in-process dispatch) asks the worker to hand back the
        trace object it collected next to its bytes, so the parent need not
        decode them; a payload bound for another process never asks.
        """
        payload: dict = {
            "benchmark": self.benchmark,
            "scale": self.scale,
            "input": self.input_name,
            "flags": self.flags,
        }
        if inline:
            payload["return_trace"] = True
        return payload


@dataclass(frozen=True)
class SimulateTask:
    """Simulate one predictor (by configuration) over one trace: one cache entry."""

    predictor: str
    trace_digest: str
    predictor_signature: str

    def cache_key(self) -> dict:
        return {
            "kind": "simulate",
            "format": TASK_FORMAT_VERSION,
            "trace": self.trace_digest,
            "predictor": self.predictor,
            "signature": self.predictor_signature,
        }


def simulate_payload(
    tasks: Sequence[SimulateTask],
    *,
    trace: ValueTrace | None = None,
    trace_bytes: bytes | None = None,
) -> dict:
    """Build one simulate unit's worker payload: one trace, several predictors.

    ``tasks`` all simulate the trace given by exactly one of ``trace`` and
    ``trace_bytes``; their predictors travel in order, each with its
    expected configuration signature, so a worker whose registry
    disagrees (e.g. a ``spawn``-start process that re-imported a registry
    without a dynamic re-binding) fails loudly instead of simulating the
    wrong configuration.  ``trace`` is the trace object itself, for
    in-process dispatch (no serialisation cost).  ``trace_bytes`` are the
    compressed v3 bytes the trace phase produced (its ``trace_binary``,
    off the worker wire or out of the cache), shipped to process backends
    as they are: nothing re-encodes a trace for the wire, and the worker
    decodes them once for all of the unit's predictors.
    """
    payload: dict = {
        "predictors": [[task.predictor, task.predictor_signature] for task in tasks],
    }
    if trace is not None:
        payload["trace"] = trace
    else:
        payload["trace_bytes"] = trace_bytes
    return payload
