"""Worker-side protocol of the execution engine.

These module-level functions are the only code that runs inside pool
workers, so they must stay importable (picklable by reference) and accept
plain-dict payloads built by :mod:`repro.engine.tasks`.  Results are
returned as JSON-compatible dicts — the exact representation the cache
stores — so the parent handles pool output and cache hits identically.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from hashlib import sha256

from repro.core.registry import create_predictor
from repro.engine.codecs import shard_to_dict, statistics_to_dict
from repro.engine.telemetry import TELEMETRY_KEY
from repro.errors import SimulationError
from repro.trace.io import decode_trace, dumps_trace, dumps_trace_binary
from repro.simulation.simulator import simulate_shard
from repro.simulation.vectorized import resolve_kernel
from repro.trace.stream import ValueTrace
from repro.workloads.suite import get_workload


def _telemetry_sidecar(
    function: str,
    started_perf: float,
    kernel: str | None = None,
    fallback: bool | None = None,
    predictor: str | None = None,
) -> dict:
    """The observability sidecar every worker outcome carries.

    Worker-side execute time is measured here — on the worker's own
    monotonic clock, whichever process that is — and travels back
    inside the outcome under the reserved :data:`TELEMETRY_KEY`.  The
    phase executor strips the key before the outcome is decoded or
    cached, so cache entries and results never contain it.

    Simulation tasks also report ``kernel`` — the kernel that *actually*
    ran, after any scalar fallback — and ``kernel_fallback``, true when
    the vector kernel was requested but this task ran the scalar loop.
    An ``--kernel auto`` run silently degrading to scalar is a mystery
    slowdown without this.
    """
    sidecar = {
        "function": function,
        "execute_seconds": time.perf_counter() - started_perf,
        "pid": os.getpid(),
    }
    if kernel is not None:
        sidecar["kernel"] = kernel
        sidecar["kernel_fallback"] = bool(fallback)
    if predictor is not None:
        sidecar["predictor"] = predictor
    return sidecar


#: Outcome key of the trace object an in-process trace task hands back
#: (see :func:`execute_trace_task`); never cached, never pickled.
INLINE_TRACE_KEY = "__trace__"


def execute_trace_task(payload: dict) -> dict:
    """Run one benchmark into a trace; returns v3 bytes plus statistics.

    ``input``/``flags`` select the workload configuration (absent means the
    workload's default, as resolved by :meth:`TraceTask.for_workload`).
    The trace travels as compressed v3 binary bytes (``trace_binary``) —
    roughly an order of magnitude smaller on the pool wire than the
    canonical text, and exactly what the binary cache envelope embeds, so
    the parent never renders or re-parses text for a cold trace.  The
    ``digest`` that keys the simulate phase is defined over the canonical
    text (see ``docs/trace-format.md``), so the worker renders that text
    too, hashes it and drops it.  With numpy the workload's trace is the
    interpreter's output as array columns
    (:func:`repro.trace.collector.collect_trace`), and the text, the v3
    bytes and the statistics are all rendered from those arrays in chunked
    numpy passes: the worker builds no ``TraceRecord`` and no per-record
    Python object.

    A payload with ``return_trace`` (in-process dispatch only, see
    :meth:`~repro.engine.tasks.TraceTask.payload`) also gets the trace
    object back under :data:`INLINE_TRACE_KEY`; the scheduler takes it out
    of the outcome before the outcome is cached.
    """
    started = time.perf_counter()
    workload = get_workload(payload["benchmark"])
    trace = workload.trace(
        scale=payload["scale"],
        input_name=payload.get("input"),
        flags=payload.get("flags"),
    )
    text = dumps_trace(trace)
    outcome = {
        "trace_binary": dumps_trace_binary(trace, compress=True),
        "digest": sha256(text.encode("utf-8")).hexdigest(),
        "statistics": statistics_to_dict(trace.statistics()),
        TELEMETRY_KEY: _telemetry_sidecar("trace", started),
    }
    if payload.get("return_trace"):
        outcome[INLINE_TRACE_KEY] = trace
    return outcome


def execute_simulate_task(payload: dict) -> dict:
    """Simulate one predictor over one whole trace; returns the encoded shard.

    The trace arrives either inline (``trace``, in-process dispatch) or as
    the trace phase's compressed v3 bytes (``trace_bytes`` plus
    ``trace_digest``, the process backends' wire format).  Bytes decode
    straight to array columns (:func:`repro.trace.io.decode_trace`), once
    per trace per worker process (see :func:`_payload_trace`), so neither
    transport builds a ``TraceRecord`` under the vector kernel.  The
    predictor starts empty.

    ``kernel`` selects the simulation kernel; it is resolved against
    *this* worker's environment (see
    :func:`repro.simulation.vectorized.resolve_kernel`).
    """
    started = time.perf_counter()
    kernel = resolve_kernel(payload.get("kernel"))
    name = _check_signature(payload)
    trace = _payload_trace(payload)
    shard = None
    if kernel == "vector":
        from repro.simulation.vectorized import simulate_shard_vector
        from repro.trace.io import trace_columns

        columns = trace_columns(trace)
        if columns is not None:
            shard = simulate_shard_vector(columns, name)
    fallback = kernel == "vector" and shard is None
    if shard is None:
        shard = simulate_shard(trace, name, kernel="scalar")
    return {
        "shard": shard_to_dict(shard),
        TELEMETRY_KEY: _telemetry_sidecar(
            "simulate",
            started,
            kernel="scalar" if fallback else kernel,
            fallback=fallback,
            predictor=name,
        ),
    }


def _check_signature(payload: dict) -> str:
    """Validate the payload's expected predictor signature; returns the name.

    A worker whose registry binds the name differently than the
    scheduler's (possible under the spawn start method, where dynamic
    re-bindings are not inherited) must not produce a shard that would be
    cached under the scheduler's signature.
    """
    name = payload["predictor"]
    expected_signature = payload.get("signature")
    if expected_signature is not None:
        local_signature = create_predictor(name).config_signature()
        if local_signature != expected_signature:
            raise SimulationError(
                f"predictor {name!r} is configured differently in this worker: "
                f"expected signature {expected_signature!r}, got {local_signature!r}"
            )
    return name


#: This process's decoded traces, by digest, most recently used last.
#: The simulate phase dispatches its units trace by trace, so a worker
#: needs only the trace it is on and the one before it.
_DECODED: OrderedDict[str, tuple[bytes, ValueTrace]] = OrderedDict()
_DECODED_LIMIT = 2


def _payload_trace(payload: dict) -> ValueTrace:
    """The payload's trace: inline, memoised by digest, or decoded now.

    A memo hit also needs the bytes to match, so a digest that names
    different bytes (payloads built by hand) decodes afresh rather than
    returning another trace.
    """
    trace = payload.get("trace")
    if trace is not None:
        return trace
    data = payload["trace_bytes"]
    digest = payload.get("trace_digest")
    entry = _DECODED.get(digest)
    if entry is not None and entry[0] == data:
        _DECODED.move_to_end(digest)
        return entry[1]
    trace = decode_trace(data)
    if digest is not None:
        _DECODED[digest] = (data, trace)
        _DECODED.move_to_end(digest)
        while len(_DECODED) > _DECODED_LIMIT:
            _DECODED.popitem(last=False)
    return trace
