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
from hashlib import sha256

from repro.core.registry import create_predictor
from repro.engine.codecs import shard_to_dict, statistics_to_dict
from repro.engine.telemetry import TELEMETRY_KEY
from repro.errors import SimulationError
from repro.trace.io import dumps_trace, dumps_trace_binary, loads_trace_binary
from repro.simulation.simulator import simulate_shard
from repro.simulation.vectorized import resolve_kernel
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
    monotonic clock, whichever process or host that is — and travels back
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


def execute_trace_task(payload: dict) -> dict:
    """Run one benchmark into a trace; returns v3 bytes plus statistics.

    ``input``/``flags`` select the workload configuration (absent means the
    workload's default, as resolved by :meth:`TraceTask.for_workload`).
    The trace travels as compressed v3 binary bytes (``trace_binary``) —
    roughly an order of magnitude smaller on the pool wire than the
    canonical text, and exactly what the binary cache envelope embeds, so
    the parent never renders or re-parses text for a cold trace.  The
    canonical text form still exists transiently in the worker because the
    ``digest`` that keys the simulate phase is defined over it (see
    ``docs/trace-format.md``).
    """
    started = time.perf_counter()
    workload = get_workload(payload["benchmark"])
    trace = workload.trace(
        scale=payload["scale"],
        input_name=payload.get("input"),
        flags=payload.get("flags"),
    )
    text = dumps_trace(trace)
    return {
        "trace_binary": dumps_trace_binary(trace, compress=True),
        "digest": sha256(text.encode("utf-8")).hexdigest(),
        "statistics": statistics_to_dict(trace.statistics()),
        TELEMETRY_KEY: _telemetry_sidecar("trace", started),
    }


def execute_simulate_task(payload: dict) -> dict:
    """Simulate one predictor over one whole trace; returns the encoded shard.

    The trace arrives either inline (``trace``, in-process dispatch) or as
    v3 binary bytes (``trace_bytes``, the pool and remote wire format);
    both decode to the same records.  The predictor starts empty.

    ``kernel`` selects the simulation kernel; it is resolved against
    *this* worker's environment (see
    :func:`repro.simulation.vectorized.resolve_kernel`), and under the
    vector kernel binary wire bytes decode straight into numpy columns —
    no ``TraceRecord`` objects are ever materialised on the hot path.
    """
    started = time.perf_counter()
    kernel = resolve_kernel(payload.get("kernel"))
    name = _check_signature(payload)
    shard = None
    trace = payload.get("trace")
    if kernel == "vector":
        from repro.simulation.vectorized import simulate_shard_vector
        from repro.trace.io import decode_trace_columns, trace_columns

        columns = None
        if trace is None:
            columns = decode_trace_columns(payload["trace_bytes"])
        if columns is None:
            trace = _payload_records(payload)
            columns = trace_columns(trace)
        if columns is not None:
            shard = simulate_shard_vector(columns, name)
    fallback = kernel == "vector" and shard is None
    if shard is None:
        if trace is None:
            trace = _payload_records(payload)
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


def _payload_records(payload: dict):
    """Materialise the payload's trace (inline or from v3 bytes)."""
    trace = payload.get("trace")
    if trace is None:
        trace = loads_trace_binary(payload["trace_bytes"])
    return trace


#: Worker functions addressable *by name* over the remote worker protocol
#: (:mod:`repro.engine.remote`).  A remote dispatch ships the registry key
#: instead of a pickled callable, so engine and worker only have to agree
#: on this mapping — which the handshake's ``PROTOCOL_VERSION`` pin
#: guarantees.
WORKER_FUNCTIONS = {
    "trace": execute_trace_task,
    "simulate": execute_simulate_task,
}


def worker_function_name(function) -> str:
    """The registry name a worker function travels under on the wire."""
    for name, registered in WORKER_FUNCTIONS.items():
        if registered is function:
            return name
    raise ValueError(
        f"{function!r} is not a registered worker function; remote dispatch "
        f"only executes the named entries of WORKER_FUNCTIONS "
        f"({', '.join(sorted(WORKER_FUNCTIONS))})"
    )
