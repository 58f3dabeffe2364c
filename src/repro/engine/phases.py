"""The shared probe → dispatch → put protocol of every engine phase.

Both phases — the trace and simulate phases campaigns and sweeps share
(:func:`~repro.engine.scheduler.trace_phase`,
:func:`~repro.engine.scheduler.simulate_phase`) — execute the same
three-step protocol per batch of work units:

1. **probe** — look each unit up in the persistent cache and hand the
   stored payload to the caller's ``accept_cached`` callable; one that
   declines (corrupt or unusable entry) turns the hit back into a miss;
2. **dispatch** — build payloads for the remaining units (lazily, so warm
   runs never pay for them) and execute them on the engine's
   :class:`~repro.engine.backends.ExecutorBackend`, in input order;
3. **put** — decode each fresh outcome and write it back to the cache.

:func:`run_phase` is that protocol, once; :class:`PhaseSpec` carries
everything that varies between phases — cache kind, cache-key builder
(already baked into each :class:`PhaseTask`), payload builder, worker
function and result decoders.  The one trace-materialisation policy,
lazy-with-repair, lives above this layer: the trace phase's
``accept_cached`` only probes the digest and statistics, and a corrupt
body is repaired when :class:`~repro.engine.scheduler.LazyTrace` first
decodes it.  Protocol changes — a new backend, a new cache envelope —
land here once.

Progress accounting: ``phase_started`` reports ``total`` units (defaults
to ``len(tasks)``) of which ``presatisfied_count + cache hits`` were warm;
one ``task_finished`` event fires per presatisfied label, per cache hit
and — from inside the backend dispatch — per computed unit, always in
input order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping, Sequence

from repro.engine.telemetry import TELEMETRY_KEY
from repro.errors import DispatchError


@dataclass(frozen=True)
class PhaseTask:
    """One work unit of a phase.

    ``uid`` is the caller's identity for the unit (a trace cache-key
    digest or a ``(trace digest, predictor)`` pair) and is
    what ``accept_cached`` and ``accept_fresh`` receive.
    ``build_payload`` is called only when the unit actually has to run,
    with ``inline=True`` when the backend executes in-process (the payload
    may then carry live objects and skip serialisation).
    """

    uid: Hashable
    label: str
    cache_key: Mapping
    build_payload: Callable[[bool], dict]


@dataclass
class PhaseSpec:
    """Everything that varies between phases of the shared protocol.

    Parameters
    ----------
    name:
        Progress phase name (``"trace"`` / ``"simulate"``).
    kind:
        Cache kind the units read and write.
    counter:
        Which :class:`~repro.engine.scheduler.EngineStats` counter pair
        the phase accounts to (``"traces"`` or ``"simulations"``).
    tasks:
        The work units, in dispatch order.
    worker:
        Worker function executed per pending payload (module-level, so
        every backend can pickle it by reference).
    accept_cached:
        Given ``(uid, stored payload)`` decide whether the entry is usable
        and record whatever the caller needs.  Returning ``False`` (or
        raising) turns the hit into a miss, so a corrupt cache degrades to
        recomputation, never failure.
    accept_fresh:
        Result decoder: given ``(uid, worker outcome)`` record the result.
        Runs before the outcome is written back to the cache; exceptions
        propagate (a fresh outcome that does not decode is a bug, not a
        cache problem).
    total / presatisfied_count / presatisfied_labels:
        Progress-accounting overrides for phases where some units were
        satisfied before the phase began (the campaign's merge-level hits
        cover whole benchmarks): ``total`` defaults to ``len(tasks)``,
        the presatisfied units are reported warm with the given labels.
    """

    name: str
    kind: str
    counter: str
    tasks: Sequence[PhaseTask]
    worker: Callable[[dict], dict]
    accept_cached: Callable[[Hashable, dict], bool]
    accept_fresh: Callable[[Hashable, dict], None]
    total: int | None = None
    presatisfied_count: int = 0
    presatisfied_labels: Sequence[str] = field(default_factory=tuple)


def run_phase(engine, spec: PhaseSpec) -> list[PhaseTask]:
    """Execute one phase on ``engine``; returns the tasks actually computed.

    ``engine`` supplies the shared machinery: ``cache`` (may be ``None``),
    ``progress``, ``stats``, ``telemetry`` and the
    ``backend`` the dispatch runs on (via ``ExecutionEngine._run_tasks``).
    The whole phase runs under a ``phase`` telemetry span; each computed
    unit's worker-side sidecar (:data:`~repro.engine.telemetry.TELEMETRY_KEY`)
    is stripped from the outcome — before decoding and caching, so entries
    stay byte-identical whether telemetry is on or off — and re-emitted as
    a ``task`` span carrying the worker's own execute time.  Results are
    bit-identical for every backend and cache temperature: the protocol
    only decides *where* each unit executes and *which* units execute at
    all, never what they compute.
    """
    cache = engine.cache
    telemetry = engine.telemetry
    phase_started_perf = time.perf_counter()
    with telemetry.span(
        "phase", phase=spec.name, backend=engine.backend.name
    ) as phase_span:
        pending: list[PhaseTask] = []
        hits: list[PhaseTask] = []
        for task in spec.tasks:
            cached = cache.get(spec.kind, task.cache_key) if cache else None
            usable = False
            if cached is not None:
                try:
                    usable = spec.accept_cached(task.uid, cached)
                except Exception:
                    usable = False
            if usable:
                engine.stats.record(spec.counter, cached=True)
                hits.append(task)
            else:
                pending.append(task)

        total = len(spec.tasks) if spec.total is None else spec.total
        phase_span.set(
            total=total,
            cached=spec.presatisfied_count + len(hits),
            computed=len(pending),
        )
        engine.progress.phase_started(
            spec.name, total, spec.presatisfied_count + len(hits)
        )
        for label in spec.presatisfied_labels:
            engine.progress.task_finished(spec.name, label, cached=True)
        for task in hits:
            engine.progress.task_finished(spec.name, task.label, cached=True)

        inline = engine.backend.inline_payloads(len(pending))
        try:
            outcomes = engine._run_tasks(
                spec.worker,
                spec.name,
                [task.label for task in pending],
                [task.build_payload(inline) for task in pending],
            )
        except DispatchError as error:
            # Backend-infrastructure failures (a worker process died) get
            # the phase context stamped on before they reach
            # the caller; the cache is untouched for the undispatched units,
            # so a rerun resumes exactly where this phase stopped.
            raise DispatchError(
                f"{spec.name} phase failed to dispatch {len(pending)} pending "
                f"unit(s) on the {engine.backend.name!r} backend: {error}"
            ) from error
        for task, outcome in zip(pending, outcomes):
            # The observability sidecar never reaches the decoder or the
            # cache: entries stay byte-identical with telemetry on or off.
            sidecar = outcome.pop(TELEMETRY_KEY, None) if isinstance(outcome, dict) else None
            if sidecar:
                extra = {}
                if sidecar.get("kernel") is not None:
                    # Simulation tasks report which kernel actually ran;
                    # a vector request that degraded to the scalar loop is
                    # counted per predictor so `repro-vp inspect` can name
                    # the configurations behind a mystery slowdown.
                    extra["kernel"] = sidecar["kernel"]
                    extra["kernel_fallback"] = bool(sidecar.get("kernel_fallback"))
                telemetry.span_record(
                    "task",
                    sidecar.get("execute_seconds", 0.0),
                    phase=spec.name,
                    label=task.label,
                    worker_pid=sidecar.get("pid"),
                    function=sidecar.get("function"),
                    **extra,
                )
                if sidecar.get("kernel_fallback"):
                    telemetry.count("kernel.fallback")
                    predictor = sidecar.get("predictor")
                    if predictor:
                        telemetry.count(f"kernel.fallback.{predictor}")
            spec.accept_fresh(task.uid, outcome)
            engine.stats.record(spec.counter, cached=False)
            if cache:
                cache.put(spec.kind, task.cache_key, outcome)
    engine.stats.record_seconds(spec.counter, time.perf_counter() - phase_started_perf)
    return pending
