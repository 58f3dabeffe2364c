"""The shared probe → dispatch → put protocol of the engine's phases.

The simulate phase (:func:`~repro.engine.scheduler.simulate_phase`)
executes a three-step protocol over its tasks, one task per cache entry:

1. **probe** — look each task up in the persistent cache and hand the
   stored payload to the caller's ``accept_cached`` callable; one that
   declines (corrupt or unusable entry) turns the hit back into a miss;
2. **dispatch** — group the remaining tasks into work units by
   :attr:`PhaseTask.unit` (a simulate unit is one trace plus all of its
   missing predictors) and execute one payload per unit on the engine's
   :class:`~repro.engine.backends.ExecutorBackend`, in input order.  Each
   unit's payload is built as the backend reaches it
   (:class:`UnitPayloads`), so warm runs never pay for one and an
   in-process dispatch holds one unit's trace at a time;
3. **put** — as each unit's outcome arrives, split it into its tasks'
   entries, decode each and write it back to the cache, so a dispatch
   that fails part-way keeps every unit that finished before it.

:func:`run_phase` is that protocol, once; :class:`PhaseSpec` carries
everything that varies — cache kind, cache-key builder (already baked
into each :class:`PhaseTask`), payload builder, worker function and
result decoders.  The trace phase
(:func:`~repro.engine.scheduler.trace_phase`) is step 1 alone
(:func:`probe_phase` over a :class:`ProbeSpec`): a trace whose entry
misses is collected by the simulate unit that simulates it.  The one
trace-materialisation policy, lazy-with-repair, lives above this layer:
the trace phase's ``accept_cached`` only probes the digest and
statistics, and a corrupt body is repaired when
:class:`~repro.engine.scheduler.LazyTrace` first decodes it.  Protocol
changes — a new backend, a new cache envelope — land here once.

Progress accounting stays per task: ``phase_started`` reports ``total``
tasks (defaults to ``len(tasks)``) of which ``presatisfied_count + cache
hits`` were warm; one ``task_finished`` event fires per presatisfied
label, per cache hit and — from inside the backend dispatch, as each
payload's outcome arrives — per computed task, always in input order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterator, Mapping, Sequence

from repro.engine.telemetry import STAGE_KEYS, TELEMETRY_KEY
from repro.errors import DispatchError


@dataclass(frozen=True)
class PhaseTask:
    """One cache entry a phase probes, and computes when it misses.

    ``uid`` is the caller's identity for the task (a trace cache-key
    digest or a ``(trace digest, predictor)`` pair) and is
    what ``accept_cached`` and ``accept_fresh`` receive.  Pending tasks
    with equal ``unit`` are dispatched together, in one payload (the
    simulate phase's unit is the trace).  A task whose ``cache_key`` is
    ``None`` is not probed: its key depends on its unit's outcome (a cold
    trace's simulate entries are keyed by the digest the unit computes),
    and :attr:`PhaseSpec.accept_unit` supplies it.
    """

    uid: Hashable
    label: str
    cache_key: Mapping | None
    unit: Hashable


@dataclass(kw_only=True)
class ProbeSpec:
    """What the probe step of a phase needs (:func:`probe_phase`).

    Parameters
    ----------
    name:
        Progress phase name (``"trace"`` / ``"simulate"``).
    kind:
        Cache kind the tasks read (and a dispatching phase writes).
    counter:
        Which :class:`~repro.engine.scheduler.EngineStats` counter pair
        the phase accounts to (``"traces"`` or ``"simulations"``).
    tasks:
        The tasks, in dispatch order.
    accept_cached:
        Given ``(uid, stored payload)`` decide whether the entry is usable
        and record whatever the caller needs.  Returning ``False`` (or
        raising) turns the hit into a miss, so a corrupt cache degrades to
        recomputation, never failure.
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
    accept_cached: Callable[[Hashable, dict], bool]
    total: int | None = None
    presatisfied_count: int = 0
    presatisfied_labels: Sequence[str] = field(default_factory=tuple)


@dataclass(kw_only=True)
class PhaseSpec(ProbeSpec):
    """A phase of the whole protocol: the probe plus dispatch and put.

    Parameters
    ----------
    build_payload:
        Given one unit's pending tasks and ``inline`` (true when the
        backend executes in-process, so the payload may carry live
        objects and skip serialisation), build the payload.  Called only
        for units that actually have to run, just before the backend
        dispatches them, after every earlier unit's outcome in an
        in-process dispatch has been settled.
    worker:
        Worker function executed per payload (module-level, so every
        backend can pickle it by reference).  Its outcome lists one entry
        per task of the payload, in order, under ``"outcomes"``.
    accept_fresh:
        Result decoder: given ``(uid, outcome entry)`` record the result.
        Runs before the entry is written back to the cache; exceptions
        propagate (a fresh outcome that does not decode is a bug, not a
        cache problem).
    accept_unit:
        Given one unit's tasks, its outcome and ``settle``, settle
        whatever the outcome carries beside its task entries, and call
        ``settle(tasks)`` once with the unit's tasks, each with its cache
        key, to settle the task entries at the point the caller's order
        needs them.  ``None`` settles the tasks as they are.
    """

    build_payload: Callable[[Sequence[PhaseTask], bool], dict]
    worker: Callable[[dict], dict]
    accept_fresh: Callable[[Hashable, dict], None]
    accept_unit: Callable[[Sequence[PhaseTask], dict, Callable], None] | None = None


class UnitPayloads(Sequence):
    """A dispatch's payloads, each built when the backend reads it.

    ``payloads[index]`` builds unit ``index``'s payload on every read and
    keeps nothing, so a payload lives only as long as its reader holds
    it: an in-process backend drops each unit's payload (and the trace it
    carries) before it builds the next one.
    """

    def __init__(
        self,
        build: Callable[[Sequence[PhaseTask], bool], dict],
        units: Sequence[Sequence[PhaseTask]],
        inline: bool,
    ) -> None:
        self._build = build
        self._units = units
        self._inline = inline

    def __len__(self) -> int:
        return len(self._units)

    def __getitem__(self, index: int) -> dict:
        return self._build(self._units[index], self._inline)

    def __iter__(self) -> Iterator[dict]:
        # Not the Sequence mixin's, which ends at the first IndexError: one
        # raised while building a payload must fail the dispatch.
        return (self._build(unit, self._inline) for unit in self._units)


def probe_phase(engine, spec: ProbeSpec, span) -> list[PhaseTask]:
    """Probe every task of ``spec``; returns the pending ones (the misses).

    Each usable hit is accounted as cached on ``engine.stats``; the phase
    start, the presatisfied labels and the hits are reported to
    ``engine.progress``, and the phase ``span`` gets the phase's
    ``total``, ``cached`` and ``computed`` task counts.  Pending tasks are
    accounted by whoever computes them.
    """
    cache = engine.cache
    pending: list[PhaseTask] = []
    hits: list[PhaseTask] = []
    for task in spec.tasks:
        cached = (
            cache.get(spec.kind, task.cache_key)
            if cache and task.cache_key is not None
            else None
        )
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
    span.set(total=total, cached=spec.presatisfied_count + len(hits), computed=len(pending))
    engine.progress.phase_started(spec.name, total, spec.presatisfied_count + len(hits))
    for label in spec.presatisfied_labels:
        engine.progress.task_finished(spec.name, label, cached=True)
    for task in hits:
        engine.progress.task_finished(spec.name, task.label, cached=True)
    return pending


def run_phase(engine, spec: PhaseSpec) -> list[PhaseTask]:
    """Execute one phase on ``engine``; returns the tasks actually computed.

    ``engine`` supplies the shared machinery: ``cache`` (may be ``None``),
    ``progress``, ``stats``, ``telemetry`` and the
    ``backend`` the dispatch runs on (via ``ExecutionEngine._run_tasks``).
    The whole phase runs under a ``phase`` telemetry span; each dispatched
    payload's worker-side sidecar (:data:`~repro.engine.telemetry.TELEMETRY_KEY`)
    rides beside the outcome's entries — never decoded or cached, so
    entries stay byte-identical whether telemetry is on or off — and is
    re-emitted as one ``task`` span carrying the worker's own execute
    time and stage split (:data:`~repro.engine.telemetry.STAGE_KEYS`),
    labelled with the unit's first task and counting its ``tasks``.  Each
    outcome is settled — accepted, accounted, cached and reported — as
    it arrives.  The phase's wall time goes to its counter, except the
    share its units spent collecting traces (their ``trace_s`` over their
    execute seconds), which goes to the trace counter.  Results
    are bit-identical for every backend and cache temperature: the
    protocol only decides *where* each unit executes and *which* tasks
    execute at all, never what they compute.
    """
    cache = engine.cache
    telemetry = engine.telemetry
    phase_started_perf = time.perf_counter()
    worker_seconds = {"execute": 0.0, "trace": 0.0}
    with telemetry.span(
        "phase", phase=spec.name, backend=engine.backend.name
    ) as phase_span:
        pending = probe_phase(engine, spec, phase_span)
        grouped: dict[Hashable, list[PhaseTask]] = {}
        for task in pending:
            grouped.setdefault(task.unit, []).append(task)
        units = list(grouped.values())
        settled = {task.uid for task in spec.tasks} - {task.uid for task in pending}

        def settle(index: int, outcome: dict) -> None:
            unit = units[index]
            # The observability sidecar rides beside the entries, never in
            # one: they stay byte-identical with telemetry on or off.
            sidecar = outcome.get(TELEMETRY_KEY)
            if sidecar:
                execute_seconds = sidecar.get("execute_seconds", 0.0)
                worker_seconds["execute"] += execute_seconds
                worker_seconds["trace"] += sidecar.get("trace_s", 0.0)
                telemetry.span_record(
                    "task",
                    execute_seconds,
                    phase=spec.name,
                    label=unit[0].label,
                    tasks=len(unit),
                    worker_pid=sidecar.get("pid"),
                    function=sidecar.get("function"),
                    **{key: sidecar[key] for key in STAGE_KEYS if key in sidecar},
                )

            def settle_entries(tasks: Sequence[PhaseTask]) -> None:
                # Entries leave the outcome as they are settled: the backend
                # keeps every outcome until its dispatch ends, and a settled
                # unit's entries need not stay alive that long.
                for task, entry in zip(tasks, outcome.pop("outcomes"), strict=True):
                    # A task keyed by its unit's outcome can turn out to be
                    # one this phase already settled (two traces of equal
                    # content): the entry is the same, so it is accepted and
                    # counted once.
                    if task.uid not in settled:
                        settled.add(task.uid)
                        spec.accept_fresh(task.uid, entry)
                        engine.stats.record(spec.counter, cached=False)
                        if cache:
                            cache.put(spec.kind, task.cache_key, entry)
                    engine.progress.task_finished(spec.name, task.label, cached=False)

            if spec.accept_unit is None:
                settle_entries(unit)
            else:
                spec.accept_unit(unit, outcome, settle_entries)

        inline = engine.backend.inline_payloads(len(units))
        try:
            engine._run_tasks(spec.worker, UnitPayloads(spec.build_payload, units, inline), settle)
        except DispatchError as error:
            # Backend-infrastructure failures (a worker process died) get
            # the phase context stamped on before they reach the caller.
            # Every unit that returned before the failure is already
            # cached, so a rerun resumes exactly where this phase stopped.
            raise DispatchError(
                f"{spec.name} phase failed to dispatch {len(pending)} pending "
                f"task(s) in {len(units)} unit(s) on the {engine.backend.name!r} "
                f"backend: {error}"
            ) from error
    seconds = time.perf_counter() - phase_started_perf
    traced = 0.0
    if worker_seconds["trace"] and worker_seconds["execute"]:
        # Units that collected their own trace did the trace phase's work
        # here: credit it with their share of this phase's wall time.
        traced = seconds * min(1.0, worker_seconds["trace"] / worker_seconds["execute"])
        engine.stats.record_seconds("traces", traced)
    engine.stats.record_seconds(spec.counter, seconds - traced)
    return pending
