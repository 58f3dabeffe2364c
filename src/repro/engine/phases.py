"""The shared probe → dispatch → put protocol of every engine phase.

Both phases — the trace and simulate phases campaigns and sweeps share
(:func:`~repro.engine.scheduler.trace_phase`,
:func:`~repro.engine.scheduler.simulate_phase`) — execute the same
three-step protocol per batch of tasks, one task per cache entry:

1. **probe** — look each task up in the persistent cache and hand the
   stored payload to the caller's ``accept_cached`` callable; one that
   declines (corrupt or unusable entry) turns the hit back into a miss;
2. **dispatch** — group the remaining tasks into work units by
   :attr:`PhaseTask.unit` (a simulate unit is one trace plus its missing
   predictors) and execute them on the engine's
   :class:`~repro.engine.backends.ExecutorBackend`, in input order.  Each
   unit's payload is built as the backend reaches it
   (:class:`UnitPayloads`), so warm runs never pay for one and an
   in-process dispatch holds one unit's trace at a time.  When
   there are fewer units than the backend has parallel slots, each
   unit's tasks are cut into contiguous chunks so that every slot gets a
   payload (:func:`dispatch_chunks`).  A phase may instead *defer* its
   units to a later phase (:attr:`PhaseSpec.defer`): the trace phase
   hands each cold trace to the simulate phase, whose unit collects it;
3. **put** — as each unit's outcome arrives, split it into its tasks'
   entries, decode each and write it back to the cache, so a dispatch
   that fails part-way keeps every unit that finished before it.

:func:`run_phase` is that protocol, once; :class:`PhaseSpec` carries
everything that varies between phases — cache kind, cache-key builder
(already baked into each :class:`PhaseTask`), payload builder, worker
function and result decoders.  The one trace-materialisation policy,
lazy-with-repair, lives above this layer: the trace phase's
``accept_cached`` only probes the digest and statistics, and a corrupt
body is repaired when :class:`~repro.engine.scheduler.LazyTrace` first
decodes it.  Protocol changes — a new backend, a new cache envelope —
land here once.

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
    simulate phase's unit is the trace digest; a trace task is a unit of
    its own).  A task whose ``cache_key`` is ``None`` is not probed: its
    key depends on its unit's outcome (a cold trace's simulate entries
    are keyed by the digest the unit computes), and
    :attr:`PhaseSpec.accept_unit` supplies it.
    """

    uid: Hashable
    label: str
    cache_key: Mapping | None
    unit: Hashable


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
        The tasks, in dispatch order.
    build_payload:
        Given one chunk of pending tasks sharing a unit, and ``inline``
        (true when the backend executes in-process, so the payload may
        carry live objects and skip serialisation), build the payload.
        Called only for tasks that actually have to run, just before the
        backend dispatches them, after every earlier chunk's outcome in
        an in-process dispatch has been settled.
    worker:
        Worker function executed per payload (module-level, so every
        backend can pickle it by reference).  Its outcome lists one entry
        per task of the payload, in order, under ``"outcomes"``.
    accept_cached:
        Given ``(uid, stored payload)`` decide whether the entry is usable
        and record whatever the caller needs.  Returning ``False`` (or
        raising) turns the hit into a miss, so a corrupt cache degrades to
        recomputation, never failure.
    accept_fresh:
        Result decoder: given ``(uid, outcome entry)`` record the result.
        Runs before the entry is written back to the cache; exceptions
        propagate (a fresh outcome that does not decode is a bug, not a
        cache problem).
    total / presatisfied_count / presatisfied_labels:
        Progress-accounting overrides for phases where some units were
        satisfied before the phase began (the campaign's merge-level hits
        cover whole benchmarks): ``total`` defaults to ``len(tasks)``,
        the presatisfied units are reported warm with the given labels.
    defer:
        Leave the pending units undispatched when there are at least as
        many as the backend has parallel slots (with fewer, slots would
        idle, so they are dispatched here): the caller hands them to a
        later phase, which computes (and accounts) them.
    accept_unit:
        Given one chunk and its outcome, settle whatever the outcome
        carries beside its task entries and return the chunk's tasks,
        each with its cache key.  Runs before the task entries are
        accepted; ``None`` keeps the chunk as it is.
    """

    name: str
    kind: str
    counter: str
    tasks: Sequence[PhaseTask]
    build_payload: Callable[[Sequence[PhaseTask], bool], dict]
    worker: Callable[[dict], dict]
    accept_cached: Callable[[Hashable, dict], bool]
    accept_fresh: Callable[[Hashable, dict], None]
    total: int | None = None
    presatisfied_count: int = 0
    presatisfied_labels: Sequence[str] = field(default_factory=tuple)
    defer: bool = False
    accept_unit: Callable[[Sequence[PhaseTask], dict], Sequence[PhaseTask]] | None = None


class UnitPayloads(Sequence):
    """A dispatch's payloads, each built when the backend reads it.

    ``payloads[index]`` builds chunk ``index``'s payload on every read and
    keeps nothing, so a payload lives only as long as its reader holds
    it: an in-process backend drops each unit's payload (and the trace it
    carries) before it builds the next one.
    """

    def __init__(
        self,
        build: Callable[[Sequence[PhaseTask], bool], dict],
        chunks: Sequence[Sequence[PhaseTask]],
        inline: bool,
    ) -> None:
        self._build = build
        self._chunks = chunks
        self._inline = inline

    def __len__(self) -> int:
        return len(self._chunks)

    def __getitem__(self, index: int) -> dict:
        return self._build(self._chunks[index], self._inline)

    def __iter__(self) -> Iterator[dict]:
        # Not the Sequence mixin's, which ends at the first IndexError: one
        # raised while building a payload must fail the dispatch.
        return (self._build(chunk, self._inline) for chunk in self._chunks)


def dispatch_chunks(units: Sequence[Sequence[PhaseTask]], slots: int) -> list[Sequence[PhaseTask]]:
    """Cut work units into payload chunks: one per unit, unless slots would idle.

    With at least ``slots`` units each unit is one chunk.  With fewer,
    units are cut into contiguous chunks — the extra chunks going, one at
    a time, to the unit whose chunks are then largest — until there are
    ``slots`` chunks or every chunk is a single task.  Chunks keep the
    units' order and their tasks' order.
    """
    if len(units) >= slots:
        return list(units)
    counts = [1] * len(units)
    for _ in range(min(slots, sum(map(len, units))) - len(units)):
        widest = max(range(len(units)), key=lambda index: len(units[index]) / counts[index])
        counts[widest] += 1
    chunks: list[Sequence[PhaseTask]] = []
    for unit, count in zip(units, counts):
        size, extra = divmod(len(unit), count)
        start = 0
        for part in range(count):
            end = start + size + (part < extra)
            chunks.append(unit[start:end])
            start = end
    return chunks


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
    labelled with the payload's first task and counting its ``tasks``.  Each
    outcome is settled — accepted, accounted, cached and reported — as
    it arrives.  The phase's wall time goes to its counter, except the
    share its units spent collecting traces (their ``trace_s`` over their
    execute seconds), which goes to the trace counter.  Results
    are bit-identical for every backend and cache temperature: the
    protocol only decides *where* each task executes, *with which others*
    and *which* tasks execute at all, never what they compute.  Deferred
    tasks (:attr:`PhaseSpec.defer`) count as computed: the later phase
    computes them.
    """
    cache = engine.cache
    telemetry = engine.telemetry
    phase_started_perf = time.perf_counter()
    worker_seconds = {"execute": 0.0, "trace": 0.0}
    with telemetry.span(
        "phase", phase=spec.name, backend=engine.backend.name
    ) as phase_span:
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

        units: dict[Hashable, list[PhaseTask]] = {}
        for task in pending:
            units.setdefault(task.unit, []).append(task)
        slots = engine.backend.parallel_slots()
        deferred = spec.defer and bool(units) and len(units) >= slots
        total = len(spec.tasks) if spec.total is None else spec.total
        phase_span.set(
            total=total,
            cached=spec.presatisfied_count + len(hits),
            computed=len(pending),
            **({"deferred": len(pending)} if deferred else {}),
        )
        engine.progress.phase_started(
            spec.name, total, spec.presatisfied_count + len(hits)
        )
        for label in spec.presatisfied_labels:
            engine.progress.task_finished(spec.name, label, cached=True)
        for task in hits:
            engine.progress.task_finished(spec.name, task.label, cached=True)

        settled = {task.uid for task in hits}
        chunks = [] if deferred else dispatch_chunks(list(units.values()), slots)

        def settle(index: int, outcome: dict) -> None:
            chunk = chunks[index]
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
                    label=chunk[0].label,
                    tasks=len(chunk),
                    worker_pid=sidecar.get("pid"),
                    function=sidecar.get("function"),
                    **{key: sidecar[key] for key in STAGE_KEYS if key in sidecar},
                )
            if spec.accept_unit is not None:
                chunk = spec.accept_unit(chunk, outcome)
            # Entries leave the outcome as they are settled: the backend
            # keeps every outcome until its dispatch ends, and a settled
            # unit's entries need not stay alive that long.
            for task, entry in zip(chunk, outcome.pop("outcomes"), strict=True):
                # A task keyed by its unit's outcome can turn out to be one
                # this phase already settled (two traces of equal content):
                # the entry is the same, so it is accepted and counted once.
                if task.uid not in settled:
                    settled.add(task.uid)
                    spec.accept_fresh(task.uid, entry)
                    engine.stats.record(spec.counter, cached=False)
                    if cache:
                        cache.put(spec.kind, task.cache_key, entry)
                engine.progress.task_finished(spec.name, task.label, cached=False)

        inline = engine.backend.inline_payloads(len(chunks))
        try:
            engine._run_tasks(spec.worker, UnitPayloads(spec.build_payload, chunks, inline), settle)
        except DispatchError as error:
            # Backend-infrastructure failures (a worker process died) get
            # the phase context stamped on before they reach the caller.
            # Every unit that returned before the failure is already
            # cached, so a rerun resumes exactly where this phase stopped.
            raise DispatchError(
                f"{spec.name} phase failed to dispatch {len(pending)} pending "
                f"task(s) in {len(chunks)} unit(s) on the {engine.backend.name!r} "
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
