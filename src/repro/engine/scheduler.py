"""Task-graph scheduler: the trace and simulate phases, dispatch, merge.

Campaigns and sweeps are the same graph over the same cache keys, and both
run it through the two phase functions defined here, once each:

1. :func:`trace_phase` — trace tasks, deduplicated by cache key, run
   through the shared phase executor (:mod:`repro.engine.phases` — the
   probe → dispatch → put protocol) under one materialisation policy,
   *lazy-with-repair*: a cache hit is a cheap digest and statistics
   probe, the trace is decoded on first use (:class:`LazyTrace`), and a
   corrupt body found then is re-traced, re-accounted and overwritten;
2. :func:`simulate_phase` — (trace digest, predictor) units, each
   simulated into a :class:`PredictorShard` on the phase executor or, when
   the trace gets a window plan, through intra-trace sharding
   (:mod:`repro.engine.sharding`).

:meth:`ExecutionEngine.run` adds the campaign's **merge**: a probe of the
merged per-benchmark entry first, and for the misses the shards are
recombined into the joint :class:`SimulationResult`, bit-identical to the
lockstep loop.  :func:`repro.engine.sweeps.execute_sweep` fans the shards
out to its sweep points instead.  Work runs on a pluggable
:class:`~repro.engine.backends.ExecutorBackend`; the merge is a cheap
single pass in the parent.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable, Hashable, Mapping, Sequence

from repro.engine.backends import ExecutorBackend, resolve_backend
from repro.engine.cache import ResultCache
from repro.engine.codecs import (
    payload_trace,
    shard_from_dict,
    simulation_from_dict,
    simulation_to_dict,
    statistics_from_dict,
)
from repro.engine.config import EngineConfig
from repro.engine.fingerprint import key_digest, predictor_signature
from repro.engine.phases import PhaseSpec, PhaseTask, run_phase
from repro.engine.progress import NullProgress, ProgressListener
from repro.engine.sharding import (
    WindowedUnit,
    plan_shard_windows,
    run_windowed_simulations,
)
from repro.engine.tasks import TASK_FORMAT_VERSION, SimulateTask, TraceTask
from repro.engine.telemetry import NULL_TELEMETRY, TELEMETRY_KEY, Telemetry
from repro.engine.worker import execute_simulate_task, execute_trace_task
from repro.simulation.simulator import PredictorShard, merge_shards
from repro.trace.stream import TraceStatistics, ValueTrace


@dataclass
class EngineStats:
    """What one engine run actually did (vs. served from cache).

    ``trace_seconds``/``simulate_seconds`` are the wall durations of the
    two phases (cache probes included), measured with
    :func:`time.perf_counter` so clock jumps cannot skew them;
    ``cache_hit_bytes``/``cache_write_bytes`` are the run's byte traffic
    against the persistent result cache (0 without one).
    """

    benchmarks: int = 0
    predictors: int = 0
    traces_computed: int = 0
    traces_cached: int = 0
    simulations_computed: int = 0
    simulations_cached: int = 0
    #: Intra-trace sharding accounting (:mod:`repro.engine.sharding`):
    #: window units computed/served warm.  A sharded pair still records one
    #: ``simulations`` unit when its stitched result lands, so the
    #: simulation counters stay comparable across sharded and unsharded
    #: runs; the window counters are additional detail, not a replacement.
    windows_computed: int = 0
    windows_cached: int = 0
    total_seconds: float = 0.0
    trace_seconds: float = 0.0
    simulate_seconds: float = 0.0
    cache_hit_bytes: int = 0
    cache_write_bytes: int = 0

    #: Phase-counter name -> the field its phase duration accumulates into.
    #: Window (and replay) time is simulate-phase time under a finer knife.
    _SECONDS_FIELDS = {
        "traces": "trace_seconds",
        "simulations": "simulate_seconds",
        "windows": "simulate_seconds",
    }

    @property
    def tasks_computed(self) -> int:
        return self.traces_computed + self.simulations_computed

    @property
    def tasks_cached(self) -> int:
        return self.traces_cached + self.simulations_cached

    def record(self, counter: str, cached: bool, count: int = 1) -> None:
        """Bump one of the ``{traces,simulations}_{cached,computed}`` counters.

        The phase executor accounts through this hook, so phases stay
        generic over which work kind they schedule.
        """
        name = f"{counter}_{'cached' if cached else 'computed'}"
        setattr(self, name, getattr(self, name) + count)

    def record_seconds(self, counter: str, seconds: float) -> None:
        """Accumulate one phase's wall duration (perf-counter measured).

        Counters without a seconds field (toy phases in tests) are
        ignored, mirroring how :meth:`record` stays generic.
        """
        name = self._SECONDS_FIELDS.get(counter)
        if name is not None:
            setattr(self, name, getattr(self, name) + seconds)


class ExecutionEngine:
    """Schedules campaign work units over workers and the result cache.

    Parameters
    ----------
    config:
        The engine's settings (:class:`~repro.engine.config.EngineConfig`:
        jobs, cache, GC bounds, backend, workers, kernel, shard window);
        ``None`` means ``EngineConfig()`` — serial, cache-less, unsharded.
        Results are bit-identical for every setting; see the config's
        attributes for what each one changes.

    The keyword arguments are live resources, not settings:

    backend:
        An :class:`ExecutorBackend` instance to dispatch on instead of
        the one ``config`` names.  It is shared, not owned: the caller
        closes it (one persistent backend can serve many engines).
    telemetry:
        Optional :class:`~repro.engine.telemetry.Telemetry` sink receiving
        structured spans, events and counters from every layer (phases,
        backend dispatches, the cache); defaults to the always-cheap
        :data:`~repro.engine.telemetry.NULL_TELEMETRY`.  Results and cache
        entries are bit-identical with telemetry on or off.
    progress:
        Optional :class:`ProgressListener` receiving live events.
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        backend: ExecutorBackend | None = None,
        telemetry: Telemetry | None = None,
        progress: ProgressListener | None = None,
    ) -> None:
        self.config = config = config if config is not None else EngineConfig()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.cache = (
            ResultCache(
                config.cache_dir,
                max_bytes=config.cache_max_bytes,
                max_age=config.cache_max_age,
            )
            if (config.use_cache and config.cache_dir is not None)
            else None
        )
        if self.cache is not None:
            self.cache.telemetry = self.telemetry
        self.progress = progress if progress is not None else NullProgress()
        self._owns_backend = backend is None
        self.backend = (
            backend
            if backend is not None
            else resolve_backend(config.backend, config.jobs, workers=config.workers)
        )
        self.stats = EngineStats()
        #: Report of the most recent post-run auto-GC pass (``None`` when
        #: no bounds are configured or no run has finished yet).
        self.last_gc = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the backend's resources if this engine created it.

        A backend *instance* passed to the constructor is left running —
        that is the point of sharing a persistent backend across engines.
        """
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(
        self,
        scale: float,
        predictors: Sequence[str],
        benchmarks: Sequence[str],
    ):
        """Run one full campaign; returns a ``CampaignResult``.

        Results are bit-identical for every ``jobs`` value and every
        backend: parallelism only changes *where* each work unit executes,
        and the merge phase reassembles the exact lockstep accounting.
        """
        # Imported lazily: campaign.py is the public façade over this
        # engine and importing it at module level would be circular.
        from repro.simulation.campaign import CampaignResult

        # Wall time anchors the run for humans and for cache-GC mtime
        # comparisons; every *duration* comes from the paired monotonic
        # clock, so a clock jump mid-run cannot skew them.
        started = time.perf_counter()
        run_started_wall = time.time()
        # A repeated axis value names the same work and the same result.
        predictors = tuple(dict.fromkeys(predictors))
        benchmarks = tuple(dict.fromkeys(benchmarks))
        stats = EngineStats(benchmarks=len(benchmarks), predictors=len(predictors))
        self.stats = stats

        self._annotate_run()
        cache_base = self._cache_bytes()
        with self.telemetry.span(
            "run",
            kind="campaign",
            scale=scale,
            benchmarks=len(benchmarks),
            predictors=len(predictors),
        ) as run_span:
            traces = trace_phase(
                self,
                {
                    name: (TraceTask.for_workload(name, scale=scale), name)
                    for name in benchmarks
                },
            )
            simulations = self._merge(predictors, benchmarks, traces)
            stats.total_seconds = time.perf_counter() - started
            self._finish_run_stats(stats, cache_base, run_span)
        self.progress.campaign_finished(stats)
        self._auto_gc(run_started_wall)
        return CampaignResult(
            scale=scale,
            predictor_names=predictors,
            traces={name: traces[name].get() for name in benchmarks},
            statistics={name: traces[name].statistics for name in benchmarks},
            simulations=simulations,
        )

    def run_sweep(self, spec):
        """Run one parameter sweep; returns a ``SweepResult``.

        The sweep layer (:mod:`repro.engine.sweeps`) expands the spec into
        the same trace/simulate task graph campaigns use, deduplicating
        trace work shared between sweep points, so sweeps and campaigns
        share cache entries.  Imported lazily: sweeps builds on this class.
        """
        from repro.engine.sweeps import execute_sweep

        run_started_wall = time.time()
        self._annotate_run()
        cache_base = self._cache_bytes()
        with self.telemetry.span(
            "run",
            kind="sweep",
            benchmarks=len(spec.benchmark_axis()),
            predictors=len(spec.predictors),
        ) as run_span:
            result = execute_sweep(self, spec)
            self._finish_run_stats(self.stats, cache_base, run_span)
        self._auto_gc(run_started_wall)
        return result

    # ------------------------------------------------------------------ #
    # Run-level telemetry plumbing
    # ------------------------------------------------------------------ #
    def _annotate_run(self) -> None:
        """Stamp the whole engine configuration onto the run manifest.

        ``backend`` and ``cache_dir`` record what the run actually used
        (the resolved backend's name; no directory when caching is off),
        and ``resolved_kernel`` what ``kernel`` resolves to here.
        """
        from repro.simulation.vectorized import resolve_kernel

        self.telemetry.annotate(
            **{
                **asdict(self.config),
                "backend": self.backend.name,
                "cache_dir": str(self.cache.root) if self.cache else None,
                "resolved_kernel": resolve_kernel(self.config.kernel),
            }
        )

    def _cache_bytes(self) -> tuple[int, int]:
        """Snapshot of the cache's cumulative (hit, write) byte counters."""
        if self.cache is None:
            return (0, 0)
        return (self.cache.hit_bytes, self.cache.write_bytes)

    def _finish_run_stats(self, stats: EngineStats, cache_base, run_span) -> None:
        """Fold this run's cache byte deltas into ``stats`` and the span.

        The cache counters are cumulative per :class:`ResultCache`
        instance, so the run's own traffic is the delta against the
        snapshot taken when the run began.
        """
        hit_base, write_base = cache_base
        hit_bytes, write_bytes = self._cache_bytes()
        stats.cache_hit_bytes = hit_bytes - hit_base
        stats.cache_write_bytes = write_bytes - write_base
        run_span.set(
            tasks_computed=stats.tasks_computed,
            tasks_cached=stats.tasks_cached,
            cache_hit_bytes=stats.cache_hit_bytes,
            cache_write_bytes=stats.cache_write_bytes,
        )

    # ------------------------------------------------------------------ #
    # The campaign's merge
    # ------------------------------------------------------------------ #
    def _merge(self, predictors, benchmarks, traces) -> dict:
        """Merge probe → simulate phase for the misses → merge and put.

        A merged result is fully determined by the trace content and the
        ordered predictor configurations, so fully-warm benchmarks skip
        both the shard fetches and the per-record merge pass.
        """
        signatures = [[name, predictor_signature(name)] for name in predictors]
        merge_keys = {
            benchmark: {
                "kind": "merge",
                "format": TASK_FORMAT_VERSION,
                "trace": traces[benchmark].digest,
                "predictors": signatures,
            }
            for benchmark in benchmarks
        }
        simulations: dict = {}
        for benchmark in benchmarks:
            cached = self.cache.get("merge", merge_keys[benchmark]) if self.cache else None
            if cached is not None:
                simulations[benchmark] = simulation_from_dict(cached["simulation"])
                self.stats.record("simulations", cached=True, count=len(predictors))

        missing = [benchmark for benchmark in benchmarks if benchmark not in simulations]
        units: dict = {}
        for benchmark in missing:
            for predictor in predictors:
                units.setdefault(
                    (traces[benchmark].digest, predictor),
                    (f"{benchmark}:{predictor}", traces[benchmark]),
                )
        shards = simulate_phase(
            self,
            units,
            presatisfied_count=len(simulations) * len(predictors),
            presatisfied_labels=[f"{benchmark}:*" for benchmark in simulations],
        )
        for benchmark in missing:
            trace = traces[benchmark]
            simulations[benchmark] = merge_shards(
                trace.get(),
                {predictor: shards[(trace.digest, predictor)] for predictor in predictors},
                kernel=self.config.kernel,
            )
            if self.cache:
                self.cache.put(
                    "merge",
                    merge_keys[benchmark],
                    {"simulation": simulation_to_dict(simulations[benchmark])},
                )
        return {benchmark: simulations[benchmark] for benchmark in benchmarks}

    # ------------------------------------------------------------------ #
    # Post-run cache maintenance
    # ------------------------------------------------------------------ #
    def _auto_gc(self, run_started_wall: float) -> None:
        """Run a bounded GC pass after a run when bounds are configured.

        Entries written or touched since ``run_started_wall`` — everything
        the finishing run produced or read — are protected from eviction,
        so a ``max_bytes`` smaller than one run's output can never evict
        the run's own results (the bound then holds on the *next* cold
        start instead).
        """
        if self.cache is None:
            return
        if self.cache.max_bytes is None and self.cache.max_age is None:
            return
        # One second of slack: on filesystems with coarse mtime granularity
        # an entry written just after the run started can have its mtime
        # rounded below the recorded start, and protection must err on the
        # side of keeping fresh results.
        self.last_gc = self.cache.gc(protect_since=run_started_wall - 1.0)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _run_tasks(
        self,
        function: Callable[[dict], dict],
        phase: str,
        labels: Sequence[str],
        payloads: Sequence[dict],
    ) -> list[dict]:
        """Execute payloads on the configured backend, in input order."""
        if not payloads:
            return []
        # Stamped per dispatch, not per engine: a shared backend instance
        # serves several engines, and dispatch spans must land in whichever
        # sink the engine currently driving it is wired to.
        self.backend.telemetry = self.telemetry
        return self.backend.map(
            function,
            payloads,
            on_result=lambda index: self.progress.task_finished(
                phase, labels[index], cached=False
            ),
        )


# --------------------------------------------------------------------------- #
# The two phases — one copy each, shared by campaigns and sweeps
# --------------------------------------------------------------------------- #
class LazyTrace:
    """One trace-phase result: digest and statistics now, records on first use.

    A cached entry passes the trace phase on a cheap probe (digest and
    statistics readable), so a fully warm run never decodes the embedded
    trace.  When :meth:`get` finds a cached body corrupt, the trace is
    repaired: re-traced in the parent, accounted as computed rather than
    cached, and its cache entry overwritten so the repair sticks.  A fresh
    outcome that does not decode is a bug and raises.
    """

    def __init__(self, engine, task: TraceTask, label: str, payload: dict, cached: bool):
        self.digest: str = payload["digest"]
        self.statistics: TraceStatistics = statistics_from_dict(payload["statistics"])
        self.task = task
        self._engine = engine
        self._label = label
        self._payload = payload
        self._cached = cached
        self._trace: ValueTrace | None = None

    def get(self) -> ValueTrace:
        if self._trace is None:
            try:
                self._trace = payload_trace(self._payload)
            except Exception:
                if not self._cached:
                    raise
                self._trace = payload_trace(self._repair())
            self._payload = None
        return self._trace

    def _repair(self) -> dict:
        engine = self._engine
        outcome = execute_trace_task(self.task.payload())
        # Repairs bypass the phase executor, so strip the worker's
        # observability sidecar here too — the overwritten cache entry
        # must stay byte-identical with telemetry on or off.
        sidecar = outcome.pop(TELEMETRY_KEY, None)
        if sidecar:
            engine.telemetry.span_record(
                "task",
                sidecar.get("execute_seconds", 0.0),
                phase="trace",
                label=self._label,
                worker_pid=sidecar.get("pid"),
                function=sidecar.get("function"),
                repair=True,
            )
        engine.stats.traces_computed += 1
        engine.stats.traces_cached -= 1
        if engine.cache:
            engine.cache.put("trace", self.task.cache_key(), outcome)
        return outcome


def trace_phase(
    engine: ExecutionEngine, tasks: Mapping[Hashable, tuple[TraceTask, str]]
) -> dict[Hashable, LazyTrace]:
    """Run the trace phase; returns one :class:`LazyTrace` per caller uid.

    ``tasks`` maps the caller's uid to a ``(task, progress label)`` pair.
    Tasks sharing a cache key run (and count) once, under the label of
    their first appearance, and their uids share one :class:`LazyTrace`.
    """
    keys = {uid: key_digest(task.cache_key()) for uid, (task, _) in tasks.items()}
    first: dict[str, tuple[TraceTask, str]] = {}
    for uid, key in keys.items():
        first.setdefault(key, tasks[uid])
    traces: dict[str, LazyTrace] = {}

    def accept(key: str, payload: dict, cached: bool = False) -> bool:
        traces[key] = LazyTrace(engine, *first[key], payload, cached=cached)
        return True

    run_phase(
        engine,
        PhaseSpec(
            name="trace",
            kind="trace",
            counter="traces",
            tasks=[
                PhaseTask(
                    uid=key,
                    label=label,
                    cache_key=task.cache_key(),
                    build_payload=lambda inline, task=task: task.payload(),
                )
                for key, (task, label) in first.items()
            ],
            worker=execute_trace_task,
            accept_cached=lambda key, payload: accept(key, payload, cached=True),
            accept_fresh=accept,
        ),
    )
    return {uid: traces[key] for uid, key in keys.items()}


def simulate_phase(
    engine: ExecutionEngine,
    units: Mapping[tuple[str, str], tuple[str, LazyTrace]],
    presatisfied_count: int = 0,
    presatisfied_labels: Sequence[str] = (),
) -> dict[tuple[str, str], PredictorShard]:
    """Run the simulate phase; returns one shard per ``(digest, predictor)``.

    ``units`` maps each ``(trace digest, predictor)`` pair to its progress
    label and trace.  Units whose trace gets a window plan (intra-trace
    sharding, :mod:`repro.engine.sharding`) run as windows; the rest run
    through the shared phase executor.  Results and pair-level cache
    entries are bit-identical either way.  ``presatisfied_count`` and
    ``presatisfied_labels`` report units the caller satisfied before the
    phase (the campaign's merge-level hits) as warm progress.
    """
    kernel = engine.config.kernel
    signatures = {
        predictor: predictor_signature(predictor)
        for predictor in dict.fromkeys(predictor for _, predictor in units)
    }
    tasks = {
        (digest, predictor): SimulateTask(
            benchmark=trace.task.benchmark,
            predictor=predictor,
            trace_digest=digest,
            predictor_signature=signatures[predictor],
        )
        for (digest, predictor), (_, trace) in units.items()
    }
    # Window plans come from the stored statistics' record counts, so
    # planning never decodes a lazy trace: a fully warm sharded run stays
    # decode-free.
    windowed: dict[tuple[str, str], WindowedUnit] = {}
    if engine.config.shard_window is not None:
        slots = engine.backend.parallel_slots()
        for uid, (label, trace) in units.items():
            windows = plan_shard_windows(
                engine.config.shard_window, trace.statistics.predicted_instructions, slots
            )
            if windows is not None:
                task = tasks[uid]
                windowed[uid] = WindowedUnit(
                    uid=uid,
                    label=label,
                    benchmark=task.benchmark,
                    predictor=task.predictor,
                    trace_digest=task.trace_digest,
                    predictor_signature=task.predictor_signature,
                    windows=tuple(windows),
                    get_trace=trace.get,
                )
    # Encode each trace for the wire at most once, however many predictors
    # are pending over it.
    wire_bytes: dict[str, bytes] = {}

    def build_payload(uid: tuple[str, str], inline: bool) -> dict:
        digest, trace = uid[0], units[uid][1]
        payload = tasks[uid].payload(
            trace.get(), inline=inline, trace_bytes=wire_bytes.get(digest), kernel=kernel
        )
        if not inline:
            wire_bytes.setdefault(digest, payload["trace_bytes"])
        return payload

    shards: dict[tuple[str, str], PredictorShard] = {}

    def accept_shard(uid: tuple[str, str], payload: dict) -> bool:
        shards[uid] = shard_from_dict(payload["shard"])
        return True

    phase_tasks = [
        PhaseTask(
            uid=uid,
            label=label,
            cache_key=tasks[uid].cache_key(),
            build_payload=lambda inline, uid=uid: build_payload(uid, inline),
        )
        for uid, (label, _) in units.items()
        if uid not in windowed
    ]
    run_phase(
        engine,
        PhaseSpec(
            name="simulate",
            kind="simulate",
            counter="simulations",
            tasks=phase_tasks,
            worker=execute_simulate_task,
            accept_cached=accept_shard,
            accept_fresh=accept_shard,
            total=presatisfied_count + len(phase_tasks),
            presatisfied_count=presatisfied_count,
            presatisfied_labels=presatisfied_labels,
        ),
    )
    if windowed:
        shards.update(run_windowed_simulations(engine, list(windowed.values())))
    return shards
