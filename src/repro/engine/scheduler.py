"""Task-graph scheduler: the trace and simulate phases, dispatch, merge.

Campaigns and sweeps are the same graph over the same cache keys, and both
run it through the two phase functions defined here, once each:

1. :func:`trace_phase` — trace tasks, deduplicated by cache key, run
   through the shared phase executor (:mod:`repro.engine.phases` — the
   probe → dispatch → put protocol) under one materialisation policy,
   *lazy-with-repair*: a cache hit is a cheap digest and statistics
   probe, the trace is decoded on first use (:class:`LazyTrace`), and a
   corrupt body found then is re-traced, re-accounted and overwritten;
2. :func:`simulate_phase` — one (trace digest, predictor) task per
   simulate cache entry, each simulated over the whole trace into a
   :class:`PredictorShard`; the phase executor dispatches one unit per
   trace, carrying the predictors whose entries missed.

:meth:`ExecutionEngine.run` adds the campaign's **merge**: a probe of the
merged per-benchmark entry first, and for the misses the shards are
recombined into the joint :class:`SimulationResult`, bit-identical to the
lockstep loop.  The campaign's result keeps its traces lazy
(:class:`CampaignTraces`): a trace is decoded when a caller first reads
it, and Figure 10's per-PC tallies come from ``profile`` cache entries
(:meth:`LazyTrace.pc_tallies`), so a fully warm run decodes no trace.
:func:`repro.engine.sweeps.execute_sweep` fans the shards out to its
sweep points instead.  Work runs on a pluggable
:class:`~repro.engine.backends.ExecutorBackend`; the merge is a cheap
single pass in the parent.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable, Hashable, Iterator, Mapping, Sequence

from repro.engine.backends import ExecutorBackend, resolve_backend
from repro.engine.cache import ResultCache
from repro.engine.codecs import (
    payload_trace,
    shard_from_dict,
    simulation_from_dict,
    simulation_to_dict,
    statistics_from_dict,
    tallies_from_dict,
    tallies_to_dict,
)
from repro.engine.config import EngineConfig
from repro.engine.fingerprint import key_digest, predictor_signature
from repro.engine.phases import PhaseSpec, PhaseTask, run_phase
from repro.engine.progress import NullProgress, ProgressListener
from repro.engine.tasks import (
    TASK_FORMAT_VERSION,
    SimulateTask,
    TraceTask,
    profile_cache_key,
    simulate_payload,
)
from repro.engine.telemetry import NULL_TELEMETRY, TELEMETRY_KEY, Telemetry
from repro.engine.worker import INLINE_TRACE_KEY, execute_simulate_task, execute_trace_task
from repro.simulation.simulator import PredictorShard, merge_shards
from repro.simulation.value_profile import PcTallies, pc_tallies
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
    total_seconds: float = 0.0
    trace_seconds: float = 0.0
    simulate_seconds: float = 0.0
    cache_hit_bytes: int = 0
    cache_write_bytes: int = 0

    #: Phase-counter name -> the field its phase duration accumulates into.
    _SECONDS_FIELDS = {
        "traces": "trace_seconds",
        "simulations": "simulate_seconds",
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
        jobs, cache, GC bounds, backend);
        ``None`` means ``EngineConfig()`` — serial and cache-less.
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
            else resolve_backend(config.backend, config.jobs)
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
            traces=CampaignTraces({name: traces[name] for name in benchmarks}),
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
        (the resolved backend's name; no directory when caching is off).
        """
        self.telemetry.annotate(
            **{
                **asdict(self.config),
                "backend": self.backend.name,
                "cache_dir": str(self.cache.root) if self.cache else None,
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
        labels: Sequence[Sequence[str]],
        payloads: Sequence[dict],
    ) -> list[dict]:
        """Execute payloads on the configured backend, in input order.

        ``labels[index]`` names the tasks payload ``index`` carries; each
        gets its ``task_finished`` event when that payload's outcome
        arrives.
        """
        if not payloads:
            return []
        # Stamped per dispatch, not per engine: a shared backend instance
        # serves several engines, and dispatch spans must land in whichever
        # sink the engine currently driving it is wired to.
        self.backend.telemetry = self.telemetry

        def finished(index: int) -> None:
            for label in labels[index]:
                self.progress.task_finished(phase, label, cached=False)

        return self.backend.map(function, payloads, on_result=finished)


# --------------------------------------------------------------------------- #
# The two phases — one copy each, shared by campaigns and sweeps
# --------------------------------------------------------------------------- #
class LazyTrace:
    """One trace-phase result: digest and statistics now, the trace on first use.

    A cached entry passes the trace phase on a cheap probe (digest and
    statistics readable), so a fully warm run never decodes the embedded
    trace.  A trace computed in-process (serial backend) is the trace
    task's own object, handed over in its outcome entry, so :meth:`get` returns
    it with no decode; otherwise :meth:`get` decodes the v3 bytes straight
    to array columns (:func:`~repro.engine.codecs.payload_trace`).  When
    it finds a cached body corrupt, the trace is repaired: re-traced in
    the parent, accounted as computed rather than cached, and its cache
    entry overwritten so the repair sticks.  A fresh outcome that does not
    decode is a bug and raises.  :attr:`trace_binary` is the bytes
    :meth:`get` accepted, so process backends are shipped exactly what
    the trace phase produced, and never a corrupt body.  :meth:`pc_tallies`
    serves Figure 10's per-PC tallies from the cache when it can, so a
    warm run reads them without decoding the trace.
    """

    def __init__(self, engine, task: TraceTask, label: str, payload: dict, cached: bool):
        self.digest: str = payload["digest"]
        self.statistics: TraceStatistics = statistics_from_dict(payload["statistics"])
        self.task = task
        self._engine = engine
        self._label = label
        self._payload = payload
        self._cached = cached
        # An in-process trace task hands its trace over; taken out here,
        # before the phase caches the outcome.
        self._trace: ValueTrace | None = payload.pop(INLINE_TRACE_KEY, None)
        self._tallies: PcTallies | None = None

    def get(self) -> ValueTrace:
        if self._trace is None:
            try:
                self._trace = payload_trace(self._payload)
            except Exception:
                if not self._cached:
                    raise
                self._payload = self._repair()
                self._trace = payload_trace(self._payload)
        return self._trace

    def pc_tallies(self) -> PcTallies:
        """Figure 10's per-PC tallies of the trace, cached as a ``profile`` entry.

        A hit returns the entry's tallies without decoding the trace; a
        miss (absent, corrupt or malformed entry) tallies :meth:`get` and
        writes the entry.  Only this lookup reads or writes ``profile``
        entries, and it stays outside the run's stats: no trace or
        simulate counter moves.
        """
        if self._tallies is None:
            cache = self._engine.cache
            key = profile_cache_key(self.digest)
            cached = cache.get("profile", key) if cache else None
            if cached is not None:
                try:
                    self._tallies = tallies_from_dict(cached)
                except (KeyError, TypeError, ValueError):
                    pass
            if self._tallies is None:
                self._tallies = pc_tallies(self.get())
                if cache:
                    cache.put("profile", key, tallies_to_dict(self._tallies))
        return self._tallies

    @property
    def trace_binary(self) -> bytes:
        """The trace's compressed v3 bytes, once :meth:`get` has accepted them."""
        self.get()
        return self._payload["trace_binary"]

    def _repair(self) -> dict:
        engine = self._engine
        outcome = execute_trace_task(self.task.payload())
        # Repairs bypass the phase executor, so the worker's sidecar is
        # re-emitted here; only the outcome's entry is cached, as there.
        sidecar = outcome[TELEMETRY_KEY]
        engine.telemetry.span_record(
            "task",
            sidecar["execute_seconds"],
            phase="trace",
            label=self._label,
            worker_pid=sidecar["pid"],
            function=sidecar["function"],
            repair=True,
        )
        engine.stats.traces_computed += 1
        engine.stats.traces_cached -= 1
        (entry,) = outcome["outcomes"]
        if engine.cache:
            engine.cache.put("trace", self.task.cache_key(), entry)
        return entry


class CampaignTraces(Mapping):
    """A campaign's traces by benchmark, read-only, over the run's lazy traces.

    ``traces[name]`` decodes that trace on first read (memoised in its
    :class:`LazyTrace`, which repairs a corrupt cached body); iterating,
    ``len`` and ``in`` decode nothing.
    """

    def __init__(self, traces: Mapping[str, LazyTrace]) -> None:
        self._traces = dict(traces)

    def __getitem__(self, name: str) -> ValueTrace:
        return self._traces[name].get()

    def __contains__(self, name: object) -> bool:
        return name in self._traces

    def __iter__(self) -> Iterator[str]:
        return iter(self._traces)

    def __len__(self) -> int:
        return len(self._traces)

    def pc_tallies(self, name: str) -> PcTallies:
        """Figure 10's per-PC tallies of one trace (:meth:`LazyTrace.pc_tallies`)."""
        return self._traces[name].pc_tallies()


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
                PhaseTask(uid=key, label=label, cache_key=task.cache_key(), unit=key)
                for key, (task, label) in first.items()
            ],
            build_payload=lambda chunk, inline: first[chunk[0].uid][0].payload(inline=inline),
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
    label and trace.  Each pair is one task of the shared phase executor
    — probed, accounted and cached on its own — and the pending pairs of
    one trace are dispatched as one unit, in ``units`` order: the worker
    gets the trace once and simulates each predictor over the whole
    trace from a fresh predictor.  In-process backends get the decoded
    trace itself; process backends get the trace phase's own compressed
    v3 bytes (:attr:`LazyTrace.trace_binary`), never a re-encoding.
    ``presatisfied_count`` and ``presatisfied_labels`` report units the
    caller satisfied before the phase (the campaign's merge-level hits)
    as warm progress.
    """
    signatures = {
        predictor: predictor_signature(predictor)
        for predictor in dict.fromkeys(predictor for _, predictor in units)
    }
    tasks = {
        (digest, predictor): SimulateTask(
            predictor=predictor,
            trace_digest=digest,
            predictor_signature=signatures[predictor],
        )
        for digest, predictor in units
    }

    def build_payload(chunk: Sequence[PhaseTask], inline: bool) -> dict:
        # Both branches decode the trace in the parent first, so a corrupt
        # cached body is repaired before any worker sees its bytes.
        trace = units[chunk[0].uid][1]
        chunk_tasks = [tasks[task.uid] for task in chunk]
        if inline:
            return simulate_payload(chunk_tasks, trace=trace.get())
        return simulate_payload(chunk_tasks, trace_bytes=trace.trace_binary)

    shards: dict[tuple[str, str], PredictorShard] = {}

    def accept_shard(uid: tuple[str, str], payload: dict) -> bool:
        shards[uid] = shard_from_dict(payload["shard"])
        return True

    phase_tasks = [
        PhaseTask(uid=uid, label=label, cache_key=tasks[uid].cache_key(), unit=uid[0])
        for uid, (label, _) in units.items()
    ]
    run_phase(
        engine,
        PhaseSpec(
            name="simulate",
            kind="simulate",
            counter="simulations",
            tasks=phase_tasks,
            build_payload=build_payload,
            worker=execute_simulate_task,
            accept_cached=accept_shard,
            accept_fresh=accept_shard,
            total=presatisfied_count + len(phase_tasks),
            presatisfied_count=presatisfied_count,
            presatisfied_labels=presatisfied_labels,
        ),
    )
    return shards
