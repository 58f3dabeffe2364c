"""Task-graph scheduler: the trace and simulate phases, dispatch, merge.

Campaigns and sweeps are the same graph over the same cache keys, and both
run it through the two phase functions defined here, once each:

1. :func:`trace_phase` — trace tasks, deduplicated by cache key, probed
   in the cache (:func:`~repro.engine.phases.probe_phase`) under one
   materialisation policy, *lazy-with-repair*: a cache hit is a cheap
   digest and statistics probe, the trace is decoded on first use
   (:class:`LazyTrace`), and a corrupt body found then is re-traced,
   re-accounted and overwritten.  A miss comes back pending: the phase
   dispatches nothing;
2. :func:`simulate_phase` — one (trace digest, predictor) task per
   simulate cache entry, each simulated over the whole trace into a
   :class:`PredictorShard`, through the shared phase executor
   (:mod:`repro.engine.phases` — the probe → dispatch → put protocol).
   It dispatches one unit per trace, carrying all of the predictors
   whose entries missed.  The unit of a pending trace collects it and
   simulates the collected columns: no process decodes a cold trace,
   and the parent caches each entry as its unit returns.

:meth:`ExecutionEngine.run` adds the campaign's **merge**: a probe of the
merged per-benchmark entry first, and for the misses the shards are
recombined into the joint :class:`SimulationResult`, bit-identical to the
lockstep loop — inside the trace's unit (the parent ships it the shards
that were cache hits), or in the parent for a trace that got no unit
because every shard was a cache hit.  The engine holds at most one
decoded trace at a time: payloads are built as their units are
dispatched, and every read of a trace the engine makes for itself
decodes it for that one use (:meth:`LazyTrace.load`).  The campaign's
result keeps its traces lazy (:class:`CampaignTraces`): a trace is
decoded, and kept, when a caller first reads it, and Figure 10's per-PC
tallies come from ``profile`` cache entries or, when the run asks for
them (``tallies``, on by default), from the in-process unit that
collected the trace (:meth:`LazyTrace.pc_tallies`), so neither a fully
warm run nor a serial cold one decodes a trace for them.  The tally pass
costs a unit 1-5 ms per scale-1.0 trace, so a run whose caller never
reads the tallies (the ``campaign`` command) does not ask for it.
:func:`repro.engine.sweeps.execute_sweep` fans the shards out to its
sweep points instead.  Work runs on a pluggable
:class:`~repro.engine.backends.ExecutorBackend`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Hashable, Iterator, Mapping, Sequence

from repro.engine.backends import ExecutorBackend, resolve_backend
from repro.engine.cache import ResultCache
from repro.engine.codecs import (
    payload_trace,
    shard_from_dict,
    shard_to_dict,
    simulation_from_dict,
    simulation_to_dict,
    statistics_from_dict,
    tallies_from_dict,
    tallies_to_dict,
)
from repro.engine.config import EngineConfig
from repro.engine.fingerprint import key_digest, predictor_signature
from repro.engine.phases import PhaseSpec, PhaseTask, ProbeSpec, probe_phase, run_phase
from repro.engine.progress import NullProgress, ProgressListener
from repro.engine.tasks import (
    SimulateTask,
    TraceTask,
    merge_cache_key,
    profile_cache_key,
    simulate_payload,
)
from repro.engine.telemetry import NULL_TELEMETRY, TELEMETRY_KEY, Telemetry
from repro.simulation.simulator import PredictorShard, SimulationResult, merge_shards
from repro.simulation.value_profile import PcTallies, pc_tallies
from repro.trace.stream import TraceStatistics, ValueTrace


# The worker module (and through it the trace codecs) loads on a unit's
# first run, so a fully cached run never imports it; the process
# backends import it before they fork (``resolve_backend``).  The
# simulate phase dispatches the second and a trace repair
# (:meth:`LazyTrace.load`) runs the first, through these module
# attributes, which tests may replace.
def execute_trace_task(payload: dict) -> dict:
    """Trace one benchmark (:func:`repro.engine.worker.execute_trace_task`)."""
    from repro.engine.worker import execute_trace_task as run

    return run(payload)


def execute_simulate_task(payload: dict) -> dict:
    """Run one simulate unit (:func:`repro.engine.worker.execute_simulate_task`)."""
    from repro.engine.worker import execute_simulate_task as run

    return run(payload)


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
        tallies: bool = True,
    ):
        """Run one full campaign; returns a ``CampaignResult``.

        Results are bit-identical for every ``jobs`` value and every
        backend: parallelism only changes *where* each work unit executes,
        and the merge phase reassembles the exact lockstep accounting.
        ``tallies`` has an in-process unit that collects a trace also
        tally it for Figure 10 (:meth:`LazyTrace.pc_tallies`), so the
        result serves those tallies without decoding the trace; a caller
        that never reads them passes ``False`` and saves the tally pass.
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
            simulations = self._merge(predictors, benchmarks, traces, tallies)
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
    def _merge(self, predictors, benchmarks, traces, tallies: bool) -> dict:
        """Merge probe → simulate phase for the misses → merge and put.

        A merged result is fully determined by the trace content and the
        ordered predictor configurations, so fully-warm benchmarks skip
        both the shard fetches and the per-record merge pass.  A cold
        trace has no digest to probe with yet; its simulate unit collects
        it, simulates every predictor and merges in the worker.  Every
        other trace with a missing shard is merged in its unit too.  Only
        a trace that got no unit, because every shard was a cache hit but
        the merge entry was not, is merged here, from a decode that lasts
        only for its merge.
        """
        signatures = [[name, predictor_signature(name)] for name in predictors]
        simulations: dict = {}
        for benchmark in benchmarks:
            trace = traces[benchmark]
            if trace.pending or not self.cache:
                continue
            cached = self.cache.get("merge", merge_cache_key(trace.digest, signatures))
            if cached is not None:
                simulations[benchmark] = simulation_from_dict(cached["simulation"])
                self.stats.record("simulations", cached=True, count=len(predictors))

        missing = [benchmark for benchmark in benchmarks if benchmark not in simulations]
        shards, merged = simulate_phase(
            self,
            [(benchmark, traces[benchmark], predictors) for benchmark in missing],
            merge=True,
            tallies=tallies,
            presatisfied_count=len(simulations) * len(predictors),
            presatisfied_labels=[f"{benchmark}:*" for benchmark in simulations],
        )
        for benchmark in missing:
            trace = traces[benchmark]
            if trace.digest in merged:
                simulations[benchmark] = merged[trace.digest]
                continue
            simulations[benchmark] = merge_shards(
                trace.load(),
                {predictor: shards[(trace.digest, predictor)] for predictor in predictors},
            )
            if self.cache:
                self.cache.put(
                    "merge",
                    merge_cache_key(trace.digest, signatures),
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
        payloads: Sequence[dict],
        on_result: Callable[[int, dict], None],
    ) -> list[dict]:
        """Execute payloads on the configured backend, in input order.

        ``on_result(index, outcome)`` settles each payload's outcome as it
        arrives.
        """
        if not payloads:
            return []
        # Stamped per dispatch, not per engine: a shared backend instance
        # serves several engines, and dispatch spans must land in whichever
        # sink the engine currently driving it is wired to.
        self.backend.telemetry = self.telemetry
        return self.backend.map(function, payloads, on_result=on_result)


# --------------------------------------------------------------------------- #
# The two phases — one copy each, shared by campaigns and sweeps
# --------------------------------------------------------------------------- #
class LazyTrace:
    """One trace-phase result: digest and statistics now, the trace on demand.

    A cached entry passes the trace phase on a cheap probe (digest and
    statistics readable), so a fully warm run never decodes the embedded
    trace.  The object keeps the entry's v3 bytes, never the engine's
    own decodes: :meth:`load` decodes the bytes straight to array columns
    (:func:`~repro.engine.codecs.payload_trace`) for one use, so the engine
    holds at most one decoded trace at a time.  Only :meth:`get`, the
    public read behind ``CampaignResult.traces[name]``, keeps the trace it
    decodes.  When a decode finds a cached body corrupt, the trace is
    repaired: re-traced in the parent, accounted as computed rather than
    cached, and its cache entry overwritten so the repair sticks.  A fresh
    outcome that does not decode is a bug and raises.  :attr:`trace_binary`
    is the bytes once a decode has accepted them, so process backends are
    shipped exactly the cached entry's bytes, and never a corrupt body.
    :meth:`pc_tallies` serves Figure 10's per-PC tallies from the unit
    that collected the trace or from the cache when it can, so a serial
    cold run and a warm run read them without decoding the trace.

    ``payload`` is the trace's cache entry on a hit.  Without one the
    trace is *pending* (:attr:`pending`): the simulate unit that collects
    it hands its entry (and, in-process when the run asked, its tallies)
    to :meth:`accept`.  Until then it has no digest and no statistics.
    """

    def __init__(self, engine, task: TraceTask, label: str, payload: dict | None = None):
        self.task = task
        self.label = label
        self.digest: str | None = None
        self.statistics: TraceStatistics | None = None
        self._engine = engine
        self._payload: dict | None = None
        # A cache hit's body may be corrupt until a decode has accepted it.
        self._unchecked = payload is not None
        self._trace: ValueTrace | None = None
        self._tallies: PcTallies | None = None
        self._profiled = False
        if payload is not None:
            self.accept(payload)

    @property
    def pending(self) -> bool:
        """Whether the trace still waits for the simulate unit collecting it."""
        return self._payload is None

    def accept(self, payload: dict, tallies: PcTallies | None = None) -> None:
        """Take the trace's entry: a cache hit or a unit's fresh outcome.

        ``tallies`` are the trace's per-PC tallies when the unit that
        collected it ran in-process and handed them back.
        """
        self.digest = payload["digest"]
        self.statistics = statistics_from_dict(payload["statistics"])
        self._payload = payload
        self._tallies = tallies

    def get(self) -> ValueTrace:
        """The decoded trace, kept for every later read."""
        if self._trace is None:
            self._trace = self.load()
        return self._trace

    def load(self) -> ValueTrace:
        """The decoded trace for one use: decoded again next time, unless :meth:`get` kept it."""
        if self._trace is not None:
            return self._trace
        try:
            trace = payload_trace(self._payload)
        except Exception:
            if not self._unchecked:
                raise
            self._payload = self._repair()
            trace = payload_trace(self._payload)
        self._unchecked = False
        return trace

    def pc_tallies(self) -> PcTallies:
        """Figure 10's per-PC tallies of the trace, cached as a ``profile`` entry.

        A hit returns the entry's tallies without decoding the trace; a
        miss (absent, corrupt or malformed entry) writes the entry from the
        tallies the collecting unit handed back or, failing those, from a
        decode.  Only this lookup reads or writes ``profile`` entries, and
        it stays outside the run's stats: no trace or simulate counter
        moves.
        """
        if not self._profiled:
            cache = self._engine.cache
            key = profile_cache_key(self.digest)
            cached = cache.get("profile", key) if cache else None
            tallies = None
            if cached is not None:
                try:
                    tallies = tallies_from_dict(cached)
                except (KeyError, TypeError, ValueError):
                    pass
            if tallies is None:
                tallies = self._tallies if self._tallies is not None else pc_tallies(self.load())
                if cache:
                    cache.put("profile", key, tallies_to_dict(tallies))
            self._tallies, self._profiled = tallies, True
        return self._tallies

    @property
    def trace_binary(self) -> bytes:
        """The trace's compressed v3 bytes, once a decode has accepted them."""
        if self._unchecked:
            self.load()
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
            label=self.label,
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
    """Probe the trace phase; returns one :class:`LazyTrace` per caller uid.

    ``tasks`` maps the caller's uid to a ``(task, progress label)`` pair.
    Tasks sharing a cache key are probed (and count) once, under the label
    of their first appearance, and their uids share one
    :class:`LazyTrace`.  A hit is a cached :class:`LazyTrace`; a miss
    comes back pending, and the :func:`simulate_phase` unit that
    simulates the trace collects it (and accounts and reports it).
    """
    keys = {uid: key_digest(task.cache_key()) for uid, (task, _) in tasks.items()}
    first: dict[str, tuple[TraceTask, str]] = {}
    for uid, key in keys.items():
        first.setdefault(key, tasks[uid])
    traces: dict[str, LazyTrace] = {}

    def accept(key: str, payload: dict) -> bool:
        traces[key] = LazyTrace(engine, *first[key], payload)
        return True

    started = time.perf_counter()
    with engine.telemetry.span("phase", phase="trace", backend=engine.backend.name) as span:
        probe_phase(
            engine,
            ProbeSpec(
                name="trace",
                kind="trace",
                counter="traces",
                tasks=[
                    PhaseTask(uid=key, label=label, cache_key=task.cache_key(), unit=key)
                    for key, (task, label) in first.items()
                ],
                accept_cached=accept,
            ),
            span,
        )
    engine.stats.record_seconds("traces", time.perf_counter() - started)
    for key in first:
        if key not in traces:
            traces[key] = LazyTrace(engine, *first[key])
    return {uid: traces[key] for uid, key in keys.items()}


def simulate_phase(
    engine: ExecutionEngine,
    requests: Sequence[tuple[str, LazyTrace, Sequence[str]]],
    merge: bool = False,
    tallies: bool = False,
    presatisfied_count: int = 0,
    presatisfied_labels: Sequence[str] = (),
) -> tuple[dict[tuple[str, str], PredictorShard], dict[str, SimulationResult]]:
    """Run the simulate phase over ``(label, trace, predictors)`` requests.

    Returns one shard per ``(trace digest, predictor)`` and, with
    ``merge``, the results merged inside units by digest.
    Each ``(trace digest, predictor)`` pair is one task of the shared
    phase executor — probed, accounted and cached on its own, and
    labelled ``label:predictor`` — so traces of equal content share their
    simulations.  The pending pairs of one trace are dispatched as one
    unit, in request order: the worker gets the trace once and simulates
    each predictor over the whole trace from a fresh predictor.
    In-process backends get the decoded trace itself, decoded as the
    unit's payload is built and dropped with it; process backends get the
    trace's cached compressed v3 bytes (:attr:`LazyTrace.trace_binary`),
    never a re-encoding.  With ``merge``, every unit also merges its first
    request's predictors, in request order: its payload carries the
    trace's shards that were cache hits, and the parent caches the merge
    entry it returns.

    A pending trace's unit carries the trace task instead: the worker
    collects the trace, simulates all of the request's predictors and,
    with ``merge``, merges them and, in-process with ``tallies``, hands
    back the trace's Figure 10 per-PC tallies; the parent caches the
    trace, shard and merge entries as the outcome arrives.  An in-process
    unit hands its merged result back as it is, so only results from
    process workers are decoded.  Its simulate entries cannot be probed
    first (their key needs the digest), so a unit computes, and counts as
    computed, every predictor even when some entries survive in the
    cache; their bytes are the same.  An entry another trace of equal
    content already settled in this phase is counted once.
    ``presatisfied_count`` and ``presatisfied_labels`` report units the
    caller satisfied before the phase (the campaign's merge-level hits)
    as warm progress.
    """
    signatures = {
        predictor: predictor_signature(predictor)
        for _, _, predictors in requests
        for predictor in predictors
    }
    tasks: dict[Hashable, tuple[SimulateTask, LazyTrace]] = {}
    phase_tasks: list[PhaseTask] = []
    # Per unit: its tasks' uids and, with ``merge``, the predictors whose
    # shards it merges (those of the unit's first request).
    unit_uids: dict[Hashable, list[Hashable]] = {}
    orders: dict[Hashable, Sequence[str]] = {}
    for label, trace, predictors in requests:
        # A pending trace has no digest yet: its own object keys it.
        unit = trace if trace.pending else trace.digest
        if merge:
            orders.setdefault(unit, predictors)
        for predictor in predictors:
            uid = (unit, predictor)
            if uid in tasks:
                continue
            task = SimulateTask(predictor, trace.digest, signatures[predictor])
            tasks[uid] = (task, trace)
            unit_uids.setdefault(unit, []).append(uid)
            phase_tasks.append(
                PhaseTask(
                    uid=uid,
                    label=f"{label}:{predictor}",
                    cache_key=None if trace.pending else task.cache_key(),
                    unit=unit,
                )
            )

    shards: dict[tuple[str, str], PredictorShard] = {}
    merged: dict[str, SimulationResult] = {}

    def build_payload(unit_tasks: Sequence[PhaseTask], inline: bool) -> dict:
        unit = unit_tasks[0].unit
        trace = tasks[unit_tasks[0].uid][1]
        simulate_tasks = [tasks[task.uid][0] for task in unit_tasks]
        order = orders.get(unit)
        if trace.pending:
            return simulate_payload(
                simulate_tasks,
                trace_task=trace.task,
                inline=inline,
                merge=order,
                tallies=inline and tallies and merge,
            )
        form = {"trace": trace.load()} if inline else {"trace_bytes": trace.trace_binary}
        # The unit's cache hits, which its merge needs beside its own shards.
        own = {task.uid for task in unit_tasks}
        held = [uid for uid in unit_uids[unit] if uid not in own and uid in shards]
        return simulate_payload(
            simulate_tasks,
            **form,
            inline=inline,
            merge=order,
            shards={uid[1]: shard_to_dict(shards[uid]) for uid in held} if merge else None,
        )

    def accept_shard(uid: tuple[str, str], payload: dict) -> bool:
        shards[uid] = shard_from_dict(payload["shard"])
        return True

    def accept_unit(unit_tasks: Sequence[PhaseTask], outcome: dict, settle: Callable) -> None:
        """Settle a unit's outcome: its trace entry, then its shards, then its merge.

        The merge entry is put last, so a run killed in between never
        leaves one without its shards (a resume would take the merge hit
        and never write them).
        """
        unit = unit_tasks[0].unit
        trace = tasks[unit_tasks[0].uid][1]
        entry = outcome.pop("trace", None)
        if entry is not None:
            # A pending trace's unit: take its entry and key its tasks.
            trace.accept(entry, tallies=outcome.pop("tallies", None))
            engine.stats.record("traces", cached=False)
            if engine.cache:
                engine.cache.put("trace", trace.task.cache_key(), entry)
            engine.progress.task_finished("trace", trace.label, cached=False)
            unit_tasks = [
                replace(
                    phase_task,
                    uid=(trace.digest, phase_task.uid[1]),
                    cache_key=replace(tasks[phase_task.uid][0], trace_digest=trace.digest).cache_key(),
                )
                for phase_task in unit_tasks
            ]
        settle(unit_tasks)
        merge_entry = outcome.pop("merge", None)
        if merge_entry is not None:
            # An in-process unit hands the merged result over as it is.
            result = outcome.pop("merged", None)
            if result is None:
                result = simulation_from_dict(merge_entry["simulation"])
            merged[trace.digest] = result
            if engine.cache:
                pairs = [[predictor, signatures[predictor]] for predictor in orders[unit]]
                engine.cache.put("merge", merge_cache_key(trace.digest, pairs), merge_entry)

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
            accept_unit=accept_unit,
        ),
    )
    return shards, merged
