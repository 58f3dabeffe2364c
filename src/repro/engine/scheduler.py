"""Task-graph scheduler: decompose, dispatch, cache, merge.

A campaign run proceeds in three phases:

1. **trace** — every benchmark not already in the cache is traced (on the
   configured executor backend) and stored in the result cache;
2. **simulate** — every (trace, predictor) pair not in the cache is
   simulated into a :class:`PredictorShard`;
3. **merge** — shards are recombined per benchmark into the joint
   :class:`SimulationResult`, bit-identical to the lockstep loop.

Phases 1 and 2 are embarrassingly parallel and run through the shared
phase executor (:mod:`repro.engine.phases` — the probe → dispatch → put
protocol, used by campaigns and sweeps alike) on a pluggable
:class:`~repro.engine.backends.ExecutorBackend`; the merge is a cheap
single pass in the parent.  All cross-process data uses the JSON codecs,
so every backend and the cache path share one representation.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

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
from repro.engine.fingerprint import predictor_signature
from repro.engine.phases import PhaseSpec, PhaseTask, run_phase
from repro.engine.progress import NullProgress, ProgressListener
from repro.engine.sharding import (
    WindowedUnit,
    plan_shard_windows,
    run_windowed_simulations,
)
from repro.engine.tasks import TASK_FORMAT_VERSION, SimulateTask, TraceTask
from repro.engine.telemetry import NULL_TELEMETRY, Telemetry
from repro.engine.worker import execute_simulate_task, execute_trace_task
from repro.simulation.simulator import PredictorShard, merge_shards


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
        predictors = tuple(predictors)
        benchmarks = tuple(benchmarks)
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
            traces, digests, statistics = self._trace_phase(scale, benchmarks)
            simulations = self._simulate_phase(
                predictors, benchmarks, traces, digests, stats
            )
            stats.total_seconds = time.perf_counter() - started
            self._finish_run_stats(stats, cache_base, run_span)
        self.progress.campaign_finished(stats)
        self._auto_gc(run_started_wall)
        return CampaignResult(
            scale=scale,
            predictor_names=predictors,
            traces=traces,
            statistics=statistics,
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
    # Phases — thin configurations of the shared phase executor
    # ------------------------------------------------------------------ #
    def _trace_phase(
        self, scale: float, benchmarks: tuple[str, ...]
    ) -> tuple[dict, dict[str, str], dict]:
        tasks = {
            name: TraceTask.for_workload(name, scale=scale) for name in benchmarks
        }
        traces: dict = {}
        digests: dict[str, str] = {}
        statistics: dict = {}

        def materialise(name: str, payload: dict) -> None:
            traces[name] = payload_trace(payload)
            digests[name] = payload["digest"]
            statistics[name] = statistics_from_dict(payload["statistics"])

        def accept_cached(name: str, payload: dict) -> bool:
            # Eager materialisation policy: binary cache hits materialise
            # straight from the v3 bytes and use the stored digest, so the
            # canonical text is never rebuilt on the warm path.  A payload
            # whose embedded trace is corrupt is treated as a miss: the
            # benchmark is re-traced instead of crashing the run.
            try:
                materialise(name, payload)
            except Exception:
                traces.pop(name, None)
                digests.pop(name, None)
                return False
            return True

        run_phase(
            self,
            PhaseSpec(
                name="trace",
                kind="trace",
                counter="traces",
                tasks=[
                    PhaseTask(
                        uid=name,
                        label=name,
                        cache_key=tasks[name].cache_key(),
                        build_payload=lambda inline, task=tasks[name]: task.payload(),
                    )
                    for name in benchmarks
                ],
                worker=execute_trace_task,
                accept_cached=accept_cached,
                accept_fresh=materialise,
            ),
        )
        return traces, digests, statistics

    def _simulate_phase(
        self,
        predictors: tuple[str, ...],
        benchmarks: tuple[str, ...],
        traces: dict,
        digests: dict[str, str],
        stats: EngineStats,
    ) -> dict:
        signatures = {name: predictor_signature(name) for name in predictors}
        # A merged result is fully determined by the trace content and the
        # ordered predictor configurations, so fully-warm benchmarks skip
        # both the shard fetches and the per-record merge pass.
        merge_keys = {
            benchmark: {
                "kind": "merge",
                "format": TASK_FORMAT_VERSION,
                "trace": digests[benchmark],
                "predictors": [[name, signatures[name]] for name in predictors],
            }
            for benchmark in benchmarks
        }
        simulations: dict = {}
        if self.cache:
            for benchmark in benchmarks:
                cached = self.cache.get("merge", merge_keys[benchmark])
                if cached is not None:
                    simulations[benchmark] = simulation_from_dict(cached["simulation"])
                    stats.record("simulations", cached=True, count=len(predictors))

        shards: dict[str, dict[str, PredictorShard]] = {
            benchmark: {} for benchmark in benchmarks if benchmark not in simulations
        }
        # Intra-trace sharding: benchmarks whose trace gets a window plan
        # run through the sharded path (replay + windows + stitch) instead
        # of the pair-level simulate phase.  Results and pair-level cache
        # entries are bit-identical either way.
        shard_plans: dict[str, list[tuple[int, int]]] = {}
        if self.config.shard_window is not None:
            slots = self.backend.parallel_slots()
            for benchmark in shards:
                windows = plan_shard_windows(
                    self.config.shard_window, len(traces[benchmark]), slots
                )
                if windows is not None:
                    shard_plans[benchmark] = windows
        # Encode each trace for the pool wire at most once, however many
        # predictors are pending over it.
        wire_bytes: dict[str, bytes] = {}

        def build_payload(task: SimulateTask, inline: bool) -> dict:
            if inline:
                return task.payload(
                    traces[task.benchmark], inline=True, kernel=self.config.kernel
                )
            if task.benchmark not in wire_bytes:
                from repro.trace.io import dumps_trace_binary

                wire_bytes[task.benchmark] = dumps_trace_binary(
                    traces[task.benchmark], compress=True
                )
            return task.payload(
                None,
                inline=False,
                trace_bytes=wire_bytes[task.benchmark],
                kernel=self.config.kernel,
            )

        def accept_shard(uid: tuple[str, str], payload: dict) -> bool:
            benchmark, predictor = uid
            shards[benchmark][predictor] = shard_from_dict(payload["shard"])
            return True

        phase_tasks = []
        for benchmark in benchmarks:
            if benchmark in simulations or benchmark in shard_plans:
                continue
            for predictor in predictors:
                task = SimulateTask(
                    benchmark=benchmark,
                    predictor=predictor,
                    trace_digest=digests[benchmark],
                    predictor_signature=signatures[predictor],
                )
                phase_tasks.append(
                    PhaseTask(
                        uid=(benchmark, predictor),
                        label=f"{benchmark}:{predictor}",
                        cache_key=task.cache_key(),
                        build_payload=lambda inline, task=task: build_payload(
                            task, inline
                        ),
                    )
                )

        run_phase(
            self,
            PhaseSpec(
                name="simulate",
                kind="simulate",
                counter="simulations",
                tasks=phase_tasks,
                worker=execute_simulate_task,
                accept_cached=accept_shard,
                accept_fresh=accept_shard,
                total=(len(benchmarks) - len(shard_plans)) * len(predictors),
                presatisfied_count=len(simulations) * len(predictors),
                presatisfied_labels=[
                    f"{benchmark}:*" for benchmark in benchmarks if benchmark in simulations
                ],
            ),
        )

        if shard_plans:
            units = [
                WindowedUnit(
                    uid=(benchmark, predictor),
                    label=f"{benchmark}:{predictor}",
                    benchmark=benchmark,
                    predictor=predictor,
                    trace_digest=digests[benchmark],
                    predictor_signature=signatures[predictor],
                    windows=tuple(shard_plans[benchmark]),
                    get_trace=lambda benchmark=benchmark: traces[benchmark],
                )
                for benchmark in shard_plans
                for predictor in predictors
            ]
            for (benchmark, predictor), shard in run_windowed_simulations(
                self, units
            ).items():
                shards[benchmark][predictor] = shard

        for benchmark in benchmarks:
            if benchmark in simulations:
                continue
            merged = merge_shards(
                traces[benchmark],
                {predictor: shards[benchmark][predictor] for predictor in predictors},
                kernel=self.config.kernel,
            )
            simulations[benchmark] = merged
            if self.cache:
                self.cache.put(
                    "merge",
                    merge_keys[benchmark],
                    {"simulation": simulation_to_dict(merged)},
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
