"""Whole-suite simulation campaigns — a façade over the execution engine.

Most of the paper's evaluation artefacts (Tables 2, 4, 5 and Figures 3-10)
are different views of the *same* underlying run: every benchmark traced
once, every trace fed to the same predictor line-up.  :func:`run_campaign`
performs that run through :class:`repro.engine.ExecutionEngine`, which
decomposes it into independent work units, optionally spreads them over a
``multiprocessing`` pool (``jobs``) and backs them with a persistent
on-disk cache (``cache_dir``) shared across processes.

Within one process, results are additionally memoised by
``(scale, predictor fingerprints, benchmarks)`` so regenerating several
tables and figures does not re-simulate the suite each time.  The
fingerprint covers each predictor's *configuration* (not just its registry
name), so re-binding a name to a different configuration cannot serve
stale results.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from repro.core.registry import PAPER_PREDICTORS
from repro.simulation.simulator import SimulationResult
from repro.trace.stream import TraceStatistics, ValueTrace
from repro.workloads.suite import BENCHMARK_ORDER

if TYPE_CHECKING:  # imported lazily at runtime: repro.engine imports this
    # module's CampaignResult, so a top-level import would be circular.
    from repro.engine.progress import ProgressListener
    from repro.engine.scheduler import EngineStats

#: Default scale used by experiments when none is specified.  Chosen so a
#: full campaign (7 benchmarks x 5 predictors) completes in well under a
#: minute of pure-Python simulation while leaving every predictor deep in
#: steady state; pass a different scale to trade time for trace length.
DEFAULT_SCALE = 1.0

#: Reduced scale used by unit/integration tests and quick CLI runs.  Large
#: enough that the paper's qualitative ordering (last value < stride < fcm)
#: already holds, small enough to keep the test suite fast.
QUICK_SCALE = 0.3


@dataclass
class CampaignResult:
    """Everything produced by one suite-wide run."""

    scale: float
    predictor_names: tuple[str, ...]
    traces: dict[str, ValueTrace]
    statistics: dict[str, TraceStatistics]
    simulations: dict[str, SimulationResult]

    def benchmarks(self) -> tuple[str, ...]:
        return tuple(self.traces)


@dataclass
class EngineDefaults:
    """Process-wide engine settings used when ``run_campaign`` and
    ``run_sweep`` callers (e.g. the experiment modules) do not pass their
    own."""

    jobs: int = 1
    cache_dir: str | Path | None = None
    use_cache: bool = True
    cache_max_bytes: int | None = None
    cache_max_age: float | None = None
    backend: str | None = None
    workers: tuple[str, ...] | None = None
    #: Telemetry sink engines built from the defaults report into
    #: (:class:`repro.engine.telemetry.Telemetry`); ``None`` means the
    #: always-cheap null sink.  The CLI wires ``--telemetry-dir`` here so
    #: experiment entry points record runs without signature changes.
    telemetry: object | None = None
    #: Simulation kernel (``"scalar"``/``"vector"``/``"auto"``); ``None``
    #: defers to the ``REPRO_KERNEL`` environment variable.  Never part of
    #: cache keys — kernels are bit-identical.
    kernel: str | None = None
    #: Intra-trace sharding window (:mod:`repro.engine.sharding`):
    #: ``None`` (off), a positive record count, or ``"auto"``.  Like the
    #: kernel, never part of cache keys — sharded and unsharded runs are
    #: bit-identical.
    shard_window: int | str | None = None


_CACHE: dict[tuple, CampaignResult] = {}
_ENGINE_DEFAULTS = EngineDefaults()
_LAST_STATS: EngineStats | None = None
#: Shared executor backends, keyed by (name, jobs).  Only the persistent
#: backend is stateful enough to be worth sharing: handing every engine
#: built from the process-wide defaults the *same* instance keeps its
#: warm workers alive across campaigns and sweeps (e.g. the tables and
#: figures of one ``repro-vp experiments`` invocation), which is the
#: whole point of that backend.
_SHARED_BACKENDS: dict[tuple[str, int], object] = {}


def campaign_scale_for(profile: str) -> float:
    """Map a profile name (``"default"``/``"quick"``) to a scale factor."""
    return QUICK_SCALE if profile == "quick" else DEFAULT_SCALE


def set_campaign_defaults(
    jobs: int | None = None,
    cache_dir: str | Path | None = None,
    use_cache: bool | None = None,
    cache_max_bytes: int | None = None,
    cache_max_age: float | None = None,
    backend: str | None = None,
    workers: tuple[str, ...] | None = None,
    telemetry: object | None = None,
    kernel: str | None = None,
    shard_window: int | str | None = None,
) -> None:
    """Configure the engine used by default for subsequent campaigns/sweeps.

    The CLI routes ``--jobs``/``--cache-dir``/``--no-cache``/
    ``--cache-max-bytes``/``--cache-max-age``/
    ``--backend``/``--workers``/``--kernel``/``--shard-window`` through
    here so that the experiment entry points — whose signatures only carry
    ``scale`` — still execute on the configured engine.
    """
    if jobs is not None:
        _ENGINE_DEFAULTS.jobs = max(1, int(jobs))
    if cache_dir is not None:
        _ENGINE_DEFAULTS.cache_dir = cache_dir
    if use_cache is not None:
        _ENGINE_DEFAULTS.use_cache = use_cache
    if cache_max_bytes is not None:
        _ENGINE_DEFAULTS.cache_max_bytes = cache_max_bytes
    if cache_max_age is not None:
        _ENGINE_DEFAULTS.cache_max_age = cache_max_age
    if backend is not None:
        _ENGINE_DEFAULTS.backend = backend
    if workers is not None:
        _ENGINE_DEFAULTS.workers = tuple(workers)
    if telemetry is not None:
        _ENGINE_DEFAULTS.telemetry = telemetry
    if kernel is not None:
        _ENGINE_DEFAULTS.kernel = kernel
    if shard_window is not None:
        _ENGINE_DEFAULTS.shard_window = shard_window


def reset_campaign_defaults() -> None:
    """Restore the serial, cache-less engine defaults (used by tests)."""
    _ENGINE_DEFAULTS.jobs = 1
    _ENGINE_DEFAULTS.cache_dir = None
    _ENGINE_DEFAULTS.use_cache = True
    _ENGINE_DEFAULTS.cache_max_bytes = None
    _ENGINE_DEFAULTS.cache_max_age = None
    _ENGINE_DEFAULTS.backend = None
    _ENGINE_DEFAULTS.workers = None
    _ENGINE_DEFAULTS.telemetry = None
    _ENGINE_DEFAULTS.kernel = None
    _ENGINE_DEFAULTS.shard_window = None
    for shared in _SHARED_BACKENDS.values():
        shared.close()
    _SHARED_BACKENDS.clear()


def engine_defaults() -> EngineDefaults:
    """The live process-wide engine defaults (shared with the sweep layer)."""
    return _ENGINE_DEFAULTS


def build_engine(
    jobs: int | None = None,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    progress: ProgressListener | None = None,
    backend: str | None = None,
    workers: tuple[str, ...] | None = None,
    telemetry=None,
    kernel: str | None = None,
    shard_window: int | str | None = None,
):
    """Construct an :class:`ExecutionEngine` from the process-wide defaults.

    Used by :func:`run_campaign` and :func:`repro.engine.sweeps.run_sweep`
    so both entry points resolve unset parameters — including the
    post-run GC bounds and the executor backend — identically.  The
    ``"persistent"`` and ``"remote"`` backends resolve to one
    process-wide shared instance per configuration, so warm local workers
    (and handshaken remote connections) survive across the engines these
    façades build.
    """
    from repro.engine.scheduler import ExecutionEngine

    jobs = _ENGINE_DEFAULTS.jobs if jobs is None else jobs
    backend = _ENGINE_DEFAULTS.backend if backend is None else backend
    workers = _ENGINE_DEFAULTS.workers if workers is None else tuple(workers)
    if backend == "persistent":
        key = (backend, jobs)
        shared = _SHARED_BACKENDS.get(key)
        if shared is None:
            from repro.engine.backends import PersistentWorkerBackend

            shared = PersistentWorkerBackend(jobs)
            _SHARED_BACKENDS[key] = shared
        backend = shared
    elif backend == "remote":
        key = (backend, jobs, workers)
        shared = _SHARED_BACKENDS.get(key)
        if shared is None:
            from repro.engine.backends import resolve_backend

            shared = resolve_backend("remote", jobs, workers=workers)
            _SHARED_BACKENDS[key] = shared
        backend = shared
    return ExecutionEngine(
        jobs=jobs,
        cache_dir=_ENGINE_DEFAULTS.cache_dir if cache_dir is None else cache_dir,
        use_cache=use_cache,
        progress=progress,
        cache_max_bytes=_ENGINE_DEFAULTS.cache_max_bytes,
        cache_max_age=_ENGINE_DEFAULTS.cache_max_age,
        backend=backend,
        workers=workers,
        telemetry=_ENGINE_DEFAULTS.telemetry if telemetry is None else telemetry,
        kernel=_ENGINE_DEFAULTS.kernel if kernel is None else kernel,
        shard_window=(
            _ENGINE_DEFAULTS.shard_window if shard_window is None else shard_window
        ),
    )


def last_engine_stats() -> EngineStats | None:
    """Stats of the most recent engine run (``None`` before any run)."""
    return _LAST_STATS


def record_engine_stats(stats: EngineStats) -> None:
    """Publish an engine run's stats as the most recent (sweeps use this)."""
    global _LAST_STATS
    _LAST_STATS = stats


def run_campaign(
    scale: float = DEFAULT_SCALE,
    predictors: tuple[str, ...] = PAPER_PREDICTORS,
    benchmarks: tuple[str, ...] = BENCHMARK_ORDER,
    use_cache: bool = True,
    jobs: int | None = None,
    cache_dir: str | Path | None = None,
    progress: ProgressListener | None = None,
    backend: str | None = None,
    workers: tuple[str, ...] | None = None,
    kernel: str | None = None,
    shard_window: int | str | None = None,
) -> CampaignResult:
    """Trace every benchmark and simulate every predictor over each trace.

    ``use_cache`` governs both the in-process memo and the on-disk cache;
    ``jobs``/``cache_dir``/``backend``/``workers`` default to the
    process-wide engine settings (see :func:`set_campaign_defaults`).
    """
    from repro.engine.fingerprint import predictors_fingerprint

    global _LAST_STATS
    use_cache = use_cache and _ENGINE_DEFAULTS.use_cache
    key = (
        round(scale, 6),
        predictors_fingerprint(predictors),
        tuple(benchmarks),
    )
    if use_cache and key in _CACHE:
        return _CACHE[key]

    engine = build_engine(
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
        progress=progress,
        backend=backend,
        workers=workers,
        kernel=kernel,
        shard_window=shard_window,
    )
    try:
        result = engine.run(
            scale=scale, predictors=tuple(predictors), benchmarks=tuple(benchmarks)
        )
    finally:
        engine.close()
    _LAST_STATS = engine.stats
    if use_cache:
        _CACHE[key] = result
    return result


def clear_campaign_cache() -> None:
    """Drop all in-process cached campaign results (used by tests)."""
    _CACHE.clear()


def campaign_statistics(campaign: CampaignResult) -> Mapping[str, TraceStatistics]:
    """Convenience accessor kept for symmetry with the experiment modules."""
    return campaign.statistics
