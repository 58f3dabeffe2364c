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

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Hashable

from repro.core.registry import PAPER_PREDICTORS
from repro.engine.config import EngineConfig
from repro.simulation.simulator import SimulationResult
from repro.simulation.value_profile import PcTallies
from repro.trace.stream import TraceStatistics
from repro.workloads.suite import BENCHMARK_ORDER

if TYPE_CHECKING:  # imported lazily at runtime: repro.engine imports this
    # module's CampaignResult, so a top-level import would be circular.
    from repro.engine.backends import ExecutorBackend
    from repro.engine.scheduler import CampaignTraces, EngineStats, ExecutionEngine
    from repro.engine.telemetry import Telemetry

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
    """Everything produced by one suite-wide run.

    ``traces`` is lazy: a read-only mapping
    (:class:`~repro.engine.scheduler.CampaignTraces`) that decodes a
    benchmark's trace on its first ``traces[name]`` and keeps it.  Nothing
    else here needs a decoded trace — ``statistics`` come with the cache
    probe and :meth:`pc_tallies` from the result cache — so a warm run
    that reads only those decodes no trace.
    """

    scale: float
    predictor_names: tuple[str, ...]
    traces: CampaignTraces
    statistics: dict[str, TraceStatistics]
    simulations: dict[str, SimulationResult]

    def benchmarks(self) -> tuple[str, ...]:
        return tuple(self.traces)

    def pc_tallies(self, benchmark: str) -> PcTallies:
        """Figure 10's per-PC tallies of one benchmark's trace.

        Read from the run's result cache (a ``profile`` entry) when it
        holds them; otherwise tallied from the trace and cached.
        """
        return self.traces.pc_tallies(benchmark)


_CACHE: dict[tuple, CampaignResult] = {}
#: Process-wide engine settings and telemetry sink for the engines
#: :func:`build_engine` makes; ``None`` stands for ``EngineConfig()``,
#: built on first use so importing this module never reads the
#: environment.
_DEFAULT_CONFIG: EngineConfig | None = None
_DEFAULT_TELEMETRY: Telemetry | None = None
_LAST_STATS: EngineStats | None = None
#: Shared persistent backends, keyed by ``jobs``.  Only the persistent
#: backend is stateful enough to be worth sharing: handing every engine
#: built from the process-wide defaults the *same* instance keeps warm
#: workers alive across campaigns and sweeps (e.g. the tables and
#: figures of one ``repro-vp experiments`` invocation), which is the
#: whole point of that backend.
_SHARED_BACKENDS: dict[int, ExecutorBackend] = {}


def campaign_scale_for(profile: str) -> float:
    """Map a profile name (``"default"``/``"quick"``) to a scale factor."""
    return QUICK_SCALE if profile == "quick" else DEFAULT_SCALE


def set_campaign_defaults(config: EngineConfig, telemetry: Telemetry | None = None) -> None:
    """Replace the engine settings used by subsequent campaigns/sweeps.

    Both values are replaced whole — nothing from an earlier call
    survives.  The CLI installs the configuration built from its engine
    flags (and the ``--telemetry-dir`` sink) here, so the experiment
    entry points — whose signatures only carry ``scale`` — still execute
    on the configured engine.
    """
    global _DEFAULT_CONFIG, _DEFAULT_TELEMETRY
    _DEFAULT_CONFIG = config
    _DEFAULT_TELEMETRY = telemetry


def campaign_defaults() -> tuple[EngineConfig, Telemetry | None]:
    """The process-wide ``(config, telemetry)`` pair engines are built from."""
    config = _DEFAULT_CONFIG if _DEFAULT_CONFIG is not None else EngineConfig()
    return config, _DEFAULT_TELEMETRY


def reset_campaign_defaults() -> None:
    """Restore ``EngineConfig()`` with no telemetry and close shared backends."""
    set_campaign_defaults(EngineConfig())
    for shared in _SHARED_BACKENDS.values():
        shared.close()
    _SHARED_BACKENDS.clear()


def build_engine(config: EngineConfig) -> ExecutionEngine:
    """Construct an :class:`ExecutionEngine` on ``config`` and the default sink.

    Used by :func:`run_campaign` and :func:`repro.engine.sweeps.run_sweep`.
    The ``"persistent"`` backend resolves to one process-wide shared
    instance per ``jobs``, so warm workers survive across the engines
    these façades build.
    """
    from repro.engine.backends import resolve_backend
    from repro.engine.scheduler import ExecutionEngine

    backend = None
    if config.backend == "persistent":
        backend = _SHARED_BACKENDS.get(config.jobs)
        if backend is None:
            backend = resolve_backend(config.backend, config.jobs)
            _SHARED_BACKENDS[config.jobs] = backend
    return ExecutionEngine(config, backend=backend, telemetry=_DEFAULT_TELEMETRY)


def last_engine_stats() -> EngineStats | None:
    """Stats of the most recent engine run (``None`` before any run)."""
    return _LAST_STATS


def run_on_default_engine(
    memo: dict, key: Hashable, use_cache: bool, run: Callable[[ExecutionEngine], object]
):
    """Run ``run(engine)`` on an engine from the process-wide defaults.

    The shared body of :func:`run_campaign` and
    :func:`repro.engine.sweeps.run_sweep`: ``use_cache`` (and the default
    configuration's own) governs both ``memo`` — the façade's in-process
    results, by ``key`` — and the on-disk cache.  The engine is closed
    after the run and its stats published for :func:`last_engine_stats`.
    """
    global _LAST_STATS
    config, _ = campaign_defaults()
    use_cache = use_cache and config.use_cache
    if use_cache and key in memo:
        return memo[key]
    engine = build_engine(replace(config, use_cache=use_cache))
    try:
        result = run(engine)
    finally:
        engine.close()
    _LAST_STATS = engine.stats
    if use_cache:
        memo[key] = result
    return result


def run_campaign(
    scale: float = DEFAULT_SCALE,
    predictors: tuple[str, ...] = PAPER_PREDICTORS,
    benchmarks: tuple[str, ...] = BENCHMARK_ORDER,
    use_cache: bool = True,
) -> CampaignResult:
    """Trace every benchmark and simulate every predictor over each trace.

    Runs on an engine built from the process-wide defaults (see
    :func:`set_campaign_defaults`).  ``use_cache`` governs both the
    in-process memo and the on-disk cache.
    """
    from repro.engine.fingerprint import predictors_fingerprint

    return run_on_default_engine(
        _CACHE,
        (round(scale, 6), predictors_fingerprint(predictors), tuple(benchmarks)),
        use_cache,
        lambda engine: engine.run(
            scale=scale, predictors=tuple(predictors), benchmarks=tuple(benchmarks)
        ),
    )


def clear_campaign_cache() -> None:
    """Drop all in-process cached campaign results (used by tests)."""
    _CACHE.clear()

