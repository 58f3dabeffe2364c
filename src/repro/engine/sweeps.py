"""Generic parameter sweeps over the execution engine.

A *sweep* evaluates the cross product of four axes — benchmarks, input
sets, flag settings and predictor configurations — the shape of the
paper's Section 4.4 sensitivity studies (Table 6: inputs, Table 7: flags,
Figure 11: FCM order, each over one benchmark) and of cross-benchmark
sensitivity tables beyond the paper's gcc focus.  :class:`SweepSpec`
describes the axes; :func:`execute_sweep` expands the spec into the
engine's existing trace/simulate task graph:

* one :class:`~repro.engine.tasks.TraceTask` per **unique**
  (benchmark, input, flags) combination — sweep points that share a trace
  configuration (every predictor point of an order study, duplicated axis
  values) are deduplicated before any work is scheduled;
* one :class:`~repro.engine.tasks.SimulateTask` per unique
  (trace digest, predictor configuration) pair — two settings that happen
  to produce byte-identical traces share their simulation too, even
  across benchmarks, because simulations are keyed by trace *content*;
* no merge phase: a sweep point is a single-predictor measurement, and a
  :class:`~repro.simulation.simulator.PredictorShard`'s aggregate result
  is already bit-identical to that predictor's slot in the lockstep loop.

Both phases are the campaign's own
(:func:`~repro.engine.scheduler.trace_phase` and
:func:`~repro.engine.scheduler.simulate_phase`), executed on the owning
engine's backend (``--jobs`` / ``--backend``) against the same persistent
:class:`~repro.engine.cache.ResultCache` under the same cache keys, so a
campaign's gcc trace warms the sweep's default-input point and vice
versa.  Their one materialisation policy is lazy-with-repair: a fully warm
sweep performs zero trace or simulate computation and never even decodes
the cached traces (record counts come from the stored statistics).

:func:`run_sweep` is the library-level façade; it shares
:func:`repro.simulation.campaign.run_campaign`'s body
(:func:`~repro.simulation.campaign.run_on_default_engine`): an engine from
the process-wide defaults (the CLI's ``--jobs``/``--cache-dir``/… flags)
and an in-process memo keyed by spec and predictor fingerprints.
``docs/sweeps.md`` documents spec format, dedup semantics and cache keys.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.engine.fingerprint import predictors_fingerprint
from repro.engine.scheduler import EngineStats, simulate_phase, trace_phase
from repro.engine.tasks import TraceTask
from repro.errors import SweepError
from repro.simulation.simulator import PredictorResult
from repro.trace.stream import TraceStatistics
from repro.workloads.suite import get_workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.scheduler import ExecutionEngine

#: Axis value that expands to everything the workload declares (used by
#: the CLI's ``--inputs all``/``--flags all``; resolved per benchmark, so
#: multi-benchmark sweeps expand each benchmark's own declared sets).
AXIS_ALL = "all"

#: A trace-determining coordinate: (benchmark, input, flags).
TraceConfig = tuple[str, str, str]


# --------------------------------------------------------------------------- #
# Specification
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepSpec:
    """Axes of one parameter sweep.

    ``benchmark`` names a single benchmark; ``benchmarks`` (when set)
    overrides it with a whole benchmark axis.  ``inputs`` and ``flags``
    may contain ``None`` for "the workload's default" and the literal
    ``"all"`` for "everything the workload declares"; :meth:`points`
    resolves (and validates) every name against each benchmark's
    workload, so equivalent specs expand to identical sweep points.  The
    expansion order is benchmarks-major, then inputs, then flags, then
    predictors — matching the row order of the paper's tables within each
    benchmark.
    """

    benchmark: str = "gcc"
    scale: float = 1.0
    inputs: tuple[str | None, ...] = (None,)
    flags: tuple[str | None, ...] = (None,)
    predictors: tuple[str, ...] = ("fcm2",)
    benchmarks: tuple[str, ...] | None = None

    # ------------------------------------------------------------------ #
    # The paper's three studies
    # ------------------------------------------------------------------ #
    @classmethod
    def input_study(
        cls,
        benchmark: str = "gcc",
        predictor: str = "fcm2",
        scale: float = 1.0,
        inputs: tuple[str, ...] | None = None,
    ) -> "SweepSpec":
        """Table 6: one predictor across the benchmark's input files."""
        names = inputs if inputs is not None else get_workload(benchmark).input_sets
        return cls(
            benchmark=benchmark, scale=scale, inputs=tuple(names), predictors=(predictor,)
        )

    @classmethod
    def flag_study(
        cls,
        benchmark: str = "gcc",
        predictor: str = "fcm2",
        scale: float = 1.0,
        input_name: str | None = None,
        flags: tuple[str, ...] | None = None,
    ) -> "SweepSpec":
        """Table 7: one predictor across the benchmark's flag settings."""
        names = flags if flags is not None else get_workload(benchmark).flag_sets
        return cls(
            benchmark=benchmark,
            scale=scale,
            inputs=(input_name,),
            flags=tuple(names),
            predictors=(predictor,),
        )

    @classmethod
    def order_study(
        cls,
        benchmark: str = "gcc",
        orders: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8),
        scale: float = 1.0,
        input_name: str | None = None,
    ) -> "SweepSpec":
        """Figure 11: blended fcm predictors of increasing order, one trace."""
        return cls(
            benchmark=benchmark,
            scale=scale,
            inputs=(input_name,),
            predictors=tuple(f"fcm{order}" for order in orders),
        )

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    def benchmark_axis(self) -> tuple[str, ...]:
        """The benchmark axis: ``benchmarks`` when set, else ``(benchmark,)``."""
        if self.benchmarks is not None:
            return tuple(self.benchmarks)
        return (self.benchmark,)

    def points(self) -> tuple["SweepPoint", ...]:
        """Expand the axes into resolved sweep points (cross product)."""
        names = self.benchmark_axis()
        if not self.predictors:
            raise SweepError(f"sweep over {names!r} names no predictors")
        if not names or not self.inputs or not self.flags:
            raise SweepError(f"sweep over {names!r} has an empty axis")
        expanded = []
        for benchmark in names:
            workload = get_workload(benchmark)
            for input_name in _expand_axis(self.inputs, workload.input_sets):
                resolved_input = workload.validate_input(input_name)
                for flags in _expand_axis(self.flags, workload.flag_sets):
                    resolved_flags = workload.validate_flags(flags)
                    for predictor in self.predictors:
                        expanded.append(
                            SweepPoint(
                                benchmark=benchmark,
                                scale=self.scale,
                                input_name=resolved_input,
                                flags=resolved_flags,
                                predictor=predictor,
                            )
                        )
        return tuple(expanded)


def _expand_axis(
    values: tuple[str | None, ...], declared: tuple[str, ...]
) -> tuple[str | None, ...]:
    """Expand :data:`AXIS_ALL` entries to the workload's declared set.

    The literal only acts as a wildcard while no workload declares a set
    member of that name; otherwise it selects that member, as any other
    name would.
    """
    out: list[str | None] = []
    for value in values:
        if value == AXIS_ALL and AXIS_ALL not in declared:
            out.extend(declared)
        else:
            out.append(value)
    return tuple(out)


@dataclass(frozen=True)
class SweepPoint:
    """One fully-resolved (benchmark, scale, input, flags, predictor) cell."""

    benchmark: str
    scale: float
    input_name: str
    flags: str
    predictor: str

    @property
    def trace_config(self) -> TraceConfig:
        """The trace-determining coordinates (benchmark, input, flags)."""
        return (self.benchmark, self.input_name, self.flags)

    def label(self) -> str:
        return f"{self.benchmark}:{self.input_name}:{self.flags}:{self.predictor}"


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
@dataclass
class SweepPointResult:
    """Measurement of one sweep point.

    ``result`` is the predictor's aggregate accounting, bit-identical to
    ``simulate_trace(trace, (predictor,)).results[predictor]`` on the same
    trace configuration (predictor tables are private, so the shard path
    reproduces the lockstep outcomes exactly).
    """

    point: SweepPoint
    record_count: int
    statistics: TraceStatistics
    result: PredictorResult

    @property
    def accuracy(self) -> float:
        return self.result.accuracy


@dataclass
class SweepResult:
    """Everything produced by one sweep run."""

    spec: SweepSpec
    points: tuple[SweepPointResult, ...]
    stats: EngineStats = field(default_factory=EngineStats)

    def by_predictor(self, predictor: str) -> list[SweepPointResult]:
        """The sweep points measuring ``predictor``, in expansion order."""
        return [entry for entry in self.points if entry.point.predictor == predictor]

    def by_benchmark(self, benchmark: str) -> list[SweepPointResult]:
        """The sweep points measuring ``benchmark``, in expansion order."""
        return [entry for entry in self.points if entry.point.benchmark == benchmark]


# --------------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------------- #
def execute_sweep(engine: "ExecutionEngine", spec: SweepSpec) -> SweepResult:
    """Expand ``spec`` into trace/simulate tasks and run them on ``engine``.

    Results are bit-identical for every backend, ``jobs`` value and cache
    temperature; prefer :meth:`ExecutionEngine.run_sweep` (which adds the
    post-run bounded GC pass) or the :func:`run_sweep` façade.
    """
    started = time.perf_counter()
    points = spec.points()
    trace_tasks = {
        point.trace_config: (
            TraceTask(
                benchmark=point.benchmark,
                scale=point.scale,
                input_name=point.input_name,
                flags=point.flags,
            ),
            _trace_label(point.trace_config),
        )
        for point in points
    }
    stats = EngineStats(benchmarks=len(trace_tasks), predictors=len(spec.predictors))
    engine.stats = stats

    traces = trace_phase(engine, trace_tasks)
    shards, _ = simulate_phase(
        engine,
        [(label, traces[config], spec.predictors) for config, (_, label) in trace_tasks.items()],
    )

    # One result per sweep point, shared units fanned back out.
    results = []
    for point in points:
        trace = traces[point.trace_config]
        results.append(
            SweepPointResult(
                point=point,
                record_count=trace.statistics.predicted_instructions,
                statistics=trace.statistics,
                result=shards[(trace.digest, point.predictor)].result,
            )
        )
    stats.total_seconds = time.perf_counter() - started
    engine.progress.campaign_finished(stats)
    return SweepResult(spec=spec, points=tuple(results), stats=stats)


def _trace_label(config: TraceConfig) -> str:
    benchmark, input_name, flags = config
    return f"{benchmark}:{input_name}:{flags}"


# --------------------------------------------------------------------------- #
# Library façade (mirrors repro.simulation.campaign.run_campaign)
# --------------------------------------------------------------------------- #
_SWEEP_MEMO: dict[tuple, SweepResult] = {}


def run_sweep(spec: SweepSpec, use_cache: bool = True) -> SweepResult:
    """Run one sweep on an engine built from the process-wide defaults.

    The engine comes from :func:`repro.simulation.campaign.build_engine`
    (the configuration the CLI's engine flags install through
    :func:`~repro.simulation.campaign.set_campaign_defaults`).
    ``use_cache`` governs both the in-process memo and the on-disk cache.
    The memo keys on the spec *and* the predictors' configuration
    fingerprints, so re-binding a predictor name cannot serve stale
    results — the same policy the campaign memo follows.
    """
    from repro.simulation.campaign import run_on_default_engine

    return run_on_default_engine(
        _SWEEP_MEMO,
        (spec, predictors_fingerprint(spec.predictors)),
        use_cache,
        lambda engine: engine.run_sweep(spec),
    )


def clear_sweep_cache() -> None:
    """Drop all in-process memoised sweep results (used by tests)."""
    _SWEEP_MEMO.clear()
