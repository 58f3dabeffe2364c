"""Trace-driven prediction simulation (Section 3 of the paper).

For every record of a value trace and every predictor under study the
simulator performs the paper's loop: look up the prediction for the record's
PC, compare it with the true value, then immediately update the table with
the true value.  All predictors see the same trace in lockstep, which also
lets the simulator tabulate the joint outcomes needed by the predicted-set
correlation analysis (Figure 8).

The same accounting is also available *split per predictor*: because every
predictor's table only ever sees its own updates, simulating one predictor
alone over a trace yields exactly the per-record outcomes it would have in
the lockstep loop.  :func:`simulate_shard` produces one such
:class:`PredictorShard` (per-predictor totals plus the packed per-record
correctness bits) and :func:`merge_shards` recombines shards into the same
joint :class:`SimulationResult` — including ``subset_counts`` — that the
lockstep loop produces.  The execution engine (:mod:`repro.engine`) relies
on this to scatter (trace, predictor) pairs across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.base import ValuePredictor
from repro.core.registry import create_predictor
from repro.errors import SimulationError
from repro.isa.opcodes import Category
from repro.trace.stream import ValueTrace


class SimulationCounter:
    """Counts (trace, predictor) simulations actually performed.

    The engine's warm-cache tests hook this to assert that a cached rerun
    performs **zero** simulations in-process.  Worker subprocesses keep
    their own copy, so under ``jobs > 1`` consult the engine's
    :class:`~repro.engine.scheduler.EngineStats` instead.
    """

    def __init__(self) -> None:
        self.count = 0

    def increment(self, amount: int = 1) -> None:
        self.count += amount

    def reset(self) -> None:
        self.count = 0


#: Process-wide counter incremented once per (trace, predictor) simulation.
SIMULATION_COUNTER = SimulationCounter()


@dataclass
class PredictorResult:
    """Accuracy bookkeeping for one predictor over one trace."""

    predictor: str
    total: int = 0
    correct: int = 0
    category_total: dict[Category, int] = field(default_factory=dict)
    category_correct: dict[Category, int] = field(default_factory=dict)
    pc_correct: dict[int, int] = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        """Overall accuracy in percent."""
        if self.total == 0:
            return 0.0
        return 100.0 * self.correct / self.total

    def category_accuracy(self, category: Category) -> float:
        """Accuracy in percent for one instruction category."""
        total = self.category_total.get(category, 0)
        if total == 0:
            return 0.0
        return 100.0 * self.category_correct.get(category, 0) / total


@dataclass
class SimulationResult:
    """Joint result of simulating several predictors over one trace."""

    trace_name: str
    predictor_names: tuple[str, ...]
    total_records: int
    results: dict[str, PredictorResult]
    pc_total: dict[int, int]
    pc_category: dict[int, Category]
    #: Joint outcome counts: tuple of per-predictor correctness -> count.
    subset_counts: dict[tuple[bool, ...], int]
    #: Joint outcome counts per instruction category.
    subset_counts_by_category: dict[Category, dict[tuple[bool, ...], int]]

    def result_for(self, predictor_name: str) -> PredictorResult:
        """Return the per-predictor result, raising on unknown names."""
        try:
            return self.results[predictor_name]
        except KeyError as exc:
            raise SimulationError(
                f"no result for predictor {predictor_name!r}; simulated: {self.predictor_names}"
            ) from exc


class PredictionSimulator:
    """Runs one or more predictors over value traces."""

    def __init__(self, predictors: dict[str, ValuePredictor]) -> None:
        if not predictors:
            raise SimulationError("at least one predictor is required")
        self.predictors = predictors

    @classmethod
    def from_names(cls, names: tuple[str, ...] | list[str]) -> "PredictionSimulator":
        """Build a simulator with fresh predictors from registry names."""
        return cls({name: create_predictor(name) for name in names})

    def run(self, trace: ValueTrace) -> SimulationResult:
        """Simulate every configured predictor over ``trace``."""
        names = tuple(self.predictors)
        SIMULATION_COUNTER.increment(len(names))
        predictor_objects = [self.predictors[name] for name in names]
        results = {name: PredictorResult(predictor=name) for name in names}
        result_objects = [results[name] for name in names]
        pc_total: dict[int, int] = {}
        pc_category: dict[int, Category] = {}
        subset_counts: dict[tuple[bool, ...], int] = {}
        subset_by_category: dict[Category, dict[tuple[bool, ...], int]] = {}

        columns = trace.record_columns()
        for pc, value, category in zip(columns.pcs, columns.values, columns.categories):
            pc_total[pc] = pc_total.get(pc, 0) + 1
            pc_category.setdefault(pc, category)
            outcome: list[bool] = []
            for predictor, result in zip(predictor_objects, result_objects):
                correct = predictor.observe(pc, value, category)
                outcome.append(correct)
                result.total += 1
                result.category_total[category] = result.category_total.get(category, 0) + 1
                if correct:
                    result.correct += 1
                    result.category_correct[category] = (
                        result.category_correct.get(category, 0) + 1
                    )
                    result.pc_correct[pc] = result.pc_correct.get(pc, 0) + 1
            key = tuple(outcome)
            subset_counts[key] = subset_counts.get(key, 0) + 1
            per_category = subset_by_category.setdefault(category, {})
            per_category[key] = per_category.get(key, 0) + 1

        return SimulationResult(
            trace_name=trace.name,
            predictor_names=names,
            total_records=len(trace),
            results=results,
            pc_total=pc_total,
            pc_category=pc_category,
            subset_counts=subset_counts,
            subset_counts_by_category=subset_by_category,
        )


def simulate_trace(
    trace: ValueTrace,
    predictor_names: tuple[str, ...] | list[str],
    kernel: str | None = None,
) -> SimulationResult:
    """Convenience wrapper: fresh predictors by name, one trace, one result.

    ``kernel`` selects the execution strategy (see
    :mod:`repro.simulation.vectorized`): ``"scalar"`` runs the reference
    lockstep loop, ``"vector"`` simulates per-predictor shards on the
    columnar kernel and merges them, ``"auto"`` picks vector when numpy is
    importable and ``None`` defers to the ``REPRO_KERNEL`` environment
    variable.  Results are bit-identical either way.
    """
    from repro.simulation.vectorized import resolve_kernel

    names = tuple(predictor_names)
    if names and resolve_kernel(kernel) == "vector":
        shards = {name: simulate_shard(trace, name, kernel="vector") for name in names}
        return merge_shards(trace, shards, kernel="vector")
    return PredictionSimulator.from_names(names).run(trace)


# --------------------------------------------------------------------------- #
# Split accounting: one predictor at a time, recombined losslessly
# --------------------------------------------------------------------------- #
def pack_outcomes(outcomes: Iterable[bool]) -> bytes:
    """Pack a per-record correctness sequence into bits (LSB-first)."""
    packed = bytearray()
    current = 0
    filled = 0
    for outcome in outcomes:
        if outcome:
            current |= 1 << filled
        filled += 1
        if filled == 8:
            packed.append(current)
            current = 0
            filled = 0
    if filled:
        packed.append(current)
    return bytes(packed)


def outcome_at(packed: bytes, index: int) -> bool:
    """Read back one correctness bit written by :func:`pack_outcomes`."""
    return bool(packed[index >> 3] & (1 << (index & 7)))


@dataclass
class PredictorShard:
    """One predictor's complete outcome over one trace.

    Besides the aggregate :class:`PredictorResult` this keeps the packed
    per-record correctness bits, which is exactly the extra information
    needed to rebuild the joint ``subset_counts`` of the lockstep loop when
    several shards over the same trace are merged.
    """

    result: PredictorResult
    correctness: bytes
    record_count: int


def simulate_shard(
    trace: ValueTrace,
    predictor_name: str,
    kernel: str | None = None,
) -> PredictorShard:
    """Simulate a single predictor over ``trace``.

    Produces bit-identical per-record outcomes to the same predictor's slot
    in the lockstep loop: predictor tables are private, so no other
    predictor can influence them.  Under the ``"vector"`` kernel (see
    :func:`simulate_trace`) the columnar kernel computes the same shard —
    identical down to the dict insertion orders the cache serialises.
    Every registered configuration has a vector plan; this scalar loop
    remains the golden reference and the fallback when a plan declines at
    runtime (e.g. a pathological trace tripping a depth guard).
    """
    from repro.simulation.vectorized import resolve_kernel

    if resolve_kernel(kernel) == "vector":
        from repro.simulation.vectorized import simulate_shard_vector
        from repro.trace.io import trace_columns

        columns = trace_columns(trace)
        if columns is not None:
            shard = simulate_shard_vector(columns, predictor_name)
            if shard is not None:
                return shard
    SIMULATION_COUNTER.increment()
    predictor = create_predictor(predictor_name)
    result = PredictorResult(predictor=predictor_name)
    outcomes: list[bool] = []
    columns = trace.record_columns()
    for pc, value, category in zip(columns.pcs, columns.values, columns.categories):
        correct = predictor.observe(pc, value, category)
        outcomes.append(correct)
        result.total += 1
        result.category_total[category] = result.category_total.get(category, 0) + 1
        if correct:
            result.correct += 1
            result.category_correct[category] = result.category_correct.get(category, 0) + 1
            result.pc_correct[pc] = result.pc_correct.get(pc, 0) + 1
    return PredictorShard(
        result=result, correctness=pack_outcomes(outcomes), record_count=len(trace)
    )


def merge_shards(
    trace: ValueTrace,
    shards: Mapping[str, PredictorShard],
    kernel: str | None = None,
) -> SimulationResult:
    """Recombine per-predictor shards into the joint lockstep result.

    The shard mapping's order fixes ``predictor_names`` and therefore the
    position of each predictor in the ``subset_counts`` outcome tuples.
    Under the ``"vector"`` kernel the per-record unpack/tally loop runs as
    array passes with identical output (see :func:`simulate_trace`).
    """
    from repro.simulation.vectorized import resolve_kernel

    if not shards:
        raise SimulationError("at least one shard is required to merge")
    names = tuple(shards)
    for name in names:
        if shards[name].record_count != len(trace):
            raise SimulationError(
                f"shard for {name!r} covers {shards[name].record_count} records, "
                f"trace {trace.name!r} has {len(trace)}"
            )
    if resolve_kernel(kernel) == "vector":
        from repro.simulation.vectorized import merge_shards_vector
        from repro.trace.io import trace_columns

        columns = trace_columns(trace)
        if columns is not None:
            merged = merge_shards_vector(columns, shards)
            if merged is not None:
                return merged
    packed = [shards[name].correctness for name in names]
    pc_total: dict[int, int] = {}
    pc_category: dict[int, Category] = {}
    subset_counts: dict[tuple[bool, ...], int] = {}
    subset_by_category: dict[Category, dict[tuple[bool, ...], int]] = {}
    columns = trace.record_columns()
    for index, (pc, category) in enumerate(zip(columns.pcs, columns.categories)):
        pc_total[pc] = pc_total.get(pc, 0) + 1
        pc_category.setdefault(pc, category)
        key = tuple(outcome_at(bits, index) for bits in packed)
        subset_counts[key] = subset_counts.get(key, 0) + 1
        per_category = subset_by_category.setdefault(category, {})
        per_category[key] = per_category.get(key, 0) + 1
    return SimulationResult(
        trace_name=trace.name,
        predictor_names=names,
        total_records=len(trace),
        results={name: shards[name].result for name in names},
        pc_total=pc_total,
        pc_category=pc_category,
        subset_counts=subset_counts,
        subset_counts_by_category=subset_by_category,
    )
