"""Container for value traces, with summary statistics.

A :class:`ValueTrace` is an immutable-by-convention sequence of
:class:`TraceRecord` objects (stored as records or as columns) plus the name
of the workload that produced it and the number of dynamic instructions
retired in total (needed to report the "fraction predicted" column of
Table 2).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.errors import TraceError
from repro.isa.opcodes import Category, Opcode
from repro.trace.record import TraceRecord


@dataclass
class TraceStatistics:
    """Aggregate statistics of a trace."""

    name: str
    total_dynamic_instructions: int
    predicted_instructions: int
    static_instruction_count: int
    category_dynamic_counts: dict[Category, int]
    category_static_counts: dict[Category, int]

    @property
    def fraction_predicted(self) -> float:
        """Fraction of all dynamic instructions that are predicted."""
        if self.total_dynamic_instructions == 0:
            return 0.0
        return self.predicted_instructions / self.total_dynamic_instructions

    def category_dynamic_percentages(self) -> dict[Category, float]:
        """Dynamic share of each category among predicted instructions (%)"""
        if self.predicted_instructions == 0:
            return {category: 0.0 for category in self.category_dynamic_counts}
        return {
            category: 100.0 * count / self.predicted_instructions
            for category, count in self.category_dynamic_counts.items()
        }


class RecordColumns(NamedTuple):
    """A trace's records as parallel columns, in program order.

    Row ``k`` of every column describes the trace's ``k``-th record; the
    fields are in :class:`TraceRecord`'s field order.
    """

    serials: Sequence[int]
    pcs: Sequence[int]
    opcodes: Sequence[Opcode]
    categories: Sequence[Category]
    values: Sequence[int]


class ValueTrace:
    """An ordered collection of predicted-instruction trace records.

    A trace is backed by :class:`TraceRecord` objects (traces built from
    records), by :class:`RecordColumns` (the traces
    :func:`repro.trace.collector.collect_trace` builds without numpy) or
    by numpy array columns (:meth:`from_arrays`: the traces the collector
    builds with numpy and the engine reads back from v3 bytes).  The
    writers, :meth:`statistics` and Figure 10's profile read an
    array-backed trace's arrays (:meth:`array_columns`); other readers
    that visit every record in order go through :meth:`record_columns`,
    which serves all three.  The list columns of an array-backed trace and
    the :attr:`records` of any column-backed trace are built on first
    access and kept.
    """

    def __init__(
        self,
        name: str,
        records: Sequence[TraceRecord] | Iterable[TraceRecord] = (),
        total_dynamic_instructions: int | None = None,
    ) -> None:
        self.name = name
        self._records: list[TraceRecord] | None = list(records)
        self._record_columns: RecordColumns | None = None
        #: :func:`repro.trace.io.trace_columns`' memo: ``False`` until
        #: computed, ``None`` when the arrays cannot hold the trace.
        self._columns = False
        self._total_dynamic_instructions = total_dynamic_instructions

    @classmethod
    def from_columns(
        cls,
        name: str,
        columns: RecordColumns,
        total_dynamic_instructions: int | None = None,
    ) -> "ValueTrace":
        """A trace over ``columns``, building no :class:`TraceRecord` yet."""
        trace = cls(name)
        trace._records = None
        trace._record_columns = columns
        if total_dynamic_instructions is not None:
            trace.set_total_dynamic_instructions(total_dynamic_instructions)
        return trace

    @classmethod
    def from_arrays(cls, columns) -> "ValueTrace":
        """A trace over decoded :class:`repro.trace.io.TraceColumns`.

        The arrays serve the vectorized kernel as they are; list columns
        and records are built only if a caller asks for them.
        """
        trace = cls(columns.name)
        trace._records = None
        trace._columns = columns
        trace.set_total_dynamic_instructions(columns.total_dynamic_instructions)
        return trace

    # ------------------------------------------------------------------ #
    # Mutation (used only while a trace is being collected)
    # ------------------------------------------------------------------ #
    def append(self, record: TraceRecord) -> None:
        """Append a record to the trace (collection-time only)."""
        self.records.append(record)
        self._record_columns = None
        self._columns = False

    def set_total_dynamic_instructions(self, total: int) -> None:
        """Record the total dynamic instruction count of the producing run."""
        if total < len(self):
            raise TraceError(
                "total dynamic instructions cannot be smaller than the number of "
                f"predicted records ({total} < {len(self)})"
            )
        self._total_dynamic_instructions = total

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    @property
    def records(self) -> list[TraceRecord]:
        """The trace records in program order."""
        if self._records is None:
            self._records = list(map(TraceRecord, *self.record_columns()))
        return self._records

    def record_columns(self) -> RecordColumns:
        """The records as columns, without building records that do not exist."""
        if self._record_columns is not None:
            return self._record_columns
        records = self._records
        if records is None:
            self._record_columns = self._columns.record_columns()
            return self._record_columns
        return RecordColumns(
            serials=[record.serial for record in records],
            pcs=[record.pc for record in records],
            opcodes=[record.opcode for record in records],
            categories=[record.category for record in records],
            values=[record.value for record in records],
        )

    def array_columns(self):
        """The numpy :class:`~repro.trace.io.TraceColumns` behind this trace, or ``None``.

        Present on traces built by :meth:`from_arrays` (collected with
        numpy, or decoded) and once :func:`repro.trace.io.trace_columns`
        has memoised them; never built here.
        """
        columns = self._columns
        return None if columns is False or columns is None else columns

    @property
    def total_dynamic_instructions(self) -> int:
        """Total dynamic instructions (predicted + non-predicted)."""
        if self._total_dynamic_instructions is None:
            return len(self)
        return self._total_dynamic_instructions

    def __len__(self) -> int:
        if self._records is not None:
            return len(self._records)
        if self._record_columns is not None:
            return len(self._record_columns.values)
        return len(self._columns)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ValueTrace(
                self.name,
                self.records[index],
                total_dynamic_instructions=None,
            )
        return self.records[index]

    def __bool__(self) -> bool:
        return len(self) > 0

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    def static_pcs(self) -> list[int]:
        """Distinct static PCs appearing in the trace, in first-seen order."""
        return list(dict.fromkeys(self.record_columns().pcs))

    def values_by_pc(self) -> dict[int, list[int]]:
        """Map each static PC to the ordered list of values it produced."""
        columns = self.record_columns()
        grouped: dict[int, list[int]] = defaultdict(list)
        for pc, value in zip(columns.pcs, columns.values):
            grouped[pc].append(value)
        return dict(grouped)

    def filter_category(self, category: Category) -> "ValueTrace":
        """Return a sub-trace containing only the given category."""
        columns = self.record_columns()
        keep = [record_category is category for record_category in columns.categories]
        return ValueTrace.from_columns(
            f"{self.name}:{category.value}",
            RecordColumns(*(list(compress(column, keep)) for column in columns)),
        )

    def category_counts(self) -> Counter:
        """Dynamic record count per category."""
        return Counter(self.record_columns().categories)

    def statistics(self) -> TraceStatistics:
        """Compute the Table 2 / Tables 4-5 style statistics for this trace.

        Both category maps list categories in order of first appearance.
        A category's static count is its number of distinct pcs.  An
        array-backed trace is counted with numpy passes over its arrays.
        """
        arrays = self.array_columns()
        if arrays is not None:
            dynamic_counts, static_counts, static_pcs = _array_category_counts(arrays)
        else:
            columns = self.record_columns()
            dynamic_counts = {}
            static_counts = {}
            for (category, _pc), count in Counter(zip(columns.categories, columns.pcs)).items():
                dynamic_counts[category] = dynamic_counts.get(category, 0) + count
                static_counts[category] = static_counts.get(category, 0) + 1
            static_pcs = len(set(columns.pcs))
        return TraceStatistics(
            name=self.name,
            total_dynamic_instructions=self.total_dynamic_instructions,
            predicted_instructions=len(self),
            static_instruction_count=static_pcs,
            category_dynamic_counts=dynamic_counts,
            category_static_counts=static_counts,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ValueTrace(name={self.name!r}, records={len(self)})"


def _array_category_counts(columns) -> tuple[dict, dict, int]:
    """Per-category record and distinct-pc counts of numpy ``columns``.

    Returns ``(dynamic counts, static counts, distinct pcs)``; both dicts
    list categories in order of first appearance, as
    :meth:`ValueTrace.statistics` does for list columns.
    """
    import numpy as np

    codes = columns.category_codes
    if not len(codes):
        return {}, {}, 0
    width = len(columns.categories)
    pcs, pc_ids = np.unique(columns.pcs, return_inverse=True)
    pairs = np.bincount(pc_ids * width + codes, minlength=len(pcs) * width).reshape(-1, width)
    dynamic = pairs.sum(axis=0)
    static = np.count_nonzero(pairs, axis=0)
    present = np.flatnonzero(dynamic).tolist()
    first = {code: int(np.argmax(codes == code)) for code in present}
    order = sorted(present, key=first.__getitem__)
    categories = columns.categories
    return (
        {categories[code]: int(dynamic[code]) for code in order},
        {categories[code]: int(static[code]) for code in order},
        len(pcs),
    )
