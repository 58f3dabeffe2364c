"""Container for value traces, with summary statistics.

A :class:`ValueTrace` is an immutable-by-convention sequence of
:class:`TraceRecord` rows, held as int64 numpy columns, plus the name of
the workload that produced it and the number of dynamic instructions
retired in total (needed to report the "fraction predicted" column of
Table 2).  numpy and the trace codecs (:mod:`repro.trace.io`) load only
when a trace is built, so a command that reads no trace imports neither.
"""

from __future__ import annotations

import functools
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

    A trace holds its records as int64 numpy
    :class:`~repro.trace.io.TraceColumns` (:attr:`columns`), checked where
    the trace is built: the constructor checks hand-built records
    (:func:`repro.trace.io.columns_of_records`), and :meth:`from_arrays`
    takes the columns the collector builds or the v3 decoder checks.  The
    writers, :meth:`statistics`, Figure 10's profile and the kernel read
    the arrays; readers that visit every record in Python go through
    :meth:`record_columns` or :attr:`records`, views built from the arrays
    on first access and kept.
    """

    def __init__(
        self,
        name: str,
        records: Iterable[TraceRecord] = (),
        total_dynamic_instructions: int | None = None,
    ) -> None:
        """A trace of ``records``; raises :class:`TraceError` outside the int64 domain."""
        from repro.trace.io import columns_of_records

        self._hold(columns_of_records(name, records, total_dynamic_instructions))

    @classmethod
    def from_arrays(cls, columns) -> "ValueTrace":
        """A trace over collected or decoded :class:`repro.trace.io.TraceColumns`.

        The arrays serve the vectorized kernel as they are; list columns
        and records are built only if a caller asks for them.
        """
        trace = cls.__new__(cls)
        trace._hold(columns)
        return trace

    def _hold(self, columns) -> None:
        #: The trace's int64 :class:`~repro.trace.io.TraceColumns`.
        self.columns = columns
        self._lists: RecordColumns | None = None

    @property
    def name(self) -> str:
        """The name of the workload that produced the trace."""
        return self.columns.name

    @name.setter
    def name(self, name: str) -> None:
        self.columns.name = name

    def set_total_dynamic_instructions(self, total: int) -> None:
        """Record the total dynamic instruction count of the producing run."""
        if total < len(self):
            raise TraceError(
                "total dynamic instructions cannot be smaller than the number of "
                f"predicted records ({total} < {len(self)})"
            )
        self.columns.total_dynamic_instructions = total

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    @functools.cached_property
    def records(self) -> list[TraceRecord]:
        """The trace records in program order."""
        return list(map(TraceRecord, *self.record_columns()))

    def record_columns(self) -> RecordColumns:
        """The records as list columns, without building :class:`TraceRecord` objects."""
        if self._lists is None:
            self._lists = self.columns.record_columns()
        return self._lists

    @property
    def total_dynamic_instructions(self) -> int:
        """Total dynamic instructions (predicted + non-predicted)."""
        return self.columns.total_dynamic_instructions

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ValueTrace(self.name, self.records[index])
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
        keep = [record_category is category for record_category in self.record_columns().categories]
        return ValueTrace(f"{self.name}:{category.value}", compress(self.records, keep))

    def category_counts(self) -> Counter:
        """Dynamic record count per category."""
        return Counter(self.record_columns().categories)

    def statistics(self) -> TraceStatistics:
        """Compute the Table 2 / Tables 4-5 style statistics for this trace.

        Both category maps list categories in order of first appearance.
        A category's static count is its number of distinct pcs.  The
        counts are numpy passes over the trace's arrays.
        """
        dynamic_counts, static_counts, static_pcs = _category_counts(self.columns)
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


def _category_counts(columns) -> tuple[dict, dict, int]:
    """Per-category record and distinct-pc counts of numpy ``columns``.

    Returns ``(dynamic counts, static counts, distinct pcs)``; both dicts
    list categories in order of first appearance.
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
