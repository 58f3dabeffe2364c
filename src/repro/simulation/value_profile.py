"""Unique-value profiles of static instructions (Figure 10 of the paper).

For every static instruction the number of distinct values it produces is
counted and bucketed into powers of four (1, 4, 16, ..., 65536, >65536).
Two views are reported: the fraction of *static* instructions falling in each
bucket, and the fraction of *dynamic* instructions issued by static
instructions in each bucket.  The paper uses this to argue that modest table
capacities suffice for context-based prediction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from repro.isa.opcodes import Category, REPORTED_CATEGORIES
from repro.simulation.metrics import arithmetic_mean
from repro.trace.stream import ValueTrace

#: Bucket upper bounds used on the Figure 10 y-axis legend.
VALUE_BUCKETS: tuple[int, ...] = (1, 4, 16, 64, 256, 1024, 4096, 16384, 65536)

#: Label used for the overflow bucket.
OVERFLOW_LABEL = ">65536"


def bucket_labels() -> tuple[str, ...]:
    """Labels for every bucket, smallest first, ending with the overflow."""
    return tuple(str(bound) for bound in VALUE_BUCKETS) + (OVERFLOW_LABEL,)


def bucket_for(unique_values: int) -> str:
    """Return the label of the bucket holding ``unique_values``."""
    for bound in VALUE_BUCKETS:
        if unique_values <= bound:
            return str(bound)
    return OVERFLOW_LABEL


@dataclass
class ValueProfile:
    """Static and dynamic unique-value bucket distributions (percentages)."""

    #: static_percent["All" or category value][bucket label] -> % of static PCs
    static_percent: dict[str, dict[str, float]]
    #: dynamic_percent["All" or category value][bucket label] -> % of dynamic instrs
    dynamic_percent: dict[str, dict[str, float]]

    def static_fraction_single_value(self, group: str = "All") -> float:
        """Percentage of static instructions generating exactly one value."""
        return self.static_percent[group]["1"]

    def static_fraction_up_to(self, bound: int, group: str = "All") -> float:
        """Percentage of static instructions generating at most ``bound`` values."""
        total = 0.0
        for label in bucket_labels():
            if label != OVERFLOW_LABEL and int(label) <= bound:
                total += self.static_percent[group][label]
        return total

    def dynamic_fraction_up_to(self, bound: int, group: str = "All") -> float:
        """Percentage of dynamic instructions from static PCs with <= ``bound`` values."""
        total = 0.0
        for label in bucket_labels():
            if label != OVERFLOW_LABEL and int(label) <= bound:
                total += self.dynamic_percent[group][label]
        return total


def _empty_distribution() -> dict[str, float]:
    return {label: 0.0 for label in bucket_labels()}


def value_profile(
    trace: ValueTrace, categories: tuple[Category, ...] = REPORTED_CATEGORIES
) -> ValueProfile:
    """Profile unique-value counts for one benchmark's trace.

    The per-PC tallies are numpy passes over an array-backed trace's
    arrays (:func:`_array_pc_tallies`) and C-level passes over any other
    trace's list columns; the bucket sums below are integer counts, so
    their order does not matter.
    """
    arrays = trace.array_columns()
    if arrays is not None:
        unique_count, dynamic_count, pc_category = _array_pc_tallies(arrays)
    else:
        columns = trace.record_columns()
        dynamic_count = Counter(columns.pcs)
        unique_count = Counter(map(itemgetter(0), dict.fromkeys(zip(columns.pcs, columns.values))))
        # Reversed, so the first record of each PC writes its category last.
        pc_category = dict(zip(reversed(columns.pcs), reversed(columns.categories)))

    groups = ["All"] + [category.value for category in categories]
    static_counts = {group: _empty_distribution() for group in groups}
    dynamic_counts = {group: _empty_distribution() for group in groups}
    static_totals = {group: 0 for group in groups}
    dynamic_totals = {group: 0 for group in groups}

    for pc, unique in unique_count.items():
        label = bucket_for(unique)
        weight = dynamic_count[pc]
        group_names = ["All"]
        category = pc_category[pc]
        if category in categories:
            group_names.append(category.value)
        for group in group_names:
            static_counts[group][label] += 1
            static_totals[group] += 1
            dynamic_counts[group][label] += weight
            dynamic_totals[group] += weight

    static_percent = {
        group: {
            label: (100.0 * count / static_totals[group] if static_totals[group] else 0.0)
            for label, count in static_counts[group].items()
        }
        for group in groups
    }
    dynamic_percent = {
        group: {
            label: (100.0 * count / dynamic_totals[group] if dynamic_totals[group] else 0.0)
            for label, count in dynamic_counts[group].items()
        }
        for group in groups
    }
    return ValueProfile(static_percent=static_percent, dynamic_percent=dynamic_percent)


def _array_pc_tallies(columns) -> tuple[dict, dict, dict]:
    """Per-PC distinct values, records and first category of numpy ``columns``.

    Returns three dicts keyed by pc, as :func:`value_profile` tallies list
    columns: distinct ``(pc, value)`` pairs, records, and the category of
    the pc's first record.
    """
    import numpy as np

    pcs, first, pc_ids = np.unique(columns.pcs, return_index=True, return_inverse=True)
    order = np.lexsort((columns.values, pc_ids))
    sorted_ids = pc_ids[order]
    sorted_values = columns.values[order]
    new_pair = np.ones(len(order), dtype=bool)
    new_pair[1:] = (sorted_ids[1:] != sorted_ids[:-1]) | (sorted_values[1:] != sorted_values[:-1])
    unique = np.bincount(sorted_ids[new_pair], minlength=len(pcs))
    dynamic = np.bincount(pc_ids, minlength=len(pcs))
    keys = pcs.tolist()
    categories = columns.categories
    return (
        dict(zip(keys, unique.tolist())),
        dict(zip(keys, dynamic.tolist())),
        dict(zip(keys, map(categories.__getitem__, columns.category_codes[first].tolist()))),
    )


def average_value_profiles(profiles: Sequence[ValueProfile]) -> ValueProfile:
    """Average per-benchmark profiles with the arithmetic mean."""
    if not profiles:
        raise ValueError("cannot average zero value profiles")
    groups = profiles[0].static_percent.keys()
    static_percent = {
        group: {
            label: arithmetic_mean(profile.static_percent[group][label] for profile in profiles)
            for label in bucket_labels()
        }
        for group in groups
    }
    dynamic_percent = {
        group: {
            label: arithmetic_mean(profile.dynamic_percent[group][label] for profile in profiles)
            for label in bucket_labels()
        }
        for group in groups
    }
    return ValueProfile(static_percent=static_percent, dynamic_percent=dynamic_percent)
