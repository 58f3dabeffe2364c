"""Unique-value profiles of static instructions (Figure 10 of the paper).

For every static instruction the number of distinct values it produces is
counted and bucketed into powers of four (1, 4, 16, ..., 65536, >65536).
Two views are reported: the fraction of *static* instructions falling in each
bucket, and the fraction of *dynamic* instructions issued by static
instructions in each bucket.  The paper uses this to argue that modest table
capacities suffice for context-based prediction.

A profile is built in two steps: :func:`pc_tallies` tallies a trace per
static instruction, and :func:`profile_from_tallies` buckets the tallies.
Campaigns cache each trace's tallies (``profile`` cache entries, see
:meth:`repro.simulation.campaign.CampaignResult.pc_tallies`), so Figure 10
on a warm cache decodes no trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

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


class PcTallies(NamedTuple):
    """Per-PC tallies of one trace, each a dict keyed by pc.

    Everything Figure 10 needs of a trace: the number of distinct values
    each static instruction produced, its dynamic record count, and the
    category of its first record.
    """

    unique: dict[int, int]
    dynamic: dict[int, int]
    category: dict[int, Category]


def value_profile(
    trace: ValueTrace, categories: tuple[Category, ...] = REPORTED_CATEGORIES
) -> ValueProfile:
    """Profile unique-value counts for one benchmark's trace."""
    return profile_from_tallies(pc_tallies(trace), categories)


def profile_from_tallies(
    tallies: PcTallies, categories: tuple[Category, ...] = REPORTED_CATEGORIES
) -> ValueProfile:
    """Bucket one trace's per-PC tallies into its :class:`ValueProfile`.

    The bucket sums are integer counts, so the order of the tallies does
    not matter.
    """
    groups = ["All"] + [category.value for category in categories]
    static_counts = {group: _empty_distribution() for group in groups}
    dynamic_counts = {group: _empty_distribution() for group in groups}
    static_totals = {group: 0 for group in groups}
    dynamic_totals = {group: 0 for group in groups}

    for pc, unique in tallies.unique.items():
        label = bucket_for(unique)
        weight = tallies.dynamic[pc]
        group_names = ["All"]
        category = tallies.category[pc]
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


def pc_tallies(trace: ValueTrace) -> PcTallies:
    """Tally one trace per PC (:class:`PcTallies`), in numpy passes over its arrays.

    One pass groups the records by (pc, value): an argsort of the values,
    then a stable argsort of the pcs in that order.  Each pc's run of the
    grouped records gives its dynamic count, its distinct values and,
    by the smallest record index in it, its first record's category.
    """
    import numpy as np

    columns = trace.columns
    pcs = columns.pcs
    if not len(pcs):
        return PcTallies({}, {}, {})
    by_value = np.argsort(columns.values)
    order = by_value[np.argsort(pcs[by_value], kind="stable")]
    sorted_pcs = pcs[order]
    sorted_values = columns.values[order]
    new_pc = np.empty(len(order), dtype=bool)
    new_pc[0] = True
    np.not_equal(sorted_pcs[1:], sorted_pcs[:-1], out=new_pc[1:])
    new_pair = new_pc.copy()
    new_pair[1:] |= sorted_values[1:] != sorted_values[:-1]
    starts = np.flatnonzero(new_pc)
    unique = np.add.reduceat(new_pair, starts)
    dynamic = np.diff(starts, append=len(order))
    first = np.minimum.reduceat(order, starts)
    keys = sorted_pcs[starts].tolist()
    categories = columns.categories
    return PcTallies(
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
