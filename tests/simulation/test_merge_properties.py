"""Hypothesis properties of the shard merge's subset-count identities.

Each example draws one trace — the collected trace of a seed of
``tests/isa/random_programs.py`` or a synthetic trace of drawn seed,
length and PC count — and a drawn, ordered subset of predictor names.
The merged :class:`~repro.simulation.simulator.SimulationResult` must
satisfy the identities every analysis of it relies on:

* the subset counts sum to ``total_records``;
* each predictor's marginal over the subset counts is its
  ``results[name].correct``;
* the per-category subset dicts sum key-wise to ``subset_counts``;
* the vector merge renders the same JSON as the scalar merge, dict
  orders included.

The outcome-key codec round-trips every width a vector merge can pack.
``pytest tests/simulation/test_merge_properties.py
--hypothesis-profile=nightly`` runs many more examples than the default
profile.
"""

from __future__ import annotations

import json
from collections import Counter

from hypothesis import given, settings, strategies as st
from test_kernel_fuzz import TRACES
from test_kernel_parity import requires_numpy

from repro.core.registry import available_predictors
from repro.engine.codecs import (
    _decode_outcome_key,
    _encode_outcome_key,
    simulation_to_dict,
)
from repro.simulation.simulator import merge_shards, simulate_shard

#: Every registry name plus a few dynamic FCM spellings.
NAMES = (*available_predictors(), "fcm4-small", "fcm2-full", "fcm3-single")

#: A drawn ordered subset of ``NAMES``: it fixes the outcome-tuple positions.
NAME_SUBSETS = st.lists(
    st.sampled_from(NAMES), min_size=1, max_size=len(NAMES), unique=True
)

#: Outcome tuples of every width a vector merge packs into one key.
OUTCOMES = st.integers(min_value=0, max_value=62).flatmap(
    lambda width: st.lists(st.booleans(), min_size=width, max_size=width)
)


def _shards(trace, names):
    return {name: simulate_shard(trace, name) for name in names}


def assert_merge_identities(merged, names) -> None:
    subset_counts = merged.subset_counts
    assert merged.predictor_names == tuple(names)
    assert all(len(outcome) == len(names) for outcome in subset_counts)
    assert sum(subset_counts.values()) == merged.total_records
    for position, name in enumerate(names):
        hits = (count for outcome, count in subset_counts.items() if outcome[position])
        assert sum(hits) == merged.results[name].correct, name
    by_category = Counter()
    for counts in merged.subset_counts_by_category.values():
        by_category.update(counts)
    assert dict(by_category) == subset_counts


@settings(deadline=None)
@given(trace=TRACES, names=NAME_SUBSETS)
def test_scalar_merge_identities(trace, names):
    merged = merge_shards(trace, _shards(trace, names), kernel="scalar")
    assert_merge_identities(merged, names)


@requires_numpy
@settings(deadline=None)
@given(trace=TRACES, names=NAME_SUBSETS)
def test_vector_merge_matches_scalar(trace, names):
    shards = _shards(trace, names)
    vector = merge_shards(trace, shards, kernel="vector")
    assert_merge_identities(vector, names)
    scalar = merge_shards(trace, shards, kernel="scalar")
    assert json.dumps(simulation_to_dict(vector)) == json.dumps(simulation_to_dict(scalar))


@given(OUTCOMES)
def test_outcome_key_round_trips(outcome):
    key = tuple(outcome)
    text = _encode_outcome_key(key)
    assert text == "".join("1" if correct else "0" for correct in key)
    assert _decode_outcome_key(text) == key
