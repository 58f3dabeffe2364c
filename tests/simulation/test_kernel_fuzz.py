"""Differential fuzz: the vector kernel against the scalar reference.

Each Hypothesis example is one trace — the collected trace of a seed of
``tests/isa/random_programs.py``, or a synthetic trace of drawn seed,
length and PC count (deep single-PC streams, wide PC sets, 64-bit wrap
values) — and one drawn sequence of predictor names: every name below
in a drawn order, with drawn repeats inserted anywhere.  All names run
over one shared ``TraceColumns``, as a campaign runs them, so the
kernel's per-trace context table, lower-order FCM memo and hybrid
component memo are built and hit in every order, with the ``-small``
and ``-full`` spellings interleaved with the lazy ones.  Every vector
shard must be a real vector result (no scalar fallback) whose JSON
equals the scalar reference shard's.
``pytest tests/simulation/test_kernel_fuzz.py --hypothesis-profile=nightly``
runs many more examples than the default profile."""

from __future__ import annotations

import json
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "isa"))
from random_programs import random_program  # noqa: E402
from test_kernel_parity import synthetic_trace  # noqa: E402

from repro.core.registry import available_predictors  # noqa: E402
from repro.engine.codecs import shard_to_dict  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.simulation.simulator import simulate_shard_scalar  # noqa: E402
from repro.simulation.vectorized import simulate_shard_vector  # noqa: E402
from repro.trace.collector import collect_trace  # noqa: E402
from repro.trace.io import trace_columns  # noqa: E402

#: Every registry name plus every dynamic FCM spelling of orders 0..8 and
#: of order 40, past the deepest stream of most drawn traces.
NAMES = tuple(
    dict.fromkeys(
        (
            *available_predictors(),
            *(
                f"fcm{order}{suffix}"
                for order in (*range(9), 40)
                for suffix in ("", "-single", "-small", "-full")
            ),
        )
    )
)


def _with_repeats(drawn):
    """Insert each drawn ``(position, name)`` repeat into the permutation."""
    names, repeats = drawn
    names = list(names)
    for position, name in repeats:
        names.insert(position, name)
    return names


#: Every name once, in a drawn order, plus up to 12 drawn repeats.
SEQUENCES = st.tuples(
    st.permutations(NAMES),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(NAMES)), st.sampled_from(NAMES)),
        max_size=12,
    ),
).map(_with_repeats)


def _program_trace(seed):
    """The trace of ``seed``'s random program, or ``None`` if it faults."""
    program, memory, budget = random_program(seed)
    try:
        trace, _ = collect_trace(program, memory=memory, max_instructions=budget)
    except ReproError:
        return None
    return trace


TRACES = st.one_of(
    st.builds(_program_trace, st.integers(min_value=0, max_value=2**32 - 1)),
    # ``__wrapped__`` skips the parity harness's memo, which would
    # otherwise keep every drawn trace alive.
    st.builds(
        synthetic_trace.__wrapped__,
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=12),
    ),
).filter(lambda trace: trace is not None)


@settings(deadline=None)
@given(trace=TRACES, names=SEQUENCES)
def test_vector_shard_matches_scalar(trace, names):
    columns = trace_columns(trace)
    assert columns is not None
    references = {}
    for name in names:
        shard = simulate_shard_vector(columns, name)
        assert shard is not None, name
        if name not in references:
            references[name] = json.dumps(shard_to_dict(simulate_shard_scalar(trace, name)))
        assert json.dumps(shard_to_dict(shard)) == references[name], name
