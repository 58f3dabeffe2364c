"""Differential fuzz: the vector kernel against the scalar reference.

Each Hypothesis example is one trace — the collected trace of a seed of
``tests/isa/random_programs.py``, or a synthetic trace of drawn seed,
length and PC count (deep single-PC streams, wide PC sets, 64-bit wrap
values) — and one drawn order of every predictor name below.  All names
run over one shared ``TraceColumns``, as a campaign runs them, so the
kernel's per-trace context table and hybrid component memo are exercised
in every order.  Every vector shard must be a real vector result (no
scalar fallback) whose JSON equals the scalar reference shard's.
``pytest tests/simulation/test_kernel_fuzz.py --hypothesis-profile=nightly``
runs many more examples than the default profile.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("numpy")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "isa"))
from random_programs import random_program  # noqa: E402
from test_kernel_parity import synthetic_trace  # noqa: E402

from repro.core.registry import available_predictors  # noqa: E402
from repro.engine.codecs import shard_to_dict  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.simulation.simulator import simulate_shard  # noqa: E402
from repro.simulation.vectorized import simulate_shard_vector  # noqa: E402
from repro.trace.collector import collect_trace  # noqa: E402
from repro.trace.io import trace_columns  # noqa: E402

#: Every registry name plus every dynamic FCM spelling of orders 0..4.
NAMES = tuple(
    dict.fromkeys(
        (
            *available_predictors(),
            *(
                f"fcm{order}{suffix}"
                for order in range(5)
                for suffix in ("", "-single", "-small", "-full")
            ),
        )
    )
)


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
@given(trace=TRACES, names=st.permutations(NAMES))
def test_vector_shard_matches_scalar(trace, names):
    columns = trace_columns(trace)
    assert columns is not None
    for name in names:
        shard = simulate_shard_vector(columns, name)
        assert shard is not None, name
        reference = simulate_shard(trace, name, kernel="scalar")
        assert json.dumps(shard_to_dict(shard)) == json.dumps(shard_to_dict(reference)), name
