"""Shared fixtures for the test suite.

Suite-wide artefacts (campaign, traces) are expensive to produce, so they are
session-scoped and use the reduced ``QUICK_SCALE``; individual unit tests
construct their own tiny traces instead.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.registry import _REGISTRY, PAPER_PREDICTORS
from repro.simulation.campaign import QUICK_SCALE, run_campaign
from repro.workloads.suite import get_workload

#: ``pytest --hypothesis-profile=nightly``: the scheduled CI run's long search
#: (tests that pin ``max_examples`` in their own ``@settings`` keep it).
settings.register_profile("nightly", max_examples=10_000, deadline=None)


@pytest.fixture(autouse=True)
def registry_guard():
    """Fail a test that leaves the predictor registry changed: later tests
    iterating ``available_predictors()`` would see its names."""
    before = dict(_REGISTRY)
    yield
    changed = sorted(name for name in before.keys() | _REGISTRY if before.get(name) is not _REGISTRY.get(name))
    if changed:
        _REGISTRY.clear()
        _REGISTRY.update(before)
        pytest.fail(f"test left the predictor registry changed: {changed}")


@pytest.fixture(scope="session")
def quick_campaign():
    """One full-suite campaign with the paper's predictors at quick scale."""
    return run_campaign(scale=QUICK_SCALE, predictors=PAPER_PREDICTORS)


@pytest.fixture(scope="session")
def compress_trace():
    """A small compress trace used by several simulation tests."""
    return get_workload("compress").trace(scale=0.05)


@pytest.fixture(scope="session")
def m88ksim_trace():
    """A small m88ksim trace (the most predictable benchmark)."""
    return get_workload("m88ksim").trace(scale=0.05)


@pytest.fixture
def dispatch_spy():
    """``dispatch_spy(engine)`` returns a list that fills with every payload
    the engine's backend is handed, in dispatch order."""

    def install(engine):
        dispatched: list[dict] = []
        original_map = engine.backend.map

        def spy_map(function, payloads, on_result=None):
            dispatched.extend(payloads)
            return original_map(function, payloads, on_result)

        engine.backend.map = spy_map
        return dispatched

    return install
