"""Torn and bit-flipped cache entries are misses, never wrong results.

A writer killed mid-write on a filesystem without atomic replace leaves a
prefix of an entry behind; a failing disk or memory flips bits.  For one
real ``trace``, ``simulate`` and ``merge`` entry of a small campaign,
every prefix of the entry and seeded single-bit flips of every byte go
through :meth:`~repro.engine.cache.ResultCache.get`, and a trace entry's
hits through :func:`~repro.engine.codecs.payload_trace` as the scheduler
reads them.  Each must be a miss (``None``, or a ``TraceError`` from the
trace decode, which the scheduler recomputes) or a payload identical to
the original.  The entry file's reads return each mutant in turn from
memory, so the test pays for decoding, not for thousands of file writes.
The seed is fixed, so a failing mutant reproduces.
"""

from __future__ import annotations

import io
import random

import pytest

import repro.engine.cache as cache_module
from repro.engine import EngineConfig, ExecutionEngine
from repro.engine.cache import ResultCache
from repro.engine.codecs import decode_cache_entry, payload_trace
from repro.errors import TraceError

SEED = 23
#: Distinct bits flipped, one at a time, in every byte of an entry.
FLIPS_PER_BYTE = 3


@pytest.fixture(scope="module")
def campaign_cache(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("faults") / "cache"
    with ExecutionEngine(EngineConfig(cache_dir=cache_dir)) as engine:
        engine.run(scale=0.02, predictors=("l", "s2"), benchmarks=("compress",))
    return cache_dir


def _mutants(entry: bytes, rng: random.Random):
    """Every proper prefix of ``entry``, then its seeded single-bit flips."""
    for length in range(len(entry)):
        yield entry[:length]
    for index in range(len(entry)):
        for bit in rng.sample(range(8), FLIPS_PER_BYTE):
            flipped = bytearray(entry)
            flipped[index] ^= 1 << bit
            yield bytes(flipped)


@pytest.mark.parametrize("kind", ["trace", "simulate", "merge"])
def test_torn_and_flipped_entries_are_misses(campaign_cache, tmp_path, monkeypatch, kind):
    source = sorted((campaign_cache / kind).glob("*/*"))[0]
    entry = source.read_bytes()
    key, expected = decode_cache_entry(entry)
    cache = ResultCache(tmp_path / "cache")
    path = cache.path_for(kind, key)
    path.parent.mkdir(parents=True)
    path.write_bytes(entry)
    contents = entry

    def read_contents(file, mode="r", *args, **kwargs):
        assert (file, mode) == (path, "rb")
        return io.BytesIO(contents)

    monkeypatch.setattr(cache_module, "open", read_contents, raising=False)
    rows = list(map(list, payload_trace(expected).record_columns())) if kind == "trace" else None
    for contents in _mutants(entry, random.Random(f"{SEED}-{kind}")):
        payload = cache.get(kind, key)
        if payload is None:
            continue
        if kind == "trace":
            try:
                trace = payload_trace(payload)
            except TraceError:
                continue
            assert list(map(list, trace.record_columns())) == rows
        assert payload == expected
    # Every mutant was read: the misses plus the hits are all of them.
    assert cache.hits + cache.misses == (1 + FLIPS_PER_BYTE) * len(entry)
    contents = entry
    assert cache.get(kind, key) == expected
