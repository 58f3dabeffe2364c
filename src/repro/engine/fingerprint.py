"""Deterministic identities for work units and their inputs.

Cache correctness hinges on keys capturing everything a task's output
depends on: a predictor is identified by its *configuration signature*
(not just its registry name, which can be re-bound), a trace by the digest
of its canonical serialised form, and every composite key by the SHA-256 of
its canonical JSON rendering.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping

from repro.core.registry import create_predictor
from repro.trace.stream import ValueTrace


def predictor_signature(name: str) -> str:
    """Configuration signature of the predictor currently bound to ``name``.

    Instantiates a fresh predictor on every call on purpose: the registry
    allows re-binding a name (``overwrite=True``), and a memoised signature
    would keep serving the old configuration.
    """
    return create_predictor(name).config_signature()


def predictors_fingerprint(names: tuple[str, ...] | list[str]) -> tuple[tuple[str, str], ...]:
    """(name, signature) pairs identifying an ordered predictor line-up."""
    return tuple((name, predictor_signature(name)) for name in names)


def trace_digest(trace: ValueTrace) -> str:
    """Content digest of a trace's canonical serialised form."""
    from repro.trace.io import dumps_trace

    return hashlib.sha256(dumps_trace(trace).encode("utf-8")).hexdigest()


def key_digest(key: Mapping) -> str:
    """SHA-256 of a JSON-serialisable mapping, independent of key order."""
    canonical = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
