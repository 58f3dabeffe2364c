"""Codecs for simulation artefacts and binary cache entries.

Everything the engine moves between processes or persists in the result
cache goes through these functions: :class:`TraceStatistics`,
:class:`PredictorResult`, :class:`PredictorShard`, the joint
:class:`SimulationResult` and Figure 10's :class:`PcTallies`.  All
encodings are plain JSON-compatible dicts (string keys, no custom types),
so cache files stay greppable and a future distributed backend can reuse
the same wire format.

Conventions: ``Category`` values are encoded by their string value, PC maps
by decimal string keys (per-PC tallies as parallel lists in pc order),
subset-outcome tuples as ``"10010"``-style bit strings, and packed
correctness bits as hex.

On top of the dict codecs, :func:`encode_cache_entry` /
:func:`decode_cache_entry` define the *binary cache-entry envelope*
(``.rvpc`` files, the cache's only entry format): the entry key stays
uncompressed JSON so a cache directory remains greppable, the payload is
zlib-compressed, and a trace payload's ``trace_binary`` v3 bytes ride in
their own section instead of inside the JSON.  Decoding deliberately
does **not** decode the trace (the expensive part of a warm read); it
returns the raw v3 bytes under ``trace_binary`` and :func:`payload_trace`
materialises them on demand (see ``docs/cache-layout.md``).
"""

from __future__ import annotations

import json
import zlib

from repro.errors import TraceError
from repro.isa.opcodes import Category
from repro.simulation.simulator import (
    PredictorResult,
    PredictorShard,
    SimulationResult,
)
from repro.simulation.value_profile import PcTallies
from repro.trace.io import decode_trace, decode_uvarint, encode_uvarint
from repro.trace.stream import TraceStatistics, ValueTrace


def _encode_pc_map(mapping: dict[int, int]) -> dict[str, int]:
    return {str(pc): count for pc, count in mapping.items()}


def _decode_pc_map(data: dict[str, int]) -> dict[int, int]:
    return {int(pc): count for pc, count in data.items()}


def _encode_category_map(mapping: dict[Category, int]) -> dict[str, int]:
    return {category.value: count for category, count in mapping.items()}


def _decode_category_map(data: dict[str, int]) -> dict[Category, int]:
    return {Category(value): count for value, count in data.items()}


#: Maps the bytes of a bool tuple (``0``/``1``) to the digits ``"0"``/``"1"``.
_OUTCOME_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _encode_outcome_key(key: tuple[bool, ...]) -> str:
    return bytes(key).translate(_OUTCOME_DIGITS).decode("ascii")


def _decode_outcome_key(text: str) -> tuple[bool, ...]:
    return tuple(char == "1" for char in text)


# --------------------------------------------------------------------------- #
# TraceStatistics
# --------------------------------------------------------------------------- #
def statistics_to_dict(statistics: TraceStatistics) -> dict:
    return {
        "name": statistics.name,
        "total_dynamic_instructions": statistics.total_dynamic_instructions,
        "predicted_instructions": statistics.predicted_instructions,
        "static_instruction_count": statistics.static_instruction_count,
        "category_dynamic_counts": _encode_category_map(statistics.category_dynamic_counts),
        "category_static_counts": _encode_category_map(statistics.category_static_counts),
    }


def statistics_from_dict(data: dict) -> TraceStatistics:
    return TraceStatistics(
        name=data["name"],
        total_dynamic_instructions=data["total_dynamic_instructions"],
        predicted_instructions=data["predicted_instructions"],
        static_instruction_count=data["static_instruction_count"],
        category_dynamic_counts=_decode_category_map(data["category_dynamic_counts"]),
        category_static_counts=_decode_category_map(data["category_static_counts"]),
    )


# --------------------------------------------------------------------------- #
# PredictorResult / PredictorShard
# --------------------------------------------------------------------------- #
def predictor_result_to_dict(result: PredictorResult) -> dict:
    return {
        "predictor": result.predictor,
        "total": result.total,
        "correct": result.correct,
        "category_total": _encode_category_map(result.category_total),
        "category_correct": _encode_category_map(result.category_correct),
        "pc_correct": _encode_pc_map(result.pc_correct),
    }


def predictor_result_from_dict(data: dict) -> PredictorResult:
    return PredictorResult(
        predictor=data["predictor"],
        total=data["total"],
        correct=data["correct"],
        category_total=_decode_category_map(data["category_total"]),
        category_correct=_decode_category_map(data["category_correct"]),
        pc_correct=_decode_pc_map(data["pc_correct"]),
    )


def shard_to_dict(shard: PredictorShard) -> dict:
    return {
        "result": predictor_result_to_dict(shard.result),
        "correctness": shard.correctness.hex(),
        "record_count": shard.record_count,
    }


def shard_from_dict(data: dict) -> PredictorShard:
    return PredictorShard(
        result=predictor_result_from_dict(data["result"]),
        correctness=bytes.fromhex(data["correctness"]),
        record_count=data["record_count"],
    )


# --------------------------------------------------------------------------- #
# SimulationResult
# --------------------------------------------------------------------------- #
def simulation_to_dict(simulation: SimulationResult) -> dict:
    return {
        "trace_name": simulation.trace_name,
        "predictor_names": list(simulation.predictor_names),
        "total_records": simulation.total_records,
        "results": {
            name: predictor_result_to_dict(result)
            for name, result in simulation.results.items()
        },
        "pc_total": _encode_pc_map(simulation.pc_total),
        "pc_category": {
            str(pc): category.value for pc, category in simulation.pc_category.items()
        },
        "subset_counts": {
            _encode_outcome_key(key): count
            for key, count in simulation.subset_counts.items()
        },
        "subset_counts_by_category": {
            category.value: {
                _encode_outcome_key(key): count for key, count in counts.items()
            }
            for category, counts in simulation.subset_counts_by_category.items()
        },
    }


def simulation_from_dict(data: dict) -> SimulationResult:
    return SimulationResult(
        trace_name=data["trace_name"],
        predictor_names=tuple(data["predictor_names"]),
        total_records=data["total_records"],
        results={
            name: predictor_result_from_dict(result)
            for name, result in data["results"].items()
        },
        pc_total=_decode_pc_map(data["pc_total"]),
        pc_category={
            int(pc): Category(value) for pc, value in data["pc_category"].items()
        },
        subset_counts={
            _decode_outcome_key(key): count
            for key, count in data["subset_counts"].items()
        },
        subset_counts_by_category={
            Category(value): {
                _decode_outcome_key(key): count for key, count in counts.items()
            }
            for value, counts in data["subset_counts_by_category"].items()
        },
    )


# --------------------------------------------------------------------------- #
# PcTallies (Figure 10's per-PC tallies)
# --------------------------------------------------------------------------- #
def tallies_to_dict(tallies: PcTallies) -> dict:
    """Parallel per-PC lists, in ascending pc order."""
    pcs = sorted(tallies.unique)
    return {
        "pcs": pcs,
        "unique": [tallies.unique[pc] for pc in pcs],
        "dynamic": [tallies.dynamic[pc] for pc in pcs],
        "categories": [tallies.category[pc].value for pc in pcs],
    }


def tallies_from_dict(data: dict) -> PcTallies:
    """Inverse of :func:`tallies_to_dict`; raises on a malformed payload."""
    pcs = data["pcs"]
    columns = (data["unique"], data["dynamic"], data["categories"])
    if any(len(column) != len(pcs) for column in columns):
        raise ValueError("profile tallies: columns of different lengths")
    unique, dynamic, categories = columns
    return PcTallies(
        unique=dict(zip(pcs, unique)),
        dynamic=dict(zip(pcs, dynamic)),
        category=dict(zip(pcs, map(Category, categories))),
    )


# --------------------------------------------------------------------------- #
# Binary cache-entry envelope (.rvpc files)
# --------------------------------------------------------------------------- #
#: Magic + version for binary cache entries; bump the version when the
#: envelope layout changes incompatibly (old entries then read as corrupt,
#: i.e. cache misses, never as wrong data).
CACHE_ENTRY_MAGIC = b"\x89RVPC\r\n\x1a"
CACHE_ENTRY_VERSION = 1

#: Placeholder stored in the payload JSON where ``trace_binary`` was lifted
#: out; the trace itself rides in the envelope's binary-trace section.
_TRACE_SENTINEL = "__trace_binary__"


def encode_cache_entry(key: dict, payload: dict, compress: bool = True) -> bytes:
    """Pack one cache entry (key + payload) into the binary envelope.

    Layout (integers are LEB128 varints)::

        magic(8) version flags
        key_len key_json             -- uncompressed UTF-8 JSON, greppable
        body_len body_bytes          -- zlib-compressed when flag bit 0 set

    and the body, once inflated::

        payload_len payload_json
        trace_len trace_v3_bytes     -- 0 when the payload carries no trace

    A payload's ``trace_binary`` bytes — fresh off the worker wire
    (:func:`repro.engine.worker.execute_trace_task`'s entry holds
    compressed v3 bytes) or carried over from a previously decoded entry — go into the
    trace section as given, since the v3 framing is self-describing about
    its own compression; every other field stays JSON.
    """
    payload_fields = dict(payload)
    trace_bytes = payload_fields.pop("trace_binary", b"")
    if trace_bytes:
        payload_fields[_TRACE_SENTINEL] = True
    payload_json = json.dumps(payload_fields).encode("utf-8")

    body = bytearray()
    body += encode_uvarint(len(payload_json))
    body += payload_json
    body += encode_uvarint(len(trace_bytes))
    body += trace_bytes
    flags = 0
    body_bytes = bytes(body)
    if compress:
        flags |= 0x01
        body_bytes = zlib.compress(body_bytes, level=6)

    key_json = json.dumps(dict(key), sort_keys=True).encode("utf-8")
    out = bytearray(CACHE_ENTRY_MAGIC)
    out += encode_uvarint(CACHE_ENTRY_VERSION)
    out += encode_uvarint(flags)
    out += encode_uvarint(len(key_json))
    out += key_json
    out += encode_uvarint(len(body_bytes))
    out += body_bytes
    return bytes(out)


def decode_cache_entry(blob: bytes) -> tuple[dict, dict]:
    """Unpack an envelope produced by :func:`encode_cache_entry`.

    Returns ``(key, payload)``; an embedded trace comes back as raw v3
    bytes under ``trace_binary`` (use :func:`payload_trace` — decoding
    eagerly would throw away the binary format's parse-time win on every
    warm read).  Raises ``ValueError`` on any corruption —
    truncation, bad magic, undecodable body — which the cache layer
    converts into a miss.
    """
    view = memoryview(blob)
    if bytes(view[: len(CACHE_ENTRY_MAGIC)]) != CACHE_ENTRY_MAGIC:
        raise ValueError("not a binary cache entry: bad magic")
    offset = len(CACHE_ENTRY_MAGIC)
    try:
        version, offset = decode_uvarint(view, offset)
        if version != CACHE_ENTRY_VERSION:
            raise ValueError(f"unsupported cache entry version {version}")
        flags, offset = decode_uvarint(view, offset)
        key_length, offset = decode_uvarint(view, offset)
        if offset + key_length > len(view):
            raise ValueError("truncated cache entry: key overruns the data")
        key = json.loads(bytes(view[offset : offset + key_length]).decode("utf-8"))
        offset += key_length
        body_length, offset = decode_uvarint(view, offset)
        if offset + body_length > len(view):
            raise ValueError("truncated cache entry: body overruns the data")
        body: bytes = bytes(view[offset : offset + body_length])
        if flags & 0x01:
            try:
                body = zlib.decompress(body)
            except zlib.error as exc:
                raise ValueError("corrupt cache entry: body fails to decompress") from exc

        payload_length, position = decode_uvarint(body, 0)
        if position + payload_length > len(body):
            raise ValueError("truncated cache entry: payload overruns the body")
        payload = json.loads(body[position : position + payload_length].decode("utf-8"))
        position += payload_length
        trace_length, position = decode_uvarint(body, position)
        if position + trace_length > len(body):
            raise ValueError("truncated cache entry: trace overruns the body")
    except TraceError as exc:
        # decode_uvarint signals truncation with TraceError; this API's
        # corruption contract is ValueError.
        raise ValueError(f"truncated cache entry: {exc}") from exc
    if payload.pop(_TRACE_SENTINEL, False):
        if trace_length == 0:
            raise ValueError("corrupt cache entry: trace sentinel without trace bytes")
        # The embedded trace is *not* decoded here — that is the expensive
        # part of a warm read, and callers materialise it exactly once via
        # payload_trace().  Consumers must treat a TraceError from it as
        # a cache miss (the scheduler recomputes; `verify` decodes deeply).
        payload["trace_binary"] = body[position : position + trace_length]
    return key, payload


# --------------------------------------------------------------------------- #
# Trace-task payloads
# --------------------------------------------------------------------------- #
def payload_trace(payload: dict) -> ValueTrace:
    """Materialise the :class:`ValueTrace` carried by a trace-task payload.

    Fresh task outcomes off the worker wire and decoded cache entries both
    carry the trace as v3 bytes under ``trace_binary``; its digest rides
    next to it under ``digest``, stamped by the trace task.  The bytes
    decode straight to array columns (:func:`repro.trace.io.decode_trace`),
    so the trace's columns are free and no ``TraceRecord`` is built unless
    a caller asks for ``records``.
    """
    return decode_trace(payload["trace_binary"])
