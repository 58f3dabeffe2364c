"""LEB128 varint primitives shared by the v3 trace format and the cache-entry envelope.

A leaf module, so the engine's codecs (:mod:`repro.engine.codecs`) read a
cache entry's envelope without importing the trace codecs
(:mod:`repro.trace.io`).
"""

from __future__ import annotations

from repro.errors import TraceError


def encode_uvarint(value: int) -> bytes:
    """LEB128-encode a non-negative integer."""
    if value < 0:
        raise TraceError(f"cannot uvarint-encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes | memoryview, offset: int) -> tuple[int, int]:
    """Decode a LEB128 varint at ``offset``; returns ``(value, next_offset)``."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise TraceError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
