"""Tests for the v3 binary trace format and cross-version loading."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceError
from repro.isa.opcodes import Opcode
from repro.trace.io import (
    BINARY_MAGIC,
    decode_trace_columns,
    decode_uvarint,
    dumps_trace,
    dumps_trace_binary,
    encode_uvarint,
    load_trace_file,
    loads_trace,
    loads_trace_binary,
    save_trace_file,
)
from repro.trace.synthetic import trace_from_streams, trace_from_values


def _assert_same_trace(left, right):
    assert left.name == right.name
    assert left.total_dynamic_instructions == right.total_dynamic_instructions
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert (a.serial, a.pc, a.opcode, a.category, a.value) == (
            b.serial, b.pc, b.opcode, b.category, b.value,
        )


def _decode_columnar(blob, tmp_path):
    pytest.importorskip("numpy")
    return decode_trace_columns(blob)


def _decode_file(blob, tmp_path):
    path = tmp_path / "trace.rvpt"
    path.write_bytes(blob)
    return load_trace_file(path)


#: Every way a v3 blob is decoded: the scalar and the columnar decoder,
#: and the file loader.
_DECODERS = {
    "scalar": lambda blob, tmp_path: loads_trace_binary(blob),
    "columnar": _decode_columnar,
    "file": _decode_file,
}


class TestVarints:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**64 + 5])
    def test_uvarint_round_trip(self, value):
        decoded, offset = decode_uvarint(encode_uvarint(value), 0)
        assert decoded == value
        assert offset == len(encode_uvarint(value))

    def test_uvarint_rejects_negative(self):
        with pytest.raises(TraceError):
            encode_uvarint(-1)

    def test_truncated_varint_rejected(self):
        with pytest.raises(TraceError):
            decode_uvarint(b"\x80", 0)


class TestBinaryRoundTrip:
    def test_round_trip_preserves_records(self):
        trace = trace_from_streams({0: [1, -2, 3], 8: [100, 200]}, opcodes={8: Opcode.LW})
        trace.set_total_dynamic_instructions(12)
        _assert_same_trace(trace, loads_trace_binary(dumps_trace_binary(trace)))

    def test_compressed_round_trip(self):
        trace = trace_from_values([7, 7, 7, 8, 9] * 40, name="zlib")
        trace.set_total_dynamic_instructions(400)
        blob = dumps_trace_binary(trace, compress=True)
        _assert_same_trace(trace, loads_trace_binary(blob))
        assert len(blob) < len(dumps_trace_binary(trace))

    def test_empty_trace_round_trips(self):
        trace = trace_from_values([1], name="nearly-empty")[0:0]
        trace.name = "nearly-empty"
        _assert_same_trace(trace, loads_trace_binary(dumps_trace_binary(trace)))

    @pytest.mark.parametrize(
        "name",
        ["name with spaces", "percent %20 literal", "tabs\tand\nnewlines", "trailing space "],
    )
    def test_awkward_names_survive(self, name):
        trace = trace_from_values([1, 2, 3], name=name)
        assert loads_trace_binary(dumps_trace_binary(trace)).name == name

    @given(
        values=st.lists(
            st.integers(min_value=-(2**64), max_value=2**64), min_size=1, max_size=50
        ),
        compress=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, values, compress):
        trace = trace_from_values(values)
        restored = loads_trace_binary(dumps_trace_binary(trace, compress=compress))
        assert [record.value for record in restored] == [int(v) for v in values]

    def test_binary_decode_reencodes_to_identical_canonical_text(self, compress_trace):
        # The digest contract: a trace that travels through the binary
        # format must re-render to the exact same canonical text form.
        text = dumps_trace(compress_trace)
        restored = loads_trace_binary(dumps_trace_binary(compress_trace, compress=True))
        assert dumps_trace(restored) == text

    def test_binary_is_smaller_than_text(self, compress_trace):
        text = dumps_trace(compress_trace).encode("utf-8")
        assert len(dumps_trace_binary(compress_trace)) < len(text)
        assert len(dumps_trace_binary(compress_trace, compress=True)) < len(text) // 4


class TestBinaryCorruption:
    def test_bad_magic_rejected(self):
        with pytest.raises(TraceError):
            loads_trace_binary(b"\x89NOPE\r\n\x1a" + b"\x03\x00")

    def test_future_version_rejected(self):
        trace = trace_from_values([1, 2])
        blob = bytearray(dumps_trace_binary(trace))
        blob[len(BINARY_MAGIC)] = 9
        with pytest.raises(TraceError, match="version"):
            loads_trace_binary(bytes(blob))

    @pytest.mark.parametrize("keep", [9, 20, -3])
    def test_truncation_rejected(self, keep):
        trace = trace_from_values(list(range(50)))
        blob = dumps_trace_binary(trace)
        with pytest.raises(TraceError):
            loads_trace_binary(blob[:keep])

    @staticmethod
    def _blob(
        records_field: int,
        body: bytes,
        opcode: bytes = b"add",
        name: bytes = b"x",
        total: int = 5,
    ) -> bytes:
        """Hand-assemble a minimal v3 container around ``body``."""
        out = bytearray(BINARY_MAGIC)
        out += encode_uvarint(3)  # version
        out += encode_uvarint(0)  # flags
        out += encode_uvarint(len(name)) + name
        out += encode_uvarint(total)
        out += encode_uvarint(records_field)
        out += encode_uvarint(1)  # opcode table with one entry
        out += encode_uvarint(len(opcode)) + opcode
        out += encode_uvarint(len(body)) + body
        return bytes(out)

    #: One record: serial_delta=0, pc_delta=0, opcode_index=0, value=7.
    ONE_RECORD = b"\x00\x00\x00\x0e"

    def test_hand_built_record_decodes(self):
        trace = loads_trace_binary(self._blob(1, self.ONE_RECORD))
        assert [(r.pc, r.opcode, r.value) for r in trace] == [(0, Opcode.ADD, 7)]

    def test_trailing_body_bytes_rejected(self):
        with pytest.raises(TraceError, match="trailing"):
            loads_trace_binary(self._blob(1, self.ONE_RECORD + b"\x00"))

    def test_body_ending_early_rejected(self):
        with pytest.raises(TraceError, match="ends after"):
            loads_trace_binary(self._blob(2, self.ONE_RECORD))

    def test_unknown_opcode_in_table_rejected(self):
        with pytest.raises(TraceError, match="unknown opcode"):
            loads_trace_binary(self._blob(1, self.ONE_RECORD, opcode=b"zzz"))

    def test_out_of_range_opcode_index_reported_as_such(self):
        # serial=0, pc=0, opcode index 5 into a 1-entry table, value=7:
        # must be reported as a bad index, not as body truncation.
        with pytest.raises(TraceError, match="invalid opcode index"):
            loads_trace_binary(self._blob(1, b"\x00\x00\x05\x0e"))

    @pytest.mark.parametrize("decoder", ["scalar", "columnar", "file"])
    @pytest.mark.parametrize(
        "field", [{"name": b"n\xe9"}, {"opcode": b"a\xffd"}], ids=["name", "opcode"]
    )
    def test_non_ascii_header_byte_raises_trace_error(self, tmp_path, decoder, field):
        # A flipped high bit in the name or the opcode table is corruption
        # like any other: TraceError, never UnicodeDecodeError.
        blob = self._blob(1, self.ONE_RECORD, **field)
        with pytest.raises(TraceError, match="non-ASCII"):
            _DECODERS[decoder](blob, tmp_path)

    @pytest.mark.parametrize("decoder", ["scalar", "columnar", "file"])
    def test_total_below_record_count_rejected(self, tmp_path, decoder):
        # Both decoders enforce the invariant ValueTrace does: a trace
        # cannot hold more records than dynamic instructions.
        blob = self._blob(2, self.ONE_RECORD * 2, total=1)
        with pytest.raises(TraceError, match="smaller"):
            _DECODERS[decoder](blob, tmp_path)

    def test_corrupt_zlib_body_rejected(self):
        trace = trace_from_values([5] * 30)
        blob = bytearray(dumps_trace_binary(trace, compress=True))
        blob[-4] ^= 0xFF
        with pytest.raises(TraceError):
            loads_trace_binary(bytes(blob))


class TestCrossVersionLoading:
    V1_TEXT = "#repro-trace v1 name=legacy total=3 records=2\n0 0 add 1\n1 4 lw -2\n"
    V2_TEXT = "#repro-trace v2 name=le%20gacy total=3 records=2\n0 0 add 1\n1 4 lw -2\n"

    def test_v1_text_still_loads(self):
        trace = loads_trace(self.V1_TEXT)
        assert trace.name == "legacy"
        assert [record.value for record in trace] == [1, -2]

    def test_v2_text_still_loads(self):
        trace = loads_trace(self.V2_TEXT)
        assert trace.name == "le gacy"

    def test_v1_v2_v3_agree_on_records(self):
        v1 = loads_trace(self.V1_TEXT)
        v2 = loads_trace(self.V2_TEXT)
        v3 = loads_trace_binary(dumps_trace_binary(v1))
        for left, right in ((v1, v3), (v1, v2)):
            assert [(r.serial, r.pc, r.opcode, r.value) for r in left] == [
                (r.serial, r.pc, r.opcode, r.value) for r in right
            ]

    def test_file_round_trip_both_formats(self, tmp_path):
        trace = trace_from_values([3, 1, 4, 1, 5], name="file test")
        trace.set_total_dynamic_instructions(11)
        for format, compress in (("text", False), ("binary", False), ("binary", True)):
            path = tmp_path / f"trace-{format}-{compress}"
            save_trace_file(trace, path, format=format, compress=compress)
            _assert_same_trace(trace, load_trace_file(path))

    def test_save_rejects_unknown_format(self, tmp_path):
        with pytest.raises(TraceError):
            save_trace_file(trace_from_values([1]), tmp_path / "t", format="xml")

    def test_load_file_rejects_non_trace_bytes(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"\xff\xfe not a trace")
        with pytest.raises(TraceError):
            load_trace_file(path)
