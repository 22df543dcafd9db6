"""Unit tests for repro.entropy.varint."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entropy import decode_varints, encode_varints, zigzag_decode, zigzag_encode
from repro.entropy.varint import decode_uvarint, encode_uvarint


class TestUvarint:
    def test_small_values_one_byte(self):
        out = bytearray()
        encode_uvarint(0, out)
        encode_uvarint(127, out)
        assert bytes(out) == bytes([0, 127])

    def test_multibyte(self):
        out = bytearray()
        encode_uvarint(300, out)
        assert bytes(out) == bytes([0xAC, 0x02])
        assert decode_uvarint(bytes(out), 0) == (300, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_uvarint(-1, bytearray())

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            decode_uvarint(bytes([0x80]), 0)

    def test_overlong_rejected(self):
        with pytest.raises(ValueError):
            decode_uvarint(bytes([0x80] * 12), 0)

    @given(st.integers(0, 2**62))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, value):
        out = bytearray()
        encode_uvarint(value, out)
        assert decode_uvarint(bytes(out), 0)[0] == value


class TestZigzag:
    def test_known_mapping(self):
        values = np.array([0, -1, 1, -2, 2], dtype=np.int64)
        assert zigzag_encode(values).tolist() == [0, 1, 2, 3, 4]

    def test_roundtrip_extremes(self):
        values = np.array([np.iinfo(np.int64).min // 2, np.iinfo(np.int64).max // 2])
        assert np.array_equal(zigzag_decode(zigzag_encode(values)), values)

    @given(st.lists(st.integers(-(2**40), 2**40), max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.int64)
        assert np.array_equal(zigzag_decode(zigzag_encode(arr)), arr)


class TestVarintSequences:
    def test_empty(self):
        assert encode_varints([]) == b""
        assert decode_varints(b"", 0).size == 0

    def test_signed_roundtrip(self):
        values = np.array([0, -5, 1000, -70000, 3])
        data = encode_varints(values, signed=True)
        assert np.array_equal(decode_varints(data, 5, signed=True), values)

    def test_unsigned_roundtrip(self):
        values = np.array([0, 5, 1000, 70000])
        data = encode_varints(values, signed=False)
        assert np.array_equal(decode_varints(data, 4, signed=False), values)

    def test_ten_byte_overflow_rejected(self):
        # The tenth byte holds bit 63 only; 0x7F there would wrap in uint64.
        with pytest.raises(ValueError, match="overflows"):
            decode_varints(bytes([0xFF] * 9 + [0x7F]), 1)

    def test_ten_byte_limit_decodes(self):
        assert decode_varints(bytes([0xFF] * 9 + [0x01]), 1).tolist() == [-(2**63)]
        extremes = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0])
        for signed in (True, False):
            data = encode_varints(extremes, signed=signed)
            assert np.array_equal(decode_varints(data, 4, signed=signed), extremes)

    def test_small_deltas_are_compact(self):
        # The motivating case: delta-encoded coordinates near zero.
        deltas = np.zeros(1000, dtype=np.int64)
        assert len(encode_varints(deltas)) == 1000

    @given(st.lists(st.integers(-(2**40), 2**40), max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.int64)
        data = encode_varints(arr)
        assert np.array_equal(decode_varints(data, len(values)), arr)
