"""Unit tests for repro.entropy.bitio."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entropy import BitReader, BitWriter


class TestBitWriter:
    def test_single_bits(self):
        w = BitWriter()
        for bit in [1, 0, 1, 0, 1, 0, 1, 0]:
            w.write_bit(bit)
        assert w.getvalue() == bytes([0b10101010])

    def test_partial_byte_padded(self):
        w = BitWriter()
        w.write_bit(1)
        assert w.getvalue() == bytes([0b10000000])

    def test_write_bits_msb_first(self):
        w = BitWriter()
        w.write_bits(0b101, 3)
        w.write_bits(0b11111, 5)
        assert w.getvalue() == bytes([0b10111111])

    def test_write_bits_across_bytes(self):
        w = BitWriter()
        w.write_bits(0xABCD, 16)
        assert w.getvalue() == bytes([0xAB, 0xCD])

    def test_zero_count(self):
        w = BitWriter()
        w.write_bits(0, 0)
        assert w.getvalue() == b""

    def test_value_too_wide_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(0b100, 2)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(0, -1)

    def test_bit_length(self):
        w = BitWriter()
        w.write_bits(0, 13)
        assert w.bit_length == 13
        assert len(w) == 1  # one complete byte


class TestBitReader:
    def test_read_bits(self):
        r = BitReader(bytes([0xAB, 0xCD]))
        assert r.read_bits(16) == 0xABCD

    def test_read_bit_sequence(self):
        r = BitReader(bytes([0b10110000]))
        assert [r.read_bit() for _ in range(4)] == [1, 0, 1, 1]

    def test_raises_past_end(self):
        with pytest.raises(ValueError, match="past its end"):
            BitReader(b"").read_bit()
        with pytest.raises(ValueError, match="past its end"):
            BitReader(b"").read_bits(32)

    def test_partial_then_past_end(self):
        r = BitReader(bytes([0xFF]))
        assert r.read_bits(8) == 0xFF
        with pytest.raises(ValueError, match="past its end"):
            r.read_bits(4)
        with pytest.raises(ValueError, match="past its end"):
            r.read_bit()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            BitReader(b"\x00").read_bits(-1)

    def test_bits_consumed(self):
        r = BitReader(bytes([0xFF, 0xFF]))
        r.read_bits(5)
        assert r.bits_consumed == 5


class TestRoundtrip:
    @given(st.lists(st.integers(0, 1), max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_bit_roundtrip(self, bits):
        w = BitWriter()
        for b in bits:
            w.write_bit(b)
        r = BitReader(w.getvalue())
        assert [r.read_bit() for _ in range(len(bits))] == bits

    @given(st.lists(st.tuples(st.integers(0, 2**30), st.integers(0, 31)), max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_field_roundtrip(self, fields):
        fields = [(v & ((1 << c) - 1) if c else 0, c) for v, c in fields]
        w = BitWriter()
        for value, count in fields:
            w.write_bits(value, count)
        r = BitReader(w.getvalue())
        for value, count in fields:
            assert r.read_bits(count) == value
