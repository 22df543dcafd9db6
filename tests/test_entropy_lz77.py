"""Unit and property tests for repro.entropy.lz77."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entropy import lz77_compress_tokens, lz77_decompress_tokens
from repro.entropy.lz77 import Lz77Tokens


class TestLz77:
    def test_empty(self):
        tokens = lz77_compress_tokens(b"")
        assert tokens.n_tokens == 0
        assert lz77_decompress_tokens(tokens) == b""

    def test_no_matches_all_literals(self):
        data = bytes(range(16))
        tokens = lz77_compress_tokens(data)
        assert tokens.literals == data
        assert lz77_decompress_tokens(tokens) == data

    def test_repeated_block_found(self):
        data = b"abcdefgh" * 50
        tokens = lz77_compress_tokens(data)
        assert len(tokens.literals) < len(data) // 4
        assert lz77_decompress_tokens(tokens) == data

    def test_overlapping_match_rle_style(self):
        data = b"a" * 500
        tokens = lz77_compress_tokens(data)
        assert lz77_decompress_tokens(tokens) == data
        assert tokens.n_tokens < 20

    def test_long_match_capped(self):
        data = b"x" * 5000
        tokens = lz77_compress_tokens(data)
        assert lz77_decompress_tokens(tokens) == data

    def test_match_at_window_boundary(self):
        head = b"UNIQ0123"
        filler = bytes((i * 7 + i // 251) % 256 for i in range(40000))
        data = head + filler + head
        tokens = lz77_compress_tokens(data)
        assert lz77_decompress_tokens(tokens) == data

    def test_corrupt_offset_rejected(self):
        from repro.entropy.bitio import BitWriter

        w = BitWriter()
        w.write_bit(1)
        bad = Lz77Tokens(1, w.getvalue(), b"", bytes([0, 10]))  # offset 10 > 0 output
        with pytest.raises(ValueError):
            lz77_decompress_tokens(bad)

    def test_missing_literal_rejected(self):
        from repro.entropy.bitio import BitWriter

        w = BitWriter()
        w.write_bit(0)
        bad = Lz77Tokens(1, w.getvalue(), b"", b"")
        with pytest.raises(ValueError):
            lz77_decompress_tokens(bad)

    @given(st.binary(max_size=3000))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, data):
        assert lz77_decompress_tokens(lz77_compress_tokens(data)) == data

    @given(st.binary(min_size=1, max_size=40), st.integers(2, 80))
    @settings(max_examples=40, deadline=None)
    def test_periodic_roundtrip_property(self, unit, repeats):
        data = unit * repeats
        assert lz77_decompress_tokens(lz77_compress_tokens(data)) == data
