"""Tests for the tagged entropy streams and the rANS ablation coder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.ablation_codecs.rans import (
    rans_decode,
    rans_decode_ints,
    rans_decode_symbols,
    rans_encode,
    rans_encode_ints,
    rans_encode_symbols,
)
from repro.core import DBGCCompressor, DBGCDecompressor, DBGCParams
from repro.core.container import unpack_container
from repro.core.sparse_codec import _unpack_stream
from repro.entropy.backend import (
    decode_tagged_ints,
    decode_tagged_symbols,
    encode_tagged_ints,
    encode_tagged_symbols,
)
from repro.geometry.points import PointCloud

#: Tag bytes no decoder accepts: format v2's retired ``rans`` tag and junk.
OTHER_TAGS = (1, 250)


class TestRansCodec:
    def test_empty(self):
        assert rans_encode(np.array([], dtype=np.int64), 4) == b""
        assert rans_decode(b"", 0, 4).size == 0

    @pytest.mark.parametrize("mode", [None, 0, 1])
    def test_roundtrip_modes(self, mode):
        rng = np.random.default_rng(0)
        symbols = rng.geometric(0.3, size=20000) % 16
        data = rans_encode(symbols, 16, mode=mode)
        assert np.array_equal(rans_decode(data, symbols.size, 16), symbols)

    def test_roundtrip_single_point(self):
        data = rans_encode(np.array([3]), 10)
        assert np.array_equal(rans_decode(data, 1, 10), [3])

    def test_roundtrip_single_symbol_alphabet_degenerate(self):
        symbols = np.zeros(5000, dtype=np.int64)
        data = rans_encode(symbols, 1)
        assert np.array_equal(rans_decode(data, 5000, 1), symbols)

    def test_roundtrip_lane_boundaries(self):
        # Exercise the partial last row for every residue class around the
        # lane-count divisor.
        rng = np.random.default_rng(1)
        for n in (1023, 1024, 1025, 2048, 2049):
            symbols = rng.integers(0, 8, size=n)
            data = rans_encode(symbols, 8, n_lanes=7)
            assert np.array_equal(rans_decode(data, n, 8), symbols)

    def test_forced_block_tables(self):
        rng = np.random.default_rng(2)
        # Drifting distribution: per-block tables should beat one table.
        symbols = (np.arange(30000) // 3000 + rng.integers(0, 3, 30000)) % 8
        single = rans_encode(symbols, 8, mode=0, rows_per_block=0)
        blocked = rans_encode(symbols, 8, mode=0, rows_per_block=32)
        assert len(blocked) < len(single)
        for data in (single, blocked):
            assert np.array_equal(rans_decode(data, symbols.size, 8), symbols)

    def test_truncation_raises(self):
        rng = np.random.default_rng(3)
        symbols = rng.integers(0, 256, size=20000)
        data = rans_encode(symbols, 256)
        for cut in (1, 5, len(data) // 2, len(data) - 1):
            with pytest.raises(ValueError):
                rans_decode(data[:cut], symbols.size, 256)

    def test_rejects_out_of_range_symbols(self):
        with pytest.raises(ValueError):
            rans_encode(np.array([4]), 4)
        with pytest.raises(ValueError):
            rans_encode(np.array([-1]), 4)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            rans_encode(np.arange(4), 4, mode=7)

    @given(st.lists(st.integers(0, 255), min_size=0, max_size=600))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, raw):
        symbols = np.array(raw, dtype=np.int64)
        data = rans_encode(symbols, 256)
        assert np.array_equal(rans_decode(data, symbols.size, 256), symbols)

    def test_small_stream_fallback(self):
        # Below 1,024 symbols the framing carries an adaptive-arithmetic
        # payload (mode 1); longer streams take rANS proper (mode 0).
        small = np.arange(20) % 4
        data = rans_encode_symbols(small, 4)
        assert data[0] == 1
        assert np.array_equal(rans_decode_symbols(data, small.size, 4), small)
        big = np.arange(5000) % 4
        data = rans_encode_symbols(big, 4)
        assert data[0] == 0
        assert np.array_equal(rans_decode_symbols(data, big.size, 4), big)

    def test_ints_roundtrip(self):
        rng = np.random.default_rng(5)
        values = rng.integers(-(2**30), 2**30, size=2000)
        assert np.array_equal(rans_decode_ints(rans_encode_ints(values)), values)


class TestTaggedStreams:
    def test_symbols_roundtrip_writes_tag_zero(self):
        rng = np.random.default_rng(4)
        symbols = rng.integers(0, 4, size=3000)
        data = encode_tagged_symbols(symbols, 4)
        assert data[0] == 0
        assert np.array_equal(decode_tagged_symbols(data, symbols.size, 4), symbols)

    def test_ints_roundtrip_writes_tag_zero(self):
        rng = np.random.default_rng(5)
        values = rng.integers(-(2**30), 2**30, size=2000)
        data = encode_tagged_ints(values)
        assert data[0] == 0
        assert np.array_equal(decode_tagged_ints(data), values)

    def test_empty_stream_raises(self):
        with pytest.raises(ValueError):
            decode_tagged_symbols(b"", 4, 4)
        with pytest.raises(ValueError):
            decode_tagged_ints(b"")

    @pytest.mark.parametrize("tag", OTHER_TAGS)
    def test_other_tags_rejected(self, tag):
        # Behind the tag, the rANS payloads format v2's tag 1 carried.
        symbols = np.arange(3000) % 4
        data = bytes([tag]) + rans_encode_symbols(symbols, 4)
        with pytest.raises(ValueError, match="tag"):
            decode_tagged_symbols(data, symbols.size, 4)
        data = bytes([tag]) + rans_encode_ints(symbols)
        with pytest.raises(ValueError, match="tag"):
            decode_tagged_ints(data)

    @given(raw=st.lists(st.integers(0, 255), min_size=0, max_size=400))
    @settings(max_examples=25, deadline=None)
    def test_occupancy_bytes_roundtrip_exact(self, raw):
        # Occupancy streams are alphabet-256 byte streams.
        symbols = np.array(raw, dtype=np.int64)
        data = encode_tagged_symbols(symbols, 256)
        assert np.array_equal(
            decode_tagged_symbols(data, symbols.size, 256), symbols
        )

    @given(raw=st.lists(st.integers(-(2**40), 2**40), min_size=0, max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_zigzag_delta_roundtrip_exact(self, raw):
        # The Δθ / Δφ / ∇r delta streams are signed-int sequences.
        values = np.array(raw, dtype=np.int64)
        data = encode_tagged_ints(values)
        assert np.array_equal(decode_tagged_ints(data), values)

    @given(raw=st.lists(st.integers(0, 3), min_size=0, max_size=500))
    @settings(max_examples=25, deadline=None)
    def test_lref_trit_roundtrip_exact(self, raw):
        # L_ref reference labels ride a 4-symbol alphabet.
        symbols = np.array(raw, dtype=np.int64)
        data = encode_tagged_symbols(symbols, 4)
        assert np.array_equal(
            decode_tagged_symbols(data, symbols.size, 4), symbols
        )


class TestSparseStreamMode:
    def test_retired_rans_mode_rejected(self):
        # Format v2 packed a rANS int payload behind sparse mode byte 2.
        values = np.random.default_rng(8).integers(-3, 4, size=2000)
        with pytest.raises(ValueError, match="mode"):
            _unpack_stream(bytes([2]) + rans_encode_ints(values), values.size)


class TestContainerTag:
    @pytest.fixture(scope="class")
    def cloud(self):
        rng = np.random.default_rng(6)
        n = 4000
        theta = rng.uniform(-np.pi, np.pi, n)
        r = rng.uniform(2.0, 40.0, n)
        z = rng.uniform(-1.5, 1.5, n)
        return PointCloud(
            np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
        )

    @pytest.fixture(scope="class")
    def result(self, cloud):
        return DBGCCompressor(DBGCParams()).compress_detailed(cloud)

    def test_container_roundtrip_within_bound(self, cloud, result):
        decoded = DBGCDecompressor().decompress(result.payload)
        assert len(decoded) == len(cloud)
        err = np.linalg.norm(decoded.xyz[result.mapping] - cloud.xyz, axis=1)
        assert err.max() <= DBGCParams().q_xyz * np.sqrt(3.0) + 1e-12

    def test_header_writes_tag_zero(self, result):
        assert result.payload[6] == 0

    @pytest.mark.parametrize("tag", OTHER_TAGS)
    def test_other_tags_rejected(self, result, tag):
        payload = result.payload
        with pytest.raises(ValueError, match="tag"):
            unpack_container(payload[:6] + bytes([tag]) + payload[7:])
