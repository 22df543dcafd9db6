"""Tests for Rice coding, bit packing, and Sprintz-style prediction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.ablation_codecs.bitpacking import bitpack_decode, bitpack_encode
from benchmarks.ablation_codecs.golomb import rice_decode, rice_encode, rice_parameter_for
from benchmarks.ablation_codecs.predictive import (
    delta2_decode,
    delta2_encode,
    sprintz_decode,
    sprintz_encode,
)


class TestRice:
    def test_empty(self):
        assert rice_decode(rice_encode(np.array([], dtype=np.int64))).size == 0

    def test_roundtrip_small_signed(self):
        values = np.array([0, -1, 2, -3, 5, 0, 0, 1])
        assert np.array_equal(rice_decode(rice_encode(values)), values)

    def test_roundtrip_unsigned(self):
        values = np.array([10, 20, 0, 7])
        data = rice_encode(values, signed=False)
        assert np.array_equal(rice_decode(data), values)

    def test_parameter_tracks_mean(self):
        small = rice_parameter_for(np.array([0, 1, 1, 2], dtype=np.uint64))
        large = rice_parameter_for(np.array([1000, 2000, 1500], dtype=np.uint64))
        assert small < large

    def test_geometric_data_compact(self):
        rng = np.random.default_rng(0)
        values = rng.geometric(0.4, size=5000) - 1
        data = rice_encode(values, signed=False)
        # ~2-3 bits/value expected for p=0.4 geometric.
        assert len(data) < 5000 * 0.6

    def test_adaptive_k_absorbs_heavy_values(self):
        # The mean-based parameter keeps even huge values decodable
        # (the unary part stays bounded because k tracks the mean).
        values = np.array([0, 0, 0, 1 << 40])
        assert np.array_equal(rice_decode(rice_encode(values, signed=False)), values)

    @given(st.lists(st.integers(-10000, 10000), max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.int64)
        assert np.array_equal(rice_decode(rice_encode(arr)), arr)


class TestBitpack:
    def test_empty(self):
        assert bitpack_decode(bitpack_encode(np.array([], dtype=np.int64))).size == 0

    def test_roundtrip(self):
        values = np.array([0, -5, 1000, 3, -70000])
        assert np.array_equal(bitpack_decode(bitpack_encode(values)), values)

    def test_zero_block_is_tiny(self):
        values = np.zeros(1000, dtype=np.int64)
        assert len(bitpack_encode(values)) < 20

    def test_block_isolation_of_outliers(self):
        # An outlier only widens its own 128-value block.
        narrow = np.ones(1024, dtype=np.int64)
        spiked = narrow.copy()
        spiked[0] = 1 << 30
        assert len(bitpack_encode(spiked)) < len(bitpack_encode(narrow)) + 600

    def test_unsigned_mode(self):
        values = np.array([7, 0, 255])
        data = bitpack_encode(values, signed=False)
        assert np.array_equal(bitpack_decode(data), values)

    @given(st.lists(st.integers(-(2**40), 2**40), max_size=300))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.int64)
        assert np.array_equal(bitpack_decode(bitpack_encode(arr)), arr)


class TestPredictive:
    def test_delta2_linear_ramp_is_sparse(self):
        values = np.arange(0, 1000, 7, dtype=np.int64)
        residuals = delta2_encode(values)
        assert np.all(residuals[2:] == 0)

    def test_delta2_roundtrip(self):
        rng = np.random.default_rng(1)
        values = np.cumsum(rng.integers(-5, 6, size=500))
        assert np.array_equal(delta2_decode(delta2_encode(values)), values)

    def test_short_sequences(self):
        for values in ([], [42], [42, -17]):
            arr = np.array(values, dtype=np.int64)
            assert np.array_equal(delta2_decode(delta2_encode(arr)), arr)

    @pytest.mark.parametrize("backend", ["bitpack", "rice"])
    def test_sprintz_roundtrip(self, backend):
        rng = np.random.default_rng(2)
        # Smooth trajectory + noise: the Sprintz sweet spot.
        values = (np.cumsum(np.cumsum(rng.integers(-2, 3, size=400)))).astype(np.int64)
        data = sprintz_encode(values, backend=backend)
        assert np.array_equal(sprintz_decode(data), values)

    def test_sprintz_beats_plain_bitpack_on_smooth_data(self):
        t = np.arange(2000)
        values = (100 * np.sin(t / 50) + t).astype(np.int64)
        plain = bitpack_encode(values)
        predicted = sprintz_encode(values)
        assert len(predicted) < len(plain) / 2

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError):
            sprintz_encode(np.array([1]), backend="zstd")
        with pytest.raises(ValueError):
            sprintz_decode(b"\x09abc")
        with pytest.raises(ValueError):
            sprintz_decode(b"")

    @given(st.lists(st.integers(-(2**30), 2**30), max_size=150))
    @settings(max_examples=60, deadline=None)
    def test_sprintz_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.int64)
        assert np.array_equal(sprintz_decode(sprintz_encode(arr)), arr)
