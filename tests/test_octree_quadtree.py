"""Unit and property tests for the 2D quadtree codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entropy import decode_tagged_ints, encode_tagged_ints
from repro.entropy.varint import decode_uvarint
from repro.octree import OctreeCodec


class TestQuadtreeCodec:
    def test_rejects_bad_leaf(self):
        with pytest.raises(ValueError):
            OctreeCodec(-1.0, dims=2)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            OctreeCodec(0.04, dims=2).encode(np.zeros((3, 3)))

    def test_empty(self):
        codec = OctreeCodec(0.04, dims=2)
        assert codec.decode(codec.encode(np.empty((0, 2)))).shape == (0, 2)

    def test_single_point(self):
        codec = OctreeCodec(0.04, dims=2)
        xy = np.array([[12.34, -56.78]])
        out = codec.decode(codec.encode(xy))
        assert np.max(np.abs(out - xy)) <= 0.02 + 1e-12

    def test_roundtrip_error_bound(self):
        q = 0.02
        codec = OctreeCodec(2 * q, dims=2)
        rng = np.random.default_rng(0)
        xy = rng.uniform(-60, 60, size=(1500, 2))
        decoded = codec.decode(codec.encode(xy))
        mapping = codec.mapping(xy)
        assert np.max(np.abs(decoded[mapping] - xy)) <= q + 1e-9

    def test_duplicates_preserved(self):
        codec = OctreeCodec(0.04, dims=2)
        xy = np.repeat(np.array([[1.0, 2.0], [3.0, 4.0]]), 7, axis=0)
        assert codec.decode(codec.encode(xy)).shape == (14, 2)

    def test_leaf_counts_must_add_up(self):
        # A 50-point section whose first leaf count is raised by 5.
        codec = OctreeCodec(0.04, dims=2)
        rng = np.random.default_rng(3)
        data = codec.encode(rng.uniform(-10, 10, size=(50, 2)))
        _, pos = decode_uvarint(data, 0)
        _, pos = decode_uvarint(data, pos + 24)  # origin, leaf side; depth
        _, pos = decode_uvarint(data, pos)  # n_occupancy
        size, pos = decode_uvarint(data, pos)
        pos += size
        counts = decode_tagged_ints(data[pos:])
        counts[0] += 5
        with pytest.raises(ValueError, match="point count"):
            codec.decode(data[:pos] + encode_tagged_ints(counts))

    def test_mapping_is_permutation(self):
        codec = OctreeCodec(0.04, dims=2)
        rng = np.random.default_rng(1)
        xy = rng.uniform(-10, 10, size=(300, 2))
        assert sorted(codec.mapping(xy).tolist()) == list(range(300))

    def test_beats_raw_on_far_outliers(self):
        # Typical outlier pattern: scattered far points on the xoy plane.
        rng = np.random.default_rng(2)
        angles = rng.uniform(0, 2 * np.pi, 800)
        radii = rng.uniform(50, 80, 800)
        xy = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        data = OctreeCodec(0.04, dims=2).encode(xy)
        assert len(data) < 800 * 8  # under two float32 per point

    @given(st.integers(0, 200), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        xy = rng.uniform(-30, 30, size=(n, 2))
        q = 0.05
        codec = OctreeCodec(2 * q, dims=2)
        decoded = codec.decode(codec.encode(xy))
        assert decoded.shape == xy.shape
        if n:
            mapping = codec.mapping(xy)
            assert np.max(np.abs(decoded[mapping] - xy)) <= q + 1e-9
