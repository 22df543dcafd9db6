"""Unit and property tests for the octree structure and codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.bbox import pow2_cover
from repro.octree import MAX_POINTS, OctreeCodec, build_octree_structure, quantize
from repro.octree.morton import deinterleave
from repro.octree.octree import expand_occupancy_level, leaf_points


def _random_cloud(n, scale=20.0, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size=(n, 3))


class TestStructure:
    def test_single_point(self):
        s = build_octree_structure(np.array([0]), depth=0)
        assert s.n_points == 1
        assert s.n_leaves == 1
        assert s.occupancy_stream().size == 0

    def test_empty(self):
        s = build_octree_structure(np.array([], dtype=np.int64), depth=3)
        assert s.n_points == 0
        assert s.occupancy_stream().size == 0

    def test_two_points_one_level(self):
        # Cells 0 and 7 of a depth-1 tree -> root occupancy 0b10000001.
        s = build_octree_structure(np.array([0, 7]), depth=1)
        assert s.occupancy_stream().tolist() == [0b10000001]
        assert s.leaf_codes.tolist() == [0, 7]

    def test_duplicate_points_counted(self):
        s = build_octree_structure(np.array([3, 3, 3, 5]), depth=1)
        assert s.leaf_counts.tolist() == [3, 1]
        assert s.n_points == 4

    def test_code_out_of_depth_rejected(self):
        with pytest.raises(ValueError):
            build_octree_structure(np.array([8]), depth=1)

    def test_expand_inverts_build(self):
        rng = np.random.default_rng(2)
        codes = np.unique(rng.integers(0, 8**3, size=50))
        s = build_octree_structure(codes, depth=3)
        nodes = np.zeros(1, dtype=np.int64)
        for level in range(3):
            nodes = expand_occupancy_level(nodes, s.occupancy[level], codes.size)
        assert np.array_equal(nodes, codes)

    def test_expand_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            expand_occupancy_level(np.array([0, 1]), np.array([1], dtype=np.uint8), 8)

    @pytest.mark.parametrize("dims", [2, 3])
    def test_levels_match_unique_per_level(self, dims):
        # The run-boundary dedupe gives what np.unique gives at every level.
        rng = np.random.default_rng(7)
        depth = 6
        codes = rng.integers(0, 1 << (dims * depth), size=400)
        s = build_octree_structure(np.concatenate([codes, codes[:50]]), depth, dims)
        child = np.unique(codes)
        assert np.array_equal(s.leaf_codes, child)
        assert s.n_points == 450
        for level in reversed(range(depth)):
            parents, inverse = np.unique(child >> dims, return_inverse=True)
            occ = np.zeros(parents.size, dtype=np.int64)
            np.bitwise_or.at(occ, inverse, 1 << (child & ((1 << dims) - 1)))
            assert np.array_equal(s.node_codes[level], parents)
            assert s.occupancy[level].dtype == np.uint8
            assert np.array_equal(s.occupancy[level], occ)
            child = parents

    def test_quadtree_levels(self):
        # Cells 0 and 3 of a depth-1 quadtree -> root occupancy 0b1001.
        s = build_octree_structure(np.array([3, 0, 3]), depth=1, dims=2)
        assert s.occupancy_stream().tolist() == [0b1001]
        assert s.leaf_counts.tolist() == [1, 2]
        with pytest.raises(ValueError):
            build_octree_structure(np.array([4]), depth=1, dims=2)

    def test_expand_stops_past_max_nodes(self):
        full = np.array([255], dtype=np.uint8)
        assert expand_occupancy_level(np.zeros(1, np.int64), full, 8).size == 8
        with pytest.raises(ValueError, match="more nodes than points"):
            expand_occupancy_level(np.zeros(1, np.int64), full, 7)

    def test_leaf_points_checks_counts(self):
        codes = np.array([0, 7])
        points = leaf_points(codes, np.array([1, 2]), 3, np.zeros(3), 1.0)
        assert points.tolist() == [[0.5] * 3, [1.5] * 3, [1.5] * 3]
        with pytest.raises(ValueError, match="does not match"):
            leaf_points(codes, np.array([3]), 3, np.zeros(3), 1.0)
        for counts in ([1, 3], [0, 3], [-1, 4]):
            with pytest.raises(ValueError, match="point count"):
                leaf_points(codes, np.array(counts), 3, np.zeros(3), 1.0)


class TestQuantize:
    def test_grid_side_is_power_of_two_multiple(self):
        pts = np.array([[0.0, 0.0, 0.0], [10.0, 3.0, 1.0]])
        codes, origin, depth = quantize(pts, 0.04)
        assert origin.tolist() == [0.0, 0.0, 0.0]
        assert 0.04 * 2**depth >= 10.0
        cells = deinterleave(codes, 3)
        assert cells.min() >= 0 and cells.max() < 2**depth

    def test_rejects_bad_leaf(self):
        for leaf in (0.0, -0.04):
            with pytest.raises(ValueError):
                quantize(np.zeros((1, 3)), leaf)

    def test_single_point_depth_zero(self):
        codes, origin, depth = quantize(np.array([[1.0, 1.0, 1.0]]), 0.04)
        assert depth == 0
        assert codes.tolist() == [0]
        assert origin.tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("dims", [2, 3])
    def test_matches_pow2_cover(self, dims):
        rng = np.random.default_rng(4)
        xyz = rng.uniform(-20, 20, size=(50, dims))
        codes, origin, depth = quantize(xyz, 0.04)
        extent = float(np.max(xyz.max(axis=0) - xyz.min(axis=0)))
        assert depth == pow2_cover(extent, 0.04)[1]
        assert np.array_equal(origin, xyz.min(axis=0))
        cells = deinterleave(codes, dims)
        assert np.array_equal(cells, np.floor((xyz - origin) / 0.04))

    def test_encode_refuses_more_than_max_points(self, monkeypatch):
        # Patched down so the test needs no 4M-point cloud.
        monkeypatch.setattr("repro.octree.octree.MAX_POINTS", 10)
        codec = OctreeCodec(0.04)
        xyz = _random_cloud(11)
        with pytest.raises(ValueError, match="points"):
            codec.encode(xyz)
        assert codec.decode(codec.encode(xyz[:10])).shape == (10, 3)
        assert MAX_POINTS == 1 << 22


class TestOctreeCodec:
    def test_rejects_bad_leaf(self):
        with pytest.raises(ValueError):
            OctreeCodec(0.0)

    def test_rejects_bad_dims(self):
        for dims in (1, 4):
            with pytest.raises(ValueError):
                OctreeCodec(0.04, dims=dims)
        with pytest.raises(ValueError):
            OctreeCodec(0.04).encode(np.zeros((3, 2)))

    def test_empty_cloud(self):
        codec = OctreeCodec(0.04)
        data = codec.encode(np.empty((0, 3)))
        assert codec.decode(data).shape == (0, 3)
        assert codec.mapping(np.empty((0, 3))).size == 0

    def test_single_point_error_bound(self):
        codec = OctreeCodec(0.04)
        xyz = np.array([[1.234, -5.678, 9.1011]])
        out = codec.decode(codec.encode(xyz))
        assert np.max(np.abs(out - xyz)) <= 0.02 + 1e-12

    def test_roundtrip_count_and_error_bound(self):
        q = 0.02
        codec = OctreeCodec(2 * q)
        xyz = _random_cloud(2000)
        decoded = codec.decode(codec.encode(xyz))
        assert decoded.shape == xyz.shape
        mapping = codec.mapping(xyz)
        err = np.abs(decoded[mapping] - xyz)
        assert err.max() <= q + 1e-9

    def test_mapping_is_permutation(self):
        codec = OctreeCodec(0.04)
        xyz = _random_cloud(500, seed=3)
        mapping = codec.mapping(xyz)
        assert sorted(mapping.tolist()) == list(range(500))

    def test_duplicate_points_preserved(self):
        codec = OctreeCodec(0.04)
        xyz = np.repeat(_random_cloud(10, seed=4), 5, axis=0)
        decoded = codec.decode(codec.encode(xyz))
        assert decoded.shape == (50, 3)

    def test_compresses_dense_clouds_well(self):
        # Dense object-like cloud: ratio should be high (paper Fig. 3 left end).
        rng = np.random.default_rng(5)
        xyz = rng.uniform(0, 1.0, size=(5000, 3))  # ~5k points in 1 m^3
        codec = OctreeCodec(0.04)
        data = codec.encode(xyz)
        ratio = (5000 * 12) / len(data)
        assert ratio > 15

    def test_sparse_cloud_ratio_degrades(self):
        # The paper's motivating observation: sparsity hurts the octree.
        rng = np.random.default_rng(6)
        dense = rng.uniform(0, 1.0, size=(3000, 3))
        sparse = rng.uniform(0, 40.0, size=(3000, 3))
        codec = OctreeCodec(0.04)
        ratio_dense = 3000 * 12 / len(codec.encode(dense))
        ratio_sparse = 3000 * 12 / len(codec.encode(sparse))
        assert ratio_dense > 2 * ratio_sparse

    def test_collinear_degenerate_cloud(self):
        xyz = np.column_stack([np.linspace(0, 10, 200), np.zeros(200), np.zeros(200)])
        codec = OctreeCodec(0.04)
        decoded = codec.decode(codec.encode(xyz))
        mapping = codec.mapping(xyz)
        assert np.max(np.abs(decoded[mapping] - xyz)) <= 0.02 + 1e-9

    @given(st.integers(0, 300), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        xyz = rng.uniform(-15, 15, size=(n, 3))
        q = 0.05
        codec = OctreeCodec(2 * q)
        decoded = codec.decode(codec.encode(xyz))
        assert decoded.shape == xyz.shape
        if n:
            mapping = codec.mapping(xyz)
            assert np.max(np.abs(decoded[mapping] - xyz)) <= q + 1e-9
