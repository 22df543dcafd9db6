"""Integration tests for the end-to-end DBGC pipeline."""

import numpy as np
import pytest

from repro.core import DBGCCompressor, DBGCDecompressor, DBGCParams
from repro.datasets import generate_frame
from repro.geometry import PointCloud


@pytest.fixture(scope="module")
def frame():
    # Subsampled frame keeps the suite fast while exercising everything.
    pc = generate_frame("kitti-city", 0)
    return PointCloud(pc.xyz[::3])


def _roundtrip(frame, params):
    comp = DBGCCompressor(params)
    result = comp.compress_detailed(frame)
    decoded = DBGCDecompressor().decompress(result.payload)
    return result, decoded


class TestRoundtrip:
    def test_counts_preserved(self, frame):
        result, decoded = _roundtrip(frame, DBGCParams())
        assert len(decoded) == len(frame)
        assert result.n_dense + result.n_sparse + result.n_outliers == len(frame)

    def test_mapping_is_permutation(self, frame):
        result, _ = _roundtrip(frame, DBGCParams())
        assert sorted(result.mapping.tolist()) == list(range(len(frame)))

    def test_euclidean_error_bound(self, frame):
        q = 0.02
        result, decoded = _roundtrip(frame, DBGCParams(q_xyz=q))
        err = np.linalg.norm(decoded.xyz[result.mapping] - frame.xyz, axis=1)
        assert err.max() <= np.sqrt(3) * q * (1 + 1e-6)

    def test_strict_mode_per_dimension_bound(self, frame):
        q = 0.02
        result, decoded = _roundtrip(
            frame, DBGCParams(q_xyz=q, strict_cartesian=True)
        )
        err = np.abs(decoded.xyz[result.mapping] - frame.xyz)
        assert err.max() <= q * (1 + 1e-6)

    @pytest.mark.parametrize("q", [0.005, 0.02, 0.1])
    def test_error_bound_across_q(self, frame, q):
        result, decoded = _roundtrip(frame, DBGCParams(q_xyz=q))
        err = np.linalg.norm(decoded.xyz[result.mapping] - frame.xyz, axis=1)
        assert err.max() <= np.sqrt(3) * q * (1 + 1e-6)

    def test_larger_q_compresses_more(self, frame):
        small, _ = _roundtrip(frame, DBGCParams(q_xyz=0.005))
        large, _ = _roundtrip(frame, DBGCParams(q_xyz=0.08))
        assert large.size < small.size

    def test_compresses_meaningfully(self, frame):
        result, _ = _roundtrip(frame, DBGCParams(q_xyz=0.02))
        assert result.compression_ratio() > 4.0

    def test_compress_equals_detailed_payload(self, frame):
        comp = DBGCCompressor(DBGCParams())
        assert comp.compress(frame) == comp.compress_detailed(frame).payload

    def test_timings_cover_all_stages(self, frame):
        result, _ = _roundtrip(frame, DBGCParams())
        assert set(result.timings) == {"den", "oct", "cor", "org", "spa", "out"}
        assert all(t >= 0 for t in result.timings.values())


class TestConfigurations:
    @pytest.mark.parametrize(
        "params",
        [
            DBGCParams(radial_reference=False),
            DBGCParams(grouping=False),
            DBGCParams(spherical_conversion=False),
            DBGCParams(outlier_mode="octree"),
            DBGCParams(outlier_mode="none"),
            DBGCParams(dense_fraction=0.0),
            DBGCParams(dense_fraction=1.0),
            DBGCParams(dense_fraction=0.5),
            DBGCParams(n_groups=1),
            DBGCParams(n_groups=5),
        ],
        ids=[
            "no-radial",
            "no-group",
            "cartesian",
            "outlier-octree",
            "outlier-none",
            "all-sparse",
            "all-dense",
            "half-split",
            "one-group",
            "five-groups",
        ],
    )
    def test_all_configurations_roundtrip(self, frame, params):
        result, decoded = _roundtrip(frame, params)
        assert len(decoded) == len(frame)
        err = np.linalg.norm(decoded.xyz[result.mapping] - frame.xyz, axis=1)
        assert err.max() <= np.sqrt(3) * params.q_xyz * (1 + 1e-6)

    def test_exact_clustering_roundtrip(self, frame):
        # Exact clustering is slow; run it on a further-subsampled cloud.
        small = PointCloud(frame.xyz[::4])
        params = DBGCParams(clustering="exact")
        comp = DBGCCompressor(params)
        result = comp.compress_detailed(small)
        decoded = DBGCDecompressor().decompress(result.payload)
        assert len(decoded) == len(small)


class TestEdgeCases:
    def test_empty_cloud(self):
        result, decoded = _roundtrip(PointCloud.empty(), DBGCParams())
        assert len(decoded) == 0
        assert result.size > 0  # header still present

    def test_single_point(self):
        cloud = PointCloud(np.array([[5.0, 3.0, -1.0]]))
        result, decoded = _roundtrip(cloud, DBGCParams())
        assert len(decoded) == 1
        err = np.abs(decoded.xyz[result.mapping] - cloud.xyz)
        assert err.max() <= np.sqrt(3) * 0.02

    def test_few_points(self):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.uniform(-20, 20, size=(7, 3)))
        result, decoded = _roundtrip(cloud, DBGCParams())
        assert len(decoded) == 7

    def test_duplicate_points(self):
        cloud = PointCloud(np.repeat([[1.0, 2.0, 3.0]], 50, axis=0))
        result, decoded = _roundtrip(cloud, DBGCParams())
        assert len(decoded) == 50

    def test_collinear_points(self):
        x = np.linspace(1.0, 50.0, 300)
        cloud = PointCloud(np.column_stack([x, x * 0.5, np.full_like(x, -1.7)]))
        result, decoded = _roundtrip(cloud, DBGCParams())
        err = np.linalg.norm(decoded.xyz[result.mapping] - cloud.xyz, axis=1)
        assert err.max() <= np.sqrt(3) * 0.02 * (1 + 1e-6)

    def test_not_dbgc_stream_rejected(self):
        with pytest.raises(ValueError):
            DBGCDecompressor().decompress(b"not a dbgc stream at all")
