"""Tests for the evaluation harness and metrics."""

import numpy as np
import pytest

from repro.datasets import generate_frame, SensorModel
from repro.eval import (
    DbgcGeometryCompressor,
    bandwidth_mbps,
    compression_ratio,
    make_compressors,
    peak_rss_bytes,
    reconstruction_errors,
    render_series,
    render_table,
    run_ratio_sweep,
    run_timing_sweep,
    verify_one_to_one,
)
from repro.geometry import PointCloud


class TestMetrics:
    def test_compression_ratio(self):
        cloud = PointCloud(np.zeros((100, 3)))
        assert compression_ratio(cloud, b"x" * 120) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            compression_ratio(cloud, b"")

    def test_bandwidth(self):
        # Section 4.4: 0.6 Mbit/frame at 10 fps -> 6 Mbps.
        assert bandwidth_mbps(75_000, 10.0) == pytest.approx(6.0)

    def test_error_report(self):
        a = PointCloud(np.zeros((2, 3)))
        b = PointCloud(np.array([[0.01, 0.0, 0.0], [0.0, 0.02, 0.0]]))
        report = reconstruction_errors(a, b, np.array([0, 1]))
        assert report.max_abs == pytest.approx(0.02)
        assert report.max_euclidean == pytest.approx(0.02)
        assert report.within_bound(0.02)
        assert not report.within_bound(0.005)

    def test_error_report_respects_mapping(self):
        a = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        b = PointCloud(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        report = reconstruction_errors(a, b, np.array([1, 0]))
        assert report.max_euclidean == 0.0

    def test_one_to_one(self):
        a = PointCloud(np.zeros((3, 3)))
        assert verify_one_to_one(a, a, np.array([2, 0, 1]))
        assert not verify_one_to_one(a, a, np.array([0, 0, 1]))

    def test_peak_rss_positive_on_linux(self):
        assert peak_rss_bytes() > 0


class TestReporting:
    def test_table(self):
        text = render_table(["a", "b"], [["x", 1.234], ["y", 5]], title="T")
        assert "T" in text
        assert "1.23" in text
        assert text.count("\n") == 4

    def test_series(self):
        text = render_series("q", [1, 2], {"m": [3.0, 4.0]})
        assert "3.00" in text and "4.00" in text

    def test_series_length_mismatch(self):
        with pytest.raises(ValueError):
            render_series("q", [1, 2], {"m": [3.0]})


@pytest.fixture(scope="module")
def small_sensor():
    return SensorModel.benchmark_default().scaled(0.4)


class TestHarness:
    def test_make_compressors_names(self):
        names = [c.name for c in make_compressors(0.02)]
        assert names == ["DBGC", "G-PCC", "Octree", "Octree_i", "Draco(kd)"]

    def test_dbgc_adapter_caches_result(self, small_sensor):
        frame = generate_frame("kitti-road", 0, sensor=small_sensor)
        adapter = DbgcGeometryCompressor(0.02, sensor=small_sensor)
        payload = adapter.compress(frame)
        assert adapter.compress_detailed(frame).payload == payload
        mapping = adapter.mapping(frame)
        decoded = adapter.decompress(payload)
        report = reconstruction_errors(frame, decoded, mapping)
        assert report.within_bound(0.02)

    def test_ratio_sweep_structure(self, small_sensor):
        results = run_ratio_sweep(
            ["kitti-road"], [0.05], n_frames=1, sensor=small_sensor
        )
        assert len(results) == 5  # five methods
        for r in results:
            assert r.ratio > 1.0
            assert r.bandwidth_mbps(10.0) > 0
        dbgc = next(r for r in results if r.method == "DBGC")
        others = [r.ratio for r in results if r.method != "DBGC"]
        assert dbgc.ratio > 0.8 * max(others)  # in the right league

    def test_timing_sweep_structure(self, small_sensor):
        results = run_timing_sweep("kitti-road", [0.05], sensor=small_sensor)
        assert len(results) == 5
        for r in results:
            assert r.compress_seconds > 0
            assert r.decompress_seconds > 0
        dbgc = next(r for r in results if r.method == "DBGC")
        assert set(dbgc.stage_seconds) == {"den", "oct", "cor", "org", "spa", "out"}
