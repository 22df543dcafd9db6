"""Tests for stream validation (and its CLI verify command)."""

import numpy as np
import pytest

from repro.cli import main
from repro.core import DBGCCompressor, DBGCParams
from repro.core.validation import validate_stream
from repro.datasets import SensorModel, generate_frame
from repro.geometry import PointCloud


@pytest.fixture(scope="module")
def sensor():
    return SensorModel.benchmark_default().scaled(0.4)


@pytest.fixture(scope="module")
def cloud(sensor):
    return PointCloud(generate_frame("kitti-road", 0, sensor=sensor).xyz)


@pytest.fixture(scope="module")
def payload(cloud, sensor):
    return DBGCCompressor(DBGCParams(), sensor=sensor).compress(cloud)


class TestValidate:
    def test_valid_stream_structural(self, payload, cloud):
        report = validate_stream(payload)
        assert report.ok
        assert report.n_points == len(cloud)
        assert report.q_xyz == 0.02
        assert report.issues == []

    def test_valid_stream_against_original(self, payload, cloud, sensor):
        report = validate_stream(payload, original=cloud, sensor=sensor)
        assert report.ok
        assert report.max_euclidean_error is not None
        assert report.max_euclidean_error <= np.sqrt(3) * 0.02 * (1 + 1e-6)

    def test_garbage_is_rejected(self):
        report = validate_stream(b"garbage bytes here")
        assert not report.ok
        assert any("container" in issue for issue in report.issues)

    def test_truncated_stream_flagged(self, payload):
        report = validate_stream(payload[: len(payload) // 2])
        assert not report.ok

    def test_wrong_original_flagged(self, payload, cloud, sensor):
        other = PointCloud(cloud.xyz[:-5])
        report = validate_stream(payload, original=other, sensor=sensor)
        assert not report.ok
        assert any("count" in issue for issue in report.issues)

    def test_mismatched_original_same_count(self, payload, cloud, sensor):
        shifted = PointCloud(cloud.xyz + 1.0)
        report = validate_stream(payload, original=shifted, sensor=sensor)
        assert not report.ok


class TestVerifyCommand:
    def test_cli_roundtrip(self, tmp_path, capsys):
        frame_path = tmp_path / "f.npz"
        main(["simulate", "kitti-road", str(frame_path), "--sensor-scale", "0.2"])
        dbgc_path = tmp_path / "f.dbgc"
        main(["compress", str(frame_path), str(dbgc_path), "--sensor-scale", "0.2"])
        capsys.readouterr()
        code = main(
            ["verify", str(dbgc_path), "--original", str(frame_path),
             "--sensor-scale", "0.2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("OK")

    def test_cli_detects_corruption(self, tmp_path, capsys):
        frame_path = tmp_path / "f.npz"
        main(["simulate", "kitti-road", str(frame_path), "--sensor-scale", "0.2"])
        dbgc_path = tmp_path / "f.dbgc"
        main(["compress", str(frame_path), str(dbgc_path), "--sensor-scale", "0.2"])
        data = bytearray(dbgc_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        bad_path = tmp_path / "bad.dbgc"
        bad_path.write_bytes(bytes(data))
        capsys.readouterr()
        code = main(
            ["verify", str(bad_path), "--original", str(frame_path),
             "--sensor-scale", "0.2"]
        )
        assert code == 1
