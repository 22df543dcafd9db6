"""Tests for the dbgc command-line interface."""

import pytest

from repro.cli import main
from repro.datasets import load_kitti_bin, load_npz


@pytest.fixture
def frame_file(tmp_path):
    path = tmp_path / "frame.npz"
    code = main(
        ["simulate", "kitti-road", str(path), "--sensor-scale", "0.2", "--seed", "3"]
    )
    assert code == 0
    return path


class TestSimulate:
    def test_creates_cloud(self, frame_file):
        cloud = load_npz(frame_file)
        assert len(cloud) > 500

    def test_bin_output(self, tmp_path):
        path = tmp_path / "frame.bin"
        assert main(["simulate", "kitti-road", str(path), "--sensor-scale", "0.2"]) == 0
        cloud, _ = load_kitti_bin(path)
        assert len(cloud) > 500

    def test_unknown_scene_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "mars", str(tmp_path / "x.npz")])


class TestCompressDecompress:
    def test_roundtrip(self, frame_file, tmp_path, capsys):
        dbgc_path = tmp_path / "frame.dbgc"
        out_path = tmp_path / "restored.npz"
        assert main(["compress", str(frame_file), str(dbgc_path), "--q", "0.02",
                     "--sensor-scale", "0.2"]) == 0
        assert dbgc_path.exists()
        captured = capsys.readouterr().out
        assert "points" in captured and "x)" in captured

        assert main(["decompress", str(dbgc_path), str(out_path)]) == 0
        original = load_npz(frame_file)
        restored = load_npz(out_path)
        assert len(restored) == len(original)

    def test_strict_flag(self, frame_file, tmp_path):
        dbgc_path = tmp_path / "strict.dbgc"
        assert main(["compress", str(frame_file), str(dbgc_path), "--strict",
                     "--sensor-scale", "0.2"]) == 0

    def test_unsupported_format_rejected(self, tmp_path):
        bad = tmp_path / "cloud.xyz"
        bad.write_text("1 2 3\n")
        with pytest.raises(SystemExit):
            main(["compress", str(bad), str(tmp_path / "o.dbgc")])


class TestInfo:
    def test_prints_layout(self, frame_file, tmp_path, capsys):
        dbgc_path = tmp_path / "frame.dbgc"
        main(["compress", str(frame_file), str(dbgc_path), "--sensor-scale", "0.2"])
        capsys.readouterr()
        assert main(["info", str(dbgc_path)]) == 0
        out = capsys.readouterr().out
        assert "error bound" in out
        assert "dense stream" in out
        assert "decoded points" in out


class TestBench:
    def test_synthetic_bench(self, capsys):
        assert main(["bench", "--scene", "kitti-road", "--sensor-scale", "0.15",
                     "--q", "0.05"]) == 0
        out = capsys.readouterr().out
        for name in ("DBGC", "G-PCC", "Octree", "Draco(kd)"):
            assert name in out

    def test_bench_on_file(self, frame_file, capsys):
        assert main(["bench", "--input", str(frame_file), "--sensor-scale", "0.2",
                     "--q", "0.05"]) == 0
        assert "DBGC" in capsys.readouterr().out


class TestStream:
    def test_clean_stream(self, capsys):
        assert main(["stream", "--scene", "kitti-road", "--frames", "2",
                     "--sensor-scale", "0.15", "--mode", "store",
                     "--bandwidth", "0"]) == 0
        out = capsys.readouterr().out
        assert "stored 2/2 frames" in out
        assert "retries     : 0" in out
        assert "quarantined : 0" in out

    def test_faulty_stream_accounts_for_every_frame(self, capsys):
        assert main(["stream", "--scene", "kitti-road", "--frames", "3",
                     "--sensor-scale", "0.15", "--mode", "store",
                     "--corrupt-rate", "0.5", "--disconnect-frames", "1",
                     "--fault-seed", "4", "--ack-timeout", "2"]) == 0
        out = capsys.readouterr().out
        assert "retries     : 1" in out  # the forced disconnect on frame 1
        assert "quarantine: frame" in out  # seeded corruption surfaced

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["stream", "--policy", "teleport"])


class TestSequenceCommand:
    def test_temporal_stream_writes_and_verifies(self, tmp_path, capsys):
        path = tmp_path / "drive.dbgcs"
        assert main(["sequence", "kitti-road", str(path),
                     "--frames", "3", "--temporal", "--keyframe-interval", "2",
                     "--sensor-scale", "0.15", "--verify"]) == 0
        out = capsys.readouterr().out
        # Interval 2 over 3 frames: key, delta, key.
        assert "frame 0" in out and "(key)" in out and "(delta)" in out
        assert "verified: 3 frames" in out
        # The stream header carries the backpatched frame count.
        from repro.core.streaming import FrameStreamReader

        with open(path, "rb") as source:
            assert FrameStreamReader(source).n_frames == 3

    def test_independent_stream_has_no_deltas(self, tmp_path, capsys):
        path = tmp_path / "drive.dbgcs"
        assert main(["sequence", "kitti-road", str(path),
                     "--frames", "2", "--sensor-scale", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "(delta)" not in out
