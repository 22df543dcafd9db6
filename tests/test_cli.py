"""Tests for the dbgc command-line interface."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
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


class TestServeAndFleet:
    def test_serve_stores_one_stream_then_exits(self, tmp_path):
        from repro.system import DbgcClient

        shards = tmp_path / "shards"
        journal = tmp_path / "receipts.jsonl"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--shards", "2",
             "--store", str(shards), "--receipt-journal", str(journal),
             "--exit-after-streams", "1", "--timeout", "60"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = server.stdout.readline()
            match = re.search(r"listening on ([\d.]+):(\d+)", banner)
            assert match, banner + server.stderr.read()
            with DbgcClient((match[1], int(match[2])), stream_id=7) as client:
                for index in range(3):
                    client.send_payload(index, b"frame %d" % index)
            out, err = server.communicate(timeout=60)
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 0, err
        assert (
            "served 1 connection(s), 1 stream(s) ended, 3 frame(s) stored, "
            "0 quarantined" in out
        )
        assert sorted(p.name for p in shards.glob("shard_*.sqlite")) == [
            "shard_0.sqlite", "shard_1.sqlite",
        ]
        assert journal.stat().st_size > 0

    def test_fleet_two_clients(self, capsys):
        assert main(["fleet", "--clients", "2", "--frames", "3"]) == 0
        assert "aggregate: 6 stored" in capsys.readouterr().out


#: ``vars(build_parser().parse_args([command]))`` without ``func``, as the
#: parser gave it before the flags these commands share were declared in
#: one place.  Equal values must also be of equal types (8.2, not 8).
PARSED_DEFAULTS = {
    "stream": {
        "ack_drop_rate": 0.0, "ack_timeout": 10.0, "bandwidth": 8.2,
        "command": "stream", "corrupt_rate": 0.0,
        "disconnect_frames": frozenset(), "disconnect_rate": 0.0,
        "fault_seed": 0, "frames": 5, "jitter": 0.0, "metrics": "",
        "mode": "decompress", "policy": "block", "q": 0.02,
        "queue_capacity": 8, "scene": "kitti-city", "seed": 0,
        "sensor_scale": 0.5, "store": "", "window": 1,
    },
    "serve": {
        "busy_threshold": 0.0, "command": "serve", "decode_workers": 0,
        "exit_after_streams": 0, "host": "127.0.0.1",
        "journal_rotate_bytes": 0, "max_clients": 8, "mode": "store",
        "port": 0, "receipt_journal": "", "replication": 1, "shards": 1,
        "store": "", "timeout": 300.0,
    },
    "fleet": {
        "ack_drop_rate": 0.0, "ack_timeout": 2.0, "bandwidth": 0.0,
        "clients": 4, "command": "fleet", "corrupt_rate": 0.0,
        "decode_workers": 0, "disconnect_frames": frozenset(), "frames": 25,
        "kill_after": 0, "latency": 0.0, "max_clients": None,
        "mode": "store", "receipt_journal": "", "replication": 1, "seed": 0,
        "sensor_scale": 0.5, "shards": 2, "temporal": False, "window": 1,
    },
}

#: One command-line value per shared flag, and what it must parse to.
SHARED_FLAG_VALUES = {
    "--corrupt-rate": ("0.5", 0.5),
    "--ack-drop-rate": ("0.25", 0.25),
    "--disconnect-frames": ("1,3", frozenset({1, 3})),
    "--bandwidth": ("3", 3.0),
    "--ack-timeout": ("1", 1.0),
    "--window": ("4", 4),
    "--mode": ("decompress", "decompress"),
    "--shards": ("3", 3),
    "--max-clients": ("2", 2),
    "--replication": ("2", 2),
    "--receipt-journal": ("j.jsonl", "j.jsonl"),
    "--decode-workers": ("2", 2),
}


def _typed(values: dict) -> dict:
    return {key: (type(value), value) for key, value in values.items()}


class TestFlagPins:
    @pytest.mark.parametrize("command", sorted(PARSED_DEFAULTS))
    def test_defaults(self, command):
        parsed = vars(build_parser().parse_args([command]))
        assert parsed.pop("func").__name__ == f"_cmd_{command}"
        assert _typed(parsed) == _typed(PARSED_DEFAULTS[command])

    @pytest.mark.parametrize("command", sorted(PARSED_DEFAULTS))
    def test_shared_flags_parse_alike(self, command):
        flags = [
            flag for flag in SHARED_FLAG_VALUES
            if flag[2:].replace("-", "_") in PARSED_DEFAULTS[command]
        ]
        argv = [command]
        for flag in flags:
            argv += [flag, SHARED_FLAG_VALUES[flag][0]]
        parsed = vars(build_parser().parse_args(argv))
        assert _typed({flag: parsed[flag[2:].replace("-", "_")] for flag in flags}) == (
            _typed({flag: SHARED_FLAG_VALUES[flag][1] for flag in flags})
        )
