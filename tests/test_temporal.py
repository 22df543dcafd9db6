"""Tests for inter-frame temporal compression (format v3 delta frames)."""

import numpy as np
import pytest

from repro.core import DBGCDecompressor, DBGCParams
from repro.core.container import container_version
from repro.core.pipeline import DBGCCompressor
from repro.core.temporal import (
    TemporalContext,
    TemporalDecoder,
)
from repro.datasets import SensorModel
from repro.datasets.trajectories import generate_sequence, straight

Q_XYZ = 0.02
KEYFRAME_INTERVAL = 4
N_FRAMES = 5


@pytest.fixture(scope="module")
def sensor():
    return SensorModel.benchmark_default().scaled(0.3)


@pytest.fixture(scope="module")
def drive(sensor):
    """A short straight drive: (frames, trajectory positions)."""
    trajectory = straight(N_FRAMES)
    frames = list(
        generate_sequence("kitti-road", trajectory, sensor=sensor, seed=1)
    )
    return frames, trajectory


def _ego_deltas(trajectory):
    deltas = [(0.0, 0.0, 0.0)]
    for i in range(1, len(trajectory)):
        prev, cur = trajectory[i - 1], trajectory[i]
        deltas.append((cur[0] - prev[0], cur[1] - prev[1], 0.0))
    return deltas


def _compress_drive(frames, trajectory, sensor, keyframe_interval=KEYFRAME_INTERVAL):
    params = DBGCParams(
        q_xyz=Q_XYZ, temporal=True, keyframe_interval=keyframe_interval
    )
    compressor = DBGCCompressor(params, sensor=sensor)
    context = TemporalContext()
    results = []
    for cloud, ego_delta in zip(frames, _ego_deltas(trajectory)):
        results.append(
            compressor.compress_temporal(cloud, context, ego_delta=ego_delta)
        )
    return results


class TestTemporalCodec:
    def test_keyframe_schedule(self, drive, sensor):
        frames, trajectory = drive
        results = _compress_drive(frames, trajectory, sensor)
        versions = [container_version(r.payload) for r in results]
        # Frames 0 and 4 are keyframes (interval 4); 1..3 are v3 deltas.
        assert versions[0] <= 2 and versions[4] <= 2
        assert versions[1] == versions[2] == versions[3] == 3

    def test_stateful_round_trip_and_error_bound(self, drive, sensor):
        frames, trajectory = drive
        results = _compress_drive(frames, trajectory, sensor)
        decoder = TemporalDecoder()
        bound = np.sqrt(3.0) * Q_XYZ * 1.0001
        for frame, result in zip(frames, results):
            decoded = decoder.decode(result.payload)
            assert len(decoded) == len(frame)
            # The per-frame error bound holds on delta frames too: the
            # mapping permutes decoded points back into capture order.
            err = np.linalg.norm(decoded.xyz[result.mapping] - frame.xyz, axis=1)
            assert float(err.max()) <= bound

    def test_decode_is_deterministic(self, drive, sensor):
        frames, trajectory = drive
        results = _compress_drive(frames, trajectory, sensor)
        a = TemporalDecoder()
        b = TemporalDecoder()
        for result in results:
            assert np.array_equal(
                a.decode(result.payload).xyz, b.decode(result.payload).xyz
            )

    def test_delta_frames_do_not_exceed_intra(self, drive, sensor):
        frames, trajectory = drive
        results = _compress_drive(frames, trajectory, sensor)
        intra = DBGCCompressor(DBGCParams(q_xyz=Q_XYZ), sensor=sensor)
        delta_total = sum(len(results[i].payload) for i in range(1, 4))
        intra_total = sum(len(intra.compress(frames[i])) for i in range(1, 4))
        # Deltas must win in aggregate on an overlapping drive; per-frame
        # ties can happen when every component falls back to intra.
        assert delta_total < intra_total

    def test_keyframe_interval_one_matches_independent_coding(self, drive, sensor):
        frames, trajectory = drive
        results = _compress_drive(
            frames, trajectory, sensor, keyframe_interval=1
        )
        intra = DBGCCompressor(DBGCParams(q_xyz=Q_XYZ), sensor=sensor)
        for frame, result in zip(frames, results):
            assert result.payload == intra.compress(frame)

    def test_stateless_decompressor_rejects_delta(self, drive, sensor):
        frames, trajectory = drive
        results = _compress_drive(frames, trajectory, sensor)
        with pytest.raises(ValueError, match="delta frame"):
            DBGCDecompressor().decompress(results[1].payload)

    def test_delta_without_state_rejected(self, drive, sensor):
        frames, trajectory = drive
        results = _compress_drive(frames, trajectory, sensor)
        with pytest.raises(ValueError, match="without predictor state"):
            TemporalDecoder().decode(results[1].payload)

    def test_skipped_frame_breaks_fingerprint(self, drive, sensor):
        frames, trajectory = drive
        results = _compress_drive(frames, trajectory, sensor)
        decoder = TemporalDecoder()
        decoder.decode(results[0].payload)
        decoder.decode(results[1].payload)
        # Dropping frame 2 leaves the context one frame behind; frame 3's
        # delta must refuse to decode against the stale predictor.
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            decoder.decode(results[3].payload)
        # The stream heals at the next keyframe.
        decoded = decoder.decode(results[4].payload)
        assert len(decoded) == len(frames[4])


class TestMergedCodecPath:
    """Delta frames run through the same frame codec as intra frames."""

    def _drive(self, drive, sensor):
        frames, trajectory = drive
        compressor = DBGCCompressor(
            DBGCParams(q_xyz=Q_XYZ, temporal=True, keyframe_interval=8),
            sensor=sensor,
        )
        context = TemporalContext()
        return [
            compressor.compress_temporal(cloud, context, ego_delta=ego)
            for cloud, ego in zip(frames, _ego_deltas(trajectory))
        ]

    def test_delta_frames_report_stage_timings(self, drive, sensor):
        results = self._drive(drive, sensor)
        for result in results[1:]:
            assert container_version(result.payload) == 3
            assert set(result.timings) == {"den", "oct", "cor", "org", "spa", "out"}
            assert sum(result.timings.values()) > 0.0


class TestServerTemporalIngest:
    @pytest.fixture(scope="class")
    def payloads(self, drive, sensor):
        frames, trajectory = drive
        results = _compress_drive(
            frames, trajectory, sensor, keyframe_interval=2
        )
        return frames, [r.payload for r in results]

    def test_in_order_ingest_decodes_deltas(self, payloads):
        from repro.system import DbgcClient, DbgcServer, SqliteFrameStore

        frames, blobs = payloads
        store = SqliteFrameStore()
        server = DbgcServer(store, mode="decompress").start()
        client = DbgcClient(server.address)
        for index, blob in enumerate(blobs):
            client.send_payload(index, blob)
        client.close()
        server.join()
        assert len(store) == len(frames)
        assert not server.quarantine
        for index, frame in enumerate(frames):
            assert len(store.get_cloud(index)) == len(frame)

    def test_restart_quarantines_deltas_until_keyframe(self, payloads):
        from repro.system import DbgcClient, DbgcServer, SqliteFrameStore

        frames, blobs = payloads
        # A fresh server models a restart: the predictor state is gone, so
        # a stream resuming at a delta frame (index 1) must quarantine it
        # and heal at the next keyframe (index 2, interval 2).
        store = SqliteFrameStore()
        server = DbgcServer(store, mode="decompress").start()
        client = DbgcClient(server.address)
        for index, blob in enumerate(blobs[1:], start=1):
            client.send_payload(index, blob)
        client.close()
        server.join()
        assert [q.frame_index for q in server.quarantine] == [1]
        assert sorted(store.frame_indices()) == [2, 3, 4]
        for index in (2, 3, 4):
            assert len(store.get_cloud(index)) == len(frames[index])
