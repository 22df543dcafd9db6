"""Tests for the end-to-end system layer (channel, stores, client/server)."""

import numpy as np
import pytest

from repro.core import DBGCParams
from repro.datasets import generate_frame
from repro.geometry import PointCloud
from repro.system import (
    BandwidthShaper,
    DbgcClient,
    DbgcServer,
    SqliteFrameStore,
)
from repro.system.metrics import FrameTrace, PipelineReport


class TestChannel:
    def test_transfer_time(self):
        link = BandwidthShaper(8.0)  # 8 Mbps -> 1 MB takes 1 s
        assert link.transfer_seconds(1_000_000) == pytest.approx(1.0)

    def test_latency_added(self):
        link = BandwidthShaper(8.0, latency_s=0.05)
        assert link.transfer_seconds(0) == pytest.approx(0.05)

    def test_sustainable_fps(self):
        link = BandwidthShaper.mobile_4g()
        # Paper Section 4.4: a raw HDL-64E stream (9.6 Mbit/frame at
        # 10 fps) does NOT fit a 4G uplink; a 0.6 Mbit compressed frame does.
        assert not link.supports(1_200_000, 10.0)
        assert link.supports(75_000, 10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthShaper(0.0)
        with pytest.raises(ValueError):
            BandwidthShaper(1.0, latency_s=-1.0)

    def test_pace_sleeps_to_deadline(self):
        import time

        link = BandwidthShaper(80.0)  # 10 KB -> 1 ms
        start = time.perf_counter()
        link.pace(10_000, start)
        assert time.perf_counter() - start >= 0.0009


class TestStores:
    def test_sqlite_store_roundtrip(self):
        store = SqliteFrameStore()
        store.put_payload(1, b"xyz", n_points=5)
        assert store.get_payload(1) == b"xyz"
        cloud = PointCloud(np.random.default_rng(1).normal(size=(7, 3)))
        store.put_cloud(2, cloud)
        assert np.array_equal(store.get_cloud(2).xyz, cloud.xyz)
        assert len(store) == 2
        store.close()

    def test_sqlite_missing_frame(self):
        store = SqliteFrameStore()
        with pytest.raises(KeyError):
            store.get_payload(9)
        with pytest.raises(KeyError):
            store.get_cloud(9)


class TestMetrics:
    def _trace(self, i):
        # status is explicit: traces default to "pending" until an ACK.
        return FrameTrace(
            frame_index=i,
            n_points=100,
            payload_bytes=1000,
            captured_at=float(i),
            compressed_at=i + 0.2,
            sent_at=i + 0.3,
            received_at=i + 0.4,
            stored_at=i + 0.5,
            status="stored",
        )

    def test_trace_defaults_to_pending(self):
        # Regression: a freshly built trace must not count as stored; only
        # a server ACK flips it (see DbgcClient._transmit).
        trace = FrameTrace(
            frame_index=0, n_points=1, payload_bytes=1, captured_at=0.0
        )
        assert trace.status == "pending"
        report = PipelineReport()
        report.add(trace)
        assert report.n_stored == 0
        assert report.stored_traces == []

    def test_throughput_ignores_trace_order(self):
        # Regression: retries finish frames out of capture order; the fps
        # window must span earliest capture -> latest store regardless of
        # the order traces were recorded in.
        report = PipelineReport()
        for i in (3, 0, 4, 1, 2):  # frame 3 stored first, etc.
            report.add(self._trace(i))
        assert report.throughput_fps() == pytest.approx(5 / 4.5)

    def test_latency_breakdown(self):
        t = self._trace(0)
        assert t.compress_latency == pytest.approx(0.2)
        assert t.transfer_latency == pytest.approx(0.1)
        assert t.total_latency == pytest.approx(0.5)

    def test_report_aggregates(self):
        report = PipelineReport()
        for i in range(5):
            report.add(self._trace(i))
        assert report.n_frames == 5
        assert report.mean_total_latency == pytest.approx(0.5)
        # 5 frames from t=0 to t=4.5 -> ~1.11 fps
        assert report.throughput_fps() == pytest.approx(5 / 4.5)
        assert report.bandwidth_mbps(10.0) == pytest.approx(0.08)


class TestClientServer:
    @pytest.fixture
    def frames(self):
        pc = generate_frame("kitti-campus", 0)
        # Small frames keep the socket test quick.
        return [PointCloud(pc.xyz[::12]), PointCloud(pc.xyz[1::12])]

    def test_decompress_mode_end_to_end(self, frames):
        store = SqliteFrameStore()
        server = DbgcServer(store, mode="decompress").start()
        client = DbgcClient(server.address, params=DBGCParams())
        for i, frame in enumerate(frames):
            client.send_frame(i, frame)
        client.close()
        server.join()
        assert len(store) == 2
        for i, frame in enumerate(frames):
            assert len(store.get_cloud(i)) == len(frame)
        client.merge_receipts(server.receipts)
        assert client.report.mean_total_latency > 0
        assert client.report.throughput_fps() > 0

    def test_store_mode_keeps_payload(self, frames):
        store = SqliteFrameStore()
        server = DbgcServer(store, mode="store").start()
        client = DbgcClient(server.address)
        trace = client.send_frame(0, frames[0])
        client.close()
        server.join()
        payload = store.get_payload(0)
        assert len(payload) == trace.payload_bytes
        # The stored payload is still decodable.
        from repro.core import DBGCDecompressor

        assert len(DBGCDecompressor().decompress(payload)) == len(frames[0])

    def test_shaped_channel_delays_delivery(self, frames):
        store = SqliteFrameStore()
        server = DbgcServer(store, mode="store").start()
        # Slow link so pacing dominates the loopback time.
        client = DbgcClient(server.address, channel=BandwidthShaper(2.0))
        trace = client.send_frame(0, frames[0])
        client.close()
        server.join()
        client.merge_receipts(server.receipts)
        expected = 8 * trace.payload_bytes / 2e6
        assert trace.transfer_latency >= expected * 0.9

    def test_bad_server_mode_rejected(self):
        with pytest.raises(ValueError):
            DbgcServer(SqliteFrameStore(), mode="teleport")
