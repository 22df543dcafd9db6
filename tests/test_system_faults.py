"""Fault-tolerance tests: protocol v2, fault injection, retry, quarantine,
degradation policies, and the deterministic 50-frame acceptance run."""

import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.core import DBGCParams
from repro.core.pipeline import DBGCCompressor
from repro.datasets import SensorModel, generate_frame
from repro.geometry import PointCloud
from repro.system import (
    BandwidthShaper,
    DbgcClient,
    DbgcServer,
    FaultSpec,
    FaultyChannel,
    SqliteFrameStore,
)
from repro.system import client as client_module
from repro.system.client import _SendQueue
from repro.system.protocol import (
    ACK_STORED,
    TYPE_ACK,
    TYPE_END,
    TYPE_FRAME,
    CorruptPayloadError,
    Record,
    encode_record,
    read_record,
)

pytestmark = pytest.mark.timeout(120)


def _loopback_pair():
    a, b = socket.socketpair()
    return a, b


@pytest.fixture
def tiny_cloud():
    pc = generate_frame("kitti-campus", 0)
    return PointCloud(pc.xyz[::50])


# ---------------------------------------------------------------------------
# Protocol v2 records
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_frame_roundtrip(self):
        a, b = _loopback_pair()
        with a, b:
            a.sendall(encode_record(TYPE_FRAME, 17, b"hello payload", flags=1))
            record = read_record(b)
        assert record == Record(TYPE_FRAME, 17, 1, b"hello payload")
        assert record.resync_skipped == 0

    def test_end_and_ack_records(self):
        a, b = _loopback_pair()
        with a, b:
            a.sendall(encode_record(TYPE_END, 0))
            a.sendall(encode_record(TYPE_ACK, 5, flags=ACK_STORED))
            assert read_record(b).type == TYPE_END
            ack = read_record(b)
        assert (ack.type, ack.frame_index) == (TYPE_ACK, 5)

    def test_end_marker_index_collision_regression(self):
        # v1 treated frame_index == 0xFFFFFFFF as end-of-stream; v2's
        # explicit record type lets that index round-trip as a frame.
        a, b = _loopback_pair()
        with a, b:
            a.sendall(encode_record(TYPE_FRAME, 0xFFFFFFFF, b"last frame"))
            record = read_record(b)
        assert record.type == TYPE_FRAME
        assert record.frame_index == 0xFFFFFFFF
        assert record.payload == b"last frame"

    def test_corrupt_payload_detected_with_bytes_kept(self):
        wire = bytearray(encode_record(TYPE_FRAME, 3, b"sensitive-bits"))
        wire[-6] ^= 0x10  # flip one payload bit, CRC untouched
        a, b = _loopback_pair()
        with a, b:
            a.sendall(bytes(wire))
            with pytest.raises(CorruptPayloadError) as info:
                read_record(b)
        assert info.value.frame_index == 3
        assert len(info.value.payload) == len(b"sensitive-bits")

    def test_header_corruption_resyncs_to_next_record(self):
        good = encode_record(TYPE_FRAME, 9, b"ok")
        a, b = _loopback_pair()
        with a, b:
            a.sendall(b"\x00garbage\xff" + good)
            record = read_record(b)
        assert (record.frame_index, record.payload) == (9, b"ok")
        assert record.resync_skipped > 0

    def test_encode_validation(self):
        with pytest.raises(ValueError):
            encode_record(99, 0)
        with pytest.raises(ValueError):
            encode_record(TYPE_FRAME, -1)
        with pytest.raises(ValueError):
            encode_record(TYPE_FRAME, 2**32)


# ---------------------------------------------------------------------------
# FaultyChannel determinism
# ---------------------------------------------------------------------------


class TestFaultyChannel:
    def test_plans_are_deterministic(self):
        spec = FaultSpec(corrupt_rate=0.5, disconnect_rate=0.3, jitter=0.2)
        a = FaultyChannel(seed=42, spec=spec)
        b = FaultyChannel(seed=42, spec=spec)
        plans_a = [a.plan(i, t, 500) for i in range(30) for t in range(3)]
        plans_b = [b.plan(i, t, 500) for i in range(30) for t in range(3)]
        assert plans_a == plans_b
        assert a.log == b.log
        assert any(not p.clean for p in plans_a)

    def test_plans_independent_of_call_order(self):
        spec = FaultSpec(corrupt_rate=0.5)
        a = FaultyChannel(seed=1, spec=spec)
        b = FaultyChannel(seed=1, spec=spec)
        forward = [a.plan(i, 0, 300) for i in range(10)]
        backward = [b.plan(i, 0, 300) for i in reversed(range(10))]
        assert forward == list(reversed(backward))

    def test_different_seed_differs(self):
        spec = FaultSpec(corrupt_rate=0.5, disconnect_rate=0.5)
        a = FaultyChannel(seed=0, spec=spec)
        b = FaultyChannel(seed=1, spec=spec)
        assert [a.plan(i, 0, 400) for i in range(20)] != [
            b.plan(i, 0, 400) for i in range(20)
        ]

    def test_forced_disconnect_first_attempt_only(self):
        chan = FaultyChannel(seed=0, spec=FaultSpec(force_disconnect_frames={4}))
        assert chan.plan(4, 0, 100).cut_after is not None
        assert chan.plan(4, 1, 100).clean
        assert chan.plan(5, 0, 100).clean

    def test_jitter_factor_bounds(self):
        chan = FaultyChannel(seed=0, spec=FaultSpec(jitter=0.25))
        factors = [chan.plan(i, 0, 100).jitter_factor for i in range(50)]
        assert all(0.75 <= f <= 1.25 for f in factors)
        assert len(set(factors)) > 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(corrupt_rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(jitter=1.0)

    def test_shaper_delegation(self):
        chan = FaultyChannel(BandwidthShaper(8.0), seed=0)
        assert chan.transfer_seconds(1_000_000) == pytest.approx(1.0)
        assert not chan.supports(1_000_000, 10.0)
        unshaped = FaultyChannel(seed=0)
        assert unshaped.transfer_seconds(10**9) == 0.0
        assert unshaped.supports(10**9, 1000.0)


# ---------------------------------------------------------------------------
# Client/server fault paths
# ---------------------------------------------------------------------------


class TestFaultPaths:
    def test_disconnect_triggers_reconnect_and_byte_identical_store(self, tiny_cloud):
        # Mid-frame disconnects on two frames: the client must reconnect,
        # retransmit, and the store must match the serial pipeline exactly.
        params = DBGCParams()
        frames = [tiny_cloud, PointCloud(tiny_cloud.xyz[1:]), PointCloud(tiny_cloud.xyz[2:])]
        expected = [DBGCCompressor(params).compress(f) for f in frames]
        chan = FaultyChannel(seed=5, spec=FaultSpec(force_disconnect_frames={0, 2}))
        store = SqliteFrameStore()
        with DbgcServer(store, mode="store") as server:
            with DbgcClient(
                server.address, params=params, channel=chan,
                ack_timeout=2.0, backoff_base=0.01,
            ) as client:
                for i, frame in enumerate(frames):
                    client.send_frame(i, frame)
            server.join()
        assert store.frame_indices() == [0, 1, 2]
        for i, payload in enumerate(expected):
            assert store.get_payload(i) == payload
        assert client.report.total_retries == 2
        assert client.report.n_stored == 3
        assert server.connections == 3  # initial + one per forced disconnect
        assert not server.quarantine

    def test_corrupt_payload_quarantined_and_stream_continues(self, tiny_cloud):
        # A payload that passes the CRC but fails decoding lands in
        # quarantine with its exception; later frames still decode.
        store = SqliteFrameStore()
        with DbgcServer(store, mode="decompress") as server:
            with DbgcClient(server.address, ack_timeout=2.0) as client:
                client.send_payload(0, b"DBGC-shaped garbage that cannot decode")
                client.send_frame(1, tiny_cloud)
            server.join()
        assert store.frame_indices() == [1]
        assert len(store.get_cloud(1)) == len(tiny_cloud)
        assert len(server.quarantine) == 1
        bad = server.quarantine[0]
        assert bad.frame_index == 0
        assert bad.payload == b"DBGC-shaped garbage that cannot decode"
        assert bad.error  # exception text preserved
        traces = {t.frame_index: t for t in client.report.traces}
        assert traces[0].status == "quarantined"
        assert traces[1].status == "stored"

    def test_wire_corruption_quarantined_with_crc_error(self):
        # Bit flips in flight: the server's payload CRC catches them.
        spec = FaultSpec(corrupt_rate=1.0)
        store = SqliteFrameStore()
        with DbgcServer(store, mode="store") as server:
            with DbgcClient(
                server.address, channel=FaultyChannel(seed=11, spec=spec),
                ack_timeout=2.0,
            ) as client:
                client.send_payload(7, os.urandom(256))
            server.join()
        assert len(store) == 0
        assert len(server.quarantine) == 1
        assert server.quarantine[0].frame_index == 7
        assert "CRC" in server.quarantine[0].error
        assert client.report.n_quarantined == 1

    def test_ack_loss_retransmit_dedupe_stores_once(self):
        spec = FaultSpec(ack_drop_rate=0.5)
        chan = FaultyChannel(seed=3, spec=spec)
        store = SqliteFrameStore()
        with DbgcServer(store, mode="store", channel=chan) as server:
            with DbgcClient(
                server.address, ack_timeout=0.3, backoff_base=0.01
            ) as client:
                payloads = {i: os.urandom(100) for i in range(10)}
                for i, payload in payloads.items():
                    client.send_payload(i, payload)
            server.join()
        assert store.frame_indices() == list(range(10))
        for i, payload in payloads.items():
            assert store.get_payload(i) == payload
        assert client.report.total_retries > 0
        assert any(kind == "duplicate" for kind, _ in server.events)
        assert client.report.n_stored == 10

    def test_retries_exhausted_records_drop(self):
        # Every attempt of frame 0 dies mid-record -> the frame is
        # dropped after max_retries, and the stream keeps going.
        spec = FaultSpec(disconnect_rate=1.0)
        store = SqliteFrameStore()
        with DbgcServer(store, mode="store") as server:
            with DbgcClient(
                server.address, channel=FaultyChannel(seed=2, spec=spec),
                max_retries=2, ack_timeout=0.5, backoff_base=0.01,
            ) as client:
                client.send_payload(0, os.urandom(64))
            server.join()
        trace = client.report.traces[0]
        assert trace.status == "dropped"
        assert trace.attempts == 3
        assert client.report.n_dropped == 1
        assert any(e.kind == "drop" for e in client.report.events)


# ---------------------------------------------------------------------------
# Graceful degradation policies
# ---------------------------------------------------------------------------


class TestDegradation:
    def test_send_queue_policies(self):
        queue = _SendQueue(2)
        queue.put_block("a")
        queue.put_block("b")
        assert queue.full()
        evicted = queue.put_drop_oldest("c")
        assert evicted == "a"
        assert queue.get() == "b"
        assert queue.put_drop_oldest("d") is None
        queue.put_priority("e")  # sentinel path ignores capacity
        assert [queue.get(), queue.get(), queue.get()] == ["c", "d", "e"]
        with pytest.raises(ValueError):
            _SendQueue(0)

    def test_block_policy_applies_backpressure(self):
        queue = _SendQueue(1)
        queue.put_block("x")
        unblocked = []

        def producer():
            queue.put_block("y")
            unblocked.append(True)

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert not unblocked  # producer is waiting on the full queue
        assert queue.get() == "x"
        thread.join(timeout=2.0)
        assert unblocked

    def test_drop_oldest_under_congestion(self):
        # A link ~50x too slow for the offered load: the bounded queue
        # evicts stale frames instead of stalling the sensor.
        store = SqliteFrameStore()
        with DbgcServer(store, mode="store") as server:
            with DbgcClient(
                server.address, channel=BandwidthShaper(0.02),
                queue_capacity=2, overflow_policy="drop-oldest",
                ack_timeout=5.0,
            ) as client:
                for i in range(8):
                    client.send_payload(i, os.urandom(64))
            server.join()
        report = client.report
        assert report.n_dropped > 0
        assert report.n_stored + report.n_dropped == 8
        assert len(store) == report.n_stored
        drop_events = [e for e in report.events if e.kind == "drop"]
        assert len(drop_events) == report.n_dropped
        # Delivered frames are the fresher ones, dropped ones the stalest.
        assert max(store.frame_indices()) == 7

    def test_coarsen_policy_degrades_quality_not_delivery(self, tiny_cloud):
        # Payloads at q=0.02 need ~120 kbps at 10 fps; offer 50 kbps so
        # supports() fails and the client recompresses at COARSEN_FACTOR
        # (4x) the bound.
        sensor = SensorModel.benchmark_default()
        store = SqliteFrameStore()
        fine = DBGCCompressor(DBGCParams(), sensor=sensor).compress(tiny_cloud)
        with DbgcServer(store, mode="store") as server:
            with DbgcClient(
                server.address, sensor=sensor,
                channel=BandwidthShaper(0.05),
                overflow_policy="coarsen", ack_timeout=10.0,
            ) as client:
                trace = client.send_frame(0, tiny_cloud)
            server.join()
        assert trace.degraded
        assert trace.status == "stored"
        assert trace.payload_bytes < len(fine)
        assert store.get_payload(0) != fine  # genuinely recompressed
        assert client.report.n_degraded == 1
        assert any(e.kind == "degrade" for e in client.report.events)

    def test_fast_link_never_degrades(self, tiny_cloud):
        sensor = SensorModel.benchmark_default()
        store = SqliteFrameStore()
        with DbgcServer(store, mode="store") as server:
            with DbgcClient(
                server.address, sensor=sensor,
                channel=BandwidthShaper(100.0), overflow_policy="coarsen",
            ) as client:
                trace = client.send_frame(0, tiny_cloud)
            server.join()
        assert not trace.degraded
        assert client.report.n_degraded == 0


# ---------------------------------------------------------------------------
# Lifecycle: context managers, half-built clients, locking
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_client_connect_failure_is_clean(self, monkeypatch):
        monkeypatch.setattr(client_module, "CONNECT_TIMEOUT_S", 0.5)
        # Reserve a port with nothing listening on it.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        before = threading.active_count()
        with pytest.raises(ConnectionError):
            DbgcClient(("127.0.0.1", port), max_retries=1, backoff_base=0.01)
        assert threading.active_count() == before  # no sender thread leaked

    def test_client_initial_connect_retries_until_server_up(self, monkeypatch):
        monkeypatch.setattr(client_module, "CONNECT_TIMEOUT_S", 0.5)
        probe = socket.socket()
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        store = SqliteFrameStore()
        holder = {}

        def late_start():
            time.sleep(0.3)
            holder["server"] = DbgcServer(store, mode="store", port=port).start()

        thread = threading.Thread(target=late_start, daemon=True)
        thread.start()
        with DbgcClient(
            ("127.0.0.1", port), max_retries=8, backoff_base=0.1,
        ) as client:
            thread.join()
            client.send_payload(0, b"made it")
        holder["server"].join()
        assert store.get_payload(0) == b"made it"

    def test_server_init_failure_releases_its_port(self, tmp_path):
        probe = DbgcServer(SqliteFrameStore(), mode="store")
        port = probe.address[1]
        probe.close()
        # A directory is no journal: the constructor fails after binding.
        with pytest.raises(IsADirectoryError) as failed:
            DbgcServer(
                SqliteFrameStore(), mode="store", port=port, receipt_journal=tmp_path
            )
        # While that exception (and the half-built server its traceback
        # holds) is alive, the port must already be free again.
        assert failed.value is not None
        server = DbgcServer(SqliteFrameStore(), mode="store", port=port)
        assert server.address[1] == port
        server.close()

    def test_context_managers_close_sockets(self):
        store = SqliteFrameStore()
        with DbgcServer(store, mode="store") as server:
            with DbgcClient(server.address) as client:
                client.send_payload(0, b"x")
            server.join()
        assert len(store) == 1
        # Both ends are down: a fresh connect must fail.
        with pytest.raises(OSError):
            socket.create_connection(server.address, timeout=0.5)

    def test_server_close_without_end_record(self):
        # A client that vanishes without END must not wedge the server.
        store = SqliteFrameStore()
        server = DbgcServer(store, mode="store").start()
        raw = socket.create_connection(server.address, timeout=2.0)
        raw.sendall(encode_record(TYPE_FRAME, 0, b"abc"))
        read_record(raw)  # consume the ACK
        raw.close()  # disappear mid-stream
        time.sleep(0.05)
        server.close()  # must return promptly, not block in accept/recv
        assert len(store) == 1

    def test_receipts_guarded_by_lock(self, tiny_cloud):
        store = SqliteFrameStore()
        with DbgcServer(store, mode="store") as server:
            assert server.lock is not None
            with DbgcClient(server.address) as client:
                client.send_frame(0, tiny_cloud)
                # Concurrent reads race the serve thread through snapshot().
                receipts, quarantine, events = server.snapshot()
                assert isinstance(receipts, list)
            server.join()
        receipts, quarantine, events = server.snapshot()
        assert [r[0] for r in receipts] == [0]
        assert quarantine == []
        assert any(kind == "accept" for kind, _ in events)
        assert any(kind == "end" for kind, _ in events)


# ---------------------------------------------------------------------------
# Acceptance: deterministic seeded fault run over a 50-frame stream
# ---------------------------------------------------------------------------


class TestAcceptanceRun:
    N_FRAMES = 50
    SEED = 7

    @classmethod
    def _payloads(cls):
        rng = np.random.default_rng(cls.SEED)
        return {i: rng.bytes(180 + int(rng.integers(0, 120))) for i in range(cls.N_FRAMES)}

    def _run(self, payloads):
        spec = FaultSpec(
            corrupt_rate=0.10,  # >= 5% frame corruption
            force_disconnect_frames=frozenset({10, 30}),  # 2 forced disconnects
        )
        store = SqliteFrameStore()
        with DbgcServer(store, mode="store") as server:
            with DbgcClient(
                server.address, channel=FaultyChannel(seed=self.SEED, spec=spec),
                ack_timeout=2.0, backoff_base=0.01,
            ) as client:
                for i, payload in payloads.items():
                    client.send_payload(i, payload)
            server.join()  # raises if the serve thread died
        return store, server, client.report

    def test_seeded_fault_run_is_complete_and_deterministic(self):
        payloads = self._payloads()
        store, server, report = self._run(payloads)

        # Zero server-thread deaths despite corruption + disconnects.
        quarantined = sorted(q.frame_index for q in server.quarantine)
        stored = store.frame_indices()

        # Every frame is accounted for exactly once: stored or quarantined.
        assert sorted(stored + quarantined) == list(range(self.N_FRAMES))
        assert quarantined  # ~10% corruption must surface
        # Uncorrupted frames stored exactly once, byte-intact.
        for i in stored:
            assert store.get_payload(i) == payloads[i]
        # Quarantined frames kept their (damaged) bytes and exceptions.
        for q in server.quarantine:
            assert q.error and len(q.payload) == len(payloads[q.frame_index])
        # The two forced disconnects were retried and recovered.
        assert report.total_retries >= 2
        assert server.connections >= 3
        assert {10, 30}.issubset(set(stored + quarantined))
        # Report accounts for every frame and event.
        assert report.n_stored == len(stored)
        assert report.n_quarantined == len(quarantined)
        assert report.n_dropped == 0
        counts = report.event_counts()
        assert counts.get("retry", 0) == report.total_retries
        assert counts.get("quarantine", 0) == report.n_quarantined

        # Same seed -> identical accounting, bit for bit.
        store2, server2, report2 = self._run(payloads)
        assert report.accounting_key() == report2.accounting_key()
        assert store2.frame_indices() == stored
        assert sorted(q.frame_index for q in server2.quarantine) == quarantined
