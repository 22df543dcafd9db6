"""Sliding-window transport tests (protocol v2.2).

The contract under test is *equivalence under pipelining*: with
``window > 1`` the client keeps several unACKed frames in flight,
matches ACKs out of order, retransmits selectively, and adapts its
window AIMD-style on server BUSY hints — and none of that may change
*what* ends up stored.  The acceptance runs replay the same seeded
faulty fleet at window=8 (concurrent) and window=1 (serial) and demand
identical per-frame outcomes and byte-identical stores; the latency
run demands the pipelining actually pays for itself.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro import observability as obs
from repro.system import (
    DbgcClient,
    DbgcServer,
    FleetSpec,
    SqliteFrameStore,
    cloud_contents,
    compressed_fleet_payloads,
    run_fleet,
)
from repro.system import client as client_module
from repro.system.client import _InFlight, _QueuedFrame
from repro.system.faults import FaultSpec
from repro.system.loadgen import payload_contents
from repro.system.metrics import FrameTrace, PipelineReport
from repro.system.protocol import (
    ACK_FLAG_BUSY,
    ACK_STORED,
    END_ACK_INDEX,
    TYPE_ACK,
    TYPE_END,
    TYPE_FRAME,
    TYPE_HELLO,
    Record,
    encode_record,
    read_record,
)

pytestmark = pytest.mark.timeout(300)


def _trace(index: int) -> FrameTrace:
    return FrameTrace(
        frame_index=index, n_points=0, payload_bytes=0,
        captured_at=0.0, compressed_at=0.0, status="pending",
    )


def _outcome(report: PipelineReport) -> tuple:
    """Per-frame outcome sets: which indices stored/quarantined/dropped."""
    return (
        tuple(sorted(t.frame_index for t in report.stored_traces)),
        tuple(sorted(t.frame_index for t in report.traces
                     if t.status == "quarantined")),
        tuple(sorted(t.frame_index for t in report.traces
                     if t.status == "dropped")),
    )


class _ScriptedServer:
    """A raw acceptor that hands each test full control of the ACK stream."""

    def __init__(self, handler):
        self.handler = handler
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(4)
        self.address = self._listener.getsockname()
        self.errors: list[BaseException] = []
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            try:
                with conn:
                    if self.handler(conn) is False:
                        continue  # handler wants to serve the next connection
                    return
            except BaseException as exc:  # pragma: no cover - surfaced by test
                self.errors.append(exc)
                return

    def close(self) -> None:
        self._listener.close()
        self._thread.join(timeout=10.0)


# ---------------------------------------------------------------------------
# HELLO window advertisement
# ---------------------------------------------------------------------------


def test_hello_advertises_window_to_server():
    with SqliteFrameStore() as store:
        with DbgcServer(store, mode="store") as server:
            with DbgcClient(server.address, stream_id=6, window=8) as client:
                client.send_payload(0, b"windowed")
            server.join()
            assert server.stream_state(6).window == 8
        # The hello event carries the advertisement for forensics.
        assert any(
            kind == "hello" and "window 8" in detail
            for kind, detail in server.events
        )


def test_window_validation():
    with pytest.raises(ValueError, match="window"):
        DbgcClient(("127.0.0.1", 1), window=0)
    with pytest.raises(ValueError, match="window"):
        DbgcClient(("127.0.0.1", 1), window=256)
    with pytest.raises(ValueError, match="window"):
        FleetSpec(window=0)


# ---------------------------------------------------------------------------
# Out-of-order ACK matching
# ---------------------------------------------------------------------------


def test_out_of_order_acks_settle_without_retries():
    """The server ACKs frame 1 before frame 0: both must settle cleanly."""
    got_frames = []

    def handler(conn: socket.socket) -> None:
        assert read_record(conn).type == TYPE_HELLO
        for _ in range(2):
            record = read_record(conn)
            assert record.type == TYPE_FRAME
            got_frames.append(record.frame_index)
        # Acknowledge in reverse arrival order.
        for index in reversed(got_frames):
            conn.sendall(encode_record(TYPE_ACK, index, flags=ACK_STORED))
        assert read_record(conn).type == TYPE_END
        conn.sendall(encode_record(TYPE_ACK, END_ACK_INDEX, flags=ACK_STORED))

    server = _ScriptedServer(handler)
    try:
        with DbgcClient(server.address, window=2, ack_timeout=5.0) as client:
            client.send_payload(0, b"first")
            client.send_payload(1, b"second")
    finally:
        server.close()
    assert server.errors == []
    assert got_frames == [0, 1]  # both were in flight before any ACK
    assert all(t.status == "stored" for t in client.report.traces)
    assert client.report.total_retries == 0
    assert len(client.report.ack_latencies) == 2


# ---------------------------------------------------------------------------
# Overall ACK deadline (the _read_deadline bugfix)
# ---------------------------------------------------------------------------


def test_stale_ack_trickle_cannot_extend_frame_deadline():
    """Regression: each stale record used to *reset* the per-read timeout,
    so a trickle of unmatched ACKs arriving just under ``ack_timeout``
    apart postponed the retransmit forever.  The deadline is now overall
    per frame: the trickle shrinks the remaining wait instead."""
    stop = threading.Event()

    def handler(conn: socket.socket) -> None:
        assert read_record(conn).type == TYPE_HELLO
        record = read_record(conn)
        assert record.type == TYPE_FRAME

        def trickle() -> None:
            # Stale ACKs (wrong index) every 0.15s — under the 0.4s
            # timeout, so the buggy reset never expires.
            while not stop.is_set():
                try:
                    conn.sendall(
                        encode_record(TYPE_ACK, 999, flags=ACK_STORED)
                    )
                except OSError:
                    return
                stop.wait(0.15)

        threading.Thread(target=trickle, daemon=True).start()
        # Swallow retransmissions; answer only the END handshake.
        while True:
            record = read_record(conn)
            if record.type == TYPE_END:
                stop.set()
                conn.sendall(
                    encode_record(TYPE_ACK, END_ACK_INDEX, flags=ACK_STORED)
                )
                return

    server = _ScriptedServer(handler)
    started = time.perf_counter()
    try:
        with DbgcClient(
            server.address, window=4, ack_timeout=0.4, max_retries=1,
            backoff_base=0.01,
        ) as client:
            client.send_payload(0, b"never acked")
    finally:
        stop.set()
        server.close()
    wall = time.perf_counter() - started
    assert server.errors == []
    trace = client.report.traces[0]
    # Two attempts, each expiring on its own 0.4s deadline, then a drop:
    # with the timeout-reset bug this would hang until the test timeout.
    assert trace.status == "dropped"
    assert trace.attempts == 2
    retry_events = [e for e in client.report.events if e.kind == "retry"]
    assert len(retry_events) == 2
    assert all("no ACK within" in e.detail for e in retry_events)
    assert wall < 5.0, f"deadline did not hold: {wall:.1f}s"


# ---------------------------------------------------------------------------
# AIMD congestion window
# ---------------------------------------------------------------------------


class TestAimd:
    @pytest.fixture(autouse=True)
    def _short_busy_backoff(self, monkeypatch):
        monkeypatch.setattr(client_module, "BUSY_BACKOFF_S", 0.01)

    def _client(self, server) -> DbgcClient:
        return DbgcClient(server.address, window=8)

    def _inflight(self, client: DbgcClient, index: int) -> None:
        client._inflight[index] = _InFlight(
            item=_QueuedFrame(_trace(index), b""), record=b"",
            attempt=1, sent_at=time.perf_counter(),
        )

    def test_busy_halves_and_clean_grows(self):
        with SqliteFrameStore() as store, DbgcServer(store) as server:
            client = self._client(server)
            try:
                assert client._cwnd == 8.0 and client._window_now() == 8
                self._inflight(client, 0)
                client._deliver_ack(
                    Record(TYPE_ACK, 0, flags=ACK_STORED | ACK_FLAG_BUSY)
                )
                assert client._cwnd == 4.0
                self._inflight(client, 1)
                client._deliver_ack(
                    Record(TYPE_ACK, 1, flags=ACK_STORED | ACK_FLAG_BUSY)
                )
                assert client._cwnd == 2.0
                for index in range(2, 12):
                    self._inflight(client, index)
                    client._deliver_ack(Record(TYPE_ACK, index, flags=ACK_STORED))
                # Additive increase, clamped at the configured window.
                assert client._cwnd == 8.0
                assert client.report.busy_hints == 2
            finally:
                client.close()

    def test_cwnd_floor_is_one(self):
        with SqliteFrameStore() as store, DbgcServer(store) as server:
            client = self._client(server)
            try:
                for index in range(8):
                    self._inflight(client, index)
                    client._deliver_ack(
                        Record(TYPE_ACK, index, flags=ACK_STORED | ACK_FLAG_BUSY)
                    )
                assert client._cwnd == 1.0
                assert client._window_now() == 1
            finally:
                client.close()

    def test_window_floor_pauses_on_busy(self, monkeypatch):
        # Every ACK is BUSY (any store latency exceeds a zero threshold),
        # so the AIMD window halves 8 -> 4 -> 2 -> 1 within the first
        # window of frames.  At the floor there is nothing left to halve:
        # the client must pause like a window-1 client, one BUSY_BACKOFF_S
        # before each further transmit.
        backoff = 0.1
        monkeypatch.setattr(client_module, "BUSY_BACKOFF_S", backoff)
        with SqliteFrameStore() as store, DbgcServer(
            store, mode="store", busy_threshold_s=0.0
        ) as server:
            client = DbgcClient(server.address, window=8)
            try:
                traces = [client.send_payload(i, b"frame-%d" % i) for i in range(14)]
            finally:
                client.close()
            assert all(t.status == "stored" for t in traces)
        assert client._window_now() == 1
        sent = [t.sent_at for t in traces[8:]]
        gaps = [later - earlier for earlier, later in zip(sent, sent[1:])]
        assert min(gaps) >= 0.9 * backoff, gaps

    def test_stale_busy_ack_hints_without_shrinking(self):
        with SqliteFrameStore() as store, DbgcServer(store) as server:
            client = self._client(server)
            try:
                # BUSY on an ACK that matches nothing: the hint is honored
                # (congestion signal) but the window is not charged twice.
                client._deliver_ack(
                    Record(TYPE_ACK, 777, flags=ACK_STORED | ACK_FLAG_BUSY)
                )
                assert client._cwnd == 8.0
                assert client.report.busy_hints == 1
            finally:
                client.close()


# ---------------------------------------------------------------------------
# Pipelining pays: latency-paced throughput
# ---------------------------------------------------------------------------


def test_windowed_stream_beats_stop_and_wait_over_latency():
    """On a 20ms one-way link, window=8 must overlap the RTTs.  The gate
    here is a lenient 2x (the bench enforces the full 4x) so the test
    stays robust on loaded CI machines."""

    def run(window: int) -> float:
        spec = FleetSpec(
            n_clients=1, frames_per_client=20, seed=3, latency_s=0.02,
            window=window, payload_bytes=(200, 300), ack_timeout=5.0,
        )
        with SqliteFrameStore() as store:
            started = time.perf_counter()
            result = run_fleet(spec, store, mode="store")
            wall = time.perf_counter() - started
            assert result.n_stored == 20
            assert result.n_dropped == 0
        return wall

    serial = run(1)
    windowed = run(8)
    assert serial / windowed >= 2.0, (
        f"window=8 only {serial / windowed:.2f}x faster "
        f"({windowed:.3f}s vs {serial:.3f}s)"
    )


# ---------------------------------------------------------------------------
# Acceptance: seeded faulty fleet, window=8 vs window=1 serial replay
# ---------------------------------------------------------------------------


FAULTY_BASE = dict(
    n_clients=2,
    frames_per_client=12,
    seed=7,
    fault_spec=FaultSpec(
        corrupt_rate=0.10, ack_drop_rate=0.15, disconnect_rate=0.05
    ),
    force_disconnect_local=frozenset({3}),
    ack_timeout=0.4,
    payload_bytes=(150, 250),
)


def test_faulty_window8_matches_serial_stop_and_wait_replay():
    """ACK drops, bit flips, and mid-frame disconnects at window=8: zero
    lost frames, exactly-once stores, and byte-identical contents vs the
    window=1 serial replay of the same seeded fault schedule."""
    total = FAULTY_BASE["n_clients"] * FAULTY_BASE["frames_per_client"]
    with SqliteFrameStore() as s8:
        r8 = run_fleet(FleetSpec(window=8, **FAULTY_BASE), s8, mode="store")
        contents8 = payload_contents(s8)
    with SqliteFrameStore() as s1:
        r1 = run_fleet(
            FleetSpec(window=1, **FAULTY_BASE), s1, mode="store",
            concurrent=False,
        )
        contents1 = payload_contents(s1)
    # Nothing lost: every frame stored or quarantined, never dropped.
    assert r8.n_dropped == 0
    assert r8.n_stored + r8.n_quarantined == total
    assert r8.merged.total_retries > 0  # the faults actually bit
    # Same per-frame outcomes per client.  (Full accounting keys are
    # *not* compared here: a disconnect at window=8 retransmits the
    # co-flying frames too, so attempt counts legitimately differ.)
    for cid in r8.reports:
        assert _outcome(r8.reports[cid]) == _outcome(r1.reports[cid]), cid
    # Exactly-once, byte-identical stores.
    assert contents8 == contents1
    # Quarantine forensics match frame for frame.
    assert sorted(q.frame_index for q in r8.server.quarantine) == sorted(
        q.frame_index for q in r1.server.quarantine
    )


def test_fault_free_window8_accounting_matches_serial_exactly():
    """Without faults the pipelined run must be *fully* indistinguishable:
    identical accounting keys (attempts, statuses, event counts) and
    byte-identical stores."""
    clean = dict(
        n_clients=2, frames_per_client=15, seed=9, payload_bytes=(150, 250)
    )
    with SqliteFrameStore() as s8:
        r8 = run_fleet(FleetSpec(window=8, **clean), s8, mode="store")
        contents8 = payload_contents(s8)
    with SqliteFrameStore() as s1:
        r1 = run_fleet(
            FleetSpec(window=1, **clean), s1, mode="store", concurrent=False
        )
        contents1 = payload_contents(s1)
    assert r8.accounting_keys() == r1.accounting_keys()
    assert contents8 == contents1
    assert r8.merged.total_retries == 0


# ---------------------------------------------------------------------------
# Windowed decompress: pipelined decode stays byte-identical
# ---------------------------------------------------------------------------


DECODE_SPEC = FleetSpec(n_clients=2, frames_per_client=6, seed=11)


@pytest.fixture(scope="module")
def temporal_payloads():
    return compressed_fleet_payloads(
        DECODE_SPEC, sensor_scale=0.2, temporal=True, keyframe_interval=2
    )


def test_windowed_decode_offload_matches_inline_oracle(temporal_payloads):
    with SqliteFrameStore() as oracle_store:
        oracle = run_fleet(
            DECODE_SPEC, oracle_store, mode="decompress",
            payloads=temporal_payloads, concurrent=False,
        )
        assert oracle.n_quarantined == 0
        oracle_clouds = cloud_contents(oracle_store)
    spec = FleetSpec(
        n_clients=DECODE_SPEC.n_clients,
        frames_per_client=DECODE_SPEC.frames_per_client,
        seed=DECODE_SPEC.seed, window=8,
    )
    with SqliteFrameStore() as store:
        result = run_fleet(
            spec, store, mode="decompress", decode_workers=2,
            payloads=temporal_payloads,
        )
        assert result.n_quarantined == 0 and result.n_dropped == 0
        assert cloud_contents(store) == oracle_clouds


def test_windowed_decode_kill_and_restart_drill(tmp_path, temporal_payloads):
    """Window=8 across a server kill: the drainer dies with the server,
    clients retransmit their whole window, and everything that stores is
    byte-identical to the uninterrupted oracle."""
    spec = FleetSpec(
        n_clients=DECODE_SPEC.n_clients,
        frames_per_client=DECODE_SPEC.frames_per_client,
        seed=DECODE_SPEC.seed, window=8,
    )
    total = spec.n_clients * spec.frames_per_client
    with SqliteFrameStore(tmp_path / "frames.sqlite") as store:
        result = run_fleet(
            spec, store, mode="decompress", decode_workers=2,
            payloads=temporal_payloads,
            receipt_journal=tmp_path / "receipts.jsonl",
            kill_after_frames=total // 2,
        )
        assert result.restarts >= 1
        for cid, report in result.reports.items():
            assert report.n_dropped == 0, cid
            assert (
                report.n_stored + report.n_quarantined
                == spec.frames_per_client
            ), cid
        stored = cloud_contents(store)
    with SqliteFrameStore() as oracle_store:
        run_fleet(
            DECODE_SPEC, oracle_store, mode="decompress",
            payloads=temporal_payloads, concurrent=False,
        )
        oracle_clouds = cloud_contents(oracle_store)
    for index, blob in stored.items():
        assert blob == oracle_clouds[index], index
    # Only mid-chain deltas may be missing (orphaned by the restart).
    for index in set(oracle_clouds) - set(stored):
        assert (index % spec.frames_per_client) % 2 != 0, index


# ---------------------------------------------------------------------------
# Observability: ACK latency histogram + server ACK queue depth
# ---------------------------------------------------------------------------


def test_ack_latency_and_queue_depth_metrics(temporal_payloads):
    spec = FleetSpec(
        n_clients=DECODE_SPEC.n_clients,
        frames_per_client=DECODE_SPEC.frames_per_client,
        seed=DECODE_SPEC.seed, window=8,
    )
    total = spec.n_clients * spec.frames_per_client
    with obs.recording() as recorder:
        with SqliteFrameStore() as store:
            result = run_fleet(
                spec, store, mode="decompress", decode_workers=2,
                payloads=temporal_payloads,
            )
    metrics = obs.report_dict(recorder)
    # One ACK latency observation per settled frame, mirrored into the
    # report for the fleet summary's percentiles.
    assert metrics["histograms"]["transport.ack_latency_s"]["count"] == total
    merged = result.merged
    assert len(merged.ack_latencies) == total
    p50 = merged.ack_latency_percentile(50)
    p99 = merged.ack_latency_percentile(99)
    assert 0.0 < p50 <= p99 <= max(merged.ack_latencies)
    # The drainer observed its backlog once per committed frame.
    assert metrics["histograms"]["server.ack_queue_depth"]["count"] == total


def test_ack_latency_percentile_edge_cases():
    report = PipelineReport()
    assert report.ack_latency_percentile(50) == 0.0
    report.ack_latencies.extend([0.3, 0.1, 0.2])
    assert report.ack_latency_percentile(0) == 0.1
    assert report.ack_latency_percentile(50) == 0.2
    assert report.ack_latency_percentile(100) == 0.3
