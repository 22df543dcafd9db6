"""The decode offload tier: process-pool decompression with stream affinity.

``DbgcServer(decode_workers=N)`` moves decompress-mode decoding off the
handler threads onto a sticky worker pool.  The contract under test is
*transparency*: offloaded ingest must be byte-identical to inline ingest
— same stored clouds (intra and temporal), same quarantine records for
the same garbage, same dedupe/ACK semantics — while v3 delta chains
decode in arrival order on their stream's own worker.  The acceptance
drill kills and restarts an offloaded server mid-fleet: deltas orphaned
by the lost decoder state quarantine until the next keyframe, and
everything that did store matches the uninterrupted oracle.
"""

from __future__ import annotations

import os
import socket
import time

import pytest

from repro import observability as obs
from repro.system import (
    DbgcServer,
    FleetSpec,
    ShardedFrameStore,
    SqliteFrameStore,
    cloud_contents,
    compressed_fleet_payloads,
    run_fleet,
)
from repro.system.protocol import (
    ACK_QUARANTINED,
    ACK_STATUS_MASK,
    ACK_STORED,
    TYPE_ACK,
    TYPE_FRAME,
    TYPE_HELLO,
    encode_record,
    read_record,
)

pytestmark = pytest.mark.timeout(300)

KEYFRAME_INTERVAL = 2
N_CLIENTS = int(os.environ.get("DBGC_FLEET_CLIENTS", "3").split(",")[-1] or 3)

SPEC = FleetSpec(n_clients=N_CLIENTS, frames_per_client=6, seed=11)


@pytest.fixture(scope="module")
def intra_payloads():
    return compressed_fleet_payloads(SPEC, sensor_scale=0.2)


@pytest.fixture(scope="module")
def temporal_payloads():
    return compressed_fleet_payloads(
        SPEC, sensor_scale=0.2, temporal=True, keyframe_interval=KEYFRAME_INTERVAL
    )


def _decompress_fleet(payloads, decode_workers, store, **kwargs):
    return run_fleet(
        SPEC,
        store,
        mode="decompress",
        decode_workers=decode_workers,
        payloads=payloads,
        **kwargs,
    )


def _send_frame(sock: socket.socket, index: int, payload: bytes):
    sock.sendall(encode_record(TYPE_FRAME, index, payload))
    ack = read_record(sock)
    assert ack.type == TYPE_ACK and ack.frame_index == index
    return ack


# -- construction ------------------------------------------------------------


def test_decode_workers_requires_decompress_mode():
    with SqliteFrameStore() as store:
        with pytest.raises(ValueError, match="decompress"):
            DbgcServer(store, mode="store", decode_workers=2)
        with pytest.raises(ValueError, match="decode_workers"):
            DbgcServer(store, mode="decompress", decode_workers=-1)
        # Inline decode (workers=0) builds no pool at all.
        server = DbgcServer(store, mode="decompress")
        assert server._decode_pool is None
        server.close()


# -- byte-identity: offloaded vs inline --------------------------------------


def test_offloaded_intra_matches_inline(intra_payloads):
    with SqliteFrameStore() as inline_store:
        inline = _decompress_fleet(intra_payloads, 0, inline_store, concurrent=False)
        oracle = cloud_contents(inline_store)
    assert inline.n_stored == SPEC.n_clients * SPEC.frames_per_client
    with SqliteFrameStore() as store:
        offloaded = _decompress_fleet(intra_payloads, 2, store)
        assert offloaded.n_stored == inline.n_stored
        assert offloaded.n_quarantined == 0
        assert cloud_contents(store) == oracle


def test_offloaded_temporal_matches_inline(temporal_payloads):
    """Delta chains decode through worker-owned stateful decoders and must
    still land byte-identical to the single-threaded inline path."""
    with SqliteFrameStore() as inline_store:
        inline = _decompress_fleet(temporal_payloads, 0, inline_store, concurrent=False)
        oracle = cloud_contents(inline_store)
    with SqliteFrameStore() as store:
        offloaded = _decompress_fleet(temporal_payloads, 2, store)
        assert offloaded.n_quarantined == 0 and offloaded.n_dropped == 0
        assert cloud_contents(store) == oracle


def test_ordered_delta_decode_under_sticky_routing(temporal_payloads):
    """Concurrent streams over fewer workers than streams: every stream's
    deltas must decode in arrival order on its own worker."""
    with ShardedFrameStore.sqlite(2) as store:
        result = _decompress_fleet(temporal_payloads, 2, store)
        # A single out-of-order or cross-stream decode would quarantine
        # (broken delta chain) or corrupt the stored bytes.
        assert result.n_quarantined == 0
        assert result.n_stored == SPEC.n_clients * SPEC.frames_per_client
        pool = result.server._decode_pool
        assert pool is not None
        per_slot = pool.submitted_per_slot()
        # N_CLIENTS streams over 2 slots, least-loaded-first: both slots
        # carried work, and totals reconcile with the frame count.
        assert all(count > 0 for count in per_slot)
        assert sum(per_slot) == result.n_stored
    with ShardedFrameStore.sqlite(2) as oracle_store:
        _decompress_fleet(temporal_payloads, 0, oracle_store, concurrent=False)
        with ShardedFrameStore.sqlite(2) as again:
            _decompress_fleet(temporal_payloads, 2, again)
            assert cloud_contents(again) == cloud_contents(oracle_store)


# -- quarantine from a worker process ----------------------------------------


def test_worker_decode_failure_quarantines_and_releases_seen(intra_payloads):
    garbage = b"this is not a dbgc container"
    valid = intra_payloads[0][0]

    def drive(server) -> tuple[str, list[int]]:
        with socket.create_connection(server.address) as sock:
            sock.sendall(encode_record(TYPE_HELLO, 4))
            ack = _send_frame(sock, 0, garbage)
            assert ack.flags & ACK_STATUS_MASK == ACK_QUARANTINED
            # The ``seen`` reservation was released: the same index can
            # be retransmitted with a good payload and still store.
            ack = _send_frame(sock, 0, valid)
            assert ack.flags & ACK_STATUS_MASK == ACK_STORED
        assert server.stream_state(4).seen == {0}
        assert [q.frame_index for q in server.quarantine] == [0]
        assert server.store.frame_indices() == [0]
        return server.quarantine[0].error, server.store.get_cloud(0).xyz.tobytes()

    with SqliteFrameStore() as store_inline:
        server = DbgcServer(store_inline, mode="decompress").start()
        inline_error, inline_cloud = drive(server)
        server.close()
    with SqliteFrameStore() as store_offloaded:
        server = DbgcServer(store_offloaded, mode="decompress", decode_workers=2).start()
        offloaded_error, offloaded_cloud = drive(server)
        server.close()
    # The worker's exception crossed the process boundary verbatim:
    # forensics records are identical to the inline path's.
    assert offloaded_error == inline_error
    assert offloaded_cloud == inline_cloud


# -- backpressure from the decode queue --------------------------------------


def test_busy_hint_trips_on_decode_queue_depth():
    from tests.test_system_pool import _slow_echo

    with SqliteFrameStore() as store:
        # A huge EWMA threshold keeps store latency out of the picture:
        # only the decode queue (busy_depth=0) can trip the hint.
        server = DbgcServer(
            store,
            mode="decompress",
            decode_workers=1,
            busy_threshold_s=1000.0,
            busy_depth=0,
        ).start()
        try:
            assert not server._busy_now()  # empty queue: not busy
            future = server._decode_pool.submit(_slow_echo, 1, 0.5)
            assert server._decode_pool.depth() > 0
            assert server._busy_now()  # queued decode work trips the hint
            future.result()
            deadline = time.monotonic() + 5.0
            while server._decode_pool.depth() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not server._busy_now()
        finally:
            server.close()


# -- receipt bound -----------------------------------------------------------


def test_max_receipts_evicts_oldest():
    with SqliteFrameStore() as store:
        server = DbgcServer(store, mode="store", max_receipts=5).start()
        with obs.recording() as recorder:
            with socket.create_connection(server.address) as sock:
                sock.sendall(encode_record(TYPE_HELLO, 8))
                for i in range(8):
                    ack = _send_frame(sock, i, b"x" * 32)
                    assert ack.flags & ACK_STATUS_MASK == ACK_STORED
        server.close()
        assert len(server.receipts) == 5
        stream = server.stream_state(8)
        assert len(stream.receipts) == 5
        # Oldest first: only the newest five receipts survive.
        assert [r[0] for r in stream.receipts] == [3, 4, 5, 6, 7]
        assert server.receipts_evicted == 3
        metrics = obs.report_dict(recorder)
        assert metrics["counters"]["server.receipts.evicted"] == 3
        # Dedupe is unaffected by receipt eviction — ``seen`` still holds
        # every index, and all eight frames are in the store.
        assert stream.seen == set(range(8))
        assert len(store) == 8
    with pytest.raises(ValueError, match="max_receipts"):
        DbgcServer(SqliteFrameStore(), max_receipts=0)


# -- observability -----------------------------------------------------------


def test_decode_observability_counters(temporal_payloads):
    with obs.recording() as recorder:
        with SqliteFrameStore() as store:
            result = _decompress_fleet(temporal_payloads, 2, store)
    metrics = obs.report_dict(recorder)
    total = result.n_stored
    # Per-worker utilization counters cover every decoded frame.
    worker_counts = {
        name: n
        for name, n in metrics["counters"].items()
        if name.startswith("server.decode.worker.")
    }
    assert sum(worker_counts.values()) == total
    assert len(worker_counts) == min(2, N_CLIENTS)
    # Queue-depth histogram: one observation per offloaded frame.
    assert metrics["histograms"]["server.decode.queue_depth"]["count"] == total
    # The decode-vs-store span split: both families present and the
    # store-write timings no longer absorb decode time.
    assert metrics["histograms"]["server.decode_s"]["count"] == total
    assert metrics["histograms"]["server.store_write_s"]["count"] == total


# -- kill-and-restart drill --------------------------------------------------


@pytest.mark.parametrize("decode_workers", [0, 2])
def test_decompress_kill_and_restart_drill(tmp_path, temporal_payloads, decode_workers):
    """The tier's process-fault bar: kill a decompress server mid-fleet,
    decoding inline or offloaded.  The restarted server has fresh decoder
    state, so orphaned deltas quarantine until their stream's next
    keyframe — and everything stored matches the uninterrupted oracle."""
    spec = SPEC
    total = spec.n_clients * spec.frames_per_client
    with SqliteFrameStore(tmp_path / "frames.sqlite") as store:
        result = run_fleet(
            spec,
            store,
            mode="decompress",
            decode_workers=decode_workers,
            payloads=temporal_payloads,
            receipt_journal=tmp_path / "receipts.jsonl",
            kill_after_frames=total // 2,
        )
        assert result.restarts >= 1
        # Nothing vanishes: every frame is stored or quarantined.
        for cid, report in result.reports.items():
            assert report.n_dropped == 0, cid
            assert report.n_stored + report.n_quarantined == spec.frames_per_client
        stored = cloud_contents(store)
        with SqliteFrameStore() as oracle_store:
            oracle = _decompress_fleet(temporal_payloads, 0, oracle_store,
                                       concurrent=False)
            assert oracle.n_quarantined == 0
            oracle_clouds = cloud_contents(oracle_store)
        # Whatever stored is byte-identical to the oracle's same frame.
        for index, blob in stored.items():
            assert blob == oracle_clouds[index], index
        # Whatever quarantined is a delta: keyframes always decode, with
        # or without prior stream state.  (A frame can be both stored
        # pre-kill and quarantine-acked post-restart when the kill ate
        # its batched journal receipt, so missing <= quarantined.)
        missing = set(oracle_clouds) - set(stored)
        assert len(missing) <= result.n_quarantined
        for index in missing:
            local = index % spec.frames_per_client
            assert local % KEYFRAME_INTERVAL != 0, (index, local)
