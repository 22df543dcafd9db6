"""The multi-client ingest tier: sharded stores, stream scoping, fleet runs.

Covers the thread-safety bugs the single-connection server used to hide:
off-lock dedupe mutation (two connections hammering one stream), SQLite
access from concurrent handler threads, the END/ACK handshake's
addressing, and — as the acceptance bar — a seeded 4-client
fault-injection run whose accounting must reconcile exactly with a
serial replay.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.geometry import PointCloud
from repro.system import (
    DbgcClient,
    DbgcServer,
    FaultSpec,
    FaultyChannel,
    FleetSpec,
    ShardedFrameStore,
    SqliteFrameStore,
    run_fleet,
)
from repro.system.loadgen import payload_contents
from repro.system.protocol import (
    ACK_DUPLICATE,
    ACK_STORED,
    END_ACK_INDEX,
    TYPE_ACK,
    TYPE_END,
    TYPE_FRAME,
    TYPE_HELLO,
    encode_record,
    read_record,
)

pytestmark = pytest.mark.timeout(180)


# -- sharded / concurrent stores --------------------------------------------


def test_sharded_store_routes_by_modulo(tmp_path):
    with ShardedFrameStore.sqlite(3) as store:
        for index in range(10):
            assert store.shard_for(index) == index % 3
            store.put_payload(index, bytes([index]) * (index + 1))
        assert store.frame_indices() == list(range(10))
        assert len(store) == 10
        for k, shard in enumerate(store.shards):
            assert all(i % 3 == k for i in shard.frame_indices())
        # Per-shard byte totals sum to the whole store's.
        per_shard = store.shard_payload_bytes()
        assert sum(per_shard) == store.total_payload_bytes() == sum(range(1, 11))
        assert store.get_payload(7) == bytes([7]) * 8


def test_sqlite_store_concurrent_writers():
    """Interleaved execute/commit from many threads must not lose rows."""
    store = SqliteFrameStore()
    n_threads, per_thread = 8, 50

    def write(worker: int) -> None:
        for i in range(per_thread):
            index = worker * per_thread + i
            store.put_payload(index, index.to_bytes(4, "little"))

    threads = [threading.Thread(target=write, args=(w,)) for w in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(store) == n_threads * per_thread
    assert store.frame_indices() == list(range(n_threads * per_thread))
    for index in (0, 123, 399):
        assert store.get_payload(index) == index.to_bytes(4, "little")
    store.close()


def test_sqlite_store_kind_conflict_raises():
    store = SqliteFrameStore()
    store.put_payload(1, b"payload-bytes")
    # Idempotent same-kind overwrite is fine (retransmissions).
    store.put_payload(1, b"payload-bytes")
    with pytest.raises(ValueError, match="already stored as 'payload'"):
        store.put_cloud(1, PointCloud([[0.0, 0.0, 0.0]]))
    assert store.get_payload(1) == b"payload-bytes"
    store.close()


# -- raw-socket protocol behavior -------------------------------------------


def _raw_client(address, stream_id=None):
    sock = socket.create_connection(address, timeout=10.0)
    sock.settimeout(10.0)
    if stream_id is not None:
        sock.sendall(encode_record(TYPE_HELLO, stream_id))
    return sock


def test_dedupe_hammer_two_connections_one_stream():
    """Two connections on one stream racing the same indices: exactly-once.

    This is the regression test for the off-lock ``_seen`` mutation — the
    old server mutated the dedupe set outside any lock, so two handler
    threads could both miss the set and store the same frame twice.
    """
    indices = list(range(20))
    store = SqliteFrameStore()
    with DbgcServer(store, mode="store", max_clients=4) as server:
        barrier = threading.Barrier(2)
        acks: dict[int, list[int]] = {0: [], 1: []}

        def hammer(slot: int) -> None:
            sock = _raw_client(server.address, stream_id=99)
            barrier.wait()
            for index in indices:
                sock.sendall(encode_record(TYPE_FRAME, index, b"p" * 64))
                ack = read_record(sock)
                assert ack.type == TYPE_ACK
                assert ack.frame_index == index
                acks[slot].append(ack.flags)
            sock.close()

        threads = [threading.Thread(target=hammer, args=(slot,)) for slot in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # Exactly once in the store, no matter how the threads interleaved.
        assert store.frame_indices() == indices
        state = server.stream_state(99)
        assert state is not None and state.seen == set(indices)
        # Per index: one STORED and one DUPLICATE across the two senders.
        for i, (a, b) in enumerate(zip(acks[0], acks[1])):
            assert sorted((a, b)) == [ACK_STORED, ACK_DUPLICATE], (i, a, b)
        assert len(server.receipts) == len(indices)
    store.close()


def test_streams_do_not_share_dedupe_state():
    """The same frame index on two different streams is not a duplicate."""
    store = ShardedFrameStore.sqlite(2)
    with DbgcServer(store, mode="store") as server:
        sock_a = _raw_client(server.address, stream_id=1)
        sock_b = _raw_client(server.address, stream_id=2)
        sock_a.sendall(encode_record(TYPE_FRAME, 5, b"from-stream-1"))
        assert read_record(sock_a).flags == ACK_STORED
        sock_b.sendall(encode_record(TYPE_FRAME, 5, b"from-stream-2"))
        ack_b = read_record(sock_b)
        # Scoped dedupe: stream 2 is NOT deduped against stream 1.
        assert ack_b.flags == ACK_STORED
        assert server.stream_state(1).seen == {5}
        assert server.stream_state(2).seen == {5}
        assert server.receipts_for(1)[0][1] == len(b"from-stream-1")
        assert server.receipts_for(2)[0][1] == len(b"from-stream-2")
        sock_a.close()
        sock_b.close()
    store.close()


def test_end_ack_carries_the_sentinel_index():
    """Frame ACKs carry their frame's index; the END ACK carries the sentinel."""
    store = SqliteFrameStore()
    with DbgcServer(store, mode="store") as server:
        sock = _raw_client(server.address, stream_id=0)
        sock.sendall(encode_record(TYPE_FRAME, 3, b"payload"))
        frame_ack = read_record(sock)
        assert (frame_ack.type, frame_ack.frame_index) == (TYPE_ACK, 3)
        sock.sendall(encode_record(TYPE_END, END_ACK_INDEX))
        end_ack = read_record(sock)
        assert (end_ack.type, end_ack.frame_index) == (TYPE_ACK, END_ACK_INDEX)
        sock.close()
        server.wait_for_streams(1, timeout=10.0)
        assert server.streams_ended == 1
    store.close()


def test_end_handshake_survives_a_dropped_end_ack():
    """A lost END ACK forces an END retransmission that must converge."""
    spec = FaultSpec(force_ack_drop_first=frozenset({END_ACK_INDEX}))
    channel = FaultyChannel(None, seed=5, spec=spec)
    store = SqliteFrameStore()
    with DbgcServer(store, mode="store", channel={77: channel}) as server:
        with DbgcClient(
            server.address,
            stream_id=77,
            channel=channel,
            ack_timeout=0.5,
            backoff_base=0.01,
        ) as client:
            client.send_payload(0, b"only-frame")
        server.wait_for_streams(1, timeout=30.0)
        # First END's ack was dropped: the client reconnected and re-ENDed.
        end_events = [e for e in server.events if e[0] == "end"]
        assert len(end_events) >= 2
        assert server.connections >= 2
        assert server.streams_ended == 1  # counted once despite retries
        assert client.report.n_stored == 1
        assert store.frame_indices() == [0]
    store.close()


# -- fleet runs --------------------------------------------------------------


def test_max_clients_caps_concurrency():
    """With one handler slot, three clients serialize but all complete."""
    spec = FleetSpec(n_clients=3, frames_per_client=5, seed=2)
    with ShardedFrameStore.sqlite(2) as store:
        result = run_fleet(spec, store, max_clients=1)
        assert result.n_stored == 15
        assert result.n_dropped == 0 and result.n_quarantined == 0
        assert result.server.peak_active_clients == 1
        assert result.server.connections >= 3


def test_fleet_observability_counters():
    from repro import observability as obs

    spec = FleetSpec(n_clients=2, frames_per_client=3, seed=4)
    with obs.recording() as recorder:
        with ShardedFrameStore.sqlite(2) as store:
            result = run_fleet(spec, store)
    metrics = obs.report_dict(recorder)
    assert metrics["counters"]["server.clients.total"] == result.server.connections
    assert metrics["counters"]["server.clients.active"] == 0  # all released
    assert metrics["counters"]["server.streams.ended"] == 2
    assert metrics["counters"]["server.stored"] == 6


ACCEPTANCE_SPEC = FleetSpec(
    n_clients=4,
    frames_per_client=25,
    seed=7,
    fault_spec=FaultSpec(corrupt_rate=0.08, ack_drop_rate=0.10),
    force_disconnect_local=frozenset({10}),
    ack_timeout=1.0,
    backoff_base=0.01,
)


def _check_acceptance(result, store) -> None:
    spec = result.spec
    # Zero lost frames: every frame of every client is stored or
    # quarantined (corruption is *detected*, never silently dropped).
    for cid, report in result.reports.items():
        assert report.n_dropped == 0, (cid, report.event_counts())
        assert report.n_stored + report.n_quarantined == spec.frames_per_client
    # The forced mid-record disconnect must have caused reconnects.
    assert result.server.connections > spec.n_clients
    # Stored payloads are byte-identical to what the clients sent.
    stored = payload_contents(store)
    expected_stored = {
        t.frame_index: result.payloads[cid][t.frame_index]
        for cid, report in result.reports.items()
        for t in report.stored_traces
    }
    assert stored == expected_stored
    # Shard routing and per-shard byte accounting reconcile exactly with
    # the client-side traces.
    n_shards = store.n_shards
    expected_shard_bytes = [0] * n_shards
    for index, payload in expected_stored.items():
        expected_shard_bytes[index % n_shards] += len(payload)
    assert store.shard_payload_bytes() == expected_shard_bytes
    for k, shard in enumerate(store.shards):
        assert all(i % n_shards == k for i in shard.frame_indices())


def test_fleet_acceptance_under_faults(tmp_path):
    """4 clients x 25 frames through bit flips, disconnects, and ACK loss."""
    with ShardedFrameStore.sqlite(3, directory=tmp_path / "a") as store:
        result = run_fleet(ACCEPTANCE_SPEC, store)
        _check_acceptance(result, store)
        keys = result.accounting_keys()

    # Same spec, fresh store: fault handling replays identically even
    # though thread interleavings differ.
    with ShardedFrameStore.sqlite(3, directory=tmp_path / "b") as store_b:
        rerun = run_fleet(ACCEPTANCE_SPEC, store_b)
        assert rerun.accounting_keys() == keys


def test_fleet_concurrent_matches_serial_replay(tmp_path):
    """The serial oracle: one client at a time must produce byte-identical
    shard contents and equal per-client accounting."""
    with ShardedFrameStore.sqlite(3, directory=tmp_path / "conc") as store:
        concurrent = run_fleet(ACCEPTANCE_SPEC, store)
        _check_acceptance(concurrent, store)
        concurrent_contents = payload_contents(store)
        concurrent_keys = concurrent.accounting_keys()

    with ShardedFrameStore.sqlite(3, directory=tmp_path / "serial") as store_s:
        serial = run_fleet(ACCEPTANCE_SPEC, store_s, concurrent=False)
        _check_acceptance(serial, store_s)
        assert payload_contents(store_s) == concurrent_contents
        assert serial.accounting_keys() == concurrent_keys
