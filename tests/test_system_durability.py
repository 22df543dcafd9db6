"""The crash-safety tier: journals, recovery, replication, backpressure.

Process faults, not channel faults: a server killed mid-ingest must come
back answering retransmissions from its durable receipt journal, a store
killed inside a commit must roll the torn frame back, replicated shards
must scrub themselves back to health, and an overloaded server must push
back on its clients via the BUSY ACK hint.  The acceptance bar is the seeded
kill-and-restart drill: a concurrent fleet with the server killed and
restarted mid-ingest must land byte-identical to an uninterrupted serial
replay, with a clean scrub.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import sqlite3
import threading

import pytest

from repro.geometry import PointCloud
from repro.system import client as client_module
from repro.system import server as server_module
from repro.system import (
    DbgcClient,
    DbgcServer,
    FaultSpec,
    FleetSpec,
    ReceiptJournal,
    ServerKillSwitch,
    ShardedFrameStore,
    SqliteFrameStore,
    atomic_write_bytes,
    run_fleet,
)
from repro.system.protocol import (
    ACK_DUPLICATE,
    ACK_FLAG_BUSY,
    ACK_QUARANTINED,
    ACK_STATUS_MASK,
    ACK_STORED,
    TYPE_ACK,
    TYPE_END,
    TYPE_FRAME,
    TYPE_HELLO,
    encode_record,
    read_record,
)

pytestmark = pytest.mark.timeout(180)


def _send_frame(sock: socket.socket, index: int, payload: bytes):
    sock.sendall(encode_record(TYPE_FRAME, index, payload))
    ack = read_record(sock)
    assert ack.type == TYPE_ACK and ack.frame_index == index
    return ack


# -- receipt journal ---------------------------------------------------------


def test_journal_roundtrip_and_replay(tmp_path):
    path = tmp_path / "receipts.jsonl"
    with ReceiptJournal(path) as journal:
        journal.append_frame("stream-a", 0, 111)
        journal.append_frame("stream-a", 1, 222)
        journal.append_frame(7, 5, 333)
        journal.append_end("stream-a")
    replay = ReceiptJournal(path).replay()
    assert replay.frames == (("stream-a", 0, 111), ("stream-a", 1, 222), (7, 5, 333))
    assert replay.ended == ("stream-a",)
    assert replay.torn == 0
    assert replay.seen_by_stream() == {"stream-a": {0, 1}, 7: {5}}


def test_journal_torn_tail_stops_replay(tmp_path):
    path = tmp_path / "receipts.jsonl"
    with ReceiptJournal(path) as journal:
        for i in range(3):
            journal.append_frame("s", i, i * 10)
    # Tear the final record the way a mid-write kill would: drop its tail.
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
    replay = ReceiptJournal(path).replay()
    assert replay.torn == 1
    assert replay.frames == (("s", 0, 0), ("s", 1, 10))
    # A record with an intact line but a wrong CRC is equally torn.
    path.write_bytes(b"".join(lines[:-1]) + lines[-1].replace(b'"idx":2', b'"idx":9'))
    replay = ReceiptJournal(path).replay()
    assert replay.torn == 1 and len(replay.frames) == 2


def test_journal_batching_drain_and_eager_end(tmp_path):
    path = tmp_path / "receipts.jsonl"
    journal = ReceiptJournal(path, batch=4)
    journal.append_frame("s", 0, 1)
    journal.append_frame("s", 1, 2)
    # Below the batch threshold nothing has hit the file yet: this is
    # exactly the kill-loss window the server's idempotent re-store
    # tolerates.
    assert path.read_bytes() == b""
    journal.drain()
    assert len(ReceiptJournal(path).replay().frames) == 2
    # ENDs flush eagerly, carrying any batched frames with them.
    journal.append_frame("s", 2, 3)
    journal.append_end("s")
    replay = ReceiptJournal(path).replay()
    assert len(replay.frames) == 3 and replay.ended == ("s",)
    journal.close()
    journal.close()  # idempotent
    with pytest.raises(ValueError):
        journal.append_frame("s", 3, 4)
    with pytest.raises(ValueError):
        ReceiptJournal(path, batch=0)


def test_journal_rotates_and_replays_across_segments(tmp_path):
    path = tmp_path / "receipts.jsonl"
    journal = ReceiptJournal(path, batch=1, rotate_bytes=200)
    for i in range(12):
        journal.append_frame("live", i, i * 7)
    journal.drain()
    assert journal.rotations >= 1
    sealed = journal.segments()
    assert sealed and all(seg.name.startswith("receipts.jsonl.") for seg in sealed)
    # Replay walks sealed segments oldest-first, then the active file —
    # the full history comes back exactly as if never rotated.
    replay = journal.replay()
    assert replay.frames == tuple(("live", i, i * 7) for i in range(12))
    assert replay.torn == 0
    journal.close()
    # A reopened journal resumes the segment sequence instead of
    # clobbering sealed files: the full history keeps replaying.
    reopened = ReceiptJournal(path, batch=1, rotate_bytes=200)
    for i in range(12, 18):
        reopened.append_frame("live", i, i * 7)
    reopened.drain()
    assert reopened.rotations >= 1
    assert reopened.replay().seen_by_stream() == {"live": set(range(18))}
    reopened.close()
    with pytest.raises(ValueError):
        ReceiptJournal(tmp_path / "bad.jsonl", rotate_bytes=0)


def test_journal_compaction_drops_fully_ended_streams(tmp_path):
    path = tmp_path / "receipts.jsonl"
    journal = ReceiptJournal(path, batch=1, rotate_bytes=150)
    for i in range(8):
        journal.append_frame("done", i, i)
        journal.append_frame("live", i, i)
    journal.append_end("done")
    # Force one more rotation so compaction sees the END in a sealed
    # segment and can drop the ended stream's frame records.
    for i in range(8, 16):
        journal.append_frame("live", i, i)
    journal.drain()
    assert journal.compacted_frames > 0
    assert len(journal.segments()) == 1  # merged into one sealed segment
    replay = journal.replay()
    # The END survives (restart must still answer the ended stream's
    # late END retransmissions), its frames are gone, and the live
    # stream keeps every receipt.
    assert "done" in replay.ended
    assert "done" not in replay.seen_by_stream()
    assert replay.seen_by_stream()["live"] == set(range(16))
    journal.close()


def test_journal_rotation_keeps_torn_tail_detection(tmp_path):
    path = tmp_path / "receipts.jsonl"
    with ReceiptJournal(path, batch=1, rotate_bytes=120) as journal:
        for i in range(10):
            journal.append_frame("s", i, i)
    assert ReceiptJournal(path).segments()
    # Tear the active file's last record: only that record is lost;
    # every sealed segment still replays in full.
    data = path.read_bytes()
    assert data, "active segment should hold the newest records"
    path.write_bytes(data[:-4])
    replay = ReceiptJournal(path).replay()
    assert replay.torn == 1
    assert replay.seen_by_stream()["s"] == set(range(9))


def test_server_recovers_from_rotated_journal(tmp_path):
    journal_path = tmp_path / "receipts.jsonl"
    payload = b"\x55\xaa" * 60
    with SqliteFrameStore(tmp_path / "frames.sqlite") as store:
        server = DbgcServer(
            store,
            mode="store",
            receipt_journal=journal_path,
            journal_rotate_bytes=128,
        ).start()
        with socket.create_connection(server.address) as sock:
            sock.sendall(encode_record(TYPE_HELLO, 3))
            for i in range(10):
                assert _send_frame(sock, i, payload).flags & ACK_STATUS_MASK == (
                    ACK_STORED
                )
        server.close()
        assert list(journal_path.parent.glob("receipts.jsonl.*"))

        # The restarted server replays receipts from every segment: all
        # ten retransmissions answer DUPLICATE, nothing is re-stored.
        restarted = DbgcServer(
            store,
            mode="store",
            receipt_journal=journal_path,
            journal_rotate_bytes=128,
        ).start()
        with socket.create_connection(restarted.address) as sock:
            sock.sendall(encode_record(TYPE_HELLO, 3))
            for i in range(10):
                assert _send_frame(sock, i, payload).flags & ACK_STATUS_MASK == (
                    ACK_DUPLICATE
                )
        restarted.close()
        assert store.frame_indices() == list(range(10))


def test_atomic_write_commits_or_leaves_only_tmp(tmp_path):
    target = tmp_path / "frame.bin"
    atomic_write_bytes(target, b"payload", fsync=True)
    assert target.read_bytes() == b"payload"
    assert list(tmp_path.glob("*.tmp")) == []


class _OnCommit:
    """A store's SQLite connection whose ``commit()`` calls ``hook`` first."""

    def __init__(self, conn: sqlite3.Connection, hook) -> None:
        self._conn = conn
        self._hook = hook

    def __getattr__(self, name: str):
        return getattr(self._conn, name)

    def commit(self) -> None:
        self._hook()
        self._conn.commit()


def test_sqlite_store_commits_once_per_frame(tmp_path):
    db = tmp_path / "frames.sqlite"
    commits = []
    with SqliteFrameStore(db) as store:
        store._conn = _OnCommit(store._conn, lambda: commits.append(1))
        store.put_payload(0, b"\x01" * 32)
        assert len(commits) == 1
        store.put_cloud(1, PointCloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
        assert len(commits) == 2
    conn = sqlite3.connect(db)
    tables = conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'").fetchall()
    conn.close()
    assert tables == [("frames",)]


def test_sqlite_store_ignores_an_old_intent_journal(tmp_path):
    import zlib

    db = tmp_path / "frames.sqlite"
    payload = b"\x42" * 64
    with SqliteFrameStore(db) as store:
        store.put_payload(5, payload)
    # Databases written by the earlier two-commit store also hold a
    # `journal` table of write intents.  Hand-make one with both crash
    # shapes: an intent whose frame row landed and one that never did.
    conn = sqlite3.connect(db)
    conn.execute(
        "CREATE TABLE journal ("
        " frame_index INTEGER PRIMARY KEY,"
        " kind TEXT NOT NULL,"
        " crc32 INTEGER NOT NULL)"
    )
    conn.execute(
        "INSERT INTO journal VALUES (?, ?, ?)", (5, "payload", zlib.crc32(payload))
    )
    conn.execute("INSERT INTO journal VALUES (?, ?, ?)", (9, "payload", 12345))
    conn.commit()
    conn.close()
    # `frames` is authoritative: the committed frame reads back, the torn
    # intent left no frame, and the store takes new writes.
    with SqliteFrameStore(db) as reopened:
        assert reopened.frame_indices() == [5]
        assert reopened.get_payload(5) == payload
        assert reopened.payload_crc(5) == zlib.crc32(payload)
        reopened.put_payload(6, b"\x06" * 8)
    with SqliteFrameStore(db) as again:
        assert again.frame_indices() == [5, 6]


_CRASH_EXIT = 17


def _crash_in_second_commit(db: str) -> None:
    """Store frame 0, then exit the process inside frame 1's commit.

    Frame 1 outgrows SQLite's 2 MB page cache, so part of it reaches the
    database file before the commit: the exit leaves a torn write and a
    hot rollback journal.
    """
    store = SqliteFrameStore(db)
    store.put_payload(0, b"\x00" * 64)
    store._conn = _OnCommit(store._conn, lambda: os._exit(_CRASH_EXIT))
    store.put_payload(1, b"\x01" * (3 << 20))


def test_sqlite_crash_before_commit_rolls_back_on_open(tmp_path):
    db = tmp_path / "frames.sqlite"
    child = multiprocessing.get_context("spawn").Process(
        target=_crash_in_second_commit, args=(str(db),)
    )
    child.start()
    child.join(timeout=60)
    assert child.exitcode == _CRASH_EXIT
    hot_journal = tmp_path / "frames.sqlite-journal"
    assert hot_journal.exists()
    with SqliteFrameStore(db) as store:
        # Opening rolled the torn write back: frame 1 is not stored, and
        # a retry of it stores.
        assert not hot_journal.exists()
        assert store.frame_indices() == [0]
        store.put_payload(1, b"\x01" * 64)
        assert store.frame_indices() == [0, 1]


def test_sqlite_cross_kind_conflict_under_threads():
    cloud = PointCloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    with SqliteFrameStore() as store:
        errors, barrier = [], threading.Barrier(8)

        def writer(k: int):
            barrier.wait()
            try:
                if k % 2:
                    store.put_payload(0, b"payload-bytes")
                else:
                    store.put_cloud(0, cloud)
            except ValueError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Exactly one kind won the index; every cross-kind writer raised,
        # every same-kind overwrite was an idempotent no-op.
        assert len(store) == 1
        assert len(errors) == 4
        assert all("already stored" in str(e) for e in errors)


# -- replication + scrub -----------------------------------------------------


def _edit_shard(directory, k: int, sql: str, *params) -> None:
    """Run one statement on ``shard_k.sqlite`` behind its store's back."""
    conn = sqlite3.connect(directory / f"shard_{k}.sqlite")
    with conn:
        conn.execute(sql, params)
    conn.close()


def _corrupt(directory, k: int, frame_index: int, data: bytes) -> None:
    _edit_shard(
        directory, k, "UPDATE frames SET data = ? WHERE frame_index = ?",
        data, frame_index,
    )


def test_replication_reads_fall_back_past_corruption(tmp_path):
    with ShardedFrameStore.sqlite(3, directory=tmp_path, replication=2) as store:
        payload = b"replicated-payload" * 10
        store.put_payload(4, payload)
        assert store.replica_shards(4) == [1, 2]
        # Overwrite the primary copy on disk; the read must fall back to
        # the intact replica instead of returning garbage.
        _corrupt(tmp_path, 1, 4, b"X" * len(payload))
        assert store.get_payload(4) == payload
        # With the primary row gone, the replica still answers.
        _edit_shard(tmp_path, 1, "DELETE FROM frames WHERE frame_index = 4")
        assert store.get_payload(4) == payload


def test_scrub_repairs_corrupt_and_missing_replicas(tmp_path):
    with ShardedFrameStore.sqlite(3, directory=tmp_path, replication=2) as store:
        for i in range(6):
            store.put_payload(i, bytes([i]) * 100)
        _corrupt(tmp_path, 1, 0, b"garbage")
        _edit_shard(tmp_path, 2, "DELETE FROM frames WHERE frame_index = 1")
        report = store.scrub()
        assert report.frames_checked == 6
        assert report.n_corrupt == 1 and report.n_missing == 1
        assert report.n_repaired == 2 and report.n_unrepaired == 0
        assert store.get_payload(0) == bytes([0]) * 100
        # A second pass finds a fully healthy store: 6 frames x 2 copies.
        second = store.scrub()
        assert second.clean and second.copies_healthy == 12


def test_scrub_without_repair_reports_only(tmp_path):
    with ShardedFrameStore.sqlite(2, directory=tmp_path, replication=2) as store:
        store.put_payload(0, b"A" * 50)
        _corrupt(tmp_path, 0, 0, b"B" * 50)
        report = store.scrub(repair=False)
        assert report.n_corrupt == 1 and report.n_repaired == 0
        assert not report.clean
        # Still broken on the next audit — nothing was touched.
        assert not store.scrub(repair=False).clean


def test_scrub_cli_audits_and_repairs_on_disk_sqlite_shards(tmp_path, capsys):
    from repro.cli import main

    with ShardedFrameStore.sqlite(2, directory=tmp_path, replication=2) as store:
        for i in range(4):
            store.put_payload(i, bytes([i]) * 50)
    argv = ["scrub", str(tmp_path), "--replication", "2"]
    assert main(argv) == 0
    assert "4 frame(s), 8 healthy cop(ies), 0 corrupt" in capsys.readouterr().out
    # Overwrite one copy by hand; the scrub repairs it from its replica.
    _corrupt(tmp_path, 0, 2, b"garbage")
    assert main(argv) == 0
    assert "1 corrupt, 0 missing, 1 repaired" in capsys.readouterr().out
    assert main(argv) == 0
    assert "8 healthy cop(ies), 0 corrupt" in capsys.readouterr().out
    with ShardedFrameStore.sqlite(2, directory=tmp_path, replication=2) as store:
        assert store.get_payload(2) == bytes([2]) * 50


def test_scrub_cli_rejects_a_directory_without_sqlite_shards(tmp_path):
    from repro.cli import main

    # shard_K/ subdirectories are not a store layout scrub opens.
    (tmp_path / "shard_0").mkdir()
    (tmp_path / "shard_0" / "frame_000000.dbgc").write_bytes(b"A" * 50)
    with pytest.raises(SystemExit) as exc_info:
        main(["scrub", str(tmp_path)])
    assert str(exc_info.value) == (
        f"{tmp_path} is neither a SQLite database nor a directory of "
        "shard_K.sqlite files"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shard_0"]


def test_sharded_byte_accounting_multithreaded():
    # 2 shards, 8 writer threads: several threads land on each shard
    # concurrently, and the per-shard byte totals must still reconcile.
    with ShardedFrameStore.sqlite(2, replication=2) as store:
        barrier = threading.Barrier(8)

        def writer(k: int):
            barrier.wait()
            for i in range(10):
                index = k * 10 + i
                store.put_payload(index, b"\xab" * (index + 1))

        threads = [threading.Thread(target=writer, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        n = 80
        logical = n * (n + 1) // 2
        per_shard = store.shard_payload_bytes()
        # Every frame is on both shards (replication=2 over 2 shards).
        assert per_shard == [logical, logical]
        assert store.total_payload_bytes() == 2 * logical
        assert store.frame_indices() == list(range(n))


# -- close() lifecycle -------------------------------------------------------


def test_close_is_idempotent_and_safe_before_connect():
    # A client that never finished __init__ (connect refused) must still
    # close cleanly — close() can run on a half-built instance.
    object.__new__(DbgcClient).close()
    for store in (SqliteFrameStore(), ShardedFrameStore.sqlite(2)):
        store.close()
        store.close()
    server = DbgcServer(SqliteFrameStore(), mode="store").start()
    with DbgcClient(server.address, stream_id=1) as client:
        client.send_payload(0, b"once")
    client.close()  # second close after the context manager: no-op
    server.close()
    server.close()


# -- server restart recovery -------------------------------------------------


def test_restarted_server_answers_duplicate_from_journal(tmp_path):
    journal = tmp_path / "receipts.jsonl"
    payload = b"\x10\x20\x30" * 40
    with SqliteFrameStore(tmp_path / "frames.sqlite") as store:
        server = DbgcServer(
            store, mode="store", receipt_journal=journal
        ).start()
        with socket.create_connection(server.address) as sock:
            sock.sendall(encode_record(TYPE_HELLO, 5))
            ack = _send_frame(sock, 3, payload)
            assert ack.flags & ACK_STATUS_MASK == ACK_STORED
        server.close()  # flushes the owned journal

        # A brand-new server over the same journal: the retransmission
        # must be recognized without re-storing, new frames still land.
        restarted = DbgcServer(
            store, mode="store", receipt_journal=journal
        ).start()
        assert any(kind == "recover" for kind, _ in restarted.events)
        with socket.create_connection(restarted.address) as sock:
            sock.sendall(encode_record(TYPE_HELLO, 5))
            assert _send_frame(sock, 3, payload).flags & ACK_STATUS_MASK == (
                ACK_DUPLICATE
            )
            assert _send_frame(sock, 4, b"fresh").flags & ACK_STATUS_MASK == (
                ACK_STORED
            )
            sock.sendall(encode_record(TYPE_END, 0))
            read_record(sock)
        restarted.close()
        assert store.frame_indices() == [3, 4]
        assert store.get_payload(3) == payload


def test_client_resumes_across_server_restart(tmp_path):
    journal = tmp_path / "receipts.jsonl"
    payloads = {i: bytes([i + 1]) * 200 for i in range(3)}
    with SqliteFrameStore(tmp_path / "frames.sqlite") as store:
        server = DbgcServer(store, mode="store", receipt_journal=journal).start()
        client = DbgcClient(
            server.address,
            stream_id=9,
            ack_timeout=1.0,
            backoff_base=0.05,
            max_retries=10,
        )
        client.send_payload(0, payloads[0])
        client.send_payload(1, payloads[1])
        port = server.address[1]
        server.close()
        # Same port, same store, same journal: the client's reconnect
        # path must carry it across the restart without losing a frame.
        restarted = DbgcServer(
            store, mode="store", port=port, receipt_journal=journal
        ).start()
        client.send_payload(1, payloads[1])  # retransmit -> DUPLICATE
        client.send_payload(2, payloads[2])
        client.close()
        restarted.close()
        assert store.frame_indices() == [0, 1, 2]
        for i, expected in payloads.items():
            assert store.get_payload(i) == expected
        assert client.report.n_stored == 4  # the duplicate ACKs as stored
        with server.lock:
            pass  # the dead server's lock is still a plain, free lock


# -- kill switch + acceptance drill ------------------------------------------


def test_kill_switch_validation_and_fleet_guard():
    with pytest.raises(ValueError):
        ServerKillSwitch(0)
    with pytest.raises(ValueError, match="receipt_journal"):
        run_fleet(FleetSpec(n_clients=1, frames_per_client=2), SqliteFrameStore(),
                  kill_after_frames=1)


DRILL_CLIENTS = int(
    os.environ.get("DBGC_FLEET_CLIENTS", "2").split(",")[-1] or 2
)


def test_fleet_kill_and_restart_drill(tmp_path):
    """The tier's acceptance bar (see ROADMAP): kill mid-ingest, restart
    on the same store+journal, lose nothing, scrub clean."""
    spec = FleetSpec(
        n_clients=DRILL_CLIENTS,
        frames_per_client=25,
        seed=7,
        fault_spec=FaultSpec(ack_drop_rate=0.05),
        ack_timeout=1.0,
        backoff_base=0.01,
        max_retries=8,
    )
    total = spec.n_clients * spec.frames_per_client
    kill_after = total // 2
    with ShardedFrameStore.sqlite(3, replication=2) as store:
        result = run_fleet(
            spec,
            store,
            receipt_journal=tmp_path / "receipts.jsonl",
            kill_after_frames=kill_after,
        )
        assert result.restarts >= 1
        assert result.n_stored == total
        assert result.n_dropped == 0 and result.n_quarantined == 0
        # The restarted server recovered durable receipts (the batched
        # journal guarantees at least the drained prefix).
        assert any(kind == "recover" for kind, _ in result.server.events)
        # Byte-identity with an uninterrupted serial replay of the same
        # spec: the process fault must be invisible in the stored data.
        with ShardedFrameStore.sqlite(3, replication=2) as oracle:
            run_fleet(spec, oracle, concurrent=False)
            assert store.frame_indices() == oracle.frame_indices()
            for index in oracle.frame_indices():
                assert store.get_payload(index) == oracle.get_payload(index)
        # Every replica of every frame is healthy: exactly-once storage,
        # no torn copies left behind by the kill.
        report = store.scrub()
        assert report.clean
        assert report.frames_checked == total
        assert report.copies_healthy == 2 * total
        # Second drill: corrupt one replica of the drilled store and
        # scrub it back to health.
        victim = store.shards[0].frame_indices()[0]
        store.shards[0].put_payload(victim, b"bitrot")
        repair = store.scrub()
        assert repair.n_repaired >= 1 and repair.n_unrepaired == 0
        assert store.scrub().clean


# -- backpressure ------------------------------------------------------------


def test_busy_hint_rides_the_ack_status_nibble():
    with SqliteFrameStore() as store:
        # threshold 0.0: any nonzero store-latency EWMA flags BUSY, so
        # every ACK after the first carries the hint.
        server = DbgcServer(store, mode="store", busy_threshold_s=0.0).start()
        with socket.create_connection(server.address) as sock:
            sock.sendall(encode_record(TYPE_HELLO, 2))
            _send_frame(sock, 0, b"warm-up")
            ack = _send_frame(sock, 1, b"now the server is busy")
            assert ack.flags & ACK_FLAG_BUSY
            assert ack.flags & ACK_STATUS_MASK == ACK_STORED
            # Status survives alongside the hint for every outcome.
            ack = _send_frame(sock, 1, b"now the server is busy")
            assert ack.flags & ACK_FLAG_BUSY
            assert ack.flags & ACK_STATUS_MASK == ACK_DUPLICATE
        server.close()
        assert server.busy_hints >= 2


def test_client_records_and_obeys_busy_hints(monkeypatch):
    from repro import observability as obs

    monkeypatch.setattr(client_module, "BUSY_BACKOFF_S", 0.02)
    with SqliteFrameStore() as store:
        server = DbgcServer(store, mode="store", busy_threshold_s=0.0).start()
        with obs.recording() as recorder:
            with DbgcClient(server.address, stream_id=3) as client:
                for i in range(5):
                    client.send_payload(i, bytes(50))
        server.close()
        # close() drained the queue, so every ACK (and its hint) landed.
        assert client._busy_until > 0.0  # a backoff window was set
        assert client.report.busy_hints >= 3
        metrics = obs.report_dict(recorder)
        assert metrics["counters"]["transport.busy_hints"] >= 3
        assert metrics["counters"]["server.busy_hints"] >= 3
        assert len(store) == 5  # backpressure slows, never drops


def test_quarantine_is_bounded_with_oldest_evicted(monkeypatch):
    from repro import observability as obs

    monkeypatch.setattr(server_module, "MAX_QUARANTINE", 2)
    with SqliteFrameStore() as store:
        server = DbgcServer(store, mode="decompress").start()
        with obs.recording() as recorder:
            with socket.create_connection(server.address) as sock:
                sock.sendall(encode_record(TYPE_HELLO, 1))
                for i in range(5):
                    ack = _send_frame(sock, i, b"not a dbgc payload %d" % i)
                    assert ack.flags & ACK_STATUS_MASK == ACK_QUARANTINED
        server.close()
        assert len(server.quarantine) == 2
        # Oldest out first: only the newest rejects are retained.
        assert [q.frame_index for q in server.quarantine] == [3, 4]
        assert server.quarantine_evicted == 3
        metrics = obs.report_dict(recorder)
        assert metrics["counters"]["server.quarantine.evicted"] == 3
        assert len(store) == 0
