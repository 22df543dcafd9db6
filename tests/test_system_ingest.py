"""The server's one ingest path, in every mode.

``DbgcServer`` sends every FRAME record through the same sequence: the
handler thread validates and reserves it, hands it to the connection's
completion drainer as a future, and the drainer commits, journals and
ACKs in arrival order.  Store mode, inline decode (``decode_workers=0``)
and the decode pool differ only in how that future resolves.  These
tests hold the sequence to what every mode must guarantee: a failure
inside the drainer surfaces and frees its frame and those behind it, the
per-stream counts balance under concurrent streams, a client that
ignores its window is held back by a bounded hand-off, inline decode
chains belong to their own server, and the kill switch counts frames
past the receipt bound.
"""

from __future__ import annotations

import socket
import sys
import threading
import time

import pytest

from repro.core.container import container_version
from repro.core.temporal import TemporalDecoder
from repro.system import (
    DbgcServer,
    FleetSpec,
    ReceiptJournal,
    ServerKillSwitch,
    SqliteFrameStore,
    compressed_fleet_payloads,
    run_fleet,
)
from repro.system.protocol import (
    ACK_STATUS_MASK,
    ACK_STORED,
    TYPE_ACK,
    TYPE_FRAME,
    TYPE_HELLO,
    encode_record,
    read_record,
)
from repro.system.server import _MAX_HANDOFF

pytestmark = pytest.mark.timeout(300)


def _send_frame(sock: socket.socket, index: int, payload: bytes) -> int:
    """Send one frame, wait for its ACK, return the ACK status."""
    sock.sendall(encode_record(TYPE_FRAME, index, payload))
    ack = read_record(sock)
    assert ack.type == TYPE_ACK and ack.frame_index == index
    return ack.flags & ACK_STATUS_MASK


def _drive(seed: int, scene: str, frames: int, temporal: bool) -> list[bytes]:
    spec = FleetSpec(n_clients=1, frames_per_client=frames, seed=seed)
    payloads = compressed_fleet_payloads(
        spec, sensor_scale=0.2, temporal=temporal, keyframe_interval=2, scene=scene
    )
    return list(payloads[0].values())


# -- a failing commit on the drainer -----------------------------------------


class _FailingJournal(ReceiptJournal):
    """A receipt journal whose disk fails on the 2nd frame append only."""

    def __init__(self, path) -> None:
        super().__init__(path)
        self.appends = 0

    def append_frame(self, stream_id, frame_index, payload_crc) -> None:
        self.appends += 1
        if self.appends == 2:
            raise OSError("journal disk full")
        super().append_frame(stream_id, frame_index, payload_crc)


@pytest.fixture(scope="module")
def intra_payloads() -> list[bytes]:
    return _drive(seed=5, scene="kitti-road", frames=3, temporal=False)


@pytest.mark.parametrize(
    "mode, decode_workers",
    [("store", 0), ("decompress", 0), ("decompress", 2)],
    ids=["store", "inline-decode", "decode-pool"],
)
def test_drainer_failure_surfaces_and_frees_queued_frames(
    tmp_path, intra_payloads, mode, decode_workers
):
    journal = _FailingJournal(tmp_path / "receipts.jsonl")
    with SqliteFrameStore() as store:
        server = DbgcServer(
            store, mode=mode, receipt_journal=journal, decode_workers=decode_workers
        ).start()
        try:
            with socket.create_connection(server.address, timeout=10.0) as sock:
                sock.sendall(encode_record(TYPE_HELLO, 3, flags=8))
                # Three frames in flight at once: the 2nd one's journal
                # append fails while the 3rd may be queued behind it.
                sock.sendall(b"".join(
                    encode_record(TYPE_FRAME, index, payload)
                    for index, payload in enumerate(intra_payloads)
                ))
                assert read_record(sock).frame_index == 0
                # The failure hangs up the connection instead of leaving
                # the client waiting for ACKs that never come.
                with pytest.raises(ConnectionError):
                    read_record(sock)
            with socket.create_connection(server.address, timeout=10.0) as sock:
                sock.sendall(encode_record(TYPE_HELLO, 3, flags=8))
                # The frame queued behind the failure and the failed frame
                # itself were never ACKed: their retransmissions store, not
                # answered DUPLICATE (frame 1 is re-written idempotently).
                assert _send_frame(sock, 2, intra_payloads[2]) == ACK_STORED
                assert _send_frame(sock, 1, intra_payloads[1]) == ACK_STORED
            assert store.frame_indices() == [0, 1, 2]
            with pytest.raises(OSError, match="journal disk full"):
                server.join()
        finally:
            server.close()
            journal.close()


def test_counts_balance_under_concurrent_windowed_streams():
    """More windowed clients than cores, switching threads every few
    bytecodes: each stream's unsettled count returns to zero, never
    exceeds the window it advertised (so no ACK carries BUSY), and every
    frame is stored and receipted exactly once."""
    spec = FleetSpec(n_clients=6, frames_per_client=40, seed=9, window=8)
    total = spec.n_clients * spec.frames_per_client
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with SqliteFrameStore() as store:
            result = run_fleet(spec, store, max_clients=spec.n_clients)
            assert len(store) == total
    finally:
        sys.setswitchinterval(previous)
    server = result.server
    assert result.n_stored == total and result.n_dropped == 0
    for cid in range(spec.n_clients):
        assert server.stream_state(cid).pending == 0, cid
    assert server.busy_hints == 0
    assert len(server.receipts) + server.receipts_evicted == total


class _GatedStore(SqliteFrameStore):
    """A store whose writes wait until the test opens its gate."""

    def __init__(self) -> None:
        super().__init__()
        self.gate = threading.Event()

    def put_payload(self, frame_index, payload, n_points=0) -> None:
        self.gate.wait(30.0)
        super().put_payload(frame_index, payload, n_points)


def test_handoff_queue_holds_back_a_client_that_ignores_its_window():
    """A client that advertised window 1 sends far past it while the
    store stalls: the handler stops reading once the drainer's queue is
    full instead of buffering every payload, and every frame stores once
    the store moves again."""
    total = _MAX_HANDOFF + 44
    # One frame in the stalled write, a full queue, and one the handler
    # is blocked handing over.
    held = _MAX_HANDOFF + 2
    with _GatedStore() as store:
        server = DbgcServer(store, mode="store").start()
        try:
            with socket.create_connection(server.address, timeout=10.0) as sock:
                sock.sendall(encode_record(TYPE_HELLO, 2, flags=1))
                sock.sendall(b"".join(
                    encode_record(TYPE_FRAME, index, b"frame %d" % index)
                    for index in range(total)
                ))
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    state = server.stream_state(2)
                    if state is not None and state.pending >= held:
                        break
                    time.sleep(0.01)
                time.sleep(0.2)  # a handler still reading would pass `held` here
                assert server.stream_state(2).pending == held
                store.gate.set()
                statuses = [read_record(sock).flags & ACK_STATUS_MASK for _ in range(total)]
        finally:
            store.gate.set()
            server.close()
        assert statuses == [ACK_STORED] * total
        assert store.frame_indices() == list(range(total))


# -- inline decode chains ----------------------------------------------------


def test_inline_decode_chains_belong_to_their_server():
    """Two inline-decoding servers in one process, one stream id, two
    different temporal drives fed frame by frame in lockstep: each must
    store exactly what its own serial decoder produces."""
    drives = [
        _drive(seed=3, scene="kitti-road", frames=4, temporal=True),
        _drive(seed=4, scene="kitti-city", frames=4, temporal=True),
    ]
    for blobs in drives:
        assert [container_version(blob) for blob in blobs] == [2, 3, 2, 3]
    references = []
    for blobs in drives:
        decoder = TemporalDecoder()
        references.append([decoder.decode(blob).xyz.tobytes() for blob in blobs])
    with SqliteFrameStore() as store_a, SqliteFrameStore() as store_b:
        servers = [
            DbgcServer(store, mode="decompress").start() for store in (store_a, store_b)
        ]
        try:
            socks = [
                socket.create_connection(server.address, timeout=10.0)
                for server in servers
            ]
            for sock in socks:
                sock.sendall(encode_record(TYPE_HELLO, 7))
            for index in range(4):
                for sock, blobs in zip(socks, drives):
                    assert _send_frame(sock, index, blobs[index]) == ACK_STORED
            for sock in socks:
                sock.close()
        finally:
            for server in servers:
                server.close()
        for store, reference in zip((store_a, store_b), references):
            assert [store.get_cloud(i).xyz.tobytes() for i in range(4)] == reference


# -- kill switch past the receipt bound --------------------------------------


def test_kill_switch_counts_frames_past_max_receipts():
    with SqliteFrameStore() as store:
        server = DbgcServer(store, mode="store", max_receipts=2).start()
        switch = ServerKillSwitch(4).arm(server)
        try:
            with socket.create_connection(server.address, timeout=10.0) as sock:
                sock.sendall(encode_record(TYPE_HELLO, 1))
                for index in range(3):
                    assert _send_frame(sock, index, b"frame %d" % index) == ACK_STORED
                assert not switch.fired.is_set()
                # The 4th stored frame trips the switch, although the
                # server holds only two receipts by then.
                sock.sendall(encode_record(TYPE_FRAME, 3, b"frame 3"))
                assert switch.fired.wait(10.0)
        finally:
            switch.cancel()
            server.close()
        assert server.receipts_evicted == 2
        assert store.frame_indices() == [0, 1, 2, 3]
