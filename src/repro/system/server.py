"""The DBGC server: receive, decompress (or store raw), persist — and survive.

Frames arrive over TCP as protocol-v2 records (see
:mod:`repro.system.protocol`).  The server either decompresses each bit
sequence and stores the cloud, or bypasses decompression and stores the
payload directly (both modes appear in the paper's Figure 2).

Every FRAME record takes one path, whatever the mode:

1. the connection's handler thread checks the CRCs and reserves the
   frame index in its stream's dedupe set — a retransmission of a frame
   already stored or still in flight is answered DUPLICATE right there;
2. it hands the frame to the connection's completion drainer as a
   future: already resolved and carrying no cloud in ``store`` mode,
   resolved by a decode on the handler thread with ``decode_workers=0``,
   or pending on a decoder worker process;
3. the drainer commits, journals and ACKs the frames in arrival order.
   A payload that fails to decode or store is *quarantined* — recorded
   with its bytes and exception, its reservation released — and serving
   continues.

Around that path, the server is built for a lossy uplink *and* a fleet
of sensors:

- the accept loop hands every connection to its own handler thread
  (bounded by ``max_clients``), so N clients stream concurrently and a
  disconnect or reconnect of one never stalls the others;
- per-stream state — the dedupe set, ACK ordinals, receipts — is keyed
  by the stream id each connection announces in its HELLO record, so a
  reconnecting client resumes *its* stream and two clients can never
  poison each other's dedupe or ACK accounting;
- temporal streams (format v3 delta frames between keyframes) decode
  through one stateful :class:`~repro.core.temporal.TemporalDecoder` per
  decode chain, so two streams' predictor states can never mix; a delta
  frame whose predictor is missing (e.g. the server restarted, or its
  predecessor was quarantined) fails and is quarantined like any
  undecodable payload — the stream heals at its next keyframe;
- an END record closes *that client's session* once its drainer has
  settled every earlier frame (acknowledged at
  :data:`~repro.system.protocol.END_ACK_INDEX`); the accept loop keeps
  running until the driver calls :meth:`DbgcServer.close`.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.core.container import container_version
from repro.core.temporal import TemporalDecoder
from repro.geometry.points import PointCloud
from repro.observability import recorder as _obs
from repro.system.durability import ReceiptJournal
from repro.system.faults import FaultyChannel
from repro.system.pool import StickyWorkerPool, pack_array, unpack_array
from repro.system.protocol import (
    ACK_DUPLICATE,
    ACK_FLAG_BUSY,
    ACK_QUARANTINED,
    ACK_STORED,
    END_ACK_INDEX,
    TYPE_ACK,
    TYPE_END,
    TYPE_FRAME,
    TYPE_HELLO,
    CorruptPayloadError,
    ProtocolError,
    encode_record,
    read_record,
)
from repro.system.storage import ShardedFrameStore, SqliteFrameStore

__all__ = [
    "DbgcServer",
    "QuarantinedFrame",
    "RemoteDecodeError",
    "StreamState",
]

#: Smoothing factor of the store-write latency EWMA behind busy hints.
_STORE_EWMA_ALPHA = 0.2

#: Quarantine entries kept: past this the oldest is evicted (counted in
#: ``server.quarantine.evicted``), so a client spraying garbage cannot
#: grow server memory without bound.
MAX_QUARANTINE = 256

#: Receipts kept, server-wide and per stream: past this the oldest is
#: evicted (counted in ``server.receipts.evicted``), so a long-lived
#: server's receipt memory stays flat.  Far above any one batch a client
#: reconciles with ``merge_receipts``.
MAX_RECEIPTS = 4096

#: Per-stream cap used when a client's HELLO advertised no window (a
#: pre-v2.2 client, or no HELLO at all): above this many frames handed to
#: the drainer but not yet settled, the stream's ACKs carry the BUSY hint.
_DEFAULT_STREAM_INFLIGHT = 4

#: Frames one connection may queue for its drainer before the handler
#: stops reading.  Above any window a HELLO can advertise (255), so only
#: a client that ignores its window waits here, and TCP pushes back on
#: it instead of the server buffering its payloads without bound.
_MAX_HANDOFF = 256


class RemoteDecodeError(ValueError):
    """A decode failure surfaced from :func:`_decode_frame`.

    Carries the decoder's exception ``repr`` as its sole argument and
    *is* that repr, so a quarantine record reads the same whether the
    frame decoded on a worker process or on the handler thread.
    """

    def __repr__(self) -> str:
        return self.args[0]


# -- decode chains -----------------------------------------------------
#
# A *decode chain* is one keyframe and the delta frames that follow it —
# the temporal context resets at every keyframe, so chains are
# self-contained — and decodes on one stateful TemporalDecoder in
# arrival order.  With a decode pool, every new chain takes the pool's
# next slot in turn and its stream's StreamState keeps that slot for the
# chain's frames; each worker process keeps its chains' decoders in
# ``_WORKER_DECODERS`` (seeded by the pool initializer).  Within a
# chain, frames land on one worker in arrival order (the delta-ordering
# contract), while *successive* chains take the workers in turn — which
# is what lets a single stream's decode throughput scale with
# ``decode_workers`` once the client pipelines (window > 1).  An inline
# decode runs the same function on the handler thread against its
# server's own decoder map.

_WORKER_DECODERS: dict[int | str, tuple[int, TemporalDecoder]] = {}


def _init_decode_worker() -> None:
    _WORKER_DECODERS.clear()


def _decode_frame(
    stream_id: int | str,
    chain_no: int,
    fresh: bool,
    payload: bytes,
    decoders: dict[int | str, tuple[int, TemporalDecoder]] | None = None,
) -> tuple:
    """Decode one frame on its chain's decoder; never raises.

    ``decoders`` holds the chain state: the worker process's
    ``_WORKER_DECODERS`` by default, or the inline-decoding server's own
    map.  ``fresh`` marks the chain's first frame: a new
    :class:`TemporalDecoder` starts for it (bounded state: one live
    decoder per stream, the previous chain's is dropped).  Returns
    ``("ok", meta, buffers)`` — a :func:`~repro.system.pool.pack_array`
    split of the decoded ``xyz``, shipped out-of-band so the parent
    rebuilds the cloud without copying — or ``("err", repr)`` on
    failure, keeping unpicklable exceptions from wedging the pool.
    """
    if decoders is None:
        decoders = _WORKER_DECODERS
    entry = decoders.get(stream_id)
    if fresh or entry is None or entry[0] != chain_no:
        decoder = TemporalDecoder()
        decoders[stream_id] = (chain_no, decoder)
    else:
        decoder = entry[1]
    try:
        cloud = decoder.decode(payload)
    except Exception as exc:
        return ("err", repr(exc))
    meta, buffers = pack_array(cloud.xyz)
    return ("ok", meta, buffers)


def _resolved(result: tuple | None) -> Future:
    """A future already holding ``result`` (store mode, inline decode)."""
    future: Future = Future()
    future.set_result(result)
    return future


def _shutdown(conn: socket.socket, how: int = socket.SHUT_RDWR) -> None:
    """Shut ``conn`` down, waking any thread blocked reading it."""
    # close() alone does not unblock a recv() parked on another thread.
    try:
        conn.shutdown(how)
    except OSError:
        pass


@dataclass(frozen=True)
class QuarantinedFrame:
    """A payload the server refused to store, kept for forensics."""

    frame_index: int
    payload: bytes = field(repr=False)
    error: str
    received_at: float
    #: Stream the payload arrived on (int id from HELLO, or the implicit
    #: ``"conn-N"`` key of a connection that never sent one).
    stream_id: int | str = 0

    def __str__(self) -> str:
        return (
            f"frame {self.frame_index} (stream {self.stream_id}): "
            f"{self.error} ({len(self.payload)} bytes kept)"
        )


@dataclass
class _PendingFrame:
    """One frame handed from a connection's handler to its drainer.

    Created by the handler thread once the frame is CRC-validated and
    dedupe-reserved, with ``future`` resolving to the decode result
    (``None`` in ``store`` mode); consumed by the connection's
    completion drainer, which commits, journals, and ACKs in arrival
    order.
    """

    stream: "StreamState"
    frame_index: int
    payload: bytes = field(repr=False)
    payload_crc: int
    received_at: float
    submitted_at: float
    future: Future


class StreamState:
    """Per-stream ingest state, shared by all of that stream's connections.

    Mutated only under the owning server's :attr:`DbgcServer.lock`.
    """

    __slots__ = (
        "stream_id",
        "seen",
        "ack_counts",
        "receipts",
        "ended",
        "decode_lock",
        "window",
        "chain_no",
        "slot",
        "pending",
    )

    def __init__(self, stream_id: int | str) -> None:
        self.stream_id = stream_id
        #: Frame indices stored (or reserved mid-store) — the dedupe set.
        self.seen: set[int] = set()
        #: ACKs issued per index; feeds the fault channel's drop plan.
        self.ack_counts: dict[int, int] = {}
        #: This stream's slice of the server-wide receipts (oldest evicted
        #: past ``MAX_RECEIPTS``).
        self.receipts: deque[tuple[int, int, float, float]] = deque(maxlen=MAX_RECEIPTS)
        #: True once the stream's END record arrived.
        self.ended = False
        #: Sliding window the client advertised in HELLO flags (v2.2);
        #: 0 = unknown (pre-v2.2 client).
        self.window = 0
        #: Decode-chain counter: bumped at every keyframe; -1 until the
        #: stream's first frame arrives.  In-memory only — a restarted
        #: server starts blank, so delta frames are quarantined until the
        #: stream's next keyframe starts a chain.
        self.chain_no = -1
        #: Decode-pool slot of the current chain, taken when the chain
        #: starts: the stream's whole routing state.
        self.slot = 0
        #: Frames handed to a drainer but not yet settled (feeds the
        #: per-stream BUSY congestion hint).
        self.pending = 0
        #: Keeps chain assignment and decode hand-off of this stream in
        #: arrival order, even when a reconnect races the old connection.
        self.decode_lock = threading.Lock()


class DbgcServer:
    """A fault-tolerant multi-client frame sink on background threads.

    Parameters
    ----------
    store:
        Frame store to persist into (one SQLite store, or SQLite shards).
    mode:
        ``"decompress"`` — decompress and store clouds;
        ``"store"`` — store compressed payloads directly.
    host, port:
        Listen address; port 0 picks a free port (see :attr:`address`).
    channel:
        Optional :class:`~repro.system.faults.FaultyChannel` — or a
        mapping of stream id to channel for per-client fault injection;
        the matching ``drop_ack`` plan is consulted before each
        acknowledgement so ACK loss (and the client's retransmit + server
        dedupe path) can be exercised deterministically.
    max_clients:
        Handler-thread cap.  When every slot is busy, new connections
        wait in the TCP backlog until one frees up (backpressure, not
        refusal).
    receipt_journal:
        A :class:`~repro.system.durability.ReceiptJournal` (or a path to
        open one at) making the per-stream dedupe/END state durable: the
        server journals every stored frame and END, and a *restarted*
        server replays the journal on construction — so retransmissions
        of frames stored before a crash are answered with DUPLICATE
        instead of being stored twice.  When a path is given the server
        owns (and closes) the journal; ``journal_rotate_bytes`` is then
        forwarded as its segment-rotation threshold (see
        :class:`~repro.system.durability.ReceiptJournal`), keeping a
        long-lived server's journal from growing without bound.
    busy_threshold_s:
        Backpressure trigger: when the store-write latency EWMA exceeds
        this many seconds, ACKs carry the protocol-v2 BUSY hint and
        clients slow down / coarsen.  ``None`` (default) disables this
        trigger; a stream holding more unsettled frames than its window
        trips the hint regardless.
    decode_workers:
        Where ``decompress`` mode decodes (rejected in ``store`` mode).
        0 (default) decodes on the handler thread.  N >= 1 fans decoding
        out to N decoder worker *processes* behind a
        :class:`~repro.system.pool.StickyWorkerPool`, routed by decode
        chain — a keyframe and its following deltas pin to one worker's
        stateful :class:`~repro.core.temporal.TemporalDecoder` in
        arrival order, while successive chains take the workers in
        turn.  Only where the decode runs changes: either way
        the handler thread validates and reserves each frame as it
        arrives and the connection's completion drainer commits,
        journals and ACKs in arrival order (see the module docstring),
        so every ordering contract (ACK after commit, journal between
        commit and ACK, quarantine with the ``seen`` reservation
        released) holds and store contents are byte-identical.

    :attr:`receipts` and :attr:`quarantine` keep the newest
    :data:`MAX_RECEIPTS` and :data:`MAX_QUARANTINE` entries; evictions
    are counted in :attr:`receipts_evicted` and
    :attr:`quarantine_evicted`.

    Thread-safety: handler threads append to :attr:`receipts`,
    :attr:`quarantine`, and :attr:`events` while the driver may read
    them; all access goes through :attr:`lock`.  Use :meth:`snapshot` for
    a consistent copy, or read after :meth:`join` returns.
    """

    def __init__(
        self,
        store: SqliteFrameStore | ShardedFrameStore,
        mode: str = "decompress",
        host: str = "127.0.0.1",
        port: int = 0,
        channel: FaultyChannel | Mapping[int, FaultyChannel] | None = None,
        max_clients: int = 8,
        receipt_journal: ReceiptJournal | str | Path | None = None,
        busy_threshold_s: float | None = None,
        decode_workers: int = 0,
        journal_rotate_bytes: int | None = None,
    ) -> None:
        if mode not in ("decompress", "store"):
            raise ValueError(f"unknown server mode {mode!r}")
        if max_clients < 1:
            raise ValueError(f"max_clients must be >= 1, got {max_clients}")
        if decode_workers < 0:
            raise ValueError(f"decode_workers must be >= 0, got {decode_workers}")
        if decode_workers and mode != "decompress":
            raise ValueError("decode_workers needs mode='decompress'")
        self.store = store
        self.mode = mode
        self.channel = channel
        self.max_clients = int(max_clients)
        self.busy_threshold_s = busy_threshold_s
        self.decode_workers = int(decode_workers)
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None
        self._stop = threading.Event()
        #: Handler-slot semaphore implementing the ``max_clients`` cap.
        self._slots = threading.Semaphore(self.max_clients)
        #: Guards all shared state below (streams, receipts, quarantine,
        #: events, connection counters) against the handler threads.
        self.lock = threading.Lock()
        self._cond = threading.Condition(self.lock)
        self._streams: dict[int | str, StreamState] = {}
        self._conns: set[socket.socket] = set()
        self._active = 0
        self._peak_active = 0
        self._ends_seen = 0
        self._closed = False
        #: Store-write latency EWMA feeding the BUSY backpressure hint.
        self._store_ewma_s = 0.0
        #: BUSY hints piggybacked on ACKs so far.
        self.busy_hints = 0
        #: Quarantine entries evicted by the ``MAX_QUARANTINE`` bound.
        self.quarantine_evicted = 0
        #: Receipts evicted by the ``MAX_RECEIPTS`` bound.
        self.receipts_evicted = 0
        #: (frame_index, payload_bytes, received_at, stored_at) per stored
        #: frame (bounded by ``MAX_RECEIPTS``, oldest evicted first).
        self.receipts: deque[tuple[int, int, float, float]] = deque(maxlen=MAX_RECEIPTS)
        #: Payloads rejected with their exception text and bytes (bounded
        #: by ``MAX_QUARANTINE``, oldest evicted first).
        self.quarantine: deque[QuarantinedFrame] = deque(maxlen=MAX_QUARANTINE)
        #: Connection-level happenings: ("accept"|"hello"|"disconnect"|
        #: "duplicate"|"resync"|"end"|"recover", detail) in serve order.
        self.events: list[tuple[str, str]] = []
        #: Connections accepted over the server's lifetime.
        self.connections = 0
        #: Durable receipt journal (None = in-memory state only).
        self.journal: ReceiptJournal | None = None
        self._journal_owned = False
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen(32)
            # Accept with a short timeout: on Linux, close()ing a listener
            # does not unblock a thread already parked in accept(), so the
            # loop must poll the stop flag to shut down promptly.
            self._listener.settimeout(0.1)
            self._address: tuple[str, int] = self._listener.getsockname()
            if receipt_journal is not None:
                if isinstance(receipt_journal, (str, Path)):
                    # Batched appends keep the journal's write(2) off the
                    # ACK hot path (one syscall per 16 receipts).  The
                    # widened kill-loss window is safe here — see _commit.
                    self.journal = ReceiptJournal(
                        receipt_journal, batch=16, rotate_bytes=journal_rotate_bytes
                    )
                    self._journal_owned = True
                else:
                    self.journal = receipt_journal
                self._recover_streams()
        except BaseException:
            # A failed constructor leaves no port bound and no journal of
            # its own open, so a retry on the same port can bind at once.
            self._listener.close()
            if self._journal_owned:
                self.journal.close()
            raise
        #: Decode offload tier: one slot per decoder worker; None in store
        #: mode or with decode_workers=0 (inline decode).
        self._decode_pool: StickyWorkerPool | None = None
        if self.mode == "decompress" and self.decode_workers > 0:
            self._decode_pool = StickyWorkerPool(
                self.decode_workers, initializer=_init_decode_worker
            )
        #: Decode-chain state of inline decode (decode_workers=0), keyed
        #: by stream: owned by this server, so two servers in one process
        #: never share a decoder.
        self._decoders: dict[int | str, tuple[int, TemporalDecoder]] = {}

    def _recover_streams(self) -> None:
        """Rebuild per-stream dedupe/END state from the receipt journal.

        Runs on construction, before the accept loop starts: a server
        restarted over the same journal answers retransmissions of
        already-stored frames with DUPLICATE instead of double-storing,
        and already-ENDed streams stay ended.
        """
        replay = self.journal.replay()
        recovered_frames = 0
        for stream_id, seen in replay.seen_by_stream().items():
            state = self._stream(stream_id)
            state.seen.update(seen)
            recovered_frames += len(seen)
        for stream_id in replay.ended:
            state = self._stream(stream_id)
            if not state.ended:
                state.ended = True
                self._ends_seen += 1
        if not self._streams and not replay.torn:
            return
        _obs.count("server.recovery.streams", len(self._streams))
        _obs.count("server.recovery.frames", recovered_frames)
        if replay.torn:
            _obs.count("server.recovery.torn_records", replay.torn)
        self.events.append(
            (
                "recover",
                f"{recovered_frames} frame(s) over {len(self._streams)} stream(s), "
                f"{self._ends_seen} ended"
                + (", torn journal tail discarded" if replay.torn else ""),
            )
        )

    @property
    def address(self) -> tuple[str, int]:
        return self._address

    @property
    def peak_active_clients(self) -> int:
        """Most connections ever served at once (≤ ``max_clients``)."""
        with self.lock:
            return self._peak_active

    @property
    def streams_ended(self) -> int:
        """Streams whose END record has arrived."""
        with self.lock:
            return self._ends_seen

    def start(self) -> "DbgcServer":
        """Begin accepting client connections in the background."""
        if self._thread is None:
            self._thread = threading.Thread(target=self._serve, daemon=True)
            self._thread.start()
        return self

    def __enter__(self) -> "DbgcServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- accept loop ---------------------------------------------------

    def _note(self, kind: str, detail: str = "") -> None:
        with self.lock:
            self.events.append((kind, detail))

    def _serve(self) -> None:
        try:
            while not self._stop.is_set():
                # The slot is taken *before* accept so a full handler pool
                # leaves new clients queued in the TCP backlog.
                if not self._slots.acquire(timeout=0.1):
                    continue
                try:
                    conn, peer = self._listener.accept()
                except socket.timeout:
                    self._slots.release()
                    continue  # re-check the stop flag
                except OSError:
                    self._slots.release()
                    break  # listener closed by close()
                with self.lock:
                    self.connections += 1
                    self._active += 1
                    self._peak_active = max(self._peak_active, self._active)
                    self._conns.add(conn)
                    number = self.connections
                _obs.count("server.clients.total")
                _obs.count("server.clients.active")
                self._note("accept", f"connection {number} from {peer[1]}")
                threading.Thread(
                    target=self._client_thread, args=(conn, number), daemon=True
                ).start()
        except BaseException as exc:  # pragma: no cover - surfaced via join()
            self._fail(exc)
        finally:
            self._listener.close()

    def _fail(self, exc: BaseException) -> None:
        """Record the first fatal error; :meth:`wait_for_streams` raises it."""
        with self._cond:
            if self._error is None:
                self._error = exc
            self._cond.notify_all()

    def _client_thread(self, conn: socket.socket, number: int) -> None:
        try:
            self._handle_connection(conn, number)
        except BaseException as exc:  # pragma: no cover - surfaced via join()
            self._fail(exc)
        finally:
            # Shut down before closing: forked decode workers may hold a
            # copy of the socket, and close() alone would not hang up.
            _shutdown(conn)
            conn.close()
            with self._cond:
                self._conns.discard(conn)
                self._active -= 1
                self._cond.notify_all()
            _obs.count("server.clients.active", -1)
            self._slots.release()

    # -- per-connection serving ----------------------------------------

    def _stream(self, stream_id: int | str) -> StreamState:
        with self.lock:
            state = self._streams.get(stream_id)
            if state is None:
                state = self._streams[stream_id] = StreamState(stream_id)
        return state

    def stream_state(self, stream_id: int | str) -> StreamState | None:
        """The named stream's state, or ``None`` if it never connected."""
        with self.lock:
            return self._streams.get(stream_id)

    def receipts_for(self, stream_id: int | str) -> list[tuple[int, int, float, float]]:
        """One stream's receipts (feed to that client's ``merge_receipts``)."""
        with self.lock:
            state = self._streams.get(stream_id)
            return list(state.receipts) if state is not None else []

    def _handle_connection(self, conn: socket.socket, number: int) -> None:
        """Serve one connection until its stream ends or the link drops.

        The handler thread validates, reserves and hands on each frame
        (:meth:`_ingest`) without waiting for it; the connection's
        completion drainer (:meth:`_drain`) commits, journals and ACKs in
        arrival order.  A shared send lock serializes the drainer's frame
        ACKs with the handler's own DUPLICATE / CRC-quarantine ACKs on the
        one socket.
        """
        stream: StreamState | None = None
        send_lock = threading.Lock()
        pipeline: queue.Queue = queue.Queue(maxsize=_MAX_HANDOFF)
        drainer = threading.Thread(
            target=self._drain, args=(conn, send_lock, pipeline), daemon=True
        )
        drainer.start()

        def settle_all() -> None:
            # Settle every frame handed over so far, then park the
            # drainer.  Called before the END ACK so end-of-stream is
            # still the last thing the client hears, and on any exit so
            # no pending commit is orphaned by a disconnect.
            if drainer.is_alive():
                pipeline.put(None)
                drainer.join()

        try:
            while not self._stop.is_set():
                try:
                    record = read_record(conn)
                except CorruptPayloadError as exc:
                    received_at = time.perf_counter()
                    if stream is None:
                        stream = self._stream(f"conn-{number}")
                    self._quarantine(
                        stream, exc.frame_index, exc.payload, exc, received_at
                    )
                    self._ack(conn, send_lock, stream, exc.frame_index, ACK_QUARANTINED)
                    continue
                except (ConnectionError, TimeoutError, ProtocolError, OSError) as exc:
                    self._note("disconnect", repr(exc))
                    return
                if record.resync_skipped:
                    self._note(
                        "resync", f"skipped {record.resync_skipped} garbage bytes"
                    )
                if record.type == TYPE_HELLO:
                    stream = self._stream(record.frame_index)
                    if record.flags:
                        # v2.2: the flags byte advertises the client's
                        # sliding window (caps the BUSY-hint threshold).
                        with self.lock:
                            stream.window = record.flags
                    self._note(
                        "hello",
                        f"stream {record.frame_index} on connection {number}"
                        + (f" (window {record.flags})" if record.flags else ""),
                    )
                    continue
                if stream is None:
                    # v2.0 compatibility: frames without a HELLO get a stream
                    # scoped to this connection (no dedupe across reconnects).
                    stream = self._stream(f"conn-{number}")
                if record.type == TYPE_END:
                    settle_all()
                    first_end = False
                    with self._cond:
                        if not stream.ended:
                            stream.ended = True
                            self._ends_seen += 1
                            first_end = True
                        self._cond.notify_all()
                    self._note("end", f"stream {stream.stream_id}")
                    if first_end:
                        _obs.count("server.streams.ended")
                    if first_end and self.journal is not None:
                        # Before the ACK (write-ahead ordering); a lost
                        # append only means the client re-ENDs after a
                        # restart, which is idempotent.
                        self.journal.append_end(stream.stream_id)
                    self._ack(conn, send_lock, stream, END_ACK_INDEX, ACK_STORED)
                    return
                if record.type == TYPE_FRAME:
                    self._ingest(
                        conn, send_lock, pipeline, stream,
                        record.frame_index, record.payload, record.payload_crc,
                    )
                # Anything else (stray ACK echoes) is ignored.
        finally:
            settle_all()

    def _ingest(
        self,
        conn: socket.socket,
        send_lock: threading.Lock,
        pipeline: queue.Queue,
        stream: StreamState,
        frame_index: int,
        payload: bytes,
        payload_crc: int,
    ) -> None:
        """Reserve one frame and hand it to the drainer as a future — no wait.

        The index is reserved in ``seen`` before the frame is decoded or
        stored, so a retransmission — on another connection *or*
        arriving behind it in this connection's pipeline — is answered
        DUPLICATE here.  ``store`` mode hands over a resolved future that
        carries no cloud.  In ``decompress`` mode the frame joins a
        decode chain: every keyframe (intra container) starts a new
        ``(stream_id, chain_no)`` chain, while delta frames (container
        v3) stay on the current one.  A payload that doesn't sniff as any
        container stays on the current chain too: it will fail decode
        *there*, leaving that chain's decoder state as it was.  With a
        decode pool a new chain takes the pool's next slot, which the
        stream keeps for the chain's frames — one pipelining client
        saturates many workers without ever decoding a delta out of
        order; with ``decode_workers=0`` the handler thread decodes the
        frame itself.
        """
        received_at = submitted_at = time.perf_counter()
        _obs.count("server.ingress")
        _obs.add_bytes("server.ingress", len(payload))
        with self.lock:
            duplicate = frame_index in stream.seen
            stream.seen.add(frame_index)
        if duplicate:
            # Retransmission of a frame that already made it: idempotent.
            self._note("duplicate", f"frame {frame_index}")
            _obs.count("server.duplicates")
            self._ack(conn, send_lock, stream, frame_index, ACK_DUPLICATE)
            return
        pool = self._decode_pool
        if self.mode == "store":
            future = _resolved(None)
        else:
            # Under the stream's decode lock: a slot's queue is FIFO, so
            # "submitted in arrival order" becomes "decoded in arrival
            # order" even when a reconnect races the old connection's
            # handler.
            with stream.decode_lock:
                try:
                    delta = container_version(payload) == 3
                except Exception:
                    delta = True  # undecodable: keep it inside the current chain
                fresh = (not delta) or stream.chain_no < 0
                if fresh:
                    stream.chain_no += 1
                    if pool is not None:
                        stream.slot = pool.next_slot()
                chain = (stream.stream_id, stream.chain_no)
                slot = stream.slot
                submitted_at = time.perf_counter()
                if pool is None:
                    future = _resolved(_decode_frame(*chain, fresh, payload, self._decoders))
                else:
                    depth = pool.depth()
                    future = pool.submit(slot, _decode_frame, *chain, fresh, payload)
            if pool is not None:
                _obs.observe("server.decode.queue_depth", depth)
                _obs.count(f"server.decode.worker.{slot}")
        with self.lock:
            stream.pending += 1
        pipeline.put(
            _PendingFrame(
                stream, frame_index, payload, payload_crc, received_at,
                submitted_at, future,
            )
        )

    def _drain(
        self, conn: socket.socket, send_lock: threading.Lock, pipeline: queue.Queue
    ) -> None:
        """Per-connection completion drainer: settle frames in arrival order.

        Runs on its own thread; consumes :class:`_PendingFrame` entries
        in arrival order (per chain that equals decode-completion order —
        the pool's slots are FIFO) until the ``None`` sentinel.  An
        exception escaping a commit (a failing journal, a broken decode
        pool) is fatal to the connection: it is recorded for
        :meth:`wait_for_streams`, and that frame and every frame queued
        behind it are released unACKed — reservation and pending count —
        so the client's retransmissions of them store instead of being
        answered DUPLICATE.  (A frame that failed after its store write
        is re-written idempotently: same index, same payload.)
        """
        failed = False
        while True:
            entry = pipeline.get()
            if entry is None:
                return
            if not failed:
                _obs.observe("server.ack_queue_depth", pipeline.qsize())
                try:
                    self._commit(conn, send_lock, entry)
                except Exception as exc:
                    failed = True
                    self._fail(exc)
                    # End the handler's reads only: the client hears the
                    # hang-up when the handler closes the socket, after
                    # every frame it handed over has been released here.
                    _shutdown(conn, socket.SHUT_RD)
            with self.lock:
                if failed:
                    entry.stream.seen.discard(entry.frame_index)
                entry.stream.pending -= 1

    def _commit(
        self, conn: socket.socket, send_lock: threading.Lock, entry: _PendingFrame
    ) -> None:
        """Store-commit, receipt, journal, ACK — in exactly that order.

        Waits for the frame's future first.  A frame that failed to
        decode, or that the store refused, is quarantined instead.
        """
        stream, frame_index, payload = entry.stream, entry.frame_index, entry.payload
        try:
            result = entry.future.result()
        except CancelledError:
            # kill() cancelled the queued work mid-flight; surface it
            # through the ordinary quarantine path (the ACK goes to a
            # torn-down socket and is swallowed there).
            result = ("err", "decode cancelled by server shutdown")
        try:
            cloud = None
            if result is not None:
                if result[0] != "ok":
                    raise RemoteDecodeError(result[1])
                _obs.observe("server.decode_s", time.perf_counter() - entry.submitted_at)
                cloud = PointCloud._adopt(unpack_array(result[1], result[2]))
            self._write(frame_index, payload, cloud)
        except Exception as exc:
            # Undecodable despite an intact CRC, or refused by the store:
            # quarantine, keep serving — and release the dedupe
            # reservation so a later (possibly healthy) retransmission is
            # re-tried.
            with self.lock:
                stream.seen.discard(frame_index)
            self._quarantine(stream, frame_index, payload, exc, entry.received_at)
            self._ack(conn, send_lock, stream, frame_index, ACK_QUARANTINED)
            return
        receipt = (frame_index, len(payload), entry.received_at, time.perf_counter())
        with self.lock:
            evicted = len(self.receipts) == self.receipts.maxlen
            self.receipts.append(receipt)
            stream.receipts.append(receipt)
            self.receipts_evicted += evicted
        if evicted:
            _obs.count("server.receipts.evicted")
        _obs.count("server.stored")
        if self.journal is not None:
            # Journal between the store commit and the ACK — textbook
            # write-ahead ordering: any frame the client saw STORED has a
            # receipt at least accepted by the journal.  Batched appends
            # keep this off the syscall path (~one write per 16 frames),
            # and doing it *before* the ACK runs it while the client is
            # still blocked awaiting the ACK, so it never preempts the
            # client's next send.  A kill can still drop up to one
            # batch of un-drained receipts; that loses nothing the
            # client can observe — a retransmission of such a frame is
            # re-committed idempotently (same index, same payload)
            # instead of being answered DUPLICATE.
            self.journal.append_frame(stream.stream_id, frame_index, entry.payload_crc)
        self._ack(conn, send_lock, stream, frame_index, ACK_STORED)

    def _write(self, frame_index: int, payload: bytes, cloud: PointCloud | None) -> None:
        """One store write (the cloud, else the payload), timed for the BUSY hint."""
        write_started = time.perf_counter()
        try:
            if cloud is not None:
                self.store.put_cloud(frame_index, cloud)
            else:
                self.store.put_payload(frame_index, payload)
        finally:
            elapsed = time.perf_counter() - write_started
            with self.lock:
                self._store_ewma_s = (
                    elapsed
                    if self._store_ewma_s == 0.0
                    else (1.0 - _STORE_EWMA_ALPHA) * self._store_ewma_s
                    + _STORE_EWMA_ALPHA * elapsed
                )
            _obs.observe("server.store_write_s", elapsed)

    def _quarantine(
        self,
        stream: StreamState,
        frame_index: int,
        payload: bytes,
        exc: BaseException,
        received_at: float,
    ) -> None:
        with self.lock:
            # Bounded forensics: a hostile client spraying garbage cannot
            # grow server memory without limit (the deque drops the oldest).
            evicted = len(self.quarantine) == self.quarantine.maxlen
            self.quarantine.append(
                QuarantinedFrame(
                    frame_index, payload, repr(exc), received_at, stream.stream_id
                )
            )
            self.quarantine_evicted += evicted
        _obs.count("server.quarantined")
        if evicted:
            _obs.count("server.quarantine.evicted")

    def _channel_for(self, stream_id: int | str) -> FaultyChannel | None:
        channel = self.channel
        if channel is None or isinstance(channel, FaultyChannel):
            return channel
        return channel.get(stream_id)

    def _busy_now(self, stream: StreamState) -> bool:
        """Is the server falling behind?  (Feeds the ACK BUSY hint.)

        Trips when ``stream`` holds more frames handed to its drainer but
        not yet settled than its advertised window — the per-stream
        congestion signal the client's AIMD halves on — and, with
        ``busy_threshold_s`` set, when the store-latency EWMA exceeds it.
        """
        cap = stream.window or _DEFAULT_STREAM_INFLIGHT
        with self.lock:
            return stream.pending > cap or (
                self.busy_threshold_s is not None
                and self._store_ewma_s > self.busy_threshold_s
            )

    def _ack(
        self,
        conn: socket.socket,
        send_lock: threading.Lock,
        stream: StreamState,
        frame_index: int,
        status: int,
    ) -> None:
        channel = self._channel_for(stream.stream_id)
        if channel is not None:
            with self.lock:
                ordinal = stream.ack_counts.get(frame_index, 0)
                stream.ack_counts[frame_index] = ordinal + 1
            if channel.drop_ack(frame_index, ordinal):
                return  # injected ACK loss; the client will retransmit
        flags = status
        if self._busy_now(stream):
            flags |= ACK_FLAG_BUSY
            with self.lock:
                self.busy_hints += 1
            _obs.count("server.busy_hints")
        data = encode_record(TYPE_ACK, frame_index, flags=flags)
        try:
            # The drainer and the handler share one socket: the send lock
            # keeps their ACK records from interleaving.
            with send_lock:
                conn.sendall(data)
        except OSError:
            pass  # client already gone; it will retransmit on reconnect

    # -- driver-side API ----------------------------------------------

    def snapshot(self) -> tuple[list, list, list]:
        """A consistent (receipts, quarantine, events) copy under the lock."""
        with self.lock:
            return list(self.receipts), list(self.quarantine), list(self.events)

    def wait_for_streams(self, n_streams: int, timeout: float = 30.0) -> None:
        """Block until ``n_streams`` streams have ENDed and no client is active.

        Raises any fatal server error, or :class:`TimeoutError` if the
        condition is not reached in time.  The accept loop keeps running —
        shutdown stays explicit via :meth:`close`.
        """
        with self._cond:
            done = self._cond.wait_for(
                lambda: self._error is not None
                or (self._ends_seen >= n_streams and self._active == 0),
                timeout,
            )
            error = self._error
        if error is not None:
            raise error
        if not done:
            raise TimeoutError(
                f"{n_streams} stream(s) did not end within {timeout:.0f}s"
            )

    def join(self, timeout: float = 30.0) -> None:
        """Wait until at least one stream ended and the server is idle."""
        self.wait_for_streams(1, timeout)

    def kill(self) -> None:
        """SIGKILL-equivalent stop: drop everything on the floor, now.

        Unlike :meth:`close` this neither drains handler threads nor
        waits for in-flight writes — connections are torn down and the
        method returns immediately, modelling a process kill for the
        restart drill.  In-memory state (dedupe sets, receipts) is
        abandoned; only what reached the store and the receipt journal
        survives.  A drainer mid-``put`` may still complete its
        (idempotent, index-keyed) store write and journal append after
        this returns — exactly the torn timeline a real crash leaves.
        """
        self._stop.set()
        self._listener.close()
        with self.lock:
            self._closed = True  # later close() is a no-op
            conns = list(self._conns)
        for conn in conns:
            _shutdown(conn)
            conn.close()
        if self._decode_pool is not None:
            # No draining: queued decodes are cancelled (their drainers
            # quarantine into the dead server object) and the workers are
            # told to exit without being joined — kill() must not block.
            self._decode_pool.shutdown(wait=False, cancel_futures=True)
        _obs.count("server.killed")

    def close(self) -> None:
        """Stop serving: unblock the accept/recv loops and join the threads.

        Idempotent — a second call (or a call after :meth:`kill`)
        returns immediately.
        """
        with self.lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        self._listener.close()
        with self.lock:
            conns = list(self._conns)
        for conn in conns:
            _shutdown(conn)
            conn.close()
        if self._thread is not None:
            self._thread.join(5.0)
        with self._cond:
            self._cond.wait_for(lambda: self._active == 0, timeout=5.0)
        if self._decode_pool is not None:
            # Handlers have drained, so no decode is in flight by now.
            self._decode_pool.shutdown(wait=True)
        if self._journal_owned and self.journal is not None:
            self.journal.close()
