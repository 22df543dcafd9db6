"""The DBGC client: acquire, compress, ship over an *unreliable* uplink.

Wraps a :class:`~repro.core.pipeline.DBGCCompressor` behind a TCP sender
whose pacing emulates the mobile uplink (paper Figure 2, client side) and
whose delivery survives it:

- frames go through a **bounded send queue** drained by a sender thread,
  with a configurable overflow policy for when the link cannot sustain
  the sensor's frame rate (``"block"``, ``"drop-oldest"``, or
  ``"coarsen"`` — recompress at a larger ``q_xyz``, the paper's
  ``supports()`` criterion applied online);
- each frame is a protocol-v2 record (CRC-protected, typed — see
  :mod:`repro.system.protocol`) and must be acknowledged within
  ``ack_timeout``; on timeout or disconnect the client **reconnects with
  capped exponential backoff plus jitter and retransmits** — the server
  dedupes by frame index, so retries are idempotent;
- with ``window > 1`` the sender is a **selective-repeat sliding
  window** (protocol v2.2): up to ``window`` unACKed frames ride the
  link at once, ACKs are matched out of order against an in-flight
  table, each frame carries its own retransmit deadline, and the
  effective window adapts AIMD-style — halved when the server sets
  ``ACK_FLAG_BUSY``, grown by one per clean ACK — so server
  backpressure becomes congestion control instead of a blanket pause;
- every retry, drop, quarantine, and degradation lands in the
  :class:`~repro.system.metrics.PipelineReport` for accounting.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from random import Random

from repro.core.params import DBGCParams
from repro.core.pipeline import DBGCCompressor
from repro.observability import recorder as _obs
from repro.datasets.sensors import SensorModel
from repro.geometry.points import PointCloud
from repro.system.channel import BandwidthShaper
from repro.system.faults import FaultPlan, FaultyChannel
from repro.system.metrics import FrameTrace, PipelineReport
from repro.system.protocol import (
    ACK_FLAG_BUSY,
    ACK_QUARANTINED,
    ACK_STATUS_MASK,
    END_ACK_INDEX,
    PAYLOAD_OFFSET,
    TYPE_ACK,
    TYPE_END,
    TYPE_FRAME,
    TYPE_HELLO,
    FLAG_DEGRADED,
    Record,
    encode_record,
    read_record,
)

__all__ = ["DbgcClient", "OVERFLOW_POLICIES"]

#: Send-queue overflow policies (engaged when the uplink falls behind).
OVERFLOW_POLICIES = ("block", "drop-oldest", "coarsen")

#: Error-bound multiplier of the ``"coarsen"`` policy's recompression.
COARSEN_FACTOR = 4.0

#: How long a server BUSY hint holds: the link counts as congested for
#: the ``"coarsen"`` policy's ``supports()`` check until it expires, and
#: a sender at the window floor of 1 pauses this long before transmitting.
BUSY_BACKOFF_S = 0.05

#: Seconds a TCP connect may take.
CONNECT_TIMEOUT_S = 10.0

#: Ceiling of one reconnect backoff sleep, before jitter.
BACKOFF_CAP_S = 2.0

_CLOSE = object()  # queue sentinel: flush and send END


@dataclass
class _QueuedFrame:
    trace: FrameTrace
    payload: bytes
    flags: int = 0


@dataclass
class _InFlight:
    """One unACKed frame in the sliding window."""

    item: _QueuedFrame
    record: bytes = field(repr=False)
    attempt: int = 0  # transmissions performed so far
    sent_at: float = 0.0  # when the latest transmission hit the wire
    deadline: float = 0.0  # retransmit if no ACK by this time
    acks_at_send: int = 0  # link-liveness snapshot at the latest send


class _SendQueue:
    """A bounded FIFO with pluggable overflow behavior."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: deque = deque()
        self._cond = threading.Condition()

    def full(self) -> bool:
        with self._cond:
            return len(self._items) >= self.capacity

    def put_block(self, item) -> None:
        """Append, waiting for space (backpressure onto the producer)."""
        with self._cond:
            while len(self._items) >= self.capacity:
                self._cond.wait()
            self._items.append(item)
            self._cond.notify_all()

    def put_drop_oldest(self, item) -> "_QueuedFrame | None":
        """Append, evicting and returning the oldest entry when full."""
        with self._cond:
            evicted = None
            if len(self._items) >= self.capacity:
                evicted = self._items.popleft()
            self._items.append(item)
            self._cond.notify_all()
            return evicted

    def put_priority(self, item) -> None:
        """Append regardless of capacity (for the close sentinel)."""
        with self._cond:
            self._items.append(item)
            self._cond.notify_all()

    def get(self):
        """Pop the oldest entry, blocking until one exists."""
        with self._cond:
            while not self._items:
                self._cond.wait()
            item = self._items.popleft()
            self._cond.notify_all()
            return item

    def get_nowait(self):
        """Pop the oldest entry, or ``None`` when the queue is empty."""
        with self._cond:
            if not self._items:
                return None
            item = self._items.popleft()
            self._cond.notify_all()
            return item


class DbgcClient:
    """Compress frames and deliver them to a :class:`DbgcServer`, reliably.

    Parameters
    ----------
    address:
        Server ``(host, port)``.
    params, sensor:
        Compression configuration.  The sensor also provides the frame
        rate used by the ``"coarsen"`` policy's ``supports()`` check.
    channel:
        Optional uplink shaper (sends are paced to its bandwidth) or a
        :class:`~repro.system.faults.FaultyChannel` for deterministic
        fault injection.  A shaper's ``latency_s`` is applied as a
        simulated one-way delay on ACK delivery (round trip = twice the
        latency), so the bandwidth×delay product is visible on loopback.
    queue_capacity, overflow_policy:
        Bounded send-queue size and what to do when it overflows:
        ``"block"`` the producer, ``"drop-oldest"`` (evict the stalest
        queued frame), or ``"coarsen"`` (recompress the incoming frame at
        ``COARSEN_FACTOR * q_xyz`` when the link is congested, blocking
        only if it still does not fit).
    max_retries:
        Retransmissions allowed per frame after the first attempt; a
        frame whose retries are exhausted is recorded as dropped.  Also
        the retries of every connect, the initial one included:
        ``__init__`` either returns a fully working client or raises with
        every socket closed — never a half-built object.
    ack_timeout:
        Seconds to wait for a server ACK.  The wait is an overall
        per-frame deadline: stale or out-of-order records shrink the
        remaining wait instead of resetting it.  A TCP connect waits
        :data:`CONNECT_TIMEOUT_S`.
    backoff_base:
        Reconnect backoff: attempt *i* sleeps
        ``min(BACKOFF_CAP_S, base * 2**i) * uniform(0.5, 1.0)``.
    retry_seed:
        Seed of the backoff-jitter RNG (deterministic tests).
    stream_id:
        This client's stream identity, announced in a HELLO record on
        every connection (initial and reconnects).  The server keys all
        per-stream state — dedupe, ACK ordinals, receipts — by it, so
        give each client of a fleet its own id.
    window:
        Maximum unACKed frames in flight (selective repeat, protocol
        v2.2).  ``1`` (default) is the classic stop-and-wait behavior.
        The value is advertised to the server in the HELLO record's
        flags byte (capped at 255), and the *effective* window adapts
        between 1 and ``window`` via AIMD on server BUSY hints.

    A server BUSY hint (the backpressure bit an overloaded server sets
    on its ACKs) holds for :data:`BUSY_BACKOFF_S`: the link counts as
    congested for the ``"coarsen"`` policy until it expires.  Each hint
    halves the AIMD congestion window; once the effective window is at
    its floor of 1 — always, at ``window=1`` — the sender also pauses
    that long before the next transmit, since there is nothing left to
    halve.
    """

    def __init__(
        self,
        address: tuple[str, int],
        params: DBGCParams | None = None,
        sensor: SensorModel | None = None,
        channel: BandwidthShaper | FaultyChannel | None = None,
        queue_capacity: int = 8,
        overflow_policy: str = "block",
        max_retries: int = 5,
        ack_timeout: float = 10.0,
        backoff_base: float = 0.05,
        retry_seed: int = 0,
        stream_id: int = 0,
        window: int = 1,
    ) -> None:
        if overflow_policy not in OVERFLOW_POLICIES:
            raise ValueError(
                f"unknown overflow policy {overflow_policy!r}; "
                f"choose from {OVERFLOW_POLICIES}"
            )
        if not 0 <= stream_id <= 0xFFFFFFFF:
            raise ValueError(f"stream id {stream_id} out of u32 range")
        if not 1 <= int(window) <= 255:
            raise ValueError(f"window must be in [1, 255], got {window}")
        # Build every resource-free attribute first: if the connect below
        # fails, __init__ raises without leaking a socket or a thread.
        self.address = address
        self.params = params if params is not None else DBGCParams()
        self.sensor = sensor
        self.compressor = DBGCCompressor(params, sensor=sensor)
        self.channel = channel
        self.overflow_policy = overflow_policy
        self.max_retries = int(max_retries)
        self.ack_timeout = float(ack_timeout)
        self.backoff_base = float(backoff_base)
        self.stream_id = int(stream_id)
        self.window = int(window)
        #: Monotonic deadline until which the server's BUSY hint holds.
        self._busy_until = 0.0
        #: AIMD congestion window in [1, window], float so halving decays.
        self._cwnd = float(self.window)
        #: UnACKed frames keyed by frame index (insertion order = oldest first).
        self._inflight: dict[int, _InFlight] = {}
        #: Total ACK records that have arrived (link-liveness signal).
        self._acks_seen = 0
        #: Simulated one-way latency, applied on the ACK path as an RTT.
        self._ack_delay_s = 2.0 * getattr(channel, "latency_s", 0.0)
        #: ACKs waiting out the simulated RTT: (deliver_at, record).
        self._delayed_acks: deque[tuple[float, Record]] = deque()
        self.report = PipelineReport()
        self.transport_error: BaseException | None = None
        self._rng = Random(retry_seed)
        self._lock = threading.Lock()  # guards traces + report.events
        self._queue = _SendQueue(queue_capacity)
        self._coarse_compressor: DBGCCompressor | None = None
        self._closed = False
        self._sock: socket.socket | None = None
        self._sender: threading.Thread | None = None
        self._sock = self._connect(first_immediate=True)
        try:
            self._hello()
        except OSError as exc:
            self._sock.close()
            self._sock = None
            raise ConnectionError(
                f"could not announce stream {self.stream_id} to {address}"
            ) from exc
        self._sender = threading.Thread(target=self._sender_loop, daemon=True)
        self._sender.start()

    def __enter__(self) -> "DbgcClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- producer side -------------------------------------------------

    @property
    def _frame_rate(self) -> float | None:
        return None if self.sensor is None else self.sensor.frames_per_second

    def send_frame(self, frame_index: int, cloud: PointCloud) -> FrameTrace:
        """Compress one frame and enqueue it for delivery.

        Returns the frame's trace immediately; ``sent_at``/``attempts``/
        ``status`` are filled in by the sender thread, and
        ``received_at``/``stored_at`` merge from the server's receipts
        after :meth:`close` (see :meth:`merge_receipts`).
        """
        captured_at = time.perf_counter()
        payload = self.compressor.compress(cloud)
        compressed_at = time.perf_counter()
        trace = FrameTrace(
            frame_index=frame_index,
            n_points=len(cloud),
            payload_bytes=len(payload),
            captured_at=captured_at,
            compressed_at=compressed_at,
            status="pending",
        )
        with self._lock:
            self.report.add(trace)
        self._enqueue(_QueuedFrame(trace, payload), cloud)
        return trace

    def send_payload(self, frame_index: int, payload: bytes) -> FrameTrace:
        """Enqueue a pre-compressed payload (sensor-side re-shipping)."""
        now = time.perf_counter()
        trace = FrameTrace(
            frame_index=frame_index,
            n_points=0,
            payload_bytes=len(payload),
            captured_at=now,
            compressed_at=now,
            status="pending",
        )
        with self._lock:
            self.report.add(trace)
        self._enqueue(_QueuedFrame(trace, payload), cloud=None)
        return trace

    def _enqueue(self, item: _QueuedFrame, cloud: PointCloud | None) -> None:
        if self._closed:
            raise RuntimeError("client is closed")
        if self.overflow_policy == "coarsen" and cloud is not None:
            item = self._maybe_coarsen(item, cloud)
            self._queue.put_block(item)
        elif self.overflow_policy == "drop-oldest":
            evicted = self._queue.put_drop_oldest(item)
            if evicted is not None:
                with self._lock:
                    evicted.trace.status = "dropped"
                    self.report.record(
                        "drop", evicted.trace.frame_index, detail="evicted: queue full"
                    )
        else:
            self._queue.put_block(item)

    def _congested(self, payload_bytes: int) -> bool:
        """Is the link falling behind? (paper's ``supports()`` criterion)"""
        if self._queue.full():
            return True
        if time.perf_counter() < self._busy_until:
            return True  # server said BUSY: treat the link as congested
        rate = self._frame_rate
        if rate is not None and self.channel is not None:
            return not self.channel.supports(payload_bytes, rate)
        return False

    def _maybe_coarsen(self, item: _QueuedFrame, cloud: PointCloud) -> _QueuedFrame:
        if not self._congested(len(item.payload)):
            return item
        if self._coarse_compressor is None:
            coarse = replace(self.params, q_xyz=self.params.q_xyz * COARSEN_FACTOR)
            self._coarse_compressor = DBGCCompressor(coarse, sensor=self.sensor)
        payload = self._coarse_compressor.compress(cloud)
        trace = item.trace
        with self._lock:
            trace.degraded = True
            trace.compressed_at = time.perf_counter()
            self.report.record(
                "degrade",
                trace.frame_index,
                detail=(
                    f"q_xyz x{COARSEN_FACTOR:g}: "
                    f"{trace.payload_bytes} -> {len(payload)} bytes"
                ),
            )
            trace.payload_bytes = len(payload)
        return _QueuedFrame(trace, payload, flags=FLAG_DEGRADED)

    # -- sender thread ------------------------------------------------

    def _window_now(self) -> int:
        """The effective (AIMD-adapted) window, clamped to [1, window]."""
        return max(1, min(self.window, int(self._cwnd)))

    def _sender_loop(self) -> None:
        """Selective-repeat sliding window over the frame queue.

        At ``window=1`` this degenerates exactly to stop-and-wait: one
        launch, then a blocking ACK wait whose expiry reconnects and
        retransmits — the pre-v2.2 behavior, event for event.
        """
        closing = False
        while True:
            # Refill the window from the send queue.
            while not closing and len(self._inflight) < self._window_now():
                item = self._queue.get() if not self._inflight else self._queue.get_nowait()
                if item is None:
                    break
                if item is _CLOSE:
                    closing = True
                    break
                if self._window_now() == 1:
                    pause = self._busy_until - time.perf_counter()
                    if pause > 0:
                        # Server backpressure: slow down before transmit.
                        time.sleep(min(pause, BUSY_BACKOFF_S))
                try:
                    self._launch(item)
                except BaseException as exc:
                    self._transport_dead(exc)
            if not self._inflight:
                if closing:
                    self._send_end()
                    return
                continue  # idle: go back to blocking on the queue
            try:
                self._pump_acks()
            except BaseException as exc:
                self._transport_dead(exc)

    def _launch(self, item: _QueuedFrame) -> None:
        """Enter a fresh frame into the in-flight table and send it."""
        trace = item.trace
        record = encode_record(
            TYPE_FRAME, trace.frame_index, item.payload, flags=item.flags
        )
        entry = _InFlight(item=item, record=record)
        self._inflight[trace.frame_index] = entry
        self._transmit_or_recover(entry)

    def _transmit_or_recover(self, entry: _InFlight) -> None:
        """One transmission; on a link error, reconnect and resend all."""
        try:
            self._send_attempt(entry)
        except (ConnectionError, TimeoutError, OSError) as exc:
            with self._lock:
                self.report.record(
                    "retry", entry.item.trace.frame_index, entry.attempt - 1,
                    detail=repr(exc),
                )
            self._recover_link()

    def _send_attempt(self, entry: _InFlight) -> None:
        """Transmit one attempt of one frame (no ACK wait)."""
        trace = entry.item.trace
        attempt = entry.attempt
        with self._lock:
            trace.attempts = attempt + 1
            if trace.sent_at == 0.0:
                trace.sent_at = time.perf_counter()
        faulty = self.channel if isinstance(self.channel, FaultyChannel) else None
        plan = (
            faulty.plan(trace.frame_index, attempt, len(entry.record))
            if faulty is not None
            else None
        )
        entry.attempt = attempt + 1
        entry.acks_at_send = self._acks_seen
        self._send_record(entry.record, plan)
        now = time.perf_counter()
        entry.sent_at = now
        entry.deadline = now + self.ack_timeout

    def _send_record(self, record: bytes, plan: FaultPlan | None) -> None:
        assert self._sock is not None
        data = record
        if plan is not None and plan.flip_bits:
            wire = bytearray(data)
            for bit in plan.flip_bits:
                pos = PAYLOAD_OFFSET + bit // 8
                if pos < len(wire) - 4:  # keep the trailing CRC intact
                    wire[pos] ^= 1 << (bit % 8)
            data = bytes(wire)
        started = time.perf_counter()
        scale = plan.jitter_factor if plan is not None else 1.0
        if self.channel is not None:
            self.channel.pace(len(data), started, scale=scale)
        if plan is not None and plan.cut_after is not None:
            self._sock.sendall(data[: plan.cut_after])
            # Simulate the link dying mid-record.
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
            raise ConnectionError(
                f"fault injection: link died after {plan.cut_after} bytes"
            )
        self._sock.sendall(data)

    # -- ACK pump ------------------------------------------------------

    def _read_deadline(self, deadline: float) -> Record:
        """Read one record with the socket timeout set to what remains.

        The single socket-deadline helper shared by the in-flight ACK
        reader and the END handshake: every read gets the *shrinking*
        remainder of an overall deadline, so a trickle of stale records
        can never extend the total wait.
        """
        assert self._sock is not None
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise TimeoutError(f"deadline expired {-remaining:.3f}s ago")
        self._sock.settimeout(remaining)
        return read_record(self._sock)

    def _pump_acks(self) -> None:
        """Wait for the next ACK or frame deadline, then settle the table."""
        deadline = min(e.deadline for e in self._inflight.values())
        if self._delayed_acks:
            deadline = min(deadline, self._delayed_acks[0][0])
        try:
            record = self._read_deadline(deadline)
        except TimeoutError:
            pass  # fall through to delayed-ACK delivery and expiry
        except (ConnectionError, OSError) as exc:
            index, entry = next(iter(self._inflight.items()))
            with self._lock:
                self.report.record("retry", index, entry.attempt - 1, detail=repr(exc))
            self._recover_link()
            return
        else:
            if record.type == TYPE_ACK:
                self._acks_seen += 1  # any ACK arrival proves the link lives
                if self._ack_delay_s > 0.0:
                    self._delayed_acks.append(
                        (time.perf_counter() + self._ack_delay_s, record)
                    )
                else:
                    self._deliver_ack(record)
        while self._delayed_acks and self._delayed_acks[0][0] <= time.perf_counter():
            self._deliver_ack(self._delayed_acks.popleft()[1])
        self._expire_frames()

    def _deliver_ack(self, record: Record) -> None:
        """Match one ACK against the in-flight table (out-of-order OK)."""
        entry = self._inflight.pop(record.frame_index, None)
        busy = bool(record.flags & ACK_FLAG_BUSY)
        if busy:
            self._note_busy()
        if entry is None:
            return  # stale ACK for an attempt already resolved
        if busy:
            self._cwnd = max(1.0, self._cwnd / 2.0)
        else:
            self._cwnd = min(float(self.window), self._cwnd + 1.0)
        trace = entry.item.trace
        latency = time.perf_counter() - entry.sent_at
        _obs.observe("transport.ack_latency_s", latency)
        status = record.flags & ACK_STATUS_MASK
        with self._lock:
            self.report.ack_latencies.append(latency)
            if status == ACK_QUARANTINED:
                trace.status = "quarantined"
                self.report.record(
                    "quarantine", trace.frame_index, entry.attempt - 1,
                    detail="server rejected payload",
                )
            else:
                trace.status = "stored"  # fresh store or deduped retransmit
        if status != ACK_QUARANTINED:
            _obs.count("transport.stored")
            _obs.add_bytes("transport.sent", len(entry.item.payload))

    def _expire_frames(self) -> None:
        """Retransmit (or give up on) every frame past its ACK deadline."""
        now = time.perf_counter()
        for index in list(self._inflight):
            entry = self._inflight.get(index)
            if entry is None or entry.deadline > now:
                continue
            with self._lock:
                self.report.record(
                    "retry", index, entry.attempt - 1,
                    detail=f"no ACK within {self.ack_timeout:g}s",
                )
            if entry.attempt > self.max_retries:
                self._drop(entry)
                continue
            if self._acks_seen == entry.acks_at_send:
                # Nothing heard since this frame last hit the wire: the
                # link itself is suspect — reconnect, resend everything.
                self._recover_link()
                return
            # ACKs are flowing for other frames: selective repeat.
            self._transmit_or_recover(entry)

    def _recover_link(self) -> None:
        """Reconnect and retransmit every unACKed frame, oldest first.

        Frames that exhaust their retry budget along the way are dropped;
        a send failure mid-replay reconnects again and resumes.  Raises
        ``ConnectionError`` only when the link is beyond repair.
        """
        while True:
            self._reconnect()
            failed = False
            for index in list(self._inflight):
                entry = self._inflight.get(index)
                if entry is None:
                    continue
                if entry.attempt > self.max_retries:
                    self._drop(entry)
                    continue
                try:
                    self._send_attempt(entry)
                except (ConnectionError, TimeoutError, OSError) as exc:
                    with self._lock:
                        self.report.record(
                            "retry", index, entry.attempt - 1, detail=repr(exc)
                        )
                    failed = True
                    break
            if not failed:
                return

    def _drop(self, entry: _InFlight) -> None:
        """Give up on a frame whose retry budget is exhausted."""
        trace = entry.item.trace
        with self._lock:
            trace.status = "dropped"
            self.report.record(
                "drop", trace.frame_index, self.max_retries,
                detail=f"gave up after {self.max_retries + 1} attempts",
            )
        self._inflight.pop(trace.frame_index, None)

    def _transport_dead(self, exc: BaseException) -> None:
        """The link is beyond repair: account every in-flight frame."""
        self.transport_error = exc
        with self._lock:
            for entry in self._inflight.values():
                entry.item.trace.status = "dropped"
                self.report.record(
                    "drop", entry.item.trace.frame_index,
                    detail=f"transport dead: {exc!r}",
                )
        self._inflight.clear()
        self._delayed_acks.clear()

    def _note_busy(self) -> None:
        """Honor a server BUSY hint: mark congestion (and pause at the window floor)."""
        self._busy_until = time.perf_counter() + BUSY_BACKOFF_S
        with self._lock:
            self.report.busy_hints += 1
        _obs.count("transport.busy_hints")

    def _connect(self, first_immediate: bool = False) -> socket.socket:
        last: BaseException | None = None
        for attempt in range(self.max_retries + 1):
            if attempt > 0 or not first_immediate:
                delay = min(BACKOFF_CAP_S, self.backoff_base * (2 ** max(0, attempt - 1)))
                time.sleep(delay * (0.5 + 0.5 * self._rng.random()))
            try:
                return socket.create_connection(self.address, timeout=CONNECT_TIMEOUT_S)
            except OSError as exc:
                last = exc
        raise ConnectionError(
            f"could not connect to {self.address} after {self.max_retries + 1} attempts"
        ) from last

    def _hello(self) -> None:
        """Announce stream id + window (v2.2) on the current connection."""
        assert self._sock is not None
        self._sock.sendall(
            encode_record(TYPE_HELLO, self.stream_id, flags=min(self.window, 255))
        )

    def _reconnect(self) -> None:
        if self._sock is not None:
            self._sock.close()
        self._sock = self._connect()
        try:
            self._hello()
        except OSError as exc:
            raise ConnectionError(
                f"could not re-announce stream {self.stream_id}"
            ) from exc
        with self._lock:
            self.report.record("reconnect", -1)

    def _send_end(self) -> None:
        # END is addressed at END_ACK_INDEX, so only the server's END
        # acknowledgement — never a stale frame ACK — completes the
        # handshake.  A lost END ack is retried over a fresh connection
        # (the server marks the stream ended idempotently).  Each attempt
        # gets one overall deadline; stale records shrink the remainder.
        for attempt in range(3):
            try:
                assert self._sock is not None
                self._sock.sendall(encode_record(TYPE_END, END_ACK_INDEX))
                deadline = time.perf_counter() + min(2.0, self.ack_timeout)
                while True:
                    record = self._read_deadline(deadline)
                    if record.type == TYPE_ACK and record.frame_index == END_ACK_INDEX:
                        return
            except (OSError, ConnectionError, TimeoutError):
                if attempt < 2:
                    try:
                        self._reconnect()
                    except (OSError, ConnectionError):
                        return

    # -- shutdown / receipts ------------------------------------------

    def close(self) -> None:
        """Flush the queue, signal end-of-stream, close the connection.

        Idempotent, and safe on a client whose ``__init__`` never
        finished (a failed connect leaves no socket or thread behind).
        """
        if getattr(self, "_closed", True):
            return
        self._closed = True
        sender = getattr(self, "_sender", None)
        if sender is not None and sender.is_alive():
            self._queue.put_priority(_CLOSE)
            sender.join(timeout=60.0)
        sock = getattr(self, "_sock", None)
        if sock is not None:
            sock.close()

    def merge_receipts(self, receipts: list[tuple[int, int, float, float]]) -> None:
        """Fill server-side timestamps into this client's traces."""
        by_index = {t.frame_index: t for t in self.report.traces}
        for frame_index, _, received_at, stored_at in receipts:
            trace = by_index.get(frame_index)
            if trace is not None:
                trace.received_at = received_at
                trace.stored_at = stored_at
                if trace.status == "stored":
                    _obs.observe("client.total_latency_s", trace.total_latency)
