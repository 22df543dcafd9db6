"""Per-frame pipeline instrumentation for the Section 4.4 evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.observability import recorder as _obs

__all__ = ["FrameTrace", "PipelineReport", "TransportEvent"]


@dataclass
class FrameTrace:
    """Stage timestamps of one frame's trip through the system.

    All fields are ``time.perf_counter()`` readings on the producing host
    (client and server run on one machine in this prototype, so the clock
    is shared).
    """

    frame_index: int
    n_points: int
    payload_bytes: int
    captured_at: float
    compressed_at: float = 0.0
    sent_at: float = 0.0
    received_at: float = 0.0
    stored_at: float = 0.0
    #: Transmission attempts (1 = delivered first try; 0 = never sent).
    attempts: int = 1
    #: Final fate: ``"pending"`` (still queued), ``"stored"``,
    #: ``"quarantined"`` (server rejected the bytes), or ``"dropped"``
    #: (evicted under congestion or retries exhausted).  A trace starts
    #: ``"pending"`` and becomes ``"stored"`` only once the server ACK
    #: confirms the frame landed — never by default.
    status: str = "pending"
    #: True when the payload was recompressed at a coarser error bound
    #: because the link could not sustain the sensor rate.
    degraded: bool = False

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)

    @property
    def compress_latency(self) -> float:
        return self.compressed_at - self.captured_at

    @property
    def transfer_latency(self) -> float:
        return self.received_at - self.sent_at

    @property
    def total_latency(self) -> float:
        return self.stored_at - self.captured_at


@dataclass(frozen=True)
class TransportEvent:
    """One fault-tolerance action taken by the transport.

    Kinds: ``retry`` (a transmission failed and will be re-attempted),
    ``reconnect`` (the client re-established the connection),
    ``quarantine`` (the server rejected a payload), ``drop`` (a frame was
    evicted under congestion or gave up after retries), ``degrade`` (a
    frame was recompressed at a coarser error bound), ``duplicate`` (the
    server deduplicated a retransmission).
    """

    kind: str
    frame_index: int
    attempt: int = 0
    detail: str = ""


@dataclass
class PipelineReport:
    """Aggregate over many frame traces and transport events."""

    traces: list[FrameTrace] = field(default_factory=list)
    events: list[TransportEvent] = field(default_factory=list)
    #: Server BUSY hints received on ACKs.  A plain counter, not an
    #: event: hint timing depends on store latency, so it must stay out
    #: of the deterministic ``accounting_key()`` fingerprint.
    busy_hints: int = 0
    #: Per-frame ACK round-trip latencies (seconds), one sample per
    #: matched ACK.  Wall-clock measurements, so — like ``busy_hints`` —
    #: excluded from ``accounting_key()``.
    ack_latencies: list[float] = field(default_factory=list)

    def add(self, trace: FrameTrace) -> None:
        self.traces.append(trace)

    def record(
        self, kind: str, frame_index: int, attempt: int = 0, detail: str = ""
    ) -> None:
        """Log one transport event (retry, drop, quarantine, degrade...)."""
        self.events.append(TransportEvent(kind, frame_index, attempt, detail))
        _obs.count("transport." + kind)

    @classmethod
    def merged(cls, reports: "Iterable[PipelineReport]") -> "PipelineReport":
        """One aggregate report over a fleet of clients' reports.

        Traces and events are aliased, not copied, and no observability
        counters are re-emitted; the per-client reports stay authoritative
        for per-stream accounting (``accounting_key()`` of the merge is
        only meaningful when the clients' frame-index ranges are
        disjoint, as the load generator guarantees).
        """
        merged = cls()
        for report in reports:
            merged.traces.extend(report.traces)
            merged.events.extend(report.events)
            merged.busy_hints += report.busy_hints
            merged.ack_latencies.extend(report.ack_latencies)
        return merged

    @property
    def n_frames(self) -> int:
        return len(self.traces)

    # -- fault-tolerance accounting -----------------------------------

    @property
    def stored_traces(self) -> list[FrameTrace]:
        """Traces of frames that made it into the store."""
        return [t for t in self.traces if t.status == "stored"]

    @property
    def n_stored(self) -> int:
        return len(self.stored_traces)

    @property
    def n_quarantined(self) -> int:
        return sum(t.status == "quarantined" for t in self.traces)

    @property
    def n_dropped(self) -> int:
        return sum(t.status == "dropped" for t in self.traces)

    @property
    def n_degraded(self) -> int:
        return sum(t.degraded for t in self.traces)

    @property
    def total_retries(self) -> int:
        return sum(t.retries for t in self.traces)

    def event_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def accounting_key(self) -> tuple:
        """A deterministic fingerprint of this run's fault handling.

        Two runs with the same seed/faults must produce equal keys; event
        ordering across threads is normalized by sorting.
        """
        return (
            tuple(sorted(t.frame_index for t in self.stored_traces)),
            tuple(sorted(t.frame_index for t in self.traces if t.status == "quarantined")),
            tuple(sorted(t.frame_index for t in self.traces if t.status == "dropped")),
            tuple(sorted((t.frame_index, t.attempts) for t in self.traces)),
            tuple(sorted((e.kind, e.frame_index, e.attempt) for e in self.events)),
        )

    # -- latency / bandwidth aggregates (stored frames only) ----------

    def _mean(self, values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    @property
    def mean_total_latency(self) -> float:
        return self._mean([t.total_latency for t in self.stored_traces])

    @property
    def mean_compress_latency(self) -> float:
        return self._mean([t.compress_latency for t in self.stored_traces])

    @property
    def mean_transfer_latency(self) -> float:
        return self._mean([t.transfer_latency for t in self.stored_traces])

    @property
    def mean_payload_bytes(self) -> float:
        return self._mean([float(t.payload_bytes) for t in self.stored_traces])

    def throughput_fps(self) -> float:
        """Frames stored per second over the observed window.

        Traces are sorted by ``stored_at`` first: with retries and
        parallel senders, frames complete out of capture order, and the
        window must span the earliest capture to the *latest* store.
        """
        stored = sorted(self.stored_traces, key=lambda t: t.stored_at)
        if len(stored) < 2:
            return 0.0
        first_captured = min(t.captured_at for t in stored)
        span = stored[-1].stored_at - first_captured
        return len(stored) / span if span > 0 else 0.0

    def bandwidth_mbps(self, frames_per_second: float) -> float:
        """Average link bandwidth needed at the sensor's frame rate."""
        return 8.0 * frames_per_second * self.mean_payload_bytes / 1e6

    def ack_latency_percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) of ACK round-trip latency.

        Nearest-rank over the collected samples; ``0.0`` when no ACK
        latency was recorded (e.g. every frame dropped).
        """
        if not self.ack_latencies:
            return 0.0
        ordered = sorted(self.ack_latencies)
        rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]
