"""Deterministic fault injection for the transport layer.

The paper ships frames over a lossy 4G uplink; to *prove* the transport
survives drops, corruption, reconnects, and congestion we need faults
that are reproducible.  :class:`FaultyChannel` wraps a
:class:`~repro.system.channel.BandwidthShaper` and derives every
injection decision from ``(seed, frame_index, attempt)`` with a keyed
hash, so a given run replays bit-for-bit regardless of thread timing,
and a *retransmission* of the same frame sees fresh (independent but
equally deterministic) link conditions.

Fault kinds:

- **bit flips** — a few payload bits are inverted on the wire; the
  receiver's payload CRC catches them and quarantines the bytes.
- **truncation / mid-frame disconnect** — the connection dies after a
  prefix of the record; the client reconnects with backoff and
  retransmits, and the server's accept loop picks the new connection up.
- **ACK drops** — the server's acknowledgement is lost; the client
  retransmits and the server dedupes by frame index.
- **bandwidth jitter** — each transmission's pacing is scaled by a
  random factor around 1, modelling a fluctuating link.
"""

from __future__ import annotations

import hashlib
import random
import threading
from dataclasses import dataclass

from repro.system.channel import BandwidthShaper

__all__ = ["FaultSpec", "FaultPlan", "FaultyChannel", "ServerKillSwitch"]

#: Sentinel distinguishing "not given" from an explicit ``shaper=None``.
_UNSET = object()

#: How often :class:`ServerKillSwitch` polls the server's stored count.
_KILL_POLL_S = 0.002


@dataclass(frozen=True)
class FaultSpec:
    """Fault probabilities and forced events for one run.

    All rates are per *transmission attempt*, so a frame that is
    retransmitted after a disconnect rolls new dice.
    """

    #: Probability of flipping 1..8 payload bits in flight.
    corrupt_rate: float = 0.0
    #: Probability the payload is truncated (link dies inside the payload).
    truncate_rate: float = 0.0
    #: Probability the connection dies anywhere inside the record.
    disconnect_rate: float = 0.0
    #: Probability a server ACK is lost on its way back.
    ack_drop_rate: float = 0.0
    #: Bandwidth jitter amplitude: pacing is scaled by ``1 ± jitter``.
    jitter: float = 0.0
    #: Frame indices whose *first* transmission always dies mid-record.
    force_disconnect_frames: frozenset[int] = frozenset()
    #: ACK indices whose *first* acknowledgement is always lost (use
    #: :data:`~repro.system.protocol.END_ACK_INDEX` to force an END
    #: retransmission deterministically).
    force_ack_drop_first: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        for name in ("corrupt_rate", "truncate_rate", "disconnect_rate", "ack_drop_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        # Accept any iterable of ints for convenience.
        object.__setattr__(
            self, "force_disconnect_frames", frozenset(self.force_disconnect_frames)
        )
        object.__setattr__(
            self, "force_ack_drop_first", frozenset(self.force_ack_drop_first)
        )


@dataclass(frozen=True)
class FaultPlan:
    """What happens to one transmission attempt."""

    #: Bit offsets (relative to the payload) to invert on the wire.
    flip_bits: tuple[int, ...] = ()
    #: Close the connection after sending this many bytes of the record.
    cut_after: int | None = None
    #: Multiplier on the shaper's transfer time for this attempt.
    jitter_factor: float = 1.0

    @property
    def clean(self) -> bool:
        return not self.flip_bits and self.cut_after is None


class ServerKillSwitch:
    """Process-level fault injection: kill a server after N stored frames.

    The channel faults above model a lossy *link*; this models a dying
    *endpoint*.  :meth:`arm` starts a watcher thread that polls the
    server's stored-frame count (its receipts, evicted ones included)
    every 2 ms and calls
    :meth:`~repro.system.server.DbgcServer.kill` — the SIGKILL-equivalent
    stop — the moment it reaches ``kill_after_frames``, then invokes
    ``on_kill`` (the restart hook).  The kill point is deterministic in
    *what* survives — exactly the frames the store and receipt journal
    committed — even though which frame is the N-th depends on thread
    timing; drills therefore assert on recovered state, not on the kill
    instant.
    """

    def __init__(self, kill_after_frames: int) -> None:
        if kill_after_frames < 1:
            raise ValueError(
                f"kill_after_frames must be >= 1, got {kill_after_frames}"
            )
        self.kill_after_frames = int(kill_after_frames)
        #: Set once the server has been killed.
        self.fired = threading.Event()
        self._cancel = threading.Event()
        self._thread: threading.Thread | None = None

    def arm(self, server, on_kill=None) -> "ServerKillSwitch":
        """Watch ``server`` and kill it at the threshold (background)."""

        def watch() -> None:
            while not self._cancel.is_set():
                with server.lock:
                    stored = len(server.receipts) + server.receipts_evicted
                if stored >= self.kill_after_frames:
                    server.kill()
                    self.fired.set()
                    if on_kill is not None:
                        on_kill()
                    return
                self._cancel.wait(_KILL_POLL_S)

        self._thread = threading.Thread(target=watch, daemon=True)
        self._thread.start()
        return self

    def cancel(self) -> None:
        """Stand down (the run finished below the threshold); idempotent."""
        self._cancel.set()
        if self._thread is not None:
            self._thread.join(5.0)


class FaultyChannel:
    """A seeded, fault-injecting wrapper around a bandwidth shaper.

    Drop-in for :class:`BandwidthShaper` wherever a client or server
    accepts a ``channel``: it delegates ``transfer_seconds`` /
    ``supports`` / ``pace`` to the wrapped shaper (identity link when
    ``shaper`` is ``None``) and additionally plans faults.

    Parameters
    ----------
    shaper:
        The underlying link model, or ``None`` for an unshaped link.
    seed:
        Root of every injection decision; two channels with equal seed
        and spec plan identical faults.
    spec:
        Fault probabilities and forced events.
    """

    def __init__(
        self,
        shaper: BandwidthShaper | None = None,
        seed: int = 0,
        spec: FaultSpec | None = None,
    ) -> None:
        self.shaper = shaper
        self.seed = int(seed)
        self.spec = spec if spec is not None else FaultSpec()
        #: Injection log: ``(kind, frame_index, attempt)`` tuples, in plan
        #: order.  Inspection aid for tests and reports.
        self.log: list[tuple[str, int, int]] = []

    # -- deterministic randomness -------------------------------------

    def _rng(self, *key: object) -> random.Random:
        digest = hashlib.blake2b(
            repr((self.seed,) + key).encode(), digest_size=8
        ).digest()
        return random.Random(int.from_bytes(digest, "little"))

    # -- fault planning ------------------------------------------------

    def plan(self, frame_index: int, attempt: int, record_bytes: int) -> FaultPlan:
        """Plan faults for one transmission of a ``record_bytes``-long record.

        Pure in ``(seed, spec, frame_index, attempt, record_bytes)``.
        """
        spec = self.spec
        rng = self._rng("frame", frame_index, attempt, record_bytes)
        cut_after: int | None = None
        forced = frame_index in spec.force_disconnect_frames and attempt == 0
        if forced or rng.random() < spec.disconnect_rate:
            # Die anywhere inside the record, header included.
            cut_after = rng.randrange(0, max(1, record_bytes))
            self.log.append(("disconnect", frame_index, attempt))
        elif rng.random() < spec.truncate_rate:
            # Die inside the payload region specifically.
            from repro.system.protocol import PAYLOAD_OFFSET

            lo = min(PAYLOAD_OFFSET, record_bytes)
            cut_after = rng.randrange(lo, max(lo + 1, record_bytes))
            self.log.append(("truncate", frame_index, attempt))
        flip_bits: tuple[int, ...] = ()
        payload_bits = 8 * max(0, record_bytes - self._payload_overhead())
        if payload_bits and rng.random() < spec.corrupt_rate:
            n_flips = rng.randint(1, min(8, payload_bits))
            flip_bits = tuple(
                sorted(rng.sample(range(payload_bits), n_flips))
            )
            self.log.append(("corrupt", frame_index, attempt))
        jitter_factor = 1.0
        if spec.jitter:
            jitter_factor = 1.0 + spec.jitter * (2.0 * rng.random() - 1.0)
        return FaultPlan(flip_bits, cut_after, jitter_factor)

    @staticmethod
    def _payload_overhead() -> int:
        from repro.system.protocol import PAYLOAD_OFFSET

        return PAYLOAD_OFFSET + 4  # header + header CRC + trailing payload CRC

    def drop_ack(self, frame_index: int, ack_ordinal: int) -> bool:
        """Should the server's ``ack_ordinal``-th ACK for this frame be lost?"""
        if frame_index in self.spec.force_ack_drop_first and ack_ordinal == 0:
            self.log.append(("ack-drop", frame_index, ack_ordinal))
            return True
        if self.spec.ack_drop_rate <= 0.0:
            return False
        rng = self._rng("ack", frame_index, ack_ordinal)
        dropped = rng.random() < self.spec.ack_drop_rate
        if dropped:
            self.log.append(("ack-drop", frame_index, ack_ordinal))
        return dropped

    # -- fleet derivation ----------------------------------------------

    def for_stream(
        self,
        stream_id: int,
        spec: FaultSpec | None = None,
        shaper: BandwidthShaper | None | object = _UNSET,
    ) -> "FaultyChannel":
        """A channel whose faults are independently derived for one stream.

        Every client in a fleet gets its own channel so fault decisions
        stay pure in ``(root seed, stream_id, frame, attempt)`` no matter
        how the clients' threads interleave.  ``spec`` overrides the fault
        spec (e.g. per-client forced disconnects); ``shaper`` overrides
        the link model — pass a fresh shaper per client when pacing, the
        default shares this channel's.
        """
        digest = hashlib.blake2b(
            repr((self.seed, "stream", stream_id)).encode(), digest_size=8
        ).digest()
        return FaultyChannel(
            self.shaper if shaper is _UNSET else shaper,
            seed=int.from_bytes(digest, "little"),
            spec=self.spec if spec is None else spec,
        )

    # -- BandwidthShaper delegation -----------------------------------

    @property
    def latency_s(self) -> float:
        """The wrapped shaper's one-way latency (0 on an unshaped link)."""
        return 0.0 if self.shaper is None else self.shaper.latency_s

    def transfer_seconds(self, n_bytes: int) -> float:
        return 0.0 if self.shaper is None else self.shaper.transfer_seconds(n_bytes)

    def sustainable_fps(self, n_bytes: int) -> float:
        return (
            float("inf")
            if self.shaper is None
            else self.shaper.sustainable_fps(n_bytes)
        )

    def supports(self, n_bytes: int, frames_per_second: float) -> bool:
        return self.shaper is None or self.shaper.supports(n_bytes, frames_per_second)

    def pace(self, n_bytes: int, started_at: float, scale: float = 1.0) -> None:
        if self.shaper is not None:
            self.shaper.pace(n_bytes, started_at, scale=scale)
