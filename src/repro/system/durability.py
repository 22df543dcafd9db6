"""Crash-safety primitives: receipt journal and scrub reports.

The ingest tier's correctness story ("zero lost frames") only holds if it
survives *process* faults, not just channel faults: a server killed
mid-ingest loses its in-memory dedupe/ACK state.  (The store's own
writes are atomic: :class:`~repro.system.storage.SqliteFrameStore`
commits each frame in one SQLite transaction.)  This module holds the
pieces the stores and the server share to close that gap:

- :func:`atomic_write_bytes` — the tmp-file + (optional) fsync + rename
  commit path :class:`ReceiptJournal` compaction writes through; a
  reader never observes a half-written segment, and a crash leaves only
  a ``*.tmp`` orphan.
- :class:`ReceiptJournal` — an append-only, CRC-framed journal of
  per-stream store receipts.  The server appends one record per stored
  frame (after the store write, before the ACK) and one per END, and a
  restarted server replays the journal to rebuild each stream's dedupe
  set — so a retransmission of a frame stored before the crash is
  answered with DUPLICATE instead of being stored twice.
- :class:`ScrubReport` — what a replica ``scrub()`` found and fixed, for
  tests, counters, and the CLI.

Record layout (see docs/FORMAT.md, "Durability journals"): one JSON
object per line, ``{"t": "frame"|"end", "sid": <stream id>, "idx": ...,
"crc": ..., "c": <crc32>}`` where ``c`` is the CRC-32 of the line's
canonical JSON without the ``c`` field itself.  A torn tail (partial
line, bad JSON, bad CRC) terminates replay — everything before it is
trusted, everything after is discarded.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "ReceiptJournal",
    "JournalReplay",
    "ScrubDefect",
    "ScrubReport",
    "atomic_write_bytes",
]


def atomic_write_bytes(path: Path, data: bytes, fsync: bool = False) -> Path:
    """Write ``data`` to ``path`` atomically via a same-directory tmp file.

    The rename is the commit point: a crash before it leaves only a
    ``*.tmp`` orphan, never a torn ``path``.  ``fsync=True`` additionally
    flushes the file (and its directory entry) to stable storage before
    the rename — power-loss durability at the cost of one fsync per
    write.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if fsync:
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    return path


@dataclass(frozen=True)
class ScrubDefect:
    """One unhealthy replica copy found by a scrub pass."""

    frame_index: int
    shard: int
    #: ``"missing"`` (no copy on the shard) or ``"corrupt"`` (bytes do
    #: not match the stored CRC / the healthy majority).
    kind: str
    repaired: bool = False

    def __str__(self) -> str:
        fate = "repaired" if self.repaired else "NOT repaired"
        return f"frame {self.frame_index} shard {self.shard}: {self.kind}, {fate}"


@dataclass
class ScrubReport:
    """Outcome of a replica audit over a (sharded) store."""

    #: Frame indices examined.
    frames_checked: int = 0
    #: Replica copies whose bytes verified against their stored CRC.
    copies_healthy: int = 0
    defects: list[ScrubDefect] = field(default_factory=list)

    @property
    def n_missing(self) -> int:
        return sum(d.kind == "missing" for d in self.defects)

    @property
    def n_corrupt(self) -> int:
        return sum(d.kind == "corrupt" for d in self.defects)

    @property
    def n_repaired(self) -> int:
        return sum(d.repaired for d in self.defects)

    @property
    def n_unrepaired(self) -> int:
        return sum(not d.repaired for d in self.defects)

    @property
    def clean(self) -> bool:
        """True when every replica of every frame verified healthy."""
        return not self.defects

    def __str__(self) -> str:
        return (
            f"scrub: {self.frames_checked} frame(s), {self.copies_healthy} healthy "
            f"cop(ies), {self.n_corrupt} corrupt, {self.n_missing} missing, "
            f"{self.n_repaired} repaired"
        )


@dataclass(frozen=True)
class JournalReplay:
    """Everything a :class:`ReceiptJournal` replay recovered."""

    #: ``(stream_id, frame_index, payload_crc)`` per stored frame, in
    #: journal order (retransmission dedupe means each index appears once
    #: per stream).
    frames: tuple[tuple[int | str, int, int], ...] = ()
    #: Stream ids whose END record was journaled.
    ended: tuple[int | str, ...] = ()
    #: 1 if replay stopped at a torn tail record, else 0.
    torn: int = 0

    def seen_by_stream(self) -> dict[int | str, set[int]]:
        """Per-stream dedupe sets, ready to seed server stream state."""
        seen: dict[int | str, set[int]] = {}
        for stream_id, frame_index, _ in self.frames:
            seen.setdefault(stream_id, set()).add(frame_index)
        return seen


def _line_crc(entry: dict) -> int:
    canonical = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


def _encode_line(entry: dict) -> bytes:
    """One CRC-framed journal line for ``entry`` (without a ``c`` field)."""
    payload = json.dumps(entry, sort_keys=True, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(payload)
    # "c" sorts before every other journal key, so splicing it in front
    # keeps the line identical to a sorted re-dump (replay verifies
    # exactly that).
    return b'{"c":%d,%s\n' % (crc, payload[1:])


def _parse_segment(text: str) -> tuple[list[dict], int]:
    """Parse one segment's intact entries; stop at (and flag) a torn record."""
    entries: list[dict] = []
    torn = 0
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            crc = entry.pop("c")
        except (ValueError, KeyError):
            torn = 1
            break
        if _line_crc(entry) != crc:
            torn = 1
            break
        entries.append(entry)
    return entries, torn


class ReceiptJournal:
    """Append-only, CRC-framed journal of per-stream store receipts.

    Thread-safe: handler threads append concurrently under an internal
    lock.  Each record is one unbuffered write of one line, so a crash
    can tear at most the final record — replay detects the torn tail
    (bad JSON or bad line CRC) and stops there.

    ``fsync=True`` forces every record to stable storage (power-loss
    durability); the default stops at the OS, which survives a process
    kill — the fault model the restart drill exercises.

    ``batch=N`` (N > 1) amortizes the write(2): records accumulate in
    memory and every Nth append — or any END record, or an explicit
    :meth:`drain` — flushes them as one syscall.  This widens the
    kill-loss window from "the torn final record" to "up to N-1 tail
    records" — safe for the ingest server, because losing a receipt only
    means a retransmitted frame is re-stored idempotently instead of
    answered DUPLICATE — and takes the syscall off the ACK hot path.

    ``rotate_bytes=N`` bounds the *active* file: once a flush pushes it
    past N bytes it is sealed as a numbered segment
    (``<path>.0001``, ``.0002``, …) and a fresh active file is opened.
    Sealing triggers compaction: all sealed segments are merged into
    one, dropping the frame records of fully-ENDed streams (their
    clients finished and will never retransmit — only the END line
    itself is kept, so recovered stream/END accounting survives).  A
    long-lived server's journal therefore grows with its *live* streams,
    not its lifetime.  :meth:`replay` reads sealed segments oldest-first
    and the active file last, so recovery spans rotations transparently.
    """

    def __init__(
        self,
        path: str | Path,
        fsync: bool = False,
        batch: int = 1,
        rotate_bytes: int | None = None,
    ) -> None:
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if rotate_bytes is not None and rotate_bytes < 1:
            raise ValueError(f"rotate_bytes must be >= 1, got {rotate_bytes}")
        self.path = Path(path)
        self.fsync = bool(fsync)
        self.batch = int(batch)
        self.rotate_bytes = None if rotate_bytes is None else int(rotate_bytes)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        #: Rotations performed by this journal instance.
        self.rotations = 0
        #: Frame records of ENDed streams dropped by compaction.
        self.compacted_frames = 0
        #: Next sealed-segment number (resumes past existing segments).
        self._seq = 1 + max(
            (int(seg.name.rsplit(".", 1)[1]) for seg in self.segments()),
            default=0,
        )
        # Unbuffered binary append: each flush is one write(2) syscall,
        # so its lines are OS-visible the moment ``write`` returns — no
        # userspace buffer beyond the explicit batch to lose on a
        # process kill, and no separate ``flush`` round-trip per record.
        self._handle = open(self.path, "ab", buffering=0)
        self._active_bytes = self.path.stat().st_size
        self._closed = False
        self._pending: list[bytes] = []

    def segments(self) -> list[Path]:
        """Sealed segment paths in replay order (oldest first)."""
        return sorted(
            seg
            for seg in self.path.parent.glob(self.path.name + ".*")
            if seg.name.rsplit(".", 1)[1].isdigit()
        )

    # -- appending -----------------------------------------------------

    def _append(self, entry: dict) -> None:
        line = _encode_line(entry)
        with self._lock:
            if self._closed:
                raise ValueError("journal is closed")
            self._pending.append(line)
            # ENDs flush eagerly: they are rare (one per stream) and the
            # recovered-END count feeds wait_for_streams after a restart.
            if len(self._pending) >= self.batch or entry.get("t") == "end":
                self._flush_pending_locked()

    def _flush_pending_locked(self) -> None:
        lines, self._pending = self._pending, []
        if not lines:
            return
        data = b"".join(lines)
        self._handle.write(data)
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._active_bytes += len(data)
        if self.rotate_bytes is not None and self._active_bytes >= self.rotate_bytes:
            self._rotate_locked()

    def _rotate_locked(self) -> None:
        """Seal the active file as the next numbered segment and compact."""
        self._handle.close()
        os.replace(self.path, self.path.with_name(f"{self.path.name}.{self._seq:04d}"))
        self._seq += 1
        self._compact_locked()
        self._handle = open(self.path, "ab", buffering=0)
        self._active_bytes = 0
        self.rotations += 1

    def _compact_locked(self) -> None:
        """Merge all sealed segments into one, dropping ENDed streams' frames.

        Safe because an ENDed stream's client got its END ACK and is
        done: nothing will ever be retransmitted on that stream, so its
        dedupe set need not survive a restart.  The END line itself is
        kept (once) — recovered-stream and END accounting still work.
        A torn record inside a sealed segment stops that segment's parse
        (matching replay), so compaction never resurrects garbage.
        """
        segs = self.segments()
        entries: list[dict] = []
        for seg in segs:
            parsed, _torn = _parse_segment(seg.read_text(encoding="utf-8"))
            entries.extend(parsed)
        ended = {e["sid"] for e in entries if e.get("t") == "end"}
        kept: list[bytes] = []
        ends_written: set = set()
        dropped = 0
        for entry in entries:
            if entry.get("t") == "frame" and entry["sid"] in ended:
                dropped += 1
                continue
            if entry.get("t") == "end":
                if entry["sid"] in ends_written:
                    continue
                ends_written.add(entry["sid"])
            kept.append(_encode_line(entry))
        atomic_write_bytes(segs[0], b"".join(kept), fsync=self.fsync)
        for seg in segs[1:]:
            seg.unlink()
        self.compacted_frames += dropped

    def drain(self) -> None:
        """Flush batched appends to the OS.

        A no-op with ``batch=1``; with batching, this is the barrier
        tests (and ``close``) use before reading the journal back.
        """
        with self._lock:
            if not self._closed:
                self._flush_pending_locked()

    def append_frame(
        self, stream_id: int | str, frame_index: int, payload_crc: int
    ) -> None:
        """Journal one stored frame (call after the store write commits)."""
        self._append(
            {"t": "frame", "sid": stream_id, "idx": frame_index, "crc": payload_crc}
        )

    def append_end(self, stream_id: int | str) -> None:
        """Journal one stream's END record."""
        self._append({"t": "end", "sid": stream_id})

    # -- replay --------------------------------------------------------

    def replay(self) -> JournalReplay:
        """Read back every intact record; stop at (and count) a torn tail.

        Sealed segments are replayed oldest-first, then the active file —
        one logical journal regardless of how many rotations happened.
        The first torn record stops the whole replay: everything before
        it is trusted, everything after is discarded.
        """
        frames: list[tuple[int | str, int, int]] = []
        ended: list[int | str] = []
        torn = 0
        for part in [*self.segments(), self.path]:
            try:
                text = part.read_text(encoding="utf-8")
            except OSError:
                continue
            entries, torn = _parse_segment(text)
            for entry in entries:
                if entry.get("t") == "frame":
                    frames.append((entry["sid"], entry["idx"], entry["crc"]))
                elif entry.get("t") == "end":
                    ended.append(entry["sid"])
            if torn:
                break
        return JournalReplay(tuple(frames), tuple(ended), torn)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Idempotent: flush batched appends and release the file handle."""
        with self._lock:
            if self._closed:
                return
            self._flush_pending_locked()
            self._closed = True
            self._handle.close()

    def __enter__(self) -> "ReceiptJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
