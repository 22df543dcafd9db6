"""Server-side frame stores, crash-safe.

The paper's server either decompresses and processes frames or stores the
compressed bit sequence directly; storage goes to files or to a relational
database (they use ODBC — we use the stdlib's SQLite, the same access
pattern without a driver dependency).

With the multi-client ingest tier, several connection handlers write
concurrently: :class:`SqliteFrameStore` serializes all statement/commit
pairs behind an internal lock (``check_same_thread=False`` alone is *not*
thread-safe — interleaved execute/commit from two threads can commit a
half-written row or trip sqlite's shared-cache errors), and
:class:`ShardedFrameStore` spreads the index space over N independent
stores so handlers landing on different shards do not serialize on one
database at all.

The durability tier gives every store one crash-safe write path:

- :class:`FileFrameStore` writes each artifact to a same-directory tmp
  file and renames it into place (the commit point), recording the
  payload CRC-32 in a ``.crc`` sidecar *before* the payload rename — a
  killed process leaves a tmp orphan, never a torn frame, and
  :meth:`FileFrameStore.recover` deletes the orphans on the next open.
- :class:`SqliteFrameStore` writes each frame row, CRC included, in one
  transaction; SQLite's rollback journal makes the row atomic, so a
  crash leaves the frame either stored whole or not at all.
- :class:`ShardedFrameStore` can write every frame to ``replication``
  consecutive shards, and :meth:`ShardedFrameStore.scrub` audits the
  replica CRCs — repairing a corrupted or missing copy from a healthy
  one.
"""

from __future__ import annotations

import io
import sqlite3
import threading
import zlib
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.geometry.points import PointCloud
from repro.observability import recorder as _obs
from repro.system.durability import (
    RecoveryReport,
    ScrubDefect,
    ScrubReport,
    atomic_write_bytes,
)

__all__ = ["FileFrameStore", "SqliteFrameStore", "ShardedFrameStore"]


class FileFrameStore:
    """One file per frame under a directory.

    Compressed payloads are stored verbatim (``.dbgc``); decompressed
    clouds as NPZ.  A frame index counts once even when both artifacts
    exist for it.

    Every artifact is committed by the tmp-file + rename path of
    :func:`~repro.system.durability.atomic_write_bytes`, and payloads get
    a ``.crc`` sidecar recording their CRC-32 (written first, so a
    visible payload always has its checksum).  ``fsync=True``
    additionally syncs each write to stable storage.  :meth:`recover`
    runs on open and removes torn tmp files and orphaned sidecars; the
    report lands in :attr:`last_recovery`.
    """

    def __init__(self, root: str | Path, fsync: bool = False) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = bool(fsync)
        self._closed = False
        self.last_recovery = self.recover()

    def _payload_path(self, frame_index: int) -> Path:
        return self.root / f"frame_{frame_index:06d}.dbgc"

    def _crc_path(self, frame_index: int) -> Path:
        return self.root / f"frame_{frame_index:06d}.crc"

    def recover(self) -> RecoveryReport:
        """Roll back torn writes: delete tmp orphans and widowed sidecars."""
        report = RecoveryReport()
        for tmp in self.root.glob("frame_*.tmp"):
            tmp.unlink()
            report.rolled_back += 1
        for crc in self.root.glob("frame_*.crc"):
            if not crc.with_suffix(".dbgc").exists():
                crc.unlink()
                report.orphans_removed += 1
        if report.rolled_back:
            _obs.count("store.journal.rollbacks", report.rolled_back)
        return report

    def put_payload(self, frame_index: int, payload: bytes) -> Path:
        path = self._payload_path(frame_index)
        # Sidecar first: a payload that became visible always has its
        # CRC; the reverse orphan is cleaned up by recover().
        atomic_write_bytes(
            self._crc_path(frame_index),
            f"{zlib.crc32(payload):08x}\n".encode(),
            fsync=self.fsync,
        )
        atomic_write_bytes(path, payload, fsync=self.fsync)
        _obs.count("store.journal.commits")
        return path

    def get_payload(self, frame_index: int) -> bytes:
        return self._payload_path(frame_index).read_bytes()

    def payload_crc(self, frame_index: int) -> int | None:
        """The CRC-32 recorded at write time, or ``None`` if never recorded."""
        try:
            return int(self._crc_path(frame_index).read_text().strip(), 16)
        except (OSError, ValueError):
            return None

    def put_cloud(self, frame_index: int, cloud: PointCloud) -> Path:
        path = self.root / f"frame_{frame_index:06d}.npz"
        buffer = io.BytesIO()
        np.savez_compressed(buffer, xyz=cloud.xyz)
        atomic_write_bytes(path, buffer.getvalue(), fsync=self.fsync)
        _obs.count("store.journal.commits")
        return path

    def get_cloud(self, frame_index: int) -> PointCloud:
        with np.load(self.root / f"frame_{frame_index:06d}.npz") as data:
            return PointCloud(data["xyz"])

    def frame_indices(self) -> list[int]:
        """Sorted indices of every stored frame (dedupe/audit aid).

        Deduplicated by index: ``frame_N.dbgc`` and ``frame_N.npz``
        together are still one frame.  CRC sidecars and tmp files are
        metadata, not frames.
        """
        return sorted(
            {
                int(p.stem.split("_")[1])
                for pattern in ("frame_*.dbgc", "frame_*.npz")
                for p in self.root.glob(pattern)
            }
        )

    def total_payload_bytes(self) -> int:
        """Summed on-disk bytes of every stored artifact (audit aid)."""
        return sum(
            p.stat().st_size
            for pattern in ("frame_*.dbgc", "frame_*.npz")
            for p in self.root.glob(pattern)
        )

    def __len__(self) -> int:
        return len(self.frame_indices())

    def close(self) -> None:
        """Idempotent; files need no teardown (store-interface symmetry)."""
        self._closed = True

    def __enter__(self) -> "FileFrameStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SqliteFrameStore:
    """Frames as BLOB rows in a SQLite table.

    Safe to share across threads: every statement/commit pair runs under
    an internal lock.  Writing a frame index that already holds the
    *other* kind (payload vs cloud) raises instead of silently replacing
    the row — only a same-kind overwrite (an idempotent retransmission)
    is allowed.

    Each write commits the frame row, its payload CRC-32 included, in
    one transaction.  SQLite's rollback journal makes that row atomic:
    after a crash before the commit, the next open rolls back whatever
    part of the write reached the database file, so a frame is stored
    whole or not at all.  The CRC serves scrub audits.  A ``journal``
    table left in the database by an older version of this store is
    ignored; ``frames`` is authoritative.
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self._lock = threading.Lock()
        self._closed = False
        self._conn = sqlite3.connect(str(path), check_same_thread=False)
        with self._lock:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS frames ("
                " frame_index INTEGER PRIMARY KEY,"
                " kind TEXT NOT NULL,"
                " n_points INTEGER NOT NULL,"
                " data BLOB NOT NULL,"
                " crc32 INTEGER)"
            )
            # Migrate pre-durability databases that lack the CRC column.
            columns = {
                row[1] for row in self._conn.execute("PRAGMA table_info(frames)")
            }
            if "crc32" not in columns:
                self._conn.execute("ALTER TABLE frames ADD COLUMN crc32 INTEGER")
            self._conn.commit()

    def _put(self, frame_index: int, kind: str, n_points: int, data: bytes) -> None:
        crc = zlib.crc32(data)
        with self._lock:
            row = self._conn.execute(
                "SELECT kind FROM frames WHERE frame_index = ?", (frame_index,)
            ).fetchone()
            if row is not None and row[0] != kind:
                raise ValueError(
                    f"frame {frame_index} is already stored as {row[0]!r}; "
                    f"refusing to replace it with a {kind!r}"
                )
            self._conn.execute(
                "INSERT OR REPLACE INTO frames VALUES (?, ?, ?, ?, ?)",
                (frame_index, kind, n_points, data, crc),
            )
            self._conn.commit()
        _obs.count("store.journal.commits")

    def put_payload(self, frame_index: int, payload: bytes, n_points: int = 0) -> None:
        self._put(frame_index, "payload", n_points, payload)

    def get_payload(self, frame_index: int) -> bytes:
        with self._lock:
            row = self._conn.execute(
                "SELECT data FROM frames WHERE frame_index = ? AND kind = 'payload'",
                (frame_index,),
            ).fetchone()
        if row is None:
            raise KeyError(f"no payload for frame {frame_index}")
        return row[0]

    def payload_crc(self, frame_index: int) -> int | None:
        """The CRC-32 recorded at write time, or ``None`` if never recorded."""
        with self._lock:
            row = self._conn.execute(
                "SELECT crc32 FROM frames WHERE frame_index = ? AND kind = 'payload'",
                (frame_index,),
            ).fetchone()
        return None if row is None or row[0] is None else int(row[0])

    def put_cloud(self, frame_index: int, cloud: PointCloud) -> None:
        self._put(frame_index, "cloud", len(cloud), cloud.xyz.tobytes())

    def get_cloud(self, frame_index: int) -> PointCloud:
        with self._lock:
            row = self._conn.execute(
                "SELECT n_points, data FROM frames WHERE frame_index = ? AND kind = 'cloud'",
                (frame_index,),
            ).fetchone()
        if row is None:
            raise KeyError(f"no cloud for frame {frame_index}")
        n_points, blob = row
        return PointCloud(np.frombuffer(blob, dtype=np.float64).reshape(n_points, 3))

    def frame_indices(self) -> list[int]:
        """Sorted indices of every stored frame (dedupe/audit aid)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT frame_index FROM frames ORDER BY frame_index"
            ).fetchall()
        return [row[0] for row in rows]

    def total_payload_bytes(self) -> int:
        """Summed stored blob sizes (audit aid for ingest accounting)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COALESCE(SUM(LENGTH(data)), 0) FROM frames"
            ).fetchone()
        return int(row[0])

    def __len__(self) -> int:
        with self._lock:
            return self._conn.execute("SELECT COUNT(*) FROM frames").fetchone()[0]

    def __enter__(self) -> "SqliteFrameStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Idempotent: the first call closes the connection, later ones no-op."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._conn.close()


class ShardedFrameStore:
    """Route frames over N independent stores by ``frame_index % n_shards``.

    The ingest tier's storage fan-out: each shard sits behind its own
    lock, so connection handlers landing on different shards write in
    parallel while a single shard still serializes its own writes.  The
    routing is stateless and deterministic, so a concurrent fleet run and
    a serial replay of the same frames produce byte-identical shards.

    ``replication=R`` writes every frame to the R consecutive shards
    starting at its primary (``frame_index % n_shards``), so losing or
    corrupting one copy is survivable: reads fall back to the next
    healthy replica, and :meth:`scrub` audits all copies against their
    recorded CRCs, repairing a bad copy from a healthy one.
    """

    def __init__(
        self,
        shards: Iterable[FileFrameStore | SqliteFrameStore],
        replication: int = 1,
    ) -> None:
        self.shards = list(shards)
        if not self.shards:
            raise ValueError("need at least one shard")
        if not 1 <= replication <= len(self.shards):
            raise ValueError(
                f"replication must be in [1, {len(self.shards)}], got {replication}"
            )
        self.replication = int(replication)
        self._locks = [threading.Lock() for _ in self.shards]
        self._closed = False

    @classmethod
    def sqlite(
        cls,
        n_shards: int,
        directory: str | Path | None = None,
        replication: int = 1,
    ) -> "ShardedFrameStore":
        """N SQLite shards — in-memory, or ``shard_K.sqlite`` files under
        ``directory``."""
        if directory is None:
            return cls(
                (SqliteFrameStore() for _ in range(n_shards)),
                replication=replication,
            )
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        return cls(
            (SqliteFrameStore(root / f"shard_{k}.sqlite") for k in range(n_shards)),
            replication=replication,
        )

    @classmethod
    def files(
        cls,
        n_shards: int,
        root: str | Path,
        replication: int = 1,
        fsync: bool = False,
    ) -> "ShardedFrameStore":
        """N file-store shards under ``root/shard_K/``."""
        base = Path(root)
        return cls(
            (FileFrameStore(base / f"shard_{k}", fsync=fsync) for k in range(n_shards)),
            replication=replication,
        )

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_for(self, frame_index: int) -> int:
        """The primary shard number that owns ``frame_index``."""
        return frame_index % len(self.shards)

    def replica_shards(self, frame_index: int) -> list[int]:
        """All shard numbers holding a copy of ``frame_index``, primary first."""
        primary = self.shard_for(frame_index)
        return [(primary + r) % len(self.shards) for r in range(self.replication)]

    def put_payload(self, frame_index: int, payload: bytes):
        result = None
        for k in self.replica_shards(frame_index):
            with self._locks[k]:
                written = self.shards[k].put_payload(frame_index, payload)
            if result is None:
                result = written
        return result

    def get_payload(self, frame_index: int) -> bytes:
        """Read the primary copy, falling back to healthy replicas.

        A copy is skipped when it is missing or when its bytes no longer
        match the CRC recorded at write time (on-disk corruption).
        """
        last_error: Exception | None = None
        for k in self.replica_shards(frame_index):
            shard = self.shards[k]
            with self._locks[k]:
                try:
                    payload = shard.get_payload(frame_index)
                except (KeyError, OSError) as exc:
                    last_error = exc
                    continue
                crc = shard.payload_crc(frame_index)
            if crc is None or zlib.crc32(payload) == crc:
                return payload
            last_error = ValueError(
                f"frame {frame_index}: shard {k} copy fails its CRC"
            )
        if last_error is not None:
            raise last_error
        raise KeyError(f"no payload for frame {frame_index}")

    def put_cloud(self, frame_index: int, cloud: PointCloud):
        result = None
        for k in self.replica_shards(frame_index):
            with self._locks[k]:
                written = self.shards[k].put_cloud(frame_index, cloud)
            if result is None:
                result = written
        return result

    def get_cloud(self, frame_index: int) -> PointCloud:
        last_error: Exception | None = None
        for k in self.replica_shards(frame_index):
            with self._locks[k]:
                try:
                    return self.shards[k].get_cloud(frame_index)
                except (KeyError, OSError) as exc:
                    last_error = exc
        raise last_error if last_error is not None else KeyError(frame_index)

    def frame_indices(self) -> list[int]:
        """Sorted indices over all shards (each frame once, replicas deduped)."""
        indices: set[int] = set()
        for lock, shard in zip(self._locks, self.shards):
            with lock:
                indices.update(shard.frame_indices())
        return sorted(indices)

    def shard_payload_bytes(self) -> list[int]:
        """Stored bytes per shard, in shard order (accounting audits).

        With ``replication > 1`` replica copies count on their shard too
        — the audit is of on-disk bytes, not logical frames.
        """
        totals = []
        for lock, shard in zip(self._locks, self.shards):
            with lock:
                totals.append(shard.total_payload_bytes())
        return totals

    def total_payload_bytes(self) -> int:
        return sum(self.shard_payload_bytes())

    # -- replica audit -------------------------------------------------

    def scrub(self, repair: bool = True) -> ScrubReport:
        """Audit every replica copy's CRC; optionally repair bad copies.

        A copy is *healthy* when its bytes match the CRC recorded at
        write time (or, for copies written without CRCs, when they match
        the byte-majority of that frame's copies).  With ``repair=True``
        a missing or corrupt copy is rewritten from a healthy one —
        the repair goes through the shard's put path, so it re-records
        the CRC.  Frames stored as clouds (no payload rows) are skipped:
        the audit covers the compressed-payload tier.
        """
        report = ScrubReport()
        for frame_index in self.frame_indices():
            copies: dict[int, bytes | None] = {}
            crcs: dict[int, int | None] = {}
            for k in self.replica_shards(frame_index):
                shard = self.shards[k]
                with self._locks[k]:
                    try:
                        copies[k] = shard.get_payload(frame_index)
                    except (KeyError, OSError):
                        copies[k] = None
                    crcs[k] = shard.payload_crc(frame_index)
            if all(payload is None for payload in copies.values()):
                continue  # a cloud-kind frame, or outside the payload tier
            report.frames_checked += 1
            # CRC-verified copies, primary first (dict order = replica order).
            healthy = {
                k: payload
                for k, payload in copies.items()
                if payload is not None
                and crcs[k] is not None
                and zlib.crc32(payload) == crcs[k]
            }
            if not healthy:
                # Legacy copies without recorded CRCs: trust the byte
                # majority among them (undecidable with a 1-1 split).
                candidates = [p for p in copies.values() if p is not None]
                counts = {p: candidates.count(p) for p in set(candidates)}
                winner = max(counts, key=lambda p: counts[p])
                if counts[winner] > len(candidates) - counts[winner]:
                    healthy = {
                        k: p for k, p in copies.items() if p == winner
                    }
            # The repair source: the primary-most healthy copy.  Healthy
            # copies that diverge from it (each CRC-consistent, bytes
            # different — a write torn between replicas) converge onto it.
            reference = next(iter(healthy.values()), None)
            for k, payload in copies.items():
                crc_ok = k in healthy or crcs[k] is None
                if payload is not None and payload == reference and crc_ok:
                    report.copies_healthy += 1
                    continue
                kind = "missing" if payload is None else "corrupt"
                repaired = False
                if repair and reference is not None:
                    with self._locks[k]:
                        self.shards[k].put_payload(frame_index, reference)
                    repaired = True
                    _obs.count("store.scrub.repaired")
                _obs.count(f"store.scrub.{kind}")
                report.defects.append(
                    ScrubDefect(frame_index, k, kind, repaired=repaired)
                )
        return report

    def __len__(self) -> int:
        return len(self.frame_indices())

    def __enter__(self) -> "ShardedFrameStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Idempotent: closes every shard once."""
        if self._closed:
            return
        self._closed = True
        for lock, shard in zip(self._locks, self.shards):
            with lock:
                shard.close()
