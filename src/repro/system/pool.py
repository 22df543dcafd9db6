"""The decode tier's process pool: per-slot FIFO workers, zero-copy transfer.

The server's decode offload tier fans ``decompress``-mode decoding out
to worker processes.  Its decoders are stateful per decode chain (a
keyframe and the v3 delta frames after it), so a chain's frames *must*
reach one worker in arrival order.  This module holds the machinery:

- :class:`StickyWorkerPool` — N single-worker executors ("slots").
  Because each slot is its own one-process executor, its queue is a
  FIFO: frames submitted to one slot in arrival order decode in arrival
  order, with no global decode lock and no head-of-line blocking across
  slots.  The caller names the slot: :meth:`StickyWorkerPool.next_slot`
  hands slots out in turn to new keys, and the server keeps the slot a
  chain got for that chain's frames, so the pool holds no per-key state.
  At most :data:`IN_FLIGHT_PER_WORKER` futures per worker are unfinished
  at once; :meth:`StickyWorkerPool.depth` exposes the queue depth.
- :func:`pack_array` / :func:`unpack_array` — pickle protocol-5
  out-of-band buffer transfer (PEP 574) for numpy arrays.  The worker
  ships the array's data buffer as raw bytes next to a tiny pickle
  header; the receiving side reconstructs the array *over* those bytes
  (``np.frombuffer`` under the hood), so a decoded cloud's ``xyz``
  crosses the process boundary with one copy into the pipe and zero
  copies on arrival — the reconstructed array is read-only and does not
  own its data.

Worker state follows the module-level pattern: the executor's
``initializer`` seeds module globals in the worker process (the decode
tier's dict of per-stream decoders) and the submitted function reads
them — nothing stateful crosses the pickle boundary per call.
"""

from __future__ import annotations

import pickle
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable

import numpy as np

__all__ = ["StickyWorkerPool", "pack_array", "unpack_array"]

#: Unfinished futures allowed per worker: :meth:`StickyWorkerPool.submit`
#: blocks once ``IN_FLIGHT_PER_WORKER * workers`` are in flight.
IN_FLIGHT_PER_WORKER = 4


def pack_array(arr: np.ndarray) -> tuple[bytes, list[bytes]]:
    """Split ``arr`` into a pickle-5 header and out-of-band data buffers.

    Returns ``(meta, buffers)`` where ``meta`` is a small pickle of the
    array's dtype/shape bookkeeping and ``buffers`` holds the raw data
    bytes.  Ship both across a process boundary and rebuild with
    :func:`unpack_array`.
    """
    arr = np.ascontiguousarray(arr)
    picked: list[pickle.PickleBuffer] = []
    meta = pickle.dumps(arr, protocol=5, buffer_callback=picked.append)
    return meta, [buf.raw().tobytes() for buf in picked]


def unpack_array(meta: bytes, buffers: list[bytes]) -> np.ndarray:
    """Rebuild a :func:`pack_array` result without copying the data.

    The returned array is backed directly by ``buffers`` (read-only,
    ``OWNDATA`` false) — keep the bytes alive as long as the array.
    """
    return pickle.loads(meta, buffers=buffers)


class StickyWorkerPool:
    """A process pool whose callers pin work to a worker.

    Parameters
    ----------
    workers:
        Number of worker processes.  Each is wrapped in its own
        single-worker :class:`~concurrent.futures.ProcessPoolExecutor`
        so the submissions to one slot run in FIFO order.
    initializer:
        Forwarded to every slot's executor: run once in each worker
        process to seed module-level state.
    """

    def __init__(
        self, workers: int, initializer: Callable[[], None] | None = None
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = int(workers)
        self._executors = [
            ProcessPoolExecutor(max_workers=1, initializer=initializer)
            for _ in range(self.workers)
        ]
        self._lock = threading.Lock()
        #: The slot :meth:`next_slot` hands out next.
        self._next_slot = 0
        #: Lifetime submissions per slot (utilization counters).
        self._submitted_per_slot = [0] * self.workers
        self._in_flight = 0
        self._window = threading.Semaphore(IN_FLIGHT_PER_WORKER * self.workers)
        self._closed = False

    # -- routing -------------------------------------------------------

    def next_slot(self) -> int:
        """The slot for a new key: 0, 1, ..., ``workers - 1``, then 0 again."""
        with self._lock:
            slot = self._next_slot
            self._next_slot = (slot + 1) % self.workers
        return slot

    def submit(self, slot: int, fn: Callable, *args: Any) -> Future:
        """Run ``fn(*args)`` on worker ``slot``, after its earlier submissions.

        Blocks while ``IN_FLIGHT_PER_WORKER * workers`` futures are
        unfinished.
        """
        self._window.acquire()
        with self._lock:
            if self._closed:
                self._window.release()
                raise RuntimeError("pool is shut down")
            self._in_flight += 1
            self._submitted_per_slot[slot] += 1
        try:
            future = self._executors[slot].submit(fn, *args)
        except BaseException:
            self._on_done(None)
            raise
        future.add_done_callback(self._on_done)
        return future

    def _on_done(self, _future: Future | None) -> None:
        with self._lock:
            self._in_flight -= 1
        self._window.release()

    # -- introspection -------------------------------------------------

    def depth(self) -> int:
        """Submitted-but-unfinished futures across all slots (queue depth)."""
        with self._lock:
            return self._in_flight

    def submitted_per_slot(self) -> list[int]:
        """Lifetime submission count per slot (worker utilization)."""
        with self._lock:
            return list(self._submitted_per_slot)

    # -- lifecycle -----------------------------------------------------

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Stop the slots (idempotent).  See ``ProcessPoolExecutor.shutdown``."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for executor in self._executors:
            executor.shutdown(wait=wait, cancel_futures=cancel_futures)

    def __enter__(self) -> "StickyWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)
