"""The decode tier's process pool: slot routing, zero-copy transfer.

:mod:`repro.system.pool` underlies the server's decode offload tier.
These tests pin the properties the decode tier's correctness hangs on:
one slot's submissions land on one worker in FIFO order, new keys take
the slots in turn, the in-flight window bounds the queue, and a numpy
array crosses the process boundary through
:func:`~repro.system.pool.pack_array` /
:func:`~repro.system.pool.unpack_array` without a copy on arrival.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.geometry import PointCloud
from repro.system import StickyWorkerPool, pack_array, unpack_array
from repro.system import pool as pool_module

pytestmark = pytest.mark.timeout(180)


def _worker_pid() -> int:
    return os.getpid()


def _echo(key: str, seq: int) -> tuple[str, int, int]:
    return key, seq, os.getpid()


def _slow_echo(value: int, delay_s: float) -> int:
    time.sleep(delay_s)
    return value


def _boom() -> None:
    raise RuntimeError("worker exploded")


# -- zero-copy array transfer ------------------------------------------------


def test_pack_unpack_roundtrip_is_zero_copy():
    arr = np.arange(30, dtype=np.float64).reshape(10, 3)
    meta, buffers = pack_array(arr)
    assert isinstance(meta, bytes) and all(isinstance(b, bytes) for b in buffers)
    rebuilt = unpack_array(meta, buffers)
    assert np.array_equal(rebuilt, arr)
    assert rebuilt.dtype == np.float64 and rebuilt.shape == (10, 3)
    # The rebuilt array is a view over the shipped bytes, not a copy.
    assert not rebuilt.flags["OWNDATA"]
    assert not rebuilt.flags["WRITEABLE"]


def test_pack_array_handles_non_contiguous_input():
    arr = np.arange(60, dtype=np.float64).reshape(10, 6)[:, ::2]
    assert not arr.flags["C_CONTIGUOUS"]
    meta, buffers = pack_array(arr)
    assert np.array_equal(unpack_array(meta, buffers), arr)


def test_point_cloud_adopt_skips_the_defensive_copy():
    arr = np.arange(12, dtype=np.float64).reshape(4, 3)
    adopted = PointCloud._adopt(arr)
    # The constructor copies; _adopt must wrap the same buffer.
    assert adopted.xyz is arr
    assert not arr.flags["WRITEABLE"]  # frozen in place
    assert PointCloud(arr).xyz is not arr
    with pytest.raises(ValueError, match="float64"):
        PointCloud._adopt(np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(ValueError, match="C-contiguous"):
        PointCloud._adopt(np.zeros((4, 6))[:, ::2])


def test_adopted_cloud_survives_pool_roundtrip():
    arr = np.random.default_rng(3).uniform(-10, 10, size=(50, 3))
    cloud = PointCloud._adopt(unpack_array(*pack_array(arr)))
    assert np.array_equal(cloud.xyz, arr)
    assert len(cloud) == 50


# -- slot routing ------------------------------------------------------------


def test_new_keys_take_slots_in_turn():
    with StickyWorkerPool(3) as pool:
        assert [pool.next_slot() for _ in range(7)] == [0, 1, 2, 0, 1, 2, 0]
        # Handing out a slot submits nothing and keeps no per-key entry.
        assert pool.submitted_per_slot() == [0, 0, 0]


def test_same_slot_same_worker_in_fifo_order():
    with StickyWorkerPool(2) as pool:
        slots = {f"s{k}": pool.next_slot() for k in range(3)}
        futures = [
            pool.submit(slots[f"s{k}"], _echo, f"s{k}", i)
            for i in range(8)
            for k in range(3)
        ]
        results = [f.result() for f in futures]
        assert pool.submitted_per_slot() == [16, 8]
    by_key: dict[str, list[tuple[int, int]]] = {}
    for key, seq, pid in results:
        by_key.setdefault(key, []).append((seq, pid))
    for key, entries in by_key.items():
        # One worker process per key, results in submission order.
        assert len({pid for _, pid in entries}) == 1, key
        assert [seq for seq, _ in entries] == sorted(seq for seq, _ in entries)
    # 3 keys over 2 slots: both slots hold at least one key.
    assert len({entries[0][1] for entries in by_key.values()}) == 2


# -- in-flight window + depth ------------------------------------------------


def test_depth_tracks_in_flight_and_drains_to_zero():
    with StickyWorkerPool(1) as pool:
        futures = [pool.submit(0, _slow_echo, i, 0.05) for i in range(4)]
        assert pool.depth() > 0
        assert [f.result() for f in futures] == list(range(4))
        deadline = time.monotonic() + 5.0
        while pool.depth() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool.depth() == 0


def test_worker_exception_propagates_and_frees_the_window(monkeypatch):
    monkeypatch.setattr(pool_module, "IN_FLIGHT_PER_WORKER", 1)
    with StickyWorkerPool(1) as pool:
        with pytest.raises(RuntimeError, match="worker exploded"):
            pool.submit(0, _boom).result()
        # The window slot was released despite the failure.
        assert pool.submit(0, _slow_echo, 7, 0.0).result() == 7


# -- lifecycle + validation --------------------------------------------------


def test_shutdown_is_idempotent_and_blocks_new_submissions():
    pool = StickyWorkerPool(1)
    assert pool.submit(0, _worker_pid).result() > 0
    pool.shutdown()
    pool.shutdown()  # no-op
    with pytest.raises(RuntimeError, match="shut down"):
        pool.submit(0, _worker_pid)


def test_constructor_validation():
    with pytest.raises(ValueError, match="at least one worker"):
        StickyWorkerPool(0)
