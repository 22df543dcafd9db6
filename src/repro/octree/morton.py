"""Morton (Z-order) bit interleaving for octree and quadtree cell keys.

Child numbering: bit 0 of a child index selects the upper x half, bit 1
the upper y half and, in 3D, bit 2 the upper z half.  A Morton code built
this way makes "parent of node" a ``dims``-bit shift and keeps sibling
order equal to child-index order, which the breadth-first codecs rely on.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_DEPTH_3D",
    "MAX_DEPTH_2D",
    "interleave3",
    "deinterleave3",
    "interleave2",
    "deinterleave2",
    "interleave",
    "deinterleave",
]

# int64 Morton keys: 3 bits/level in 3D, 2 bits/level in 2D.
MAX_DEPTH_3D = 20
MAX_DEPTH_2D = 31


def _spread3(v: np.ndarray) -> np.ndarray:
    """Insert two zero bits between each bit of ``v`` (20-bit inputs)."""
    v = v.astype(np.uint64)
    v = (v | (v << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    v = (v | (v << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    v = (v | (v << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    v = (v | (v << np.uint64(2))) & np.uint64(0x1249249249249249)
    return v


def _compact3(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_spread3`."""
    v = v.astype(np.uint64) & np.uint64(0x1249249249249249)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x10C30C30C30C30C3)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x100F00F00F00F00F)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x1F0000FF0000FF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x1F00000000FFFF)
    v = (v | (v >> np.uint64(32))) & np.uint64(0xFFFFF)
    return v


def _spread2(v: np.ndarray) -> np.ndarray:
    """Insert one zero bit between each bit of ``v`` (31-bit inputs)."""
    v = v.astype(np.uint64)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def _compact2(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_spread2`."""
    v = v.astype(np.uint64) & np.uint64(0x5555555555555555)
    v = (v | (v >> np.uint64(1))) & np.uint64(0x3333333333333333)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return v


def interleave3(ix: np.ndarray, iy: np.ndarray, iz: np.ndarray) -> np.ndarray:
    """Morton keys for integer cell coordinates (x least significant)."""
    for name, arr in (("ix", ix), ("iy", iy), ("iz", iz)):
        arr = np.asarray(arr)
        if arr.size and (arr.min() < 0 or arr.max() >= (1 << MAX_DEPTH_3D)):
            raise ValueError(f"{name} out of range for {MAX_DEPTH_3D}-level Morton keys")
    code = (
        _spread3(np.asarray(ix, dtype=np.uint64))
        | (_spread3(np.asarray(iy, dtype=np.uint64)) << np.uint64(1))
        | (_spread3(np.asarray(iz, dtype=np.uint64)) << np.uint64(2))
    )
    return code.astype(np.int64)


def deinterleave3(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`interleave3`."""
    c = np.asarray(codes, dtype=np.int64).astype(np.uint64)
    ix = _compact3(c)
    iy = _compact3(c >> np.uint64(1))
    iz = _compact3(c >> np.uint64(2))
    return ix.astype(np.int64), iy.astype(np.int64), iz.astype(np.int64)


def interleave2(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """2D Morton keys (x least significant)."""
    for name, arr in (("ix", ix), ("iy", iy)):
        arr = np.asarray(arr)
        if arr.size and (arr.min() < 0 or arr.max() >= (1 << MAX_DEPTH_2D)):
            raise ValueError(f"{name} out of range for {MAX_DEPTH_2D}-level Morton keys")
    code = _spread2(np.asarray(ix, dtype=np.uint64)) | (
        _spread2(np.asarray(iy, dtype=np.uint64)) << np.uint64(1)
    )
    return code.astype(np.int64)


def deinterleave2(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`interleave2`."""
    c = np.asarray(codes, dtype=np.int64).astype(np.uint64)
    return _compact2(c).astype(np.int64), _compact2(c >> np.uint64(1)).astype(np.int64)


def interleave(cells: np.ndarray) -> np.ndarray:
    """Morton keys of an ``(n, dims)`` integer cell array, ``dims`` 2 or 3."""
    if cells.shape[1] == 3:
        return interleave3(cells[:, 0], cells[:, 1], cells[:, 2])
    return interleave2(cells[:, 0], cells[:, 1])


def deinterleave(codes: np.ndarray, dims: int) -> np.ndarray:
    """Inverse of :func:`interleave`: the ``(n, dims)`` cell array."""
    if dims == 3:
        return np.column_stack(deinterleave3(codes))
    return np.column_stack(deinterleave2(codes))
