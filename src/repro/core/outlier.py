"""Optimized outlier compression (paper Section 3.6).

Outliers — sparse points on no polyline — are few but must still meet the
error bound.  The paper's optimized scheme builds a 2D quadtree on (x, y)
and carries z as a delta-coded attribute, because LiDAR scenes are wide and
flat; an octree would waste its z extent.  The octree and raw ("None")
alternatives of Table 2 are provided for the comparison benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import DBGCParams
from repro.entropy.arithmetic import decode_int_sequence
from repro.entropy.backend import decode_tagged_ints, encode_tagged_ints
from repro.entropy.varint import decode_uvarint, encode_uvarint
from repro.octree.codec import OctreeCodec

__all__ = ["encode_outliers", "decode_outliers"]

_MODE_BYTES = {"quadtree": 0, "octree": 1, "none": 2}
_MODE_NAMES = {v: k for k, v in _MODE_BYTES.items()}


def encode_outliers(
    xyz: np.ndarray, params: DBGCParams
) -> tuple[bytes, np.ndarray]:
    """Compress outlier points; returns (payload, original->decoded order)."""
    xyz = np.asarray(xyz, dtype=np.float64)
    n = len(xyz)
    out = bytearray([_MODE_BYTES[params.outlier_mode]])
    encode_uvarint(n, out)
    if n == 0:
        return bytes(out), np.empty(0, dtype=np.int64)
    if params.outlier_mode == "quadtree":
        codec = OctreeCodec(params.leaf_side, dims=2)
        xy = xyz[:, :2]
        tree_payload = codec.encode(xy)
        mapping = codec.mapping(xy)
        encode_uvarint(len(tree_payload), out)
        out += tree_payload
        # z travels in decoded (Morton) order: quantize, delta, entropy-code.
        order = np.argsort(mapping, kind="stable")  # decoded position -> original
        z_ints = np.round(xyz[order, 2] / params.leaf_side).astype(np.int64)
        out += encode_tagged_ints(np.diff(z_ints, prepend=np.int64(0)))
        return bytes(out), mapping
    if params.outlier_mode == "octree":
        codec = OctreeCodec(params.leaf_side)
        out += codec.encode(xyz)
        return bytes(out), codec.mapping(xyz)
    # "none": raw float32 coordinates (the Table 2 no-compression baseline).
    out += xyz.astype("<f4").tobytes()
    return bytes(out), np.arange(n, dtype=np.int64)


def decode_outliers(payload: bytes, params: DBGCParams, version: int = 2) -> np.ndarray:
    """Inverse of :func:`encode_outliers`; points in codec order.

    ``version=1`` selects the legacy sub-codec layouts (checksum-less z
    stream, raw arithmetic quadtree occupancy).  The tree must decode to
    the section's own point count ``n``.
    """
    if not payload:
        raise ValueError("empty outlier payload")
    mode = _MODE_NAMES.get(payload[0])
    if mode is None:
        raise ValueError(f"unknown outlier mode byte {payload[0]}")
    n, pos = decode_uvarint(payload, 1)
    if n == 0:
        return np.empty((0, 3), dtype=np.float64)
    if mode == "quadtree":
        tree_size, pos = decode_uvarint(payload, pos)
        codec = OctreeCodec(params.leaf_side, dims=2)
        xy = codec.decode(payload[pos : pos + tree_size], version=version)
        if len(xy) != n:
            raise ValueError("outlier count does not match its quadtree")
        pos += tree_size
        if version == 1:
            z_ints = np.cumsum(decode_int_sequence(payload[pos:], checksum=False))
        else:
            z_ints = np.cumsum(decode_tagged_ints(payload[pos:]))
        if len(z_ints) != len(xy):
            raise ValueError("outlier z stream does not match quadtree")
        return np.column_stack([xy, z_ints.astype(np.float64) * params.leaf_side])
    if mode == "octree":
        xyz = OctreeCodec(params.leaf_side).decode(payload[pos:], version=version)
        if len(xyz) != n:
            raise ValueError("outlier count does not match its octree")
        return xyz
    return (
        np.frombuffer(payload, dtype="<f4", count=3 * n, offset=pos)
        .reshape(n, 3)
        .astype(np.float64)
    )
