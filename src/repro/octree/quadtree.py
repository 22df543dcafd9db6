"""2D quadtree codec for DBGC's optimized outlier compressor.

The paper (Section 3.6) compresses outlier ``(x, y)`` with a quadtree and
keeps ``z`` as a per-point attribute, because LiDAR scenes are wide and flat:
an octree would waste most of its z extent.  This module handles the 2D
part; :mod:`repro.core.outlier` adds the z stream.

Stream layout mirrors :class:`repro.octree.codec.OctreeCodec` with 4-way
occupancy nibbles (stored as bytes, alphabet 16).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.entropy.arithmetic import (
    AdaptiveModel,
    ArithmeticDecoder,
    decode_int_sequence,
)
from repro.entropy.backend import (
    decode_tagged_ints,
    decode_tagged_symbols,
    encode_tagged_ints,
    encode_tagged_symbols,
)
from repro.entropy.varint import decode_uvarint, encode_uvarint
from repro.geometry.bbox import pow2_cover
from repro.octree.morton import MAX_DEPTH_2D, deinterleave2, interleave2
from repro.octree.octree import check_occupancy_budget

__all__ = ["QuadtreeCodec"]

_HEADER = struct.Struct("<3d")


def _expand_level(node_codes: np.ndarray, occupancy: np.ndarray, n_points: int) -> np.ndarray:
    """The next level's node codes; every node of a valid tree holds a point."""
    bits = np.unpackbits(occupancy.astype(np.uint8)[:, None], axis=1, bitorder="little")
    rows, child_index = np.nonzero(bits[:, :4])
    if len(rows) > n_points:
        raise ValueError("quadtree level has more nodes than points")
    return (node_codes[rows] << 2) | child_index.astype(np.int64)


class QuadtreeCodec:
    """Quadtree codec over ``(x, y)`` with fixed leaf cell side."""

    def __init__(self, leaf_side: float):
        if leaf_side <= 0:
            raise ValueError(f"leaf_side must be positive, got {leaf_side}")
        self.leaf_side = float(leaf_side)

    def _quantize(self, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        lo = xy.min(axis=0)
        extent = float(max(xy.max(axis=0) - lo)) if len(xy) else 0.0
        _side, depth = pow2_cover(extent, self.leaf_side)
        if depth > MAX_DEPTH_2D:
            raise ValueError(f"quadtree depth {depth} exceeds Morton capacity")
        cells = np.floor((xy - lo) / self.leaf_side).astype(np.int64)
        np.clip(cells, 0, (1 << depth) - 1, out=cells)
        return interleave2(cells[:, 0], cells[:, 1]), lo, depth

    def encode(self, xy: np.ndarray) -> bytes:
        """Compress an ``(n, 2)`` coordinate array."""
        xy = np.asarray(xy, dtype=np.float64)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError(f"expected (n, 2) array, got {xy.shape}")
        out = bytearray()
        encode_uvarint(len(xy), out)
        if len(xy) == 0:
            return bytes(out)
        codes, lo, depth = self._quantize(xy)
        out += _HEADER.pack(lo[0], lo[1], self.leaf_side)
        encode_uvarint(depth, out)
        leaf_codes, counts = np.unique(codes, return_counts=True)
        # Build per-level occupancy bottom-up.
        levels = [leaf_codes]
        for _ in range(depth):
            levels.append(np.unique(levels[-1] >> 2))
        levels.reverse()
        occupancy_chunks = []
        for level in range(depth):
            children = levels[level + 1]
            parents = children >> 2
            bits = (np.uint8(1) << (children & 3).astype(np.uint8)).astype(np.uint8)
            boundaries = np.concatenate([[0], np.flatnonzero(np.diff(parents)) + 1])
            occupancy_chunks.append(np.bitwise_or.reduceat(bits, boundaries))
        occupancy = (
            np.concatenate(occupancy_chunks) if occupancy_chunks else np.empty(0, np.uint8)
        )
        encode_uvarint(occupancy.size, out)
        if occupancy.size:
            payload = encode_tagged_symbols(occupancy, 16)
            encode_uvarint(len(payload), out)
            out += payload
        out += encode_tagged_ints(counts - 1)
        return bytes(out)

    def decode(self, data: bytes, version: int = 2) -> np.ndarray:
        """Decompress to leaf-center ``(x, y)`` (sorted Morton order).

        ``version=1`` reads the legacy layout (raw sequential adaptive
        arithmetic occupancy, checksum-less count sequence).
        """
        n_points, pos = decode_uvarint(data, 0)
        if n_points == 0:
            return np.empty((0, 2), dtype=np.float64)
        ox, oy, leaf_side = _HEADER.unpack_from(data, pos)
        pos += _HEADER.size
        depth, pos = decode_uvarint(data, pos)
        if depth > MAX_DEPTH_2D:
            raise ValueError(f"quadtree depth {depth} exceeds {MAX_DEPTH_2D}")
        if version == 1:
            payload_len, pos = decode_uvarint(data, pos)
            nodes = np.zeros(1, dtype=np.int64)
            if depth > 0:
                model = AdaptiveModel(16)
                decoder = ArithmeticDecoder(data[pos : pos + payload_len])
                for _ in range(depth):
                    occupancy = decoder.decode_symbols(model, len(nodes))
                    nodes = _expand_level(nodes, np.array(occupancy, np.uint8), n_points)
                decoder.finish()
            pos += payload_len
            counts = decode_int_sequence(data[pos:], checksum=False) + 1
            if counts.size != nodes.size:
                raise ValueError("leaf count stream does not match quadtree")
            ix, iy = deinterleave2(nodes)
            centers = np.column_stack(
                [ox + (ix + 0.5) * leaf_side, oy + (iy + 0.5) * leaf_side]
            )
            return np.repeat(centers, counts, axis=0)
        n_occupancy, pos = decode_uvarint(data, pos)
        check_occupancy_budget(n_occupancy, depth, n_points)
        if n_occupancy:
            payload_len, pos = decode_uvarint(data, pos)
            occupancy = decode_tagged_symbols(data[pos : pos + payload_len], n_occupancy, 16)
            pos += payload_len
        else:
            occupancy = np.empty(0, dtype=np.int64)
        nodes = np.zeros(1, dtype=np.int64)
        offset = 0
        for _ in range(depth):
            level = occupancy[offset : offset + len(nodes)]
            if level.size != len(nodes):
                raise ValueError("occupancy stream shorter than the tree")
            offset += len(nodes)
            nodes = _expand_level(nodes, level.astype(np.uint8), n_points)
        if offset != occupancy.size:
            raise ValueError("occupancy stream longer than the tree")
        counts = decode_tagged_ints(data[pos:]) + 1
        if counts.size != nodes.size:
            raise ValueError("leaf count stream does not match quadtree")
        ix, iy = deinterleave2(nodes)
        centers = np.column_stack(
            [ox + (ix + 0.5) * leaf_side, oy + (iy + 0.5) * leaf_side]
        )
        return np.repeat(centers, counts, axis=0)

    def mapping(self, xy: np.ndarray) -> np.ndarray:
        """Original-order -> decoded-order permutation (stable Morton sort)."""
        xy = np.asarray(xy, dtype=np.float64)
        if len(xy) == 0:
            return np.empty(0, dtype=np.int64)
        codes, _, _ = self._quantize(xy)
        order = np.argsort(codes, kind="stable")
        mapping = np.empty(len(xy), dtype=np.int64)
        mapping[order] = np.arange(len(xy))
        return mapping
