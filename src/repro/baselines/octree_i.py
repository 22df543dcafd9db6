"""Octree_i: occupancy codes grouped by parent occupancy (Garcia et al. [21]).

The improvement groups octree nodes by the occupancy code of their parent
node and *compresses each group separately* — the intuition being that a
parent's child pattern predicts its children's patterns.  We follow the
original construction literally: one arithmetic stream per non-empty group,
each with its own adaptive model, plus a directory of (context, count,
length) entries.

The paper observes Octree_i often underperforms plain Octree on LiDAR
scenes, and the literal construction shows why: a sparse cloud spreads its
occupancy bytes over many parent contexts, so each group is short — its
model barely adapts, and the per-stream flush and directory overhead is
paid up to 255 times.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.baselines.base import GeometryCompressor
from repro.entropy.backend import (
    decode_tagged_ints,
    decode_tagged_symbols,
    encode_tagged_ints,
    encode_tagged_symbols,
    get_backend,
)
from repro.entropy.varint import decode_uvarint, encode_uvarint
from repro.geometry.bbox import BoundingCube
from repro.geometry.points import PointCloud
from repro.octree.codec import OctreeCodec
from repro.octree.morton import MAX_DEPTH_3D, deinterleave3, interleave3
from repro.octree.octree import build_octree_structure, expand_occupancy_level

__all__ = ["OctreeICompressor"]

_HEADER = struct.Struct("<4d")


def _child_contexts(occupancy: np.ndarray) -> np.ndarray:
    """Context (parent occupancy byte) for each child of this level."""
    counts = (
        np.unpackbits(occupancy[:, None], axis=1, bitorder="little")
        .sum(axis=1)
        .astype(np.int64)
    )
    return np.repeat(occupancy.astype(np.int64), counts)


class OctreeICompressor(GeometryCompressor):
    """Octree with per-parent-occupancy occupancy-code groups ("Octree_i")."""

    name = "Octree_i"

    def __init__(self, q_xyz: float, backend: str = "adaptive-arith") -> None:
        super().__init__(q_xyz)
        self.backend = get_backend(backend)
        self._plain = OctreeCodec(self.leaf_side)

    def compress(self, cloud: PointCloud) -> bytes:
        xyz = cloud.xyz
        out = bytearray()
        encode_uvarint(len(xyz), out)
        if len(xyz) == 0:
            return bytes(out)
        cube, depth = BoundingCube.for_leaf_size(xyz, self.leaf_side)
        if depth > MAX_DEPTH_3D:
            raise ValueError("octree depth exceeds Morton key capacity")
        origin = np.asarray(cube.origin)
        cells = np.floor((xyz - origin) / self.leaf_side).astype(np.int64)
        np.clip(cells, 0, (1 << depth) - 1, out=cells)
        codes = interleave3(cells[:, 0], cells[:, 1], cells[:, 2])
        structure = build_octree_structure(codes, depth)
        out += _HEADER.pack(*cube.origin, self.leaf_side)
        encode_uvarint(depth, out)

        # Gather each node's occupancy byte into the group of its parent's
        # occupancy code (root -> context 0), preserving BFS order per group.
        groups: dict[int, list[int]] = {}
        parent_contexts = np.zeros(1, dtype=np.int64)
        for level in range(depth):
            occupancy = structure.occupancy[level]
            for context, byte in zip(parent_contexts.tolist(), occupancy.tolist()):
                groups.setdefault(context, []).append(byte)
            parent_contexts = _child_contexts(occupancy)
        # Directory + one separately-compressed stream per group.
        encode_uvarint(len(groups), out)
        for context in sorted(groups):
            symbols = groups[context]
            payload = encode_tagged_symbols(
                np.asarray(symbols, dtype=np.int64), 256, self.backend
            )
            encode_uvarint(context, out)
            encode_uvarint(len(symbols), out)
            encode_uvarint(len(payload), out)
            out += payload
        out += encode_tagged_ints(structure.leaf_counts - 1, self.backend)
        return bytes(out)

    def decompress(self, data: bytes) -> PointCloud:
        n_points, pos = decode_uvarint(data, 0)
        if n_points == 0:
            return PointCloud.empty()
        ox, oy, oz, leaf_side = _HEADER.unpack_from(data, pos)
        pos += _HEADER.size
        depth, pos = decode_uvarint(data, pos)
        n_groups, pos = decode_uvarint(data, pos)
        # Each group is a self-contained tagged stream, so it decodes fully
        # upfront; the traversal below consumes it through a cursor.  This
        # also lets group streams use the vectorized backend.
        group_symbols: dict[int, np.ndarray] = {}
        cursors: dict[int, int] = {}
        for _ in range(n_groups):
            context, pos = decode_uvarint(data, pos)
            count, pos = decode_uvarint(data, pos)
            size, pos = decode_uvarint(data, pos)
            group_symbols[context] = decode_tagged_symbols(data[pos : pos + size], count, 256)
            cursors[context] = 0
            pos += size
        nodes = np.zeros(1, dtype=np.int64)
        parent_contexts = np.zeros(1, dtype=np.int64)
        for _ in range(depth):
            occupancy = np.empty(len(nodes), dtype=np.uint8)
            # Equal contexts take consecutive symbols from their group, in
            # BFS order — exactly how the encoder appended them.
            for context in np.unique(parent_contexts):
                ctx = int(context)
                idx = np.flatnonzero(parent_contexts == context)
                cur = cursors[ctx]
                chunk = group_symbols[ctx][cur : cur + idx.size]
                if chunk.size != idx.size:
                    raise ValueError("occupancy group stream exhausted")
                occupancy[idx] = chunk
                cursors[ctx] = cur + idx.size
            nodes = expand_occupancy_level(nodes, occupancy)
            parent_contexts = _child_contexts(occupancy)
        counts = decode_tagged_ints(data[pos:]) + 1
        if counts.size != nodes.size:
            raise ValueError("leaf counts do not match tree")
        ix, iy, iz = deinterleave3(nodes)
        centers = np.column_stack(
            [
                ox + (ix + 0.5) * leaf_side,
                oy + (iy + 0.5) * leaf_side,
                oz + (iz + 0.5) * leaf_side,
            ]
        )
        return PointCloud(np.repeat(centers, counts, axis=0))

    def mapping(self, cloud: PointCloud) -> np.ndarray:
        return self._plain.mapping(cloud.xyz)
