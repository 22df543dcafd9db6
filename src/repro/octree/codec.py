"""Breadth-first occupancy-code tree compressor (Botsch et al. [7]), 2D or 3D.

At ``dims=3`` this is the octree DBGC uses for the dense subset of the
cloud, and the plain Octree baseline applies to whole clouds.  At
``dims=2`` it is the quadtree of DBGC's optimized outlier compressor
(Section 3.6): ``(x, y)`` in the tree, with :mod:`repro.core.outlier`
carrying ``z`` as an attribute, because LiDAR scenes are wide and flat.
The leaf cell side is ``2 * q_xyz`` so snapping every point to its leaf
center keeps the per-dimension error within the bound (Section 4.2 of the
paper).

Stream layout (format version 2)::

    uvarint n_points                                    (at most MAX_POINTS)
    [if n_points > 0]
      float64 origin (dims values), leaf_side           (little-endian)
      uvarint depth
      uvarint n_occupancy                               (total occupancy symbols)
      uvarint len(occupancy_stream); occupancy_stream   (tagged, alphabet 2**2**dims)
      counts_stream (tagged int sequence of per-leaf counts - 1)

The occupancy symbols of all levels travel as one flat entropy stream
(breadth-first, level after level): bytes in 3D, 4-bit nibbles (alphabet
16) in 2D.  The decoder batch-decodes them before expanding the tree.

Per-leaf point counts preserve the one-to-one mapping the problem statement
requires (duplicated points are not merged — the analogue of disabling
``mergeDuplicatedPoints`` in TMC13).
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
from repro.octree.octree import (
    MAX_DEPTH,
    build_octree_structure,
    check_occupancy_budget,
    check_point_count,
    expand_occupancy_level,
    leaf_points,
    quantize,
    stable_mapping,
)

__all__ = ["OctreeCodec"]


class OctreeCodec:
    """Occupancy-tree geometry codec with a fixed leaf cell side.

    Parameters
    ----------
    leaf_side:
        Side length of leaf cells; ``2 * q_xyz`` meets an error bound of
        ``q_xyz`` per dimension.
    dims:
        3 codes ``(n, 3)`` points in an octree; 2 codes ``(n, 2)`` points
        in a quadtree.
    """

    def __init__(self, leaf_side: float, dims: int = 3):
        if leaf_side <= 0:
            raise ValueError(f"leaf_side must be positive, got {leaf_side}")
        if dims not in MAX_DEPTH:
            raise ValueError(f"dims must be 2 or 3, got {dims}")
        self.leaf_side = float(leaf_side)
        self.dims = dims
        self._header = struct.Struct(f"<{dims + 1}d")
        self._alphabet = 1 << (1 << dims)

    def _points(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.dims:
            raise ValueError(f"expected (n, {self.dims}) array, got {points.shape}")
        return points

    # -- encoding ----------------------------------------------------------------

    def encode(self, points: np.ndarray) -> bytes:
        """Compress an ``(n, dims)`` coordinate array of at most ``MAX_POINTS``."""
        points = self._points(points)
        out = bytearray()
        encode_uvarint(len(points), out)
        if len(points) == 0:
            return bytes(out)
        codes, origin, depth = quantize(points, self.leaf_side)
        structure = build_octree_structure(codes, depth, self.dims)
        out += self._header.pack(*origin, self.leaf_side)
        encode_uvarint(depth, out)
        occupancy = structure.occupancy_stream()
        encode_uvarint(occupancy.size, out)
        if occupancy.size:
            payload = encode_tagged_symbols(occupancy, self._alphabet)
            encode_uvarint(len(payload), out)
            out += payload
        out += encode_tagged_ints(structure.leaf_counts - 1)
        return bytes(out)

    # -- decoding ----------------------------------------------------------------

    def decode(self, data: bytes, version: int = 2) -> np.ndarray:
        """Decompress to leaf-center coordinates (sorted Morton order).

        ``version=1`` reads the legacy stream layout (raw sequential
        adaptive-arithmetic occupancy, checksum-less count sequence), so
        v1 DBGC containers keep decoding bit-identically.
        """
        n_points, pos = decode_uvarint(data, 0)
        if n_points == 0:
            return np.empty((0, self.dims), dtype=np.float64)
        check_point_count(n_points)
        *origin, leaf_side = self._header.unpack_from(data, pos)
        pos += self._header.size
        depth, pos = decode_uvarint(data, pos)
        if depth > MAX_DEPTH[self.dims]:
            raise ValueError(f"tree depth {depth} exceeds {MAX_DEPTH[self.dims]}")
        if version == 1:
            payload_len, pos = decode_uvarint(data, pos)
            leaf_codes = self._decode_occupancy_v1(
                data[pos : pos + payload_len], depth, n_points
            )
            pos += payload_len
            counts = decode_int_sequence(data[pos:], checksum=False) + 1
        else:
            n_occupancy, pos = decode_uvarint(data, pos)
            check_occupancy_budget(n_occupancy, depth, n_points)
            if n_occupancy:
                payload_len, pos = decode_uvarint(data, pos)
                occupancy = decode_tagged_symbols(
                    data[pos : pos + payload_len], n_occupancy, self._alphabet
                )
                pos += payload_len
            else:
                occupancy = np.empty(0, dtype=np.int64)
            leaf_codes = self._expand_occupancy(occupancy, depth, n_points)
            counts = decode_tagged_ints(data[pos:]) + 1
        return leaf_points(leaf_codes, counts, n_points, np.array(origin), leaf_side)

    def _decode_occupancy_v1(self, payload: bytes, depth: int, n_points: int) -> np.ndarray:
        """Legacy v1 occupancy: one sequential adaptive model, no tag byte.

        Decodes one level per batch, since a level's size is the number of
        bits set in the level before it.
        """
        nodes = np.zeros(1, dtype=np.int64)
        if depth == 0:
            return nodes
        model = AdaptiveModel(self._alphabet)
        decoder = ArithmeticDecoder(payload)
        for _ in range(depth):
            occupancy = np.array(decoder.decode_symbols(model, len(nodes)), dtype=np.uint8)
            nodes = expand_occupancy_level(nodes, occupancy, n_points, self.dims)
        decoder.finish()
        return nodes

    def _expand_occupancy(self, occupancy: np.ndarray, depth: int, n_points: int) -> np.ndarray:
        """Rebuild the leaf Morton codes from the flat occupancy stream."""
        nodes = np.zeros(1, dtype=np.int64)
        offset = 0
        for _ in range(depth):
            level = occupancy[offset : offset + len(nodes)]
            if level.size != len(nodes):
                raise ValueError("occupancy stream shorter than the tree")
            offset += len(nodes)
            nodes = expand_occupancy_level(nodes, level, n_points, self.dims)
        if offset != occupancy.size:
            raise ValueError("occupancy stream longer than the tree")
        return nodes

    # -- correspondence -----------------------------------------------------------

    def mapping(self, points: np.ndarray) -> np.ndarray:
        """Permutation taking original point order to decoded order.

        ``decoded[mapping[i]]`` is the reconstruction of ``points[i]``
        (:func:`~repro.octree.octree.stable_mapping`).
        """
        points = self._points(points)
        if len(points) == 0:
            return np.empty(0, dtype=np.int64)
        return stable_mapping(quantize(points, self.leaf_side)[0])
