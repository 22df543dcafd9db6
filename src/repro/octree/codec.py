"""Breadth-first occupancy-code octree compressor (Botsch et al. [7]).

DBGC uses this coder for the dense subset of the cloud; the plain Octree
baseline applies it to whole clouds.  The leaf cell side is ``2 * q_xyz`` so
snapping every point to its leaf center keeps the per-dimension error within
the bound (Section 4.2 of the paper).

Stream layout (format version 2)::

    uvarint n_points
    [if n_points > 0]
      float64 origin_x, origin_y, origin_z, leaf_side   (little-endian)
      uvarint depth
      uvarint n_occupancy                               (total occupancy bytes)
      uvarint len(occupancy_stream); occupancy_stream   (tagged, alphabet 256)
      counts_stream (tagged int sequence of per-leaf counts - 1)

The occupancy bytes of all levels travel as one flat entropy stream
(breadth-first, level after level), so the decoder can batch-decode them
with whichever backend the tag names before expanding the tree —
the property the vectorized rANS backend needs to pay off.

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
    EntropyBackend,
    decode_tagged_ints,
    decode_tagged_symbols,
    encode_tagged_ints,
    encode_tagged_symbols,
    get_backend,
)
from repro.entropy.varint import decode_uvarint, encode_uvarint
from repro.geometry.bbox import BoundingCube
from repro.octree.morton import MAX_DEPTH_3D, deinterleave3, interleave3
from repro.octree.octree import (
    build_octree_structure,
    check_occupancy_budget,
    expand_occupancy_level,
)

__all__ = ["OctreeCodec"]

_HEADER = struct.Struct("<4d")


class OctreeCodec:
    """Octree geometry codec with a fixed leaf cell side.

    Parameters
    ----------
    leaf_side:
        Side length of leaf cells; ``2 * q_xyz`` meets an error bound of
        ``q_xyz`` per dimension.
    backend:
        Entropy backend (registry name or instance) for the occupancy and
        count streams.  Decoding follows the stream tags, so any codec
        instance decodes payloads from any backend.
    """

    def __init__(
        self, leaf_side: float, backend: str | EntropyBackend = "adaptive-arith"
    ):
        if leaf_side <= 0:
            raise ValueError(f"leaf_side must be positive, got {leaf_side}")
        self.leaf_side = float(leaf_side)
        self.backend = get_backend(backend)

    # -- helpers ---------------------------------------------------------------

    def _quantize(self, xyz: np.ndarray) -> tuple[np.ndarray, BoundingCube, int]:
        cube, depth = BoundingCube.for_leaf_size(xyz, self.leaf_side)
        if depth > MAX_DEPTH_3D:
            raise ValueError(
                f"octree depth {depth} exceeds Morton key capacity "
                f"({MAX_DEPTH_3D}); increase leaf_side or shrink the scene"
            )
        origin = np.asarray(cube.origin)
        cells = np.floor((xyz - origin) / self.leaf_side).astype(np.int64)
        np.clip(cells, 0, (1 << depth) - 1, out=cells)
        codes = interleave3(cells[:, 0], cells[:, 1], cells[:, 2])
        return codes, cube, depth

    # -- encoding ----------------------------------------------------------------

    def encode(self, xyz: np.ndarray) -> bytes:
        """Compress an ``(n, 3)`` coordinate array."""
        xyz = np.asarray(xyz, dtype=np.float64)
        out = bytearray()
        encode_uvarint(len(xyz), out)
        if len(xyz) == 0:
            return bytes(out)
        codes, cube, depth = self._quantize(xyz)
        structure = build_octree_structure(codes, depth)
        out += _HEADER.pack(*cube.origin, self.leaf_side)
        encode_uvarint(depth, out)
        occupancy = structure.occupancy_stream()
        encode_uvarint(occupancy.size, out)
        if occupancy.size:
            payload = encode_tagged_symbols(occupancy, 256, self.backend)
            encode_uvarint(len(payload), out)
            out += payload
        out += encode_tagged_ints(structure.leaf_counts - 1, self.backend)
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
            return np.empty((0, 3), dtype=np.float64)
        ox, oy, oz, leaf_side = _HEADER.unpack_from(data, pos)
        pos += _HEADER.size
        depth, pos = decode_uvarint(data, pos)
        if depth > MAX_DEPTH_3D:
            raise ValueError(f"octree depth {depth} exceeds {MAX_DEPTH_3D}")
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
                    data[pos : pos + payload_len], n_occupancy, 256
                )
                pos += payload_len
            else:
                occupancy = np.empty(0, dtype=np.int64)
            leaf_codes = self._expand_occupancy(occupancy, depth, n_points)
            counts = decode_tagged_ints(data[pos:]) + 1
        if counts.size != leaf_codes.size:
            raise ValueError("leaf count stream does not match occupancy tree")
        if counts.sum() != n_points:
            raise ValueError("leaf counts do not add up to the point count")
        ix, iy, iz = deinterleave3(leaf_codes)
        centers = np.column_stack(
            [
                ox + (ix + 0.5) * leaf_side,
                oy + (iy + 0.5) * leaf_side,
                oz + (iz + 0.5) * leaf_side,
            ]
        )
        return np.repeat(centers, counts, axis=0)

    def _decode_occupancy_v1(self, payload: bytes, depth: int, n_points: int) -> np.ndarray:
        """Legacy v1 occupancy: one sequential adaptive model, no tag byte.

        Decodes one level per batch, since a level's size is the number of
        bits set in the level before it.
        """
        nodes = np.zeros(1, dtype=np.int64)
        if depth == 0:
            return nodes
        model = AdaptiveModel(256)
        decoder = ArithmeticDecoder(payload)
        for _ in range(depth):
            occupancy = np.array(decoder.decode_symbols(model, len(nodes)), dtype=np.uint8)
            nodes = expand_occupancy_level(nodes, occupancy)
            if len(nodes) > n_points:
                raise ValueError("octree level has more nodes than points")
        decoder.finish()
        return nodes

    @staticmethod
    def _expand_occupancy(occupancy: np.ndarray, depth: int, n_points: int) -> np.ndarray:
        """Rebuild the leaf Morton codes from the flat occupancy stream.

        Every node of a valid tree holds a point, so a level with more
        nodes than ``n_points`` is rejected before the next one grows.
        """
        nodes = np.zeros(1, dtype=np.int64)
        offset = 0
        for _ in range(depth):
            level = occupancy[offset : offset + len(nodes)]
            if level.size != len(nodes):
                raise ValueError("occupancy stream shorter than the tree")
            offset += len(nodes)
            nodes = expand_occupancy_level(nodes, level.astype(np.uint8))
            if len(nodes) > n_points:
                raise ValueError("octree level has more nodes than points")
        if offset != occupancy.size:
            raise ValueError("occupancy stream longer than the tree")
        return nodes

    # -- correspondence -----------------------------------------------------------

    def mapping(self, xyz: np.ndarray) -> np.ndarray:
        """Permutation taking original point order to decoded order.

        ``decoded[mapping[i]]`` is the reconstruction of ``xyz[i]``.  The
        mapping is recomputable from the input alone (stable sort by Morton
        code), so it costs no bits in the stream.
        """
        xyz = np.asarray(xyz, dtype=np.float64)
        if len(xyz) == 0:
            return np.empty(0, dtype=np.int64)
        codes, _, _ = self._quantize(xyz)
        order = np.argsort(codes, kind="stable")
        mapping = np.empty(len(xyz), dtype=np.int64)
        mapping[order] = np.arange(len(xyz))
        return mapping
