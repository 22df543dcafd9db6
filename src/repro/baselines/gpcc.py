"""Simplified MPEG G-PCC geometry coder (the "G-PCC" baseline line).

Reproduces the two optimizations the paper credits for G-PCC's relative
strength on LiDAR clouds (Section 2.2 / 4.2):

- *neighbour-dependent entropy coding* — occupancy bytes are coded under a
  context chosen from the parent node's occupancy byte, so sparse chains
  and dense blocks use different statistics;
- *direct point coding* (IDCM) — once a subtree holds a single point, a
  flag is sent and the point's remaining coordinate bits are written
  directly, instead of paying per-level occupancy bytes down to the leaf.

Duplicate points are preserved via leaf counts (the paper disables
``mergeDuplicatedPoints`` so the mapping stays one-to-one).
"""

from __future__ import annotations

import struct
from collections import deque

import numpy as np

from repro.baselines.base import GeometryCompressor
from repro.entropy.arithmetic import (
    AdaptiveModel,
    ArithmeticDecoder,
    ArithmeticEncoder,
)
from repro.entropy.backend import decode_tagged_ints, encode_tagged_ints, get_backend
from repro.entropy.bitio import BitReader, BitWriter
from repro.entropy.varint import decode_uvarint, encode_uvarint
from repro.geometry.bbox import BoundingCube
from repro.geometry.points import PointCloud
from repro.octree.morton import MAX_DEPTH_3D, deinterleave3, interleave3

__all__ = ["GpccCompressor"]

_HEADER = struct.Struct("<4d")

#: IDCM requires at least this many unresolved levels to pay off.
_IDCM_MIN_LEVELS = 2


class GpccCompressor(GeometryCompressor):
    """Octree + parent-popcount contexts + direct point coding."""

    name = "G-PCC"

    def __init__(self, q_xyz: float, backend: str = "adaptive-arith") -> None:
        super().__init__(q_xyz)
        # The occupancy and IDCM-flag streams are context-interleaved and
        # adapt symbol-by-symbol, which is incompatible with a two-pass
        # table-building coder — they always use adaptive arithmetic.  The
        # backend only switches the self-contained leaf-count stream.
        self.backend = get_backend(backend)

    def _occupancy_models(self) -> dict[int, AdaptiveModel]:
        # Lazily built: context = the parent's occupancy byte (0 at the root),
        # the "neighbour-dependent" conditioning of G-PCC's entropy stage.
        return {}

    def _occupancy_model(
        self, models: dict[int, AdaptiveModel], context: int
    ) -> AdaptiveModel:
        model = models.get(context)
        if model is None:
            model = AdaptiveModel(256)
            models[context] = model
        return model

    def _flag_models(self) -> list[AdaptiveModel]:
        # Context = min(remaining levels, 8).
        return [AdaptiveModel(2) for _ in range(9)]

    def _codes(self, xyz: np.ndarray) -> tuple[np.ndarray, BoundingCube, int]:
        cube, depth = BoundingCube.for_leaf_size(xyz, self.leaf_side)
        if depth > MAX_DEPTH_3D:
            raise ValueError("octree depth exceeds Morton key capacity")
        origin = np.asarray(cube.origin)
        cells = np.floor((xyz - origin) / self.leaf_side).astype(np.int64)
        np.clip(cells, 0, (1 << depth) - 1, out=cells)
        return interleave3(cells[:, 0], cells[:, 1], cells[:, 2]), cube, depth

    def compress(self, cloud: PointCloud) -> bytes:
        xyz = cloud.xyz
        out = bytearray()
        encode_uvarint(len(xyz), out)
        if len(xyz) == 0:
            return bytes(out)
        codes, cube, depth = self._codes(xyz)
        codes = np.sort(codes)
        out += _HEADER.pack(*cube.origin, self.leaf_side)
        encode_uvarint(depth, out)

        occ_models = self._occupancy_models()
        flag_models = self._flag_models()
        encoder = ArithmeticEncoder()
        direct = BitWriter()
        leaf_counts: list[int] = []
        codes_list = codes  # sorted array; nodes are contiguous slices
        # Breadth-first: (lo, hi, level, parent_ctx).  BFS keeps each
        # context's symbol stream level-stratified, which the adaptive
        # models track far better than a depth-first interleaving.
        queue = deque([(0, len(codes_list), 0, 0)])
        while queue:
            lo, hi, level, parent_ctx = queue.popleft()
            n = hi - lo
            remaining = depth - level
            if remaining == 0:
                leaf_counts.append(n)
                continue
            if level > 0 and remaining >= _IDCM_MIN_LEVELS:
                flag = 1 if n == 1 else 0
                encoder.encode_symbol(flag_models[min(remaining, 8)], flag)
                if flag:
                    mask = (1 << (3 * remaining)) - 1
                    direct.write_bits(int(codes_list[lo]) & mask, 3 * remaining)
                    continue
            shift = 3 * (remaining - 1)
            child_ids = (codes_list[lo:hi] >> shift) & 7
            present, starts = np.unique(child_ids, return_index=True)
            occupancy = int(np.bitwise_or.reduce(1 << present))
            encoder.encode_symbol(
                self._occupancy_model(occ_models, parent_ctx), occupancy
            )
            child_ctx = occupancy
            bounds = np.append(starts, n)
            for i in range(len(present)):
                queue.append(
                    (lo + int(bounds[i]), lo + int(bounds[i + 1]), level + 1, child_ctx)
                )
        payload = encoder.finish()
        encode_uvarint(len(payload), out)
        out += payload
        direct_payload = direct.getvalue()
        encode_uvarint(len(direct_payload), out)
        out += direct_payload
        out += encode_tagged_ints(
            np.asarray(leaf_counts, dtype=np.int64) - 1, self.backend
        )
        return bytes(out)

    def decompress(self, data: bytes) -> PointCloud:
        n_points, pos = decode_uvarint(data, 0)
        if n_points == 0:
            return PointCloud.empty()
        ox, oy, oz, leaf_side = _HEADER.unpack_from(data, pos)
        pos += _HEADER.size
        depth, pos = decode_uvarint(data, pos)
        payload_len, pos = decode_uvarint(data, pos)
        decoder = ArithmeticDecoder(data[pos : pos + payload_len])
        pos += payload_len
        direct_len, pos = decode_uvarint(data, pos)
        direct = BitReader(data[pos : pos + direct_len])
        pos += direct_len
        counts_stream = data[pos:]

        occ_models = self._occupancy_models()
        flag_models = self._flag_models()
        leaves: list[int] = []  # leaf codes in traversal order
        tree_leaf_slots: list[int] = []  # indices into `leaves` needing counts
        queue = deque([(0, 0, 0)])  # (prefix, level, parent_ctx)
        while queue:
            prefix, level, parent_ctx = queue.popleft()
            remaining = depth - level
            if remaining == 0:
                tree_leaf_slots.append(len(leaves))
                leaves.append(prefix)
                continue
            if level > 0 and remaining >= _IDCM_MIN_LEVELS:
                flag = decoder.decode_symbol(flag_models[min(remaining, 8)])
                if flag:
                    suffix = direct.read_bits(3 * remaining)
                    leaves.append((prefix << (3 * remaining)) | suffix)
                    continue
            occupancy = decoder.decode_symbol(
                self._occupancy_model(occ_models, parent_ctx)
            )
            present = [i for i in range(8) if occupancy & (1 << i)]
            child_ctx = occupancy
            for i in present:
                queue.append(((prefix << 3) | i, level + 1, child_ctx))
        decoder.finish()
        tree_counts = decode_tagged_ints(counts_stream) + 1
        if tree_counts.size != len(tree_leaf_slots):
            raise ValueError("leaf count stream does not match tree")
        counts = np.ones(len(leaves), dtype=np.int64)
        counts[tree_leaf_slots] = tree_counts
        leaf_codes = np.asarray(leaves, dtype=np.int64)
        ix, iy, iz = deinterleave3(leaf_codes)
        centers = np.column_stack(
            [
                ox + (ix + 0.5) * leaf_side,
                oy + (iy + 0.5) * leaf_side,
                oz + (iz + 0.5) * leaf_side,
            ]
        )
        return PointCloud(np.repeat(centers, counts, axis=0))

    def mapping(self, cloud: PointCloud) -> np.ndarray:
        """Original-index -> decoded-index permutation.

        Decoded points are emitted when their node leaves the BFS queue
        (IDCM leaves surface earlier than fully-expanded ones), so the
        order is recovered by replaying the traversal over the sorted
        codes — no entropy coding needed.
        """
        xyz = cloud.xyz
        if len(xyz) == 0:
            return np.empty(0, dtype=np.int64)
        codes, _, depth = self._codes(xyz)
        sorted_to_original = np.argsort(codes, kind="stable")
        sorted_codes = codes[sorted_to_original]
        emitted: list[tuple[int, int]] = []
        queue = deque([(0, len(sorted_codes), 0)])
        while queue:
            lo, hi, level = queue.popleft()
            n = hi - lo
            remaining = depth - level
            if remaining == 0:
                emitted.append((lo, hi))
                continue
            if level > 0 and remaining >= _IDCM_MIN_LEVELS and n == 1:
                emitted.append((lo, hi))
                continue
            shift = 3 * (remaining - 1)
            child_ids = (sorted_codes[lo:hi] >> shift) & 7
            _, starts = np.unique(child_ids, return_index=True)
            bounds = np.append(starts, n)
            for i in range(len(bounds) - 1):
                queue.append((lo + int(bounds[i]), lo + int(bounds[i + 1]), level + 1))
        mapping = np.empty(len(xyz), dtype=np.int64)
        position = 0
        for lo, hi in emitted:
            for slot in range(lo, hi):
                mapping[sorted_to_original[slot]] = position
                position += 1
        return mapping
