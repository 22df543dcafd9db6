"""Kd-tree geometry coder (Devillers–Gandoin), the algorithm behind Draco.

The coder quantizes coordinates onto a ``2 * q_xyz`` grid and recursively
halves the bounding cell along its widest dimension, transmitting at each
split only *how many* points fall in the left half — a number the decoder
bounds by the node's total, so a uniform arithmetic model spends
``log2(n + 1)`` bits per split.  When a subtree holds a single point its
remaining coordinate bits are written directly (the decoder knows ``n == 1``
and switches modes without a flag), which is what keeps the coder usable on
sparse LiDAR clouds.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.baselines.base import GeometryCompressor
from repro.entropy.arithmetic import ArithmeticDecoder, ArithmeticEncoder
from repro.entropy.bitio import BitReader, BitWriter
from repro.entropy.varint import decode_uvarint, encode_uvarint
from repro.geometry.points import PointCloud

__all__ = ["KdTreeCompressor"]

_HEADER = struct.Struct("<4d")


class KdTreeCompressor(GeometryCompressor):
    """Draco-style kd-tree point-count coder (the "Draco(kd)" line)."""

    name = "Draco(kd)"

    def _quantize(self, xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
        lo = xyz.min(axis=0)
        cells = np.floor((xyz - lo) / self.leaf_side).astype(np.int64)
        bits = [int(cells[:, d].max()).bit_length() for d in range(3)]
        return cells, lo, bits

    def compress(self, cloud: PointCloud) -> bytes:
        xyz = cloud.xyz
        out = bytearray()
        encode_uvarint(len(xyz), out)
        if len(xyz) == 0:
            return bytes(out)
        cells, lo, bits = self._quantize(xyz)
        out += _HEADER.pack(lo[0], lo[1], lo[2], self.leaf_side)
        for b in bits:
            encode_uvarint(b, out)
        encoder = ArithmeticEncoder()
        direct = BitWriter()
        pts = cells.copy()
        # Explicit stack: (lo_idx, hi_idx, cell_lo, remaining_bits).
        stack = [(0, len(pts), (0, 0, 0), tuple(bits))]
        while stack:
            i0, i1, cell_lo, rem = stack.pop()
            n = i1 - i0
            if max(rem) == 0:
                continue  # fully resolved cell: n duplicates, nothing to send
            if n == 1:
                # Direct mode: emit the remaining bits of this point.
                for d in range(3):
                    if rem[d]:
                        offset = int(pts[i0, d]) - cell_lo[d] * (1 << rem[d])
                        direct.write_bits(offset, rem[d])
                continue
            d = int(np.argmax(rem))
            half = 1 << (rem[d] - 1)
            mid = cell_lo[d] * (1 << rem[d]) + half
            sub = pts[i0:i1]
            left_mask = sub[:, d] < mid
            n_left = int(left_mask.sum())
            encoder.encode(n_left, n_left + 1, n + 1)
            # Stable partition keeps the replayed order deterministic.
            pts[i0:i1] = np.concatenate([sub[left_mask], sub[~left_mask]])
            new_rem_l = list(rem)
            new_rem_l[d] -= 1
            new_rem = tuple(new_rem_l)
            left_cell = tuple(
                cell_lo[k] * 2 if k == d else cell_lo[k] for k in range(3)
            )
            right_cell = tuple(
                cell_lo[k] * 2 + 1 if k == d else cell_lo[k] for k in range(3)
            )
            # Process left first: push right, then left; skip empty halves.
            if n - n_left:
                stack.append((i0 + n_left, i1, right_cell, new_rem))
            if n_left:
                stack.append((i0, i0 + n_left, left_cell, new_rem))
        payload = encoder.finish()
        encode_uvarint(len(payload), out)
        out += payload
        out += direct.getvalue()
        return bytes(out)

    def decompress(self, data: bytes) -> PointCloud:
        n_points, pos = decode_uvarint(data, 0)
        if n_points == 0:
            return PointCloud.empty()
        lx, ly, lz, step = _HEADER.unpack_from(data, pos)
        pos += _HEADER.size
        bits = []
        for _ in range(3):
            b, pos = decode_uvarint(data, pos)
            bits.append(b)
        payload_len, pos = decode_uvarint(data, pos)
        decoder = ArithmeticDecoder(data[pos : pos + payload_len])
        direct = BitReader(data[pos + payload_len :])
        out_cells: list[tuple[int, int, int, int]] = []  # (x, y, z, count)
        stack = [(n_points, (0, 0, 0), tuple(bits))]
        while stack:
            n, cell_lo, rem = stack.pop()
            if max(rem) == 0:
                out_cells.append((cell_lo[0], cell_lo[1], cell_lo[2], n))
                continue
            if n == 1:
                coords = []
                for d in range(3):
                    low = cell_lo[d] * (1 << rem[d])
                    coords.append(low + (direct.read_bits(rem[d]) if rem[d] else 0))
                out_cells.append((coords[0], coords[1], coords[2], 1))
                continue
            d = int(np.argmax(rem))
            target = decoder.decode_target(n + 1)
            decoder.consume(target, target + 1, n + 1)
            n_left = target
            new_rem_l = list(rem)
            new_rem_l[d] -= 1
            new_rem = tuple(new_rem_l)
            left_cell = tuple(
                cell_lo[k] * 2 if k == d else cell_lo[k] for k in range(3)
            )
            right_cell = tuple(
                cell_lo[k] * 2 + 1 if k == d else cell_lo[k] for k in range(3)
            )
            if n - n_left:
                stack.append((n - n_left, right_cell, new_rem))
            if n_left:
                stack.append((n_left, left_cell, new_rem))
        decoder.finish()
        cells = np.array([c[:3] for c in out_cells], dtype=np.float64)
        counts = np.array([c[3] for c in out_cells], dtype=np.int64)
        centers = (cells + 0.5) * step + np.array([lx, ly, lz])
        return PointCloud(np.repeat(centers, counts, axis=0))

    def mapping(self, cloud: PointCloud) -> np.ndarray:
        """Replay the partition to recover the decode-order permutation."""
        xyz = cloud.xyz
        if len(xyz) == 0:
            return np.empty(0, dtype=np.int64)
        cells, _, bits = self._quantize(xyz)
        pts = cells.copy()
        order = np.arange(len(pts), dtype=np.int64)
        emitted: list[np.ndarray] = []
        stack = [(0, len(pts), tuple(bits), (0, 0, 0))]
        while stack:
            i0, i1, rem, cell_lo = stack.pop()
            n = i1 - i0
            if max(rem) == 0 or n == 1:
                emitted.append(order[i0:i1].copy())
                continue
            d = int(np.argmax(rem))
            half = 1 << (rem[d] - 1)
            mid = cell_lo[d] * (1 << rem[d]) + half
            sub = pts[i0:i1]
            sub_order = order[i0:i1]
            left_mask = sub[:, d] < mid
            n_left = int(left_mask.sum())
            pts[i0:i1] = np.concatenate([sub[left_mask], sub[~left_mask]])
            order[i0:i1] = np.concatenate([sub_order[left_mask], sub_order[~left_mask]])
            new_rem_l = list(rem)
            new_rem_l[d] -= 1
            new_rem = tuple(new_rem_l)
            left_cell = tuple(
                cell_lo[k] * 2 if k == d else cell_lo[k] for k in range(3)
            )
            right_cell = tuple(
                cell_lo[k] * 2 + 1 if k == d else cell_lo[k] for k in range(3)
            )
            if n - n_left:
                stack.append((i0 + n_left, i1, new_rem, right_cell))
            if n_left:
                stack.append((i0, i0 + n_left, new_rem, left_cell))
        mapping = np.empty(len(pts), dtype=np.int64)
        position = 0
        for chunk in emitted:
            for original in chunk.tolist():
                mapping[original] = position
                position += 1
        return mapping
