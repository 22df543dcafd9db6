"""LEB128 varints and zigzag mapping for signed integers.

Delta-encoded coordinate streams are signed and concentrated near zero
(paper Step 2), so zigzag + varint gives a compact byte representation that
the arithmetic/Huffman back-ends can then squeeze further.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "encode_uvarint",
    "decode_uvarint",
    "encode_varints",
    "decode_varints",
    "zigzag_encode",
    "zigzag_decode",
]


def encode_uvarint(value: int, out: bytearray) -> None:
    """Append one unsigned LEB128 varint to ``out``."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def decode_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """Decode one unsigned varint at ``pos``; return ``(value, next_pos)``."""
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise ValueError("varint too long")


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map signed integers to unsigned: 0,-1,1,-2,2 -> 0,1,2,3,4."""
    v = np.asarray(values, dtype=np.int64)
    return ((v << 1) ^ (v >> 63)).astype(np.uint64)


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    v = np.asarray(values, dtype=np.uint64)
    return ((v >> np.uint64(1)).astype(np.int64)) ^ -(v & np.uint64(1)).astype(np.int64)


#: ``_LEN_THRESHOLDS[k]`` is the smallest value needing ``k + 2`` bytes.
_LEN_THRESHOLDS = (np.uint64(1) << (np.uint64(7) * np.arange(1, 10, dtype=np.uint64)))


def encode_varints(values: Iterable[int] | np.ndarray, signed: bool = True) -> bytes:
    """Encode an integer sequence as concatenated varints (vectorized).

    ``signed=True`` zigzag-maps first so small negative values stay short.
    """
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
    if arr.size == 0:
        return b""
    arr = arr.astype(np.int64)
    u = zigzag_encode(arr) if signed else arr.astype(np.uint64)
    lengths = 1 + (u[:, None] >= _LEN_THRESHOLDS).sum(axis=1)
    total = int(lengths.sum())
    starts = np.zeros(arr.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    value_idx = np.repeat(np.arange(arr.size), lengths)
    byte_off = (np.arange(total) - np.repeat(starts, lengths)).astype(np.uint64)
    chunks = ((u[value_idx] >> (np.uint64(7) * byte_off)) & np.uint64(0x7F)).astype(
        np.uint8
    )
    chunks[byte_off < (lengths[value_idx] - 1).astype(np.uint64)] |= 0x80
    return chunks.tobytes()


def decode_varints(data: bytes, count: int, signed: bool = True) -> np.ndarray:
    """Decode ``count`` varints; inverse of :func:`encode_varints` (vectorized)."""
    if count == 0:
        return np.empty(0, dtype=np.int64)
    raw = np.frombuffer(data, dtype=np.uint8)
    terminators = np.flatnonzero((raw & 0x80) == 0)
    if len(terminators) < count:
        raise ValueError("truncated varint")
    terminators = terminators[:count]
    end = int(terminators[-1]) + 1
    raw = raw[:end]
    starts = np.zeros(count, dtype=np.int64)
    starts[1:] = terminators[:-1] + 1
    if int((terminators - starts).max()) + 1 > 10:
        raise ValueError("varint too long")
    byte_off = (np.arange(end) - np.repeat(starts, terminators - starts + 1)).astype(
        np.uint64
    )
    contrib = (raw.astype(np.uint64) & np.uint64(0x7F)) << (np.uint64(7) * byte_off)
    values = np.add.reduceat(contrib, starts)
    if signed:
        return zigzag_decode(values)
    return values.astype(np.int64)
