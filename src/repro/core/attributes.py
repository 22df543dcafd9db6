"""Per-point attribute compression (intensity etc.).

The paper compresses geometry only (Definition 2.1 lists attributes such as
intensity as optional payload).  A deployable codec must carry them, so
DBGC streams may append an attribute block: each named scalar attribute is
reordered into the *decoded point order* (the geometry mapping is known at
compression time and costs no bits), quantized by a per-attribute step,
delta-coded, and arithmetic-coded.  Spatially coherent attributes —
intensity along a scan line — compress well in this order.
"""

from __future__ import annotations

import numpy as np

from repro.entropy.arithmetic import decode_int_sequence
from repro.entropy.backend import decode_tagged_ints, encode_tagged_ints
from repro.entropy.varint import decode_uvarint, encode_uvarint

__all__ = ["encode_attributes", "decode_attributes", "DEFAULT_ATTRIBUTE_STEP"]

#: Intensity-style default: 8-bit precision over a unit range.
DEFAULT_ATTRIBUTE_STEP = 1.0 / 255.0


def encode_attributes(
    attributes: dict[str, np.ndarray],
    mapping: np.ndarray,
    steps: dict[str, float] | float = DEFAULT_ATTRIBUTE_STEP,
) -> bytes:
    """Encode named scalar attributes in decoded point order.

    Parameters
    ----------
    attributes:
        Name -> per-point values, aligned with the *original* point order.
    mapping:
        Original-index -> decoded-index permutation from the geometry pass.
    steps:
        Quantization step per attribute (or one step for all).  The
        reconstruction error per value is at most ``step / 2``.
    """
    out = bytearray()
    encode_uvarint(len(attributes), out)
    for name in sorted(attributes):
        values = np.asarray(attributes[name], dtype=np.float64)
        if len(values) != len(mapping):
            raise ValueError(
                f"attribute {name!r} has {len(values)} values for "
                f"{len(mapping)} points"
            )
        step = steps[name] if isinstance(steps, dict) else float(steps)
        if step <= 0:
            raise ValueError(f"attribute step must be positive, got {step}")
        name_bytes = name.encode("utf-8")
        encode_uvarint(len(name_bytes), out)
        out += name_bytes
        out += np.float64(step).tobytes()
        # Reorder to decoded order so the decoder can zip without a permutation.
        reordered = np.empty_like(values)
        reordered[mapping] = values
        ints = np.round(reordered / step).astype(np.int64)
        payload = encode_tagged_ints(np.diff(ints, prepend=np.int64(0)))
        encode_uvarint(len(payload), out)
        out += payload
    return bytes(out)


def decode_attributes(data: bytes, version: int = 2) -> dict[str, np.ndarray]:
    """Inverse of :func:`encode_attributes`; values in decoded point order.

    ``version=1`` reads the legacy checksum-less delta streams.
    """
    if not data:
        return {}
    n_attrs, pos = decode_uvarint(data, 0)
    attributes: dict[str, np.ndarray] = {}
    for _ in range(n_attrs):
        name_len, pos = decode_uvarint(data, pos)
        name = data[pos : pos + name_len].decode("utf-8")
        pos += name_len
        step = float(np.frombuffer(data, dtype=np.float64, count=1, offset=pos)[0])
        pos += 8
        size, pos = decode_uvarint(data, pos)
        if version == 1:
            deltas = decode_int_sequence(data[pos : pos + size], checksum=False)
        else:
            deltas = decode_tagged_ints(data[pos : pos + size])
        pos += size
        attributes[name] = np.cumsum(deltas).astype(np.float64) * step
    return attributes
