"""Tagged entropy streams: the one adaptive arithmetic coder behind a tag byte.

Every arithmetic-coded stream in DBGC — octree/quadtree occupancy, Δφ,
∇L_r, L_ref, outlier z, per-leaf counts, attributes — is written by
:func:`encode_tagged_symbols` or :func:`encode_tagged_ints`: one tag byte
(always :data:`TAG`, 0) followed by the adaptive arithmetic coder's bytes
(:mod:`repro.entropy.arithmetic`).  The tag byte is kept so format-v2
payloads stay byte-identical; the decoders raise ``ValueError`` on any
other tag before reading the payload.
"""

from __future__ import annotations

import numpy as np

from repro.observability import recorder as _obs
from repro.entropy.arithmetic import (
    arithmetic_decode,
    arithmetic_encode,
    decode_int_sequence,
    encode_int_sequence,
)

__all__ = [
    "TAG",
    "encode_tagged_symbols",
    "decode_tagged_symbols",
    "encode_tagged_ints",
    "decode_tagged_ints",
]

#: The tag byte ahead of every entropy-coded stream: the adaptive arithmetic
#: coder.  Stable forever; no other value decodes.
TAG = 0
_TAG_BYTE = bytes([TAG])


def _tagged(payload: bytes) -> bytes:
    data = _TAG_BYTE + payload
    rec = _obs.current()
    if rec is not None:
        rec.count("entropy.adaptive-arith.streams")
        rec.add_bytes("entropy.adaptive-arith", len(data))
    return data


def _untagged(data: bytes, kind: str) -> bytes:
    if not data:
        raise ValueError(f"empty tagged {kind} stream")
    if data[0] != TAG:
        raise ValueError(f"unknown entropy stream tag {data[0]}")
    return data[1:]


def encode_tagged_symbols(symbols: np.ndarray, num_symbols: int) -> bytes:
    """Encode a symbol stream over ``num_symbols`` behind the tag byte."""
    return _tagged(arithmetic_encode(symbols, num_symbols))


def decode_tagged_symbols(data: bytes, count: int, num_symbols: int) -> np.ndarray:
    """Decode ``count`` symbols of a tagged symbol stream."""
    return arithmetic_decode(_untagged(data, "symbol"), count, num_symbols)


def encode_tagged_ints(values: np.ndarray) -> bytes:
    """Encode a signed integer sequence behind the tag byte."""
    return _tagged(encode_int_sequence(values))


def decode_tagged_ints(data: bytes) -> np.ndarray:
    """Decode a tagged integer sequence."""
    return decode_int_sequence(_untagged(data, "int"))
