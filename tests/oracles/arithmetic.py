"""The class-API adaptive arithmetic coder loops (reference).

The first implementations of :func:`repro.entropy.arithmetic.arithmetic_encode`,
:func:`~repro.entropy.arithmetic.arithmetic_decode` and
:func:`~repro.entropy.arithmetic.decode_int_sequence`: one
:class:`~repro.entropy.arithmetic.AdaptiveModel` driven symbol by symbol
through :class:`~repro.entropy.arithmetic.ArithmeticEncoder` /
:class:`~repro.entropy.arithmetic.ArithmeticDecoder`.  The fused loops in
``src/`` must produce the same bytes and the same symbols.
"""

from __future__ import annotations

import numpy as np

from repro.entropy.arithmetic import (
    AdaptiveModel,
    ArithmeticDecoder,
    ArithmeticEncoder,
    _int_sequence_checksum,
)
from repro.entropy.varint import decode_uvarint

__all__ = ["arithmetic_encode", "arithmetic_decode", "decode_int_sequence"]


def arithmetic_encode(
    symbols: np.ndarray, num_symbols: int, increment: int = 32, max_total: int = 1 << 16
) -> bytes:
    """Adaptively encode a symbol sequence; inverse is :func:`arithmetic_decode`."""
    arr = np.asarray(symbols, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= num_symbols):
        raise ValueError("symbol out of alphabet range")
    model = AdaptiveModel(num_symbols, increment=increment, max_total=max_total)
    encoder = ArithmeticEncoder()
    encode_one = encoder.encode_symbol
    for symbol in arr.tolist():
        encode_one(model, symbol)
    return encoder.finish()


def arithmetic_decode(
    data: bytes,
    count: int,
    num_symbols: int,
    increment: int = 32,
    max_total: int = 1 << 16,
) -> np.ndarray:
    """Decode ``count`` symbols produced by :func:`arithmetic_encode`."""
    model = AdaptiveModel(num_symbols, increment=increment, max_total=max_total)
    decoder = ArithmeticDecoder(data)
    decode_one = decoder.decode_symbol
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        out[i] = decode_one(model)
    return out


def decode_int_sequence(data: bytes, checksum: bool = True) -> np.ndarray:
    """Inverse of :func:`encode_int_sequence`.

    ``checksum=False`` decodes the legacy format-v1 layout, which carried
    no integrity byte between the count header and the arithmetic payload
    (needed to read v1 DBGC containers bit-identically).
    """
    count, pos = decode_uvarint(data, 0)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    expected = 0
    if checksum:
        if pos >= len(data):
            raise ValueError("truncated int sequence (missing checksum)")
        expected = data[pos]
        pos += 1
    # Varints are self-delimiting: decode bytes until `count` values complete.
    model = AdaptiveModel(256)
    decoder = ArithmeticDecoder(data[pos:])
    values = np.empty(count, dtype=np.int64)
    done = 0
    current = 0
    shift = 0
    byte_sum = 0
    n_bytes = 0
    while done < count:
        byte = decoder.decode_symbol(model)
        byte_sum += byte
        n_bytes += 1
        current |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
            if shift > 63:
                raise ValueError("corrupt varint in arithmetic stream")
        else:
            if current >> 64:
                raise ValueError("corrupt varint in arithmetic stream")
            # zigzag decode
            values[done] = (current >> 1) ^ -(current & 1)
            done += 1
            current = 0
            shift = 0
    if checksum and _int_sequence_checksum(byte_sum, n_bytes) != expected:
        raise ValueError("truncated or corrupt int sequence (checksum mismatch)")
    return values
