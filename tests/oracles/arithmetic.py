"""The bit-at-a-time adaptive arithmetic coder (reference).

The first implementation of the coder in :mod:`repro.entropy.arithmetic`:
a Fenwick-tree :class:`AdaptiveModel` and the Witten–Neal–Cleary
:class:`ArithmeticEncoder` / :class:`ArithmeticDecoder`, which shift one
bit per renormalization step through a :class:`~repro.entropy.bitio.BitWriter`
/ :class:`~repro.entropy.bitio.BitReader`, and the stream functions built
on them.  The coder in ``src/`` renormalizes in O(1) over a blocked model;
it must write the same bytes, decode the same symbols and leave every
model with the same counts.
"""

from __future__ import annotations

import numpy as np

from repro.entropy.arithmetic import _int_sequence_checksum
from repro.entropy.bitio import BitReader, BitWriter
from repro.entropy.varint import decode_uvarint

__all__ = [
    "AdaptiveModel",
    "ArithmeticEncoder",
    "ArithmeticDecoder",
    "arithmetic_encode",
    "arithmetic_decode",
    "decode_int_sequence",
]

_CODE_BITS = 32
_FULL = 1 << _CODE_BITS
_HALF = _FULL >> 1
_QUARTER = _FULL >> 2
_THREE_QUARTERS = _HALF + _QUARTER
_MASK = _FULL - 1


class AdaptiveModel:
    """Adaptive frequency model over ``num_symbols`` symbols.

    Every symbol starts with frequency 1 (so anything is encodable) and gains
    ``increment`` on each occurrence.  When the total exceeds ``max_total``
    all frequencies are halved (rounding up), which both bounds coder
    precision requirements and lets the model track non-stationary streams.
    """

    def __init__(self, num_symbols: int, increment: int = 32, max_total: int = 1 << 16):
        if num_symbols < 1:
            raise ValueError(f"need at least one symbol, got {num_symbols}")
        if increment < 1:
            raise ValueError(f"increment must be >= 1, got {increment}")
        if max_total < 2 * num_symbols:
            raise ValueError("max_total too small for the alphabet")
        self.num_symbols = num_symbols
        self.increment = increment
        self.max_total = max_total
        self._freq = [1] * num_symbols
        self.total = num_symbols
        # Fenwick tree (1-based) over the frequencies.
        self._tree = [0] * (num_symbols + 1)
        for i in range(1, num_symbols + 1):
            self._tree[i] += 1
            parent = i + (i & -i)
            if parent <= num_symbols:
                self._tree[parent] += self._tree[i]
        top = 1
        while top * 2 <= num_symbols:
            top *= 2
        self._top = top

    def _tree_add(self, symbol: int, delta: int) -> None:
        i = symbol + 1
        tree = self._tree
        n = self.num_symbols
        while i <= n:
            tree[i] += delta
            i += i & -i

    def cum_range(self, symbol: int) -> tuple[int, int]:
        """Return ``(cum_low, cum_high)`` for ``symbol``."""
        i = symbol
        low = 0
        tree = self._tree
        while i > 0:
            low += tree[i]
            i -= i & -i
        return low, low + self._freq[symbol]

    def find(self, target: int) -> tuple[int, int, int]:
        """Locate the symbol whose cumulative range covers ``target``.

        Returns ``(symbol, cum_low, cum_high)``.
        """
        idx = 0
        remainder = target
        bitmask = self._top
        tree = self._tree
        n = self.num_symbols
        while bitmask:
            nxt = idx + bitmask
            if nxt <= n and tree[nxt] <= remainder:
                idx = nxt
                remainder -= tree[nxt]
            bitmask >>= 1
        cum_low = target - remainder
        return idx, cum_low, cum_low + self._freq[idx]

    def update(self, symbol: int) -> None:
        """Record one occurrence of ``symbol``."""
        self._freq[symbol] += self.increment
        self.total += self.increment
        self._tree_add(symbol, self.increment)
        if self.total > self.max_total:
            self._rescale()

    def _rescale(self) -> None:
        n = self.num_symbols
        freq = self._freq
        total = 0
        for s in range(n):
            freq[s] = (freq[s] + 1) // 2
            total += freq[s]
        self.total = total
        tree = self._tree
        for i in range(1, n + 1):
            tree[i] = 0
        for i in range(1, n + 1):
            tree[i] += freq[i - 1]
            parent = i + (i & -i)
            if parent <= n:
                tree[parent] += tree[i]


class ArithmeticEncoder:
    """32-bit integer arithmetic encoder (Witten–Neal–Cleary)."""

    def __init__(self) -> None:
        self._writer = BitWriter()
        self._low = 0
        self._high = _MASK
        self._pending = 0
        self._finished = False

    def encode(self, cum_low: int, cum_high: int, total: int) -> None:
        """Narrow the interval to ``[cum_low, cum_high) / total``."""
        if self._finished:
            raise RuntimeError("encoder already finished")
        span = self._high - self._low + 1
        self._high = self._low + span * cum_high // total - 1
        self._low = self._low + span * cum_low // total
        low, high, pending = self._low, self._high, self._pending
        writer = self._writer
        while True:
            if high < _HALF:
                writer.write_bit(0)
                if pending:
                    writer.write_bits((1 << pending) - 1, pending)
                    pending = 0
            elif low >= _HALF:
                writer.write_bit(1)
                if pending:
                    writer.write_bits(0, pending)
                    pending = 0
                low -= _HALF
                high -= _HALF
            elif low >= _QUARTER and high < _THREE_QUARTERS:
                pending += 1
                low -= _QUARTER
                high -= _QUARTER
            else:
                break
            low <<= 1
            high = (high << 1) | 1
        self._low, self._high, self._pending = low, high, pending

    def encode_symbol(self, model: AdaptiveModel, symbol: int) -> None:
        """Encode ``symbol`` under ``model`` and update the model."""
        cum_low, cum_high = model.cum_range(symbol)
        self.encode(cum_low, cum_high, model.total)
        model.update(symbol)

    def finish(self) -> bytes:
        """Flush the final disambiguating bits and return the byte stream."""
        if self._finished:
            raise RuntimeError("encoder already finished")
        self._finished = True
        self._pending += 1
        writer = self._writer
        if self._low < _QUARTER:
            writer.write_bit(0)
            writer.write_bits((1 << self._pending) - 1, self._pending)
        else:
            writer.write_bit(1)
            writer.write_bits(0, self._pending)
        return writer.getvalue()


class ArithmeticDecoder:
    """Mirror of :class:`ArithmeticEncoder`."""

    def __init__(self, data: bytes) -> None:
        self._reader = BitReader(data)
        self._low = 0
        self._high = _MASK
        self._code = self._reader.read_bits(_CODE_BITS)

    def decode_target(self, total: int) -> int:
        """Return the cumulative-frequency target for the next symbol."""
        span = self._high - self._low + 1
        return ((self._code - self._low + 1) * total - 1) // span

    def consume(self, cum_low: int, cum_high: int, total: int) -> None:
        """Advance past a symbol whose range was ``[cum_low, cum_high)``."""
        span = self._high - self._low + 1
        self._high = self._low + span * cum_high // total - 1
        self._low = self._low + span * cum_low // total
        low, high, code = self._low, self._high, self._code
        reader = self._reader
        while True:
            if high < _HALF:
                pass
            elif low >= _HALF:
                low -= _HALF
                high -= _HALF
                code -= _HALF
            elif low >= _QUARTER and high < _THREE_QUARTERS:
                low -= _QUARTER
                high -= _QUARTER
                code -= _QUARTER
            else:
                break
            low <<= 1
            high = (high << 1) | 1
            code = (code << 1) | reader.read_bit()
        self._low, self._high, self._code = low, high, code

    def decode_symbol(self, model: AdaptiveModel) -> int:
        """Decode one symbol under ``model`` and update the model."""
        symbol, cum_low, cum_high = model.find(self.decode_target(model.total))
        self.consume(cum_low, cum_high, model.total)
        model.update(symbol)
        return symbol



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
