"""Adaptive arithmetic coding.

The paper uses an arithmetic coder [58] for the octree occupancy stream,
the polar-angle delta streams, the radial ``∇L_r`` stream and the reference
stream ``L_ref``.  This module implements the classic Witten–Neal–Cleary
integer arithmetic coder with 32-bit registers and an adaptive frequency
model backed by a Fenwick tree, so both sides stay in lockstep without
transmitting the model.

Two forms of the same coder live here.  :class:`AdaptiveModel`,
:class:`ArithmeticEncoder` and :class:`ArithmeticDecoder` code one symbol
per call; the G-PCC and kd-tree baselines and the v1 octree/quadtree
readers use them.  The stream functions (:func:`arithmetic_encode`,
:func:`arithmetic_decode`, :func:`decode_int_sequence`) run the coder as
one loop over local variables and renormalize in O(1) per symbol: after
narrowing, the ``k`` leading bits on which ``low`` and ``high`` agree are
settled and leave together, then the ``u``-bit underflow run (``low =
01…``, ``high = 10…``) — the bit-at-a-time loop always does exactly ``k``
settled shifts followed by ``u`` underflow shifts.  They write the same
bytes and decode the same symbols as the classes, and their decoders
raise ``ValueError`` once they read more than :data:`MAX_OVERREAD_BITS`
past the end of their input.
"""

from __future__ import annotations

import numpy as np

from repro.entropy.bitio import BitReader, BitWriter
from repro.entropy.varint import decode_uvarint, encode_uvarint

__all__ = [
    "AdaptiveModel",
    "ArithmeticEncoder",
    "ArithmeticDecoder",
    "arithmetic_encode",
    "arithmetic_decode",
    "encode_int_sequence",
    "decode_int_sequence",
]

_CODE_BITS = 32
_FULL = 1 << _CODE_BITS
_HALF = _FULL >> 1
_QUARTER = _FULL >> 2
_THREE_QUARTERS = _HALF + _QUARTER
_MASK = _FULL - 1
_LOW31 = _HALF - 1

#: Most bits a decoder of a valid stream reads past its last byte: it
#: reads 32 + S bits for S renormalization shifts, and the encoder wrote
#: S + 2 before byte padding.  The fused decoders raise beyond this.
MAX_OVERREAD_BITS = 30


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


def _emit_final(out: bytearray, acc: int, n_acc: int, low: int, pending: int) -> bytes:
    """Append the encoder's final disambiguating bits and byte padding.

    ``acc`` holds the ``n_acc`` output bits not yet in ``out``; the tail is
    what :meth:`ArithmeticEncoder.finish` writes for the same state.
    """
    pending += 1
    tail = (1 << pending) - 1 if low < _QUARTER else 1 << pending
    n_acc += pending + 1
    pad = -n_acc & 7
    acc = ((acc << (pending + 1)) | tail) << pad
    out += acc.to_bytes((n_acc + pad) >> 3, "big")
    return bytes(out)


def _bit_source(data: bytes) -> tuple[list[int], int]:
    """A decoder's refill words and the number of bits it may consume.

    ``data`` as big-endian 32-bit words, zero-filled past its end far
    enough to cover the :data:`MAX_OVERREAD_BITS` a valid stream can read
    beyond its last byte.
    """
    limit = 8 * len(data) + MAX_OVERREAD_BITS
    padded = bytes(data) + bytes(4 * (-(-limit // 32)) - len(data))
    return np.frombuffer(padded, dtype=">u4").tolist(), limit


def _overread() -> ValueError:
    return ValueError(
        f"arithmetic stream read more than {MAX_OVERREAD_BITS} bits past its end"
    )


def arithmetic_encode(
    symbols: np.ndarray, num_symbols: int, increment: int = 32, max_total: int = 1 << 16
) -> bytes:
    """Adaptively encode a symbol sequence; inverse is :func:`arithmetic_decode`.

    Byte-identical to :meth:`ArithmeticEncoder.encode_symbol` under an
    :class:`AdaptiveModel`, fused into one loop over local variables.
    """
    arr = np.asarray(symbols, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= num_symbols):
        raise ValueError("symbol out of alphabet range")
    model = AdaptiveModel(num_symbols, increment=increment, max_total=max_total)
    freq, tree, total = model._freq, model._tree, model.total
    out = bytearray()
    acc = n_acc = 0
    low, high, pending = 0, _MASK, 0
    for symbol in arr.tolist():
        # Fenwick prefix sum: the symbol's cumulative low.
        cum = 0
        i = symbol
        while i:
            cum += tree[i]
            i &= i - 1
        span = high - low + 1
        high = low + span * (cum + freq[symbol]) // total - 1
        low += span * cum // total
        freq[symbol] += increment
        i = symbol + 1
        while i <= num_symbols:
            tree[i] += increment
            i += i & -i
        total += increment
        if total > max_total:
            model.total = total
            model._rescale()
            total = model.total
        if high < _HALF or low >= _HALF:
            # The top k bits of low and high agree: they are settled.  The
            # first goes out followed by `pending` copies of its complement.
            k = 32 - (low ^ high).bit_length()
            bits = low >> (32 - k)
            if pending:
                bits += ((1 << pending) - 1) << (k - 1)
                acc <<= pending
                n_acc += pending
                pending = 0
            acc = (acc << k) | bits
            n_acc += k
            low = (low << k) & _MASK
            high = ((high << k) & _MASK) | ((1 << k) - 1)
        if low & _QUARTER and not high & _QUARTER:
            # low = 01..., high = 10...: shift out the underflow run.
            u = 31 - ((~low | high) & _LOW31).bit_length()
            pending += u
            low = (low << u) & _LOW31
            high = _HALF | ((high << u) & _LOW31) | ((1 << u) - 1)
        if n_acc >= 64:
            rest = n_acc & 7
            out += (acc >> rest).to_bytes(n_acc >> 3, "big")
            acc &= (1 << rest) - 1
            n_acc = rest
    return _emit_final(out, acc, n_acc, low, pending)


def arithmetic_decode(
    data: bytes,
    count: int,
    num_symbols: int,
    increment: int = 32,
    max_total: int = 1 << 16,
) -> np.ndarray:
    """Decode ``count`` symbols produced by :func:`arithmetic_encode`.

    Raises ``ValueError`` once the decoder has read more than
    :data:`MAX_OVERREAD_BITS` past the end of ``data``, which no valid
    stream does, so a count the payload overstates costs time and memory
    in proportion to ``len(data)``, not to ``count``.
    """
    model = AdaptiveModel(num_symbols, increment=increment, max_total=max_total)
    if count < 0:
        raise ValueError(f"negative symbol count {count}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    freq, tree, total = model._freq, model._tree, model.total
    top_bit = model._top
    words, limit = _bit_source(data)
    # `value` is the code register minus low; it takes in the same bits.
    value, next_word, buf, n_buf = words[0], 1, 0, 0
    low, high = 0, _MASK
    out = []
    append = out.append
    for _ in range(count):
        span = high - low + 1
        target = ((value + 1) * total - 1) // span
        # Fenwick descent: the symbol whose cumulative range holds target.
        symbol = 0
        remainder = target
        bit = top_bit
        while bit:
            nxt = symbol + bit
            if nxt <= num_symbols and tree[nxt] <= remainder:
                symbol = nxt
                remainder -= tree[nxt]
            bit >>= 1
        cum = target - remainder
        high = low + span * (cum + freq[symbol]) // total - 1
        step = span * cum // total
        low += step
        value -= step
        append(symbol)
        freq[symbol] += increment
        i = symbol + 1
        while i <= num_symbols:
            tree[i] += increment
            i += i & -i
        total += increment
        if total > max_total:
            model.total = total
            model._rescale()
            total = model.total
        shift = 0
        if high < _HALF or low >= _HALF:
            shift = 32 - (low ^ high).bit_length()
            low = (low << shift) & _MASK
            high = ((high << shift) & _MASK) | ((1 << shift) - 1)
        if low & _QUARTER and not high & _QUARTER:
            u = 31 - ((~low | high) & _LOW31).bit_length()
            low = (low << u) & _LOW31
            high = _HALF | ((high << u) & _LOW31) | ((1 << u) - 1)
            shift += u
        if shift:
            if n_buf < shift:
                if 32 * next_word - n_buf + shift > limit:
                    raise _overread()
                buf = ((buf & ((1 << n_buf) - 1)) << 32) | words[next_word]
                next_word += 1
                n_buf += 32
            n_buf -= shift
            value = (value << shift) | ((buf >> n_buf) & ((1 << shift) - 1))
    if 32 * next_word - n_buf > limit:
        raise _overread()
    return np.array(out, dtype=np.int64)


def _int_sequence_checksum(byte_sum: int, n_bytes: int) -> int:
    """One-byte integrity check over the zigzag-varint byte stream."""
    return (byte_sum + n_bytes) & 0xFF


def encode_int_sequence(values: np.ndarray) -> bytes:
    """Compress arbitrary signed integers: zigzag varint bytes + arithmetic.

    Self-contained: the element count is stored in a varint header, followed
    by a one-byte checksum of the varint byte stream, so
    :func:`decode_int_sequence` needs only the byte string and a truncated
    payload raises ``ValueError`` instead of decoding plausible garbage
    (the arithmetic decoder reads phantom zero bits past end-of-stream, so
    truncation is otherwise silent).
    """
    arr = np.asarray(values, dtype=np.int64)
    header = bytearray()
    encode_uvarint(arr.size, header)
    if arr.size == 0:
        return bytes(header)
    from repro.entropy.varint import encode_varints

    byte_stream = encode_varints(arr, signed=True)
    header.append(_int_sequence_checksum(sum(byte_stream), len(byte_stream)))
    payload = arithmetic_encode(np.frombuffer(byte_stream, dtype=np.uint8), 256)
    return bytes(header) + payload


def decode_int_sequence(data: bytes, checksum: bool = True) -> np.ndarray:
    """Inverse of :func:`encode_int_sequence`.

    ``checksum=False`` decodes the legacy format-v1 layout, which carried
    no integrity byte between the count header and the arithmetic payload
    (needed to read v1 DBGC containers bit-identically).  The byte decoder
    is :func:`arithmetic_decode`'s loop (alphabet 256, default model) run
    until ``count`` varints are complete, with the same read-past-end
    bound.
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
    model = AdaptiveModel(256)
    freq, tree, total = model._freq, model._tree, model.total
    increment, max_total = model.increment, model.max_total
    words, limit = _bit_source(data[pos:])
    value, next_word, buf, n_buf = words[0], 1, 0, 0
    low, high = 0, _MASK
    # Varints are self-delimiting: decode bytes until `count` values complete.
    values = []
    append = values.append
    current = shift_in = byte_sum = n_bytes = 0
    while len(values) < count:
        span = high - low + 1
        target = ((value + 1) * total - 1) // span
        byte = 0
        remainder = target
        bit = 128  # tree[256] is the total, never <= target
        while bit:
            nxt = byte + bit
            if tree[nxt] <= remainder:
                byte = nxt
                remainder -= tree[nxt]
            bit >>= 1
        cum = target - remainder
        high = low + span * (cum + freq[byte]) // total - 1
        step = span * cum // total
        low += step
        value -= step
        freq[byte] += increment
        i = byte + 1
        while i <= 256:
            tree[i] += increment
            i += i & -i
        total += increment
        if total > max_total:
            model.total = total
            model._rescale()
            total = model.total
        shift = 0
        if high < _HALF or low >= _HALF:
            shift = 32 - (low ^ high).bit_length()
            low = (low << shift) & _MASK
            high = ((high << shift) & _MASK) | ((1 << shift) - 1)
        if low & _QUARTER and not high & _QUARTER:
            u = 31 - ((~low | high) & _LOW31).bit_length()
            low = (low << u) & _LOW31
            high = _HALF | ((high << u) & _LOW31) | ((1 << u) - 1)
            shift += u
        if shift:
            if n_buf < shift:
                if 32 * next_word - n_buf + shift > limit:
                    raise _overread()
                buf = ((buf & ((1 << n_buf) - 1)) << 32) | words[next_word]
                next_word += 1
                n_buf += 32
            n_buf -= shift
            value = (value << shift) | ((buf >> n_buf) & ((1 << shift) - 1))
        byte_sum += byte
        n_bytes += 1
        current |= (byte & 0x7F) << shift_in
        if byte & 0x80:
            shift_in += 7
            if shift_in > 63:
                raise ValueError("corrupt varint in arithmetic stream")
        else:
            if current >> 64:
                raise ValueError("corrupt varint in arithmetic stream")
            # zigzag decode
            append((current >> 1) ^ -(current & 1))
            current = shift_in = 0
    if 32 * next_word - n_buf > limit:
        raise _overread()
    if checksum and _int_sequence_checksum(byte_sum, n_bytes) != expected:
        raise ValueError("truncated or corrupt int sequence (checksum mismatch)")
    return np.array(values, dtype=np.int64)
