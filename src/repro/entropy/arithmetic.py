"""Adaptive arithmetic coding.

The paper uses an arithmetic coder [58] for the octree occupancy stream,
the polar-angle delta streams, the radial ``∇L_r`` stream and the reference
stream ``L_ref``.  This module implements the classic Witten–Neal–Cleary
integer arithmetic coder with 32-bit registers and an adaptive frequency
model, so both sides stay in lockstep without transmitting the model.

There is one coder, :class:`ArithmeticEncoder` / :class:`ArithmeticDecoder`,
with two ways in.  The per-symbol methods code one range or one symbol per
call, for callers that pick each symbol's model from the symbols before it
(the G-PCC and kd-tree baselines).  The batch methods
(:meth:`~ArithmeticEncoder.encode_symbols`,
:meth:`~ArithmeticDecoder.decode_symbols`) code a run of symbols under one
:class:`AdaptiveModel` as a single loop over local variables; the stream
functions and the v1 tree readers use them.  Both renormalize in O(1) per
symbol: after narrowing, the ``k`` leading bits on which ``low`` and
``high`` agree are settled and leave together, then the ``u``-bit
underflow run (``low = 01…``, ``high = 10…``) — a bit-at-a-time coder
always does exactly ``k`` settled shifts followed by ``u`` underflow
shifts.  ``tests/oracles/arithmetic.py`` keeps that bit-at-a-time coder as
the reference for bytes, symbols and model counts.  Every decoder raises
``ValueError`` once it reads more than :data:`MAX_OVERREAD_BITS` past the
end of its input.
"""

from __future__ import annotations

import numpy as np

from repro.entropy.varint import decode_uvarint, encode_uvarint, encode_varints

__all__ = [
    "AdaptiveModel",
    "ArithmeticEncoder",
    "ArithmeticDecoder",
    "arithmetic_encode",
    "arithmetic_decode",
    "encode_int_sequence",
    "decode_int_sequence",
]

_FULL = 1 << 32
_HALF = _FULL >> 1
_QUARTER = _FULL >> 2
_MASK = _FULL - 1
_LOW31 = _HALF - 1

#: Most bits a decoder of a valid stream reads past its last byte: it
#: reads 32 + S bits for S renormalization shifts, and the encoder wrote
#: S + 2 before byte padding.  The decoders raise beyond this.
MAX_OVERREAD_BITS = 30


class AdaptiveModel:
    """Adaptive frequency model over ``num_symbols`` symbols.

    Every symbol starts with frequency 1 (so anything is encodable) and gains
    ``increment`` on each occurrence.  When the total exceeds ``max_total``
    all frequencies are halved (rounding up), which both bounds coder
    precision requirements and lets the model track non-stationary streams.

    Next to the counts it keeps the total of every block of 16 symbols: a
    cumulative frequency is a sum of whole blocks plus part of one, and an
    update is two additions.
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
        self._blocks: list[int] = []
        self._rescale()

    def cum_range(self, symbol: int) -> tuple[int, int]:
        """Return ``(cum_low, cum_high)`` for ``symbol``."""
        b = symbol >> 4
        low = sum(self._blocks[:b]) + sum(self._freq[b << 4 : symbol])
        return low, low + self._freq[symbol]

    def find(self, target: int) -> tuple[int, int, int]:
        """Locate the symbol whose cumulative range covers ``target``.

        Returns ``(symbol, cum_low, cum_high)``.
        """
        blocks, freq = self._blocks, self._freq
        remainder = target
        b = 0
        while blocks[b] <= remainder:
            remainder -= blocks[b]
            b += 1
        symbol = b << 4
        while freq[symbol] <= remainder:
            remainder -= freq[symbol]
            symbol += 1
        cum_low = target - remainder
        return symbol, cum_low, cum_low + freq[symbol]

    def update(self, symbol: int) -> None:
        """Record one occurrence of ``symbol``."""
        self._freq[symbol] += self.increment
        self._blocks[symbol >> 4] += self.increment
        self.total += self.increment
        if self.total > self.max_total:
            self._rescale()

    def _rescale(self) -> None:
        """Halve every count (rounding up) and rebuild the block totals.

        In place: the batch coding loops hold the two lists.  Construction
        runs it once over the all-ones counts, which it leaves unchanged.
        """
        freq = self._freq
        freq[:] = [(f + 1) >> 1 for f in freq]
        self._blocks[:] = [sum(freq[i : i + 16]) for i in range(0, len(freq), 16)]
        self.total = sum(self._blocks)


class ArithmeticEncoder:
    """32-bit integer arithmetic encoder (Witten–Neal–Cleary).

    Output bits collect in an integer accumulator and leave for the byte
    buffer in whole bytes; ``pending`` counts the underflow bits whose value
    the next settled bit decides.
    """

    def __init__(self) -> None:
        self._out = bytearray()
        self._acc = 0
        self._n_acc = 0
        self._low = 0
        self._high = _MASK
        self._pending = 0
        self._finished = False

    def encode(self, cum_low: int, cum_high: int, total: int) -> None:
        """Narrow the interval to ``[cum_low, cum_high) / total``."""
        if self._finished:
            raise RuntimeError("encoder already finished")
        low, acc, n_acc, pending = self._low, self._acc, self._n_acc, self._pending
        span = self._high - low + 1
        high = low + span * cum_high // total - 1
        low += span * cum_low // total
        if high < _HALF or low >= _HALF:
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
            u = 31 - ((~low | high) & _LOW31).bit_length()
            pending += u
            low = (low << u) & _LOW31
            high = _HALF | ((high << u) & _LOW31) | ((1 << u) - 1)
        if n_acc >= 64:
            rest = n_acc & 7
            self._out += (acc >> rest).to_bytes(n_acc >> 3, "big")
            acc &= (1 << rest) - 1
            n_acc = rest
        self._low, self._high, self._pending = low, high, pending
        self._acc, self._n_acc = acc, n_acc

    def encode_symbol(self, model: AdaptiveModel, symbol: int) -> None:
        """Encode ``symbol`` under ``model`` and update the model."""
        cum_low, cum_high = model.cum_range(symbol)
        self.encode(cum_low, cum_high, model.total)
        model.update(symbol)

    def encode_symbols(self, model: AdaptiveModel, symbols) -> None:
        """Encode every symbol of ``symbols`` under ``model``, updating it.

        The same bytes as :meth:`encode_symbol` per symbol, as one loop over
        local variables.  Symbols are not range-checked.
        """
        if self._finished:
            raise RuntimeError("encoder already finished")
        freq, blocks = model._freq, model._blocks
        total, increment, max_total = model.total, model.increment, model.max_total
        out = self._out
        acc, n_acc = self._acc, self._n_acc
        low, high, pending = self._low, self._high, self._pending
        for symbol in symbols:
            # Blocked model: whole blocks below the symbol's, then part of it.
            b = symbol >> 4
            cum = sum(freq[b << 4 : symbol])
            if b:
                cum += sum(blocks[:b])
            span = high - low + 1
            high = low + span * (cum + freq[symbol]) // total - 1
            low += span * cum // total
            freq[symbol] += increment
            blocks[b] += increment
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
        model.total = total
        self._low, self._high, self._pending = low, high, pending
        self._acc, self._n_acc = acc, n_acc

    def finish(self) -> bytes:
        """Flush the final disambiguating bits and return the byte stream."""
        if self._finished:
            raise RuntimeError("encoder already finished")
        self._finished = True
        return _emit_final(self._out, self._acc, self._n_acc, self._low, self._pending)


class ArithmeticDecoder:
    """Mirror of :class:`ArithmeticEncoder`.

    Reads its input as 32-bit words through a 64-bit refill buffer and
    keeps ``value``, the code register minus ``low``.  Past the end of the
    input it reads zero bits, up to :data:`MAX_OVERREAD_BITS`: a refill
    beyond that raises ``ValueError``, and :meth:`finish` checks the bits
    read since the last refill.  After a ``ValueError`` neither the decoder
    nor its models can be used again.
    """

    def __init__(self, data: bytes) -> None:
        self._words, self._limit = _bit_source(data)
        self._value = self._words[0]
        self._next = 1
        self._buf = 0
        self._n_buf = 0
        self._low = 0
        self._high = _MASK

    def decode_target(self, total: int) -> int:
        """Return the cumulative-frequency target for the next symbol."""
        return ((self._value + 1) * total - 1) // (self._high - self._low + 1)

    def consume(self, cum_low: int, cum_high: int, total: int) -> None:
        """Advance past a symbol whose range was ``[cum_low, cum_high)``."""
        low = self._low
        span = self._high - low + 1
        high = low + span * cum_high // total - 1
        step = span * cum_low // total
        low += step
        value = self._value - step
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
            buf, n_buf = self._buf, self._n_buf
            if n_buf < shift:
                if 32 * self._next - n_buf + shift > self._limit:
                    raise _overread()
                buf = ((buf & ((1 << n_buf) - 1)) << 32) | self._words[self._next]
                self._next += 1
                n_buf += 32
            n_buf -= shift
            value = (value << shift) | ((buf >> n_buf) & ((1 << shift) - 1))
            self._buf, self._n_buf = buf, n_buf
        self._low, self._high, self._value = low, high, value

    def decode_symbol(self, model: AdaptiveModel) -> int:
        """Decode one symbol under ``model`` and update the model."""
        total = model.total
        symbol, cum_low, cum_high = model.find(self.decode_target(total))
        self.consume(cum_low, cum_high, total)
        model.update(symbol)
        return symbol

    def decode_symbols(self, model: AdaptiveModel, count: int) -> list[int]:
        """Decode ``count`` symbols under ``model``, updating it.

        The same symbols as :meth:`decode_symbol` per symbol, as one loop
        over local variables.  A count the input cannot hold stops at the
        read-past-end bound, so it costs time and memory in proportion to
        the input, not to ``count``.
        """
        freq, blocks = model._freq, model._blocks
        total, increment, max_total = model.total, model.increment, model.max_total
        words, limit = self._words, self._limit
        value, next_word, buf, n_buf = self._value, self._next, self._buf, self._n_buf
        low, high = self._low, self._high
        out = []
        append = out.append
        for _ in range(count):
            span = high - low + 1
            target = ((value + 1) * total - 1) // span
            # Blocked model: scan the block totals, then one block.
            remainder = target
            b = 0
            while blocks[b] <= remainder:
                remainder -= blocks[b]
                b += 1
            symbol = b << 4
            while freq[symbol] <= remainder:
                remainder -= freq[symbol]
                symbol += 1
            cum = target - remainder
            high = low + span * (cum + freq[symbol]) // total - 1
            step = span * cum // total
            low += step
            value -= step
            append(symbol)
            freq[symbol] += increment
            blocks[b] += increment
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
        model.total = total
        self._value, self._next, self._buf, self._n_buf = value, next_word, buf, n_buf
        self._low, self._high = low, high
        return out

    def finish(self) -> None:
        """Raise ``ValueError`` if decoding read past the read-past-end bound."""
        if 32 * self._next - self._n_buf > self._limit:
            raise _overread()


def _emit_final(out: bytearray, acc: int, n_acc: int, low: int, pending: int) -> bytes:
    """Append the encoder's final disambiguating bits and byte padding.

    ``acc`` holds the ``n_acc`` output bits not yet in ``out``.  The tail
    is a 0 if ``low`` lies in the first quarter (else a 1), ``pending + 1``
    copies of its complement, then zero bits to a byte boundary.
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
    """Adaptively encode a symbol sequence; inverse is :func:`arithmetic_decode`."""
    arr = np.asarray(symbols, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= num_symbols):
        raise ValueError("symbol out of alphabet range")
    encoder = ArithmeticEncoder()
    encoder.encode_symbols(AdaptiveModel(num_symbols, increment, max_total), arr.tolist())
    return encoder.finish()


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
    stream does.
    """
    model = AdaptiveModel(num_symbols, increment=increment, max_total=max_total)
    if count < 0:
        raise ValueError(f"negative symbol count {count}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    decoder = ArithmeticDecoder(data)
    symbols = decoder.decode_symbols(model, count)
    decoder.finish()
    return np.array(symbols, dtype=np.int64)


def _int_sequence_checksum(byte_sum: int, n_bytes: int) -> int:
    """One-byte integrity check over the zigzag-varint byte stream."""
    return (byte_sum + n_bytes) & 0xFF


def encode_int_sequence(values: np.ndarray) -> bytes:
    """Compress arbitrary signed integers: zigzag varint bytes + arithmetic.

    Self-contained: the element count is stored in a varint header, followed
    by a one-byte checksum of the varint byte stream, so
    :func:`decode_int_sequence` needs only the byte string and a truncated
    payload raises ``ValueError`` instead of decoding plausible garbage
    (the arithmetic decoder reads zero bits a little past end-of-stream,
    so truncation can otherwise be silent).
    """
    arr = np.asarray(values, dtype=np.int64)
    header = bytearray()
    encode_uvarint(arr.size, header)
    if arr.size == 0:
        return bytes(header)
    byte_stream = encode_varints(arr, signed=True)
    header.append(_int_sequence_checksum(sum(byte_stream), len(byte_stream)))
    payload = arithmetic_encode(np.frombuffer(byte_stream, dtype=np.uint8), 256)
    return bytes(header) + payload


def decode_int_sequence(data: bytes, checksum: bool = True) -> np.ndarray:
    """Inverse of :func:`encode_int_sequence`.

    ``checksum=False`` decodes the legacy format-v1 layout, which carried
    no integrity byte between the count header and the arithmetic payload
    (needed to read v1 DBGC containers bit-identically).

    Varints are self-delimiting, so the bytes are decoded in rounds of
    :meth:`ArithmeticDecoder.decode_symbols`: each asks for one byte per
    unfinished varint, which every valid stream still holds, until
    ``count`` values are complete.
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
    decoder = ArithmeticDecoder(data[pos:])
    values = []
    append = values.append
    current = shift = byte_sum = n_bytes = 0
    while len(values) < count:
        chunk = decoder.decode_symbols(model, count - len(values))
        byte_sum += sum(chunk)
        n_bytes += len(chunk)
        for byte in chunk:
            current |= (byte & 0x7F) << shift
            if byte & 0x80:
                shift += 7
                if shift > 63:
                    raise ValueError("corrupt varint in arithmetic stream")
            else:
                if current >> 64:
                    raise ValueError("corrupt varint in arithmetic stream")
                # zigzag decode
                append((current >> 1) ^ -(current & 1))
                current = shift = 0
    decoder.finish()
    if checksum and _int_sequence_checksum(byte_sum, n_bytes) != expected:
        raise ValueError("truncated or corrupt int sequence (checksum mismatch)")
    return np.array(values, dtype=np.int64)
