"""MSB-first bit-level I/O for the Huffman and LZ77 coders and the baselines' raw bits."""

from __future__ import annotations

__all__ = ["BitWriter", "BitReader"]


class BitWriter:
    """Accumulates bits most-significant-first into a byte buffer."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._acc = 0
        self._nbits = 0

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        self._acc = (self._acc << 1) | (bit & 1)
        self._nbits += 1
        if self._nbits == 8:
            self._buffer.append(self._acc)
            self._acc = 0
            self._nbits = 0

    def write_bits(self, value: int, count: int) -> None:
        """Append ``count`` bits of ``value``, most significant first."""
        if count < 0:
            raise ValueError(f"bit count must be non-negative, got {count}")
        if value < 0 or (count < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {count} bits")
        acc = (self._acc << count) | value
        nbits = self._nbits + count
        while nbits >= 8:
            nbits -= 8
            self._buffer.append((acc >> nbits) & 0xFF)
        self._acc = acc & ((1 << nbits) - 1)
        self._nbits = nbits

    def __len__(self) -> int:
        """Number of complete bytes buffered so far."""
        return len(self._buffer)

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return len(self._buffer) * 8 + self._nbits

    def getvalue(self) -> bytes:
        """Finish the stream, zero-padding the final partial byte."""
        out = bytearray(self._buffer)
        if self._nbits:
            out.append((self._acc << (8 - self._nbits)) & 0xFF)
        return bytes(out)


class BitReader:
    """Reads bits most-significant-first from a byte buffer.

    Reading past the end yields zero bits.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0
        self._acc = 0
        self._nbits = 0

    def read_bit(self) -> int:
        """Read a single bit, or 0 beyond the end of the stream."""
        if self._nbits == 0:
            if self._pos < len(self._data):
                self._acc = self._data[self._pos]
                self._pos += 1
                self._nbits = 8
            else:
                return 0
        self._nbits -= 1
        return (self._acc >> self._nbits) & 1

    def read_bits(self, count: int) -> int:
        """Read ``count`` bits as an unsigned integer."""
        if count < 0:
            raise ValueError(f"bit count must be non-negative, got {count}")
        value = 0
        remaining = count
        while remaining > 0:
            if self._nbits == 0:
                if self._pos < len(self._data):
                    self._acc = self._data[self._pos]
                    self._pos += 1
                    self._nbits = 8
                else:
                    return value << remaining
            take = min(self._nbits, remaining)
            self._nbits -= take
            value = (value << take) | ((self._acc >> self._nbits) & ((1 << take) - 1))
            remaining -= take
        return value

    @property
    def bits_consumed(self) -> int:
        """Number of bits consumed from real (non-phantom) data."""
        return self._pos * 8 - self._nbits
