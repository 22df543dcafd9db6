"""Canonical Huffman coding for byte streams.

Serves as the entropy stage of our deflate-style codec
(:mod:`repro.entropy.deflate`) and as a standalone baseline entropy coder in
the ablation benchmarks.  Codes are canonical, so the header only carries
code lengths.
"""

from __future__ import annotations

import heapq
from collections import Counter

from repro.entropy.bitio import BitReader, BitWriter
from repro.entropy.varint import decode_uvarint, encode_uvarint

__all__ = [
    "build_code_lengths",
    "canonical_codes",
    "huffman_compress",
    "huffman_decompress",
]


def build_code_lengths(frequencies: dict[int, int]) -> dict[int, int]:
    """Return Huffman code lengths per symbol from raw frequencies.

    A single-symbol alphabet gets length 1 (a degenerate but decodable code).
    """
    symbols = [s for s, f in frequencies.items() if f > 0]
    if not symbols:
        return {}
    if len(symbols) == 1:
        return {symbols[0]: 1}
    # Heap of (weight, tiebreak, tree); tree is either a symbol or a pair.
    heap: list[tuple[int, int, object]] = [
        (frequencies[s], s, s) for s in symbols
    ]
    heapq.heapify(heap)
    counter = 256  # tiebreak ids beyond the byte range
    while len(heap) > 1:
        w1, _, t1 = heapq.heappop(heap)
        w2, _, t2 = heapq.heappop(heap)
        heapq.heappush(heap, (w1 + w2, counter, (t1, t2)))
        counter += 1
    lengths: dict[int, int] = {}

    stack = [(heap[0][2], 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, tuple):
            stack.append((node[0], depth + 1))
            stack.append((node[1], depth + 1))
        else:
            lengths[node] = max(depth, 1)
    return lengths


def canonical_codes(lengths: dict[int, int]) -> dict[int, tuple[int, int]]:
    """Assign canonical codes: returns ``symbol -> (code, length)``.

    Symbols are ordered by (length, symbol value), codes increase
    lexicographically — the scheme used by Deflate (RFC 1951 §3.2.2).
    """
    ordered = sorted(lengths.items(), key=lambda item: (item[1], item[0]))
    codes: dict[int, tuple[int, int]] = {}
    code = 0
    prev_len = 0
    for symbol, length in ordered:
        code <<= length - prev_len
        codes[symbol] = (code, length)
        code += 1
        prev_len = length
    return codes


class _CanonicalDecoder:
    """Bit-serial canonical Huffman decoder tables."""

    def __init__(self, lengths: dict[int, int]) -> None:
        if not lengths:
            raise ValueError("cannot build decoder for an empty code")
        self.max_length = max(lengths.values())
        ordered = sorted(lengths.items(), key=lambda item: (item[1], item[0]))
        self.first_code = [0] * (self.max_length + 1)
        self.count = [0] * (self.max_length + 1)
        self.offset = [0] * (self.max_length + 1)
        self.symbols = [symbol for symbol, _ in ordered]
        code = 0
        prev_len = 0
        index = 0
        for symbol, length in ordered:
            code <<= length - prev_len
            if self.count[length] == 0:
                self.first_code[length] = code
                self.offset[length] = index
            self.count[length] += 1
            code += 1
            prev_len = length
            index += 1

    def decode_one(self, reader: BitReader) -> int:
        code = 0
        for length in range(1, self.max_length + 1):
            code = (code << 1) | reader.read_bit()
            relative = code - self.first_code[length]
            if 0 <= relative < self.count[length]:
                return self.symbols[self.offset[length] + relative]
        raise ValueError("invalid Huffman code in stream")


def _encode_lengths_header(lengths: dict[int, int], out: bytearray) -> None:
    encode_uvarint(len(lengths), out)
    for symbol in sorted(lengths):
        encode_uvarint(symbol, out)
        encode_uvarint(lengths[symbol], out)


def _decode_lengths_header(data: bytes, pos: int) -> tuple[dict[int, int], int]:
    n, pos = decode_uvarint(data, pos)
    lengths: dict[int, int] = {}
    for _ in range(n):
        symbol, pos = decode_uvarint(data, pos)
        length, pos = decode_uvarint(data, pos)
        # A byte alphabet's Huffman tree is at most 255 levels deep.
        if symbol > 255 or not 1 <= length <= 255:
            raise ValueError("corrupt Huffman header")
        lengths[symbol] = length
    return lengths, pos


def huffman_compress(data: bytes) -> bytes:
    """Compress a byte string with a one-shot canonical Huffman code."""
    out = bytearray()
    encode_uvarint(len(data), out)
    if not data:
        return bytes(out)
    lengths = build_code_lengths(Counter(data))
    _encode_lengths_header(lengths, out)
    codes = canonical_codes(lengths)
    writer = BitWriter()
    write_bits = writer.write_bits
    table = [codes.get(s) for s in range(256)]
    for byte in data:
        code, length = table[byte]
        write_bits(code, length)
    return bytes(out) + writer.getvalue()


def huffman_decompress(data: bytes) -> bytes:
    """Inverse of :func:`huffman_compress`."""
    count, pos = decode_uvarint(data, 0)
    if count == 0:
        return b""
    lengths, pos = _decode_lengths_header(data, pos)
    # Every code is at least one bit long.
    if count > 8 * (len(data) - pos):
        raise ValueError("Huffman symbol count exceeds the stream")
    decoder = _CanonicalDecoder(lengths)
    reader = BitReader(data[pos:])
    out = bytearray(count)
    decode_one = decoder.decode_one
    for i in range(count):
        out[i] = decode_one(reader)
    return bytes(out)
