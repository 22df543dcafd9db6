"""Hash-chain LZ77 tokenizer.

LZ77 [61] factors a byte stream into literals and back-references
``(offset, length)`` into a sliding window.  We keep the tokenizer separate
from the entropy stage so the deflate-style codec
(:mod:`repro.entropy.deflate`) can entropy-code each token stream with the
model that suits it.

Token serialization (consumed by :func:`lz77_decompress_tokens`):

- ``flags`` — one bit per token, MSB-first; 0 = literal, 1 = match.
- ``literals`` — the literal bytes, in order.
- ``matches`` — per match: ``uvarint(length - min_match)``,
  ``uvarint(offset)``.
"""

from __future__ import annotations

from repro.entropy.bitio import BitReader, BitWriter
from repro.entropy.varint import decode_uvarint, encode_uvarint

__all__ = ["Lz77Tokens", "lz77_compress_tokens", "lz77_decompress_tokens"]

MIN_MATCH = 4
MAX_MATCH = 258
WINDOW = 1 << 15


class Lz77Tokens:
    """The three raw token streams plus the token count."""

    __slots__ = ("n_tokens", "flags", "literals", "matches")

    def __init__(self, n_tokens: int, flags: bytes, literals: bytes, matches: bytes):
        self.n_tokens = n_tokens
        self.flags = flags
        self.literals = literals
        self.matches = matches


def lz77_compress_tokens(data: bytes, max_chain: int = 32) -> Lz77Tokens:
    """Greedy hash-chain LZ77 factorization of ``data``."""
    n = len(data)
    flags = BitWriter()
    literals = bytearray()
    matches = bytearray()
    n_tokens = 0
    # Hash chains: 4-byte prefix -> recent positions (most recent last).
    chains: dict[int, list[int]] = {}
    pos = 0
    while pos < n:
        best_len = 0
        best_offset = 0
        if pos + MIN_MATCH <= n:
            key = int.from_bytes(data[pos : pos + 4], "little")
            candidates = chains.get(key)
            if candidates:
                limit = min(MAX_MATCH, n - pos)
                # Walk the chain newest-first; stop at the window edge.
                for candidate in reversed(candidates):
                    if pos - candidate > WINDOW:
                        break
                    length = 4
                    while length < limit and data[candidate + length] == data[pos + length]:
                        length += 1
                    if length > best_len:
                        best_len = length
                        best_offset = pos - candidate
                        if length >= limit:
                            break
        if best_len >= MIN_MATCH:
            flags.write_bit(1)
            encode_uvarint(best_len - MIN_MATCH, matches)
            encode_uvarint(best_offset, matches)
            end = pos + best_len
            # Index the covered positions so later matches can reference them.
            last = min(end, n - MIN_MATCH + 1)
            step = 1 if best_len <= 16 else 2
            for p in range(pos, last, step):
                key = int.from_bytes(data[p : p + 4], "little")
                chain = chains.setdefault(key, [])
                chain.append(p)
                if len(chain) > max_chain:
                    del chain[0 : len(chain) - max_chain]
            pos = end
        else:
            flags.write_bit(0)
            literals.append(data[pos])
            if pos + MIN_MATCH <= n:
                key = int.from_bytes(data[pos : pos + 4], "little")
                chain = chains.setdefault(key, [])
                chain.append(pos)
                if len(chain) > max_chain:
                    del chain[0 : len(chain) - max_chain]
            pos += 1
        n_tokens += 1
    return Lz77Tokens(n_tokens, flags.getvalue(), bytes(literals), bytes(matches))


def lz77_decompress_tokens(tokens: Lz77Tokens) -> bytes:
    """Reconstruct the original byte stream from token streams."""
    out = bytearray()
    flag_reader = BitReader(tokens.flags)
    literals = tokens.literals
    matches = tokens.matches
    lit_pos = 0
    match_pos = 0
    for _ in range(tokens.n_tokens):
        if flag_reader.read_bit():
            length, match_pos = decode_uvarint(matches, match_pos)
            offset, match_pos = decode_uvarint(matches, match_pos)
            length += MIN_MATCH
            if length > MAX_MATCH:
                raise ValueError("corrupt LZ77 stream: match longer than MAX_MATCH")
            if offset <= 0 or offset > len(out):
                raise ValueError("corrupt LZ77 stream: bad offset")
            start = len(out) - offset
            if offset >= length:
                out.extend(out[start : start + length])
            else:
                # Overlapping copy: replicate byte-by-byte (RLE-like matches).
                for i in range(length):
                    out.append(out[start + i])
        else:
            if lit_pos >= len(literals):
                raise ValueError("corrupt LZ77 stream: missing literal")
            out.append(literals[lit_pos])
            lit_pos += 1
    return bytes(out)
