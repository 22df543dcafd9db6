"""Entropy-coding substrate built from scratch.

The paper composes its scheme out of classic lossless coders: an arithmetic
coder for the octree occupancy codes and the Δφ / ∇r / L_ref streams, and
Deflate (LZ77 + Huffman) for the Δθ streams which carry repeated cross-line
patterns.  This subpackage provides those building blocks without external
codec libraries:

- :mod:`~repro.entropy.bitio` — MSB-first bit readers/writers.
- :mod:`~repro.entropy.varint` — LEB128 varints and zigzag mapping.
- :mod:`~repro.entropy.arithmetic` — adaptive arithmetic coder over a
  blocked frequency model.
- :mod:`~repro.entropy.huffman` — canonical Huffman codec for byte streams.
- :mod:`~repro.entropy.lz77` — hash-chain LZ77 tokenizer.
- :mod:`~repro.entropy.deflate` — the LZ77+Huffman "deflate-style" codec.
- :mod:`~repro.entropy.backend` — the tagged-stream helpers the codecs
  code through (one tag byte ahead of the arithmetic coder's bytes).
"""

from repro.entropy.arithmetic import (
    AdaptiveModel,
    arithmetic_decode,
    arithmetic_encode,
    decode_int_sequence,
    encode_int_sequence,
)
from repro.entropy.backend import (
    decode_tagged_ints,
    decode_tagged_symbols,
    encode_tagged_ints,
    encode_tagged_symbols,
)
from repro.entropy.bitio import BitReader, BitWriter
from repro.entropy.deflate import deflate_compress, deflate_decompress
from repro.entropy.huffman import huffman_compress, huffman_decompress
from repro.entropy.lz77 import lz77_compress_tokens, lz77_decompress_tokens
from repro.entropy.varint import (
    decode_varints,
    encode_varints,
    zigzag_decode,
    zigzag_encode,
)

__all__ = [
    "AdaptiveModel",
    "BitReader",
    "BitWriter",
    "arithmetic_decode",
    "arithmetic_encode",
    "decode_int_sequence",
    "decode_tagged_ints",
    "decode_tagged_symbols",
    "decode_varints",
    "deflate_compress",
    "deflate_decompress",
    "encode_int_sequence",
    "encode_tagged_ints",
    "encode_tagged_symbols",
    "encode_varints",
    "huffman_compress",
    "huffman_decompress",
    "lz77_compress_tokens",
    "lz77_decompress_tokens",
    "zigzag_decode",
    "zigzag_encode",
]
