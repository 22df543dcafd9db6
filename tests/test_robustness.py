"""Failure injection: corrupt, truncated, and adversarial streams.

A decoder facing a damaged stream must raise a clean Python exception
(ValueError / struct.error / StopIteration wrapped variants) — never hang,
never return silently wrong geometry without complaint, never crash the
interpreter.  These tests flip bits, truncate, and shuffle real payloads.
"""

import struct
import time
import tracemalloc

import numpy as np
import pytest

from repro.baselines import (
    GpccCompressor,
    KdTreeCompressor,
    OctreeCompressor,
    OctreeICompressor,
)
from repro.core import DBGCCompressor, DBGCDecompressor, DBGCParams
from repro.datasets import generate_frame
from repro.entropy import (
    arithmetic_encode,
    deflate_decompress,
    encode_tagged_symbols,
    huffman_compress,
    huffman_decompress,
)
from repro.entropy.deflate import _MODE_DEFLATE
from repro.entropy.lz77 import MIN_MATCH
from repro.entropy.varint import decode_uvarint, encode_uvarint
from repro.geometry import PointCloud
from repro.octree import OctreeCodec, QuadtreeCodec

DECODE_ERRORS = (ValueError, IndexError, KeyError, StopIteration, struct.error, OverflowError)


@pytest.fixture(scope="module")
def cloud():
    return PointCloud(generate_frame("kitti-road", 0).xyz[::10])


@pytest.fixture(scope="module")
def payload(cloud):
    return DBGCCompressor(DBGCParams()).compress(cloud)


def _expect_failure_or_mismatch(decode, data, n_expected):
    """Decoding corrupt data must raise, or at least not lie silently.

    Entropy-coded streams cannot detect every flipped bit; what we require
    is: no hang, no interpreter crash, and when a value *is* returned it is
    a well-formed cloud object.
    """
    try:
        result = decode(data)
    except DECODE_ERRORS:
        return True
    assert result.xyz.shape[1] == 3
    return len(result) != n_expected


class TestDbgcStream:
    def test_truncations_never_hang(self, payload, cloud):
        decoder = DBGCDecompressor()
        for cut in (5, 20, len(payload) // 2, len(payload) - 3):
            _expect_failure_or_mismatch(decoder.decompress, payload[:cut], len(cloud))

    def test_header_bit_flips(self, payload, cloud):
        decoder = DBGCDecompressor()
        for position in range(0, 40, 3):
            corrupted = bytearray(payload)
            corrupted[position] ^= 0xFF
            _expect_failure_or_mismatch(
                decoder.decompress, bytes(corrupted), len(cloud)
            )

    def test_random_bit_flips(self, payload, cloud):
        decoder = DBGCDecompressor()
        rng = np.random.default_rng(0)
        for _ in range(25):
            corrupted = bytearray(payload)
            corrupted[rng.integers(0, len(payload))] ^= 1 << rng.integers(0, 8)
            _expect_failure_or_mismatch(
                decoder.decompress, bytes(corrupted), len(cloud)
            )

    def test_empty_and_garbage(self):
        decoder = DBGCDecompressor()
        with pytest.raises(DECODE_ERRORS):
            decoder.decompress(b"")
        with pytest.raises(DECODE_ERRORS):
            decoder.decompress(b"\x00" * 64)
        with pytest.raises(DECODE_ERRORS):
            decoder.decompress(bytes(range(256)))

    def test_swapped_sections_detected_or_harmless(self, payload, cloud):
        # Duplicate the stream onto itself mid-way: sizes go inconsistent.
        data = payload[: len(payload) // 2] + payload[: len(payload) // 2]
        _expect_failure_or_mismatch(
            DBGCDecompressor().decompress, data, len(cloud)
        )


class TestBaselineStreams:
    @pytest.mark.parametrize(
        "cls", [OctreeCompressor, OctreeICompressor, KdTreeCompressor, GpccCompressor]
    )
    def test_truncation_and_flips(self, cls, cloud):
        codec = cls(0.05)
        payload = codec.compress(cloud)
        for cut in (3, len(payload) // 3, len(payload) - 2):
            _expect_failure_or_mismatch(codec.decompress, payload[:cut], len(cloud))
        rng = np.random.default_rng(1)
        for _ in range(10):
            corrupted = bytearray(payload)
            corrupted[rng.integers(0, len(payload))] ^= 0xFF
            _expect_failure_or_mismatch(
                codec.decompress, bytes(corrupted), len(cloud)
            )


class TestRoundTripUnderhandedInputs:
    """Valid but nasty inputs must round-trip, not just fail gracefully."""

    @pytest.mark.parametrize(
        "xyz",
        [
            np.full((40, 3), 1e-9),                    # everything at the origin
            np.array([[100.0, 100.0, 100.0]] * 17),    # far duplicates
            np.column_stack(                            # a single vertical pole
                [np.zeros(50), np.zeros(50) + 5.0, np.linspace(-2, 10, 50)]
            ),
        ],
        ids=["origin-cluster", "far-duplicates", "vertical-pole"],
    )
    def test_degenerate_geometry(self, xyz):
        params = DBGCParams()
        compressor = DBGCCompressor(params)
        result = compressor.compress_detailed(PointCloud(xyz))
        decoded = DBGCDecompressor().decompress(result.payload)
        assert len(decoded) == len(xyz)
        err = np.linalg.norm(decoded.xyz[result.mapping] - xyz, axis=1)
        assert err.max() <= np.sqrt(3) * params.q_xyz * (1 + 1e-6)

    def test_huge_coordinates(self):
        rng = np.random.default_rng(2)
        xyz = rng.uniform(9000.0, 9100.0, size=(100, 3))
        params = DBGCParams(q_xyz=0.05)
        result = DBGCCompressor(params).compress_detailed(PointCloud(xyz))
        decoded = DBGCDecompressor().decompress(result.payload)
        err = np.linalg.norm(decoded.xyz[result.mapping] - xyz, axis=1)
        assert err.max() <= np.sqrt(3) * params.q_xyz * (1 + 1e-6)


def _raises_within(decode, data, peak_bytes):
    """``decode(data)`` raises ValueError, allocating under ``peak_bytes``."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            decode(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < peak_bytes


def _full_tree_section(dims, version, depth, backend="rans"):
    """A one-point tree section whose every level claims all children full."""
    fanout = 1 << dims
    n_occupancy = (fanout**depth - 1) // (fanout - 1)
    alphabet = 256 if dims == 3 else 16
    symbols = np.full(n_occupancy, (1 << fanout) - 1, dtype=np.int64)
    out = bytearray()
    encode_uvarint(1, out)
    out += struct.pack(f"<{dims + 1}d", *([0.0] * dims), 0.04)
    encode_uvarint(depth, out)
    if version == 1:
        stream = arithmetic_encode(symbols, alphabet)
    else:
        encode_uvarint(n_occupancy, out)
        stream = encode_tagged_symbols(symbols, alphabet, backend)
    encode_uvarint(len(stream), out)
    return bytes(out) + stream


class TestInflatedClaims:
    """A count a payload claims never sizes the decoder's work or memory."""

    @pytest.mark.parametrize(
        "codec, dims, depth",
        [(OctreeCodec(0.04), 3, 7), (QuadtreeCodec(0.04), 2, 10)],
        ids=["octree", "quadtree"],
    )
    @pytest.mark.parametrize(
        "version, backend",
        [(1, None), (2, "rans"), (2, "adaptive-arith")],
        ids=["1", "2", "2-adaptive-arith"],
    )
    def test_tree_levels_bounded_by_point_count(self, codec, dims, depth, version, backend):
        # A v2 section claims one symbol per node of the full tree; the
        # claim is checked against the point count before it is decoded.
        data = _full_tree_section(dims, version, depth, backend)
        start = time.perf_counter()
        _raises_within(lambda d: codec.decode(d, version=version), data, 16 << 20)
        assert time.perf_counter() - start < 1.0

    def test_quadtree_depth_beyond_morton_capacity_rejected(self):
        # An empty v1 occupancy stream decodes one phantom level per
        # claimed depth unless the depth is capped.
        out = bytearray()
        encode_uvarint(1, out)
        out += struct.pack("<3d", 0.0, 0.0, 0.04)
        encode_uvarint(10**5, out)
        encode_uvarint(0, out)
        with pytest.raises(ValueError, match="depth"):
            QuadtreeCodec(0.04).decode(bytes(out), version=1)

    def test_lz77_match_longer_than_max_rejected(self):
        # One literal, then one overlapping match claiming 10^6 bytes.
        matches = bytearray()
        encode_uvarint(10**6 - MIN_MATCH, matches)
        encode_uvarint(1, matches)
        sections = [bytes([0b0100_0000]), huffman_compress(b"a"), huffman_compress(matches)]
        body = bytearray([_MODE_DEFLATE])
        encode_uvarint(2, body)
        for section in sections:
            encode_uvarint(len(section), body)
        _raises_within(deflate_decompress, bytes(body) + b"".join(sections), 1 << 20)

    def test_huffman_count_beyond_stream_rejected(self):
        data = huffman_compress(b"ab" * 20)
        _, pos = decode_uvarint(data, 0)
        claimed = bytearray()
        encode_uvarint(10**6, claimed)
        _raises_within(huffman_decompress, bytes(claimed) + data[pos:], 1 << 20)

    def test_huffman_code_length_out_of_range_rejected(self):
        # count 1, one header entry: symbol 0 with a 10^6-bit code.
        header = bytearray()
        for value in (1, 1, 0, 10**6):
            encode_uvarint(value, header)
        _raises_within(huffman_decompress, bytes(header) + b"\x00", 1 << 20)
