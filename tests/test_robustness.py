"""Failure injection: corrupt, truncated, and adversarial streams.

A decoder facing a damaged stream must raise a clean Python exception
(ValueError / struct.error / StopIteration wrapped variants) — never hang,
never return silently wrong geometry without complaint, never crash the
interpreter.  These tests flip bits, truncate, and shuffle real payloads.
"""

import struct
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from benchmarks.ablation_codecs.rans import rans_encode_ints, rans_encode_symbols
from repro.baselines import (
    GpccCompressor,
    KdTreeCompressor,
    OctreeCompressor,
    OctreeICompressor,
)
from repro.core import DBGCCompressor, DBGCDecompressor, DBGCParams
from repro.core.sparse_codec import _pack_stream, decode_sparse_group, encode_sparse_group
from repro.core.temporal import TemporalContext, _decode_dense_delta, _encode_dense_delta
from repro.datasets import SensorModel, generate_frame
from repro.entropy import (
    arithmetic_encode,
    decode_tagged_ints,
    decode_tagged_symbols,
    deflate_decompress,
    encode_tagged_ints,
    encode_tagged_symbols,
    huffman_compress,
    huffman_decompress,
)
from repro.entropy.deflate import _MODE_DEFLATE, deflate_compress
from repro.entropy.lz77 import MIN_MATCH
from repro.entropy.varint import decode_uvarint, encode_uvarint
from repro.geometry import PointCloud
from repro.octree import OctreeCodec

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


def _full_tree_section(dims, version, depth):
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
        stream = encode_tagged_symbols(symbols, alphabet)
    encode_uvarint(len(stream), out)
    return bytes(out) + stream


def _one_leaf_section(dims, n_points):
    """A depth-0 tree section: one leaf holding all ``n_points`` points."""
    out = bytearray()
    encode_uvarint(n_points, out)
    out += struct.pack(f"<{dims + 1}d", *([0.0] * dims), 0.04)
    encode_uvarint(0, out)  # depth
    encode_uvarint(0, out)  # n_occupancy
    return bytes(out) + encode_tagged_ints(np.array([n_points - 1]))


def _wrapping_counts_section(dims, n_points):
    """A depth-1 tree of four leaves whose int64 leaf counts sum, wrapped
    past 2^64, to ``n_points``."""
    out = bytearray()
    encode_uvarint(n_points, out)
    out += struct.pack(f"<{dims + 1}d", *([0.0] * dims), 0.04)
    encode_uvarint(1, out)  # depth
    encode_uvarint(1, out)  # n_occupancy
    occupancy = encode_tagged_symbols(np.array([0b1111]), 1 << (1 << dims))
    encode_uvarint(len(occupancy), out)
    counts = np.array([2**62] * 3 + [2**62 + n_points], dtype=np.int64) - 1
    return bytes(out) + occupancy + encode_tagged_ints(counts)


def _one_leaf_dense_delta(n_points):
    """A one-point v3 dense delta section rewritten to hold ``n_points``."""
    context = TemporalContext()
    context.prev_cloud = np.zeros((1, 3))
    xyz = np.zeros((1, 3))
    payload = _encode_dense_delta(xyz, DBGCParams(), context, (0.0, 0.0, 0.0), 1 << 20)[0]
    counts = encode_tagged_ints(np.array([0]))
    assert payload[0] == 1 and payload.endswith(counts)
    out = bytearray()
    encode_uvarint(n_points, out)
    return bytes(out) + payload[1 : -len(counts)] + encode_tagged_ints(np.array([n_points - 1]))


#: Format v2's retired ``rans`` tag; no decoder accepts it any more.
_RANS_TAG = 1
_CLAIM = 2 * 10**7


def _rans_tagged_ints():
    """A genuine tag-1 int stream that claims 2x10^7 varint bytes."""
    values = np.random.default_rng(0).integers(-2000, 2000, size=3000)
    body = rans_encode_ints(values)
    count, pos = decode_uvarint(body, 0)
    _, pos = decode_uvarint(body, pos)
    out = bytearray([_RANS_TAG])
    encode_uvarint(count, out)
    encode_uvarint(_CLAIM, out)
    return bytes(out) + body[pos:]


def _rans_tagged_symbols():
    """A genuine tag-1 alphabet-256 stream of 12,000 symbols."""
    symbols = np.random.default_rng(1).integers(0, 256, size=12000)
    return bytes([_RANS_TAG]) + rans_encode_symbols(symbols, 256)


def _golden_v2_rans_header():
    """The golden v2 frame with its header's entropy tag (byte 6) set to 1."""
    blob = (Path(__file__).parent / "golden" / "v2_frame.dbgc").read_bytes()
    return blob[:6] + bytes([_RANS_TAG]) + blob[7:]


class TestInflatedClaims:
    """A count a payload claims never sizes the decoder's work or memory."""

    @pytest.mark.parametrize(
        "codec, dims, depth",
        [(OctreeCodec(0.04), 3, 7), (OctreeCodec(0.04, dims=2), 2, 10)],
        ids=["octree", "quadtree"],
    )
    @pytest.mark.parametrize("version", [1, 2], ids=["1", "2-adaptive-arith"])
    def test_tree_levels_bounded_by_point_count(self, codec, dims, depth, version):
        # A v2 section claims one symbol per node of the full tree; the
        # claim is checked against the point count before it is decoded.
        data = _full_tree_section(dims, version, depth)
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
            OctreeCodec(0.04, dims=2).decode(bytes(out), version=1)

    @pytest.mark.parametrize("dims", [3, 2], ids=["octree", "quadtree"])
    def test_tree_point_count_capped(self, dims):
        # 10^7 points in one leaf: the claim is checked against MAX_POINTS
        # before anything is decoded, not sized into a 10^7-row array.
        data = _one_leaf_section(dims, 10**7)
        start = time.perf_counter()
        _raises_within(OctreeCodec(0.04, dims=dims).decode, data, 16 << 20)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("dims", [3, 2], ids=["octree", "quadtree"])
    def test_leaf_counts_cannot_wrap_to_the_point_count(self, dims):
        # Each count must lie in [1, n_points]; unchecked, these four sum
        # to 5 in int64 and np.repeat is handed 2^62 copies of a leaf.
        data = _wrapping_counts_section(dims, 5)
        _raises_within(OctreeCodec(0.04, dims=dims).decode, data, 1 << 20)

    def test_dense_delta_point_count_capped(self):
        data = _one_leaf_dense_delta(10**7)
        context = TemporalContext()
        context.prev_cloud = np.zeros((1, 3))
        start = time.perf_counter()
        _raises_within(
            lambda d: _decode_dense_delta(d, context, (0.0, 0.0, 0.0)), data, 16 << 20
        )
        assert time.perf_counter() - start < 1.0

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

    @pytest.mark.parametrize(
        "decode, make",
        [
            (decode_tagged_ints, _rans_tagged_ints),
            (lambda d: decode_tagged_symbols(d, _CLAIM, 256), _rans_tagged_symbols),
            (lambda d: DBGCDecompressor().decompress(d), _golden_v2_rans_header),
        ],
        ids=["rans-ints", "rans-symbols", "v2-frame-header"],
    )
    def test_retired_rans_tag_rejected(self, decode, make):
        # Tag 1 named format v2's rANS coder, whose decoder sized its output
        # by the claimed count before reading a byte.
        data = make()
        start = time.perf_counter()
        _raises_within(decode, data, 1 << 20)
        assert time.perf_counter() - start < 1.0


# -- sparse group counts --------------------------------------------------------

#: Stream order inside a sparse group payload, after its header.
_D1_HEADS, _NABLA, _LREF = 1, 5, 6


def _group_streams(payload):
    """Split a sparse group payload into its header and its seven streams."""
    _, pos = decode_uvarint(payload, 0)  # n_points
    _, pos = decode_uvarint(payload, pos)  # n_lines
    pos += 8  # r_max
    header, streams = payload[:pos], []
    while pos < len(payload):
        size, pos = decode_uvarint(payload, pos)
        streams.append(payload[pos : pos + size])
        pos += size
    return header, streams


def _group_payload(header, streams):
    out = bytearray(header)
    for stream in streams:
        encode_uvarint(len(stream), out)
        out += stream
    return bytes(out)


def _lref_stream(symbols):
    out = bytearray()
    encode_uvarint(len(symbols), out)
    if len(symbols):
        out += encode_tagged_symbols(np.asarray(symbols), 4)
    return bytes(out)


def _two_point_group(lengths):
    """Two one-point lines whose length stream claims ``lengths``."""
    header = bytearray()
    encode_uvarint(2, header)  # n_points
    encode_uvarint(2, header)  # n_lines
    header += struct.pack("<d", 10.0)
    empty = np.empty(0, dtype=np.int64)
    return _group_payload(
        header,
        [
            encode_tagged_ints(np.array(lengths)),
            _pack_stream(np.array([100, 5])),
            _pack_stream(empty),
            _pack_stream(np.array([50, 1])),
            _pack_stream(empty),
            encode_tagged_ints(np.array([1000, 3])),
            _lref_stream([]),
        ],
    )


@pytest.fixture(scope="module")
def sparse_group():
    """A kitti-city group (30-40 m) whose decode reads L_ref symbols."""
    sensor = SensorModel.benchmark_default()
    xyz = generate_frame("kitti-city", 0, sensor=sensor).xyz
    radius = np.linalg.norm(xyz, axis=1)
    group = xyz[(radius > 30.0) & (radius < 40.0)]
    payload = encode_sparse_group(group, DBGCParams(), sensor.u_theta, sensor.u_phi).payload
    header, streams = _group_streams(payload)
    n_symbols, pos = decode_uvarint(streams[_LREF], 0)
    assert n_symbols > 0
    symbols = decode_tagged_symbols(streams[_LREF][pos:], n_symbols, 4)
    nabla = decode_tagged_ints(streams[_NABLA])
    # Split and rejoined unedited, the group still decodes.
    decoded = decode_sparse_group(
        _group_payload(header, streams), DBGCParams(), sensor.u_theta, sensor.u_phi
    )
    assert len(decoded) == nabla.size
    return sensor, header, streams, nabla, symbols


class TestSparseGroupCounts:
    """A sparse group's streams must agree exactly with its counts."""

    @staticmethod
    def _decode(data, sensor):
        return decode_sparse_group(data, DBGCParams(), sensor.u_theta, sensor.u_phi)

    @pytest.mark.parametrize(
        "lengths", [[0, 2], [3, -1], [1, 1]], ids=["0,2", "3,-1", "1,1"]
    )
    def test_lines_shorter_than_two_points_rejected(self, lengths):
        # The sum and the line count agree with the header; the encoder
        # never writes a polyline of fewer than 2 points.
        with pytest.raises(ValueError, match="length stream"):
            self._decode(_two_point_group(lengths), SensorModel.benchmark_default())

    @pytest.mark.parametrize("tail", [b"\x05", b"\x85"], ids=["surplus", "dangling"])
    def test_deflate_stream_holds_exactly_its_count(self, sparse_group, tail):
        # d1 heads, one varint per line: a surplus varint, or a byte that
        # starts one and never ends it, after the last.
        sensor, header, streams, _, _ = sparse_group
        stream = streams[_D1_HEADS]
        assert stream[0] == 0  # the Deflate mode byte
        stream = bytes([0]) + deflate_compress(deflate_decompress(stream[1:]) + tail)
        streams = [*streams[:_D1_HEADS], stream, *streams[_D1_HEADS + 1 :]]
        with pytest.raises(ValueError, match="count mismatch"):
            self._decode(_group_payload(header, streams), sensor)

    @pytest.mark.parametrize("edit", ["short", "surplus"])
    def test_radial_stream_must_hold_one_value_per_point(self, sparse_group, edit):
        sensor, header, streams, nabla, _ = sparse_group
        nabla = nabla[:-1] if edit == "short" else np.append(nabla, 0)
        streams = [*streams[:_NABLA], encode_tagged_ints(nabla), *streams[_NABLA + 1 :]]
        with pytest.raises(ValueError, match="radial stream"):
            self._decode(_group_payload(header, streams), sensor)

    @pytest.mark.parametrize("edit", ["empty", "short", "surplus"])
    def test_lref_must_be_consumed_exactly(self, sparse_group, edit):
        sensor, header, streams, _, symbols = sparse_group
        symbols = {
            "empty": symbols[:0],
            "short": symbols[:-1],
            "surplus": np.append(symbols, 0),
        }[edit]
        streams = [*streams[:_LREF], _lref_stream(symbols)]
        with pytest.raises(ValueError, match="L_ref"):
            self._decode(_group_payload(header, streams), sensor)

    def test_plain_radial_group_carries_no_lref(self, sparse_group):
        # -Radial groups delta-code r without references: any L_ref
        # symbol is one the decode never consumes.
        sensor, header, streams, _, _ = sparse_group
        params = DBGCParams(radial_reference=False)
        streams = [*streams[:_LREF], _lref_stream([0])]
        with pytest.raises(ValueError, match="L_ref"):
            decode_sparse_group(
                _group_payload(header, streams), params, sensor.u_theta, sensor.u_phi
            )
