"""Every per-symbol and per-level user of the arithmetic coder, and every
reader of raw bits, stops at the end of its input.

The G-PCC and kd-tree baselines decode symbol by symbol, the v1 octree
and quadtree readers one tree level per batch.  With an arithmetic payload
or the baselines' directly coded bits cut short, each must raise
``ValueError`` (it read past the end of its input, or a level holds more
nodes than points) within a second and without allocating memory in
proportion to what it expected.  Reading zero bits past the end without
a bound let a cut G-PCC stream decode to 1,952 of 2,000 points and a cut
kd-tree stream to all 2,000, with no error.
"""

import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import GpccCompressor, KdTreeCompressor
from repro.core.container import unpack_container
from repro.core.params import DBGCParams
from repro.entropy.varint import decode_uvarint, encode_uvarint
from repro.geometry import PointCloud
from repro.octree.codec import OctreeCodec

GOLDEN_V1 = Path(__file__).parent / "golden" / "v1_frame.dbgc"
STOPPED = "past its end|more nodes than points"


def _skip_uvarints(data: bytes, pos: int, n: int) -> int:
    for _ in range(n):
        _, pos = decode_uvarint(data, pos)
    return pos


def _cut(data: bytes, pos: int, keep) -> bytes:
    """``data`` with the length-prefixed payload at ``pos`` cut to
    ``keep(size)`` bytes; everything after the payload stays."""
    size, start = decode_uvarint(data, pos)
    out = bytearray(data[:pos])
    encode_uvarint(keep(size), out)
    return bytes(out) + data[start : start + keep(size)] + data[start + size :]


def _quarter(size: int) -> int:
    return size // 4


def _stops(decode, data: bytes) -> None:
    """``decode(data)`` raises ValueError within 1 s and a 4 MB peak."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match=STOPPED):
            decode(data)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 4 << 20


#: Each baseline and the number of header varints between its 32-byte
#: origin and cell side and its arithmetic payload's length: G-PCC's
#: depth, kd-tree's bits per axis.
BASELINES = {"gpcc": (GpccCompressor, 1), "kdtree": (KdTreeCompressor, 3)}


@pytest.fixture(scope="module")
def baseline_payloads():
    """Each baseline's codec, payload of 2,000 uniform points in ±20 m,
    and the position of its arithmetic payload's length."""
    cloud = PointCloud(np.random.default_rng(0).uniform(-20.0, 20.0, size=(2000, 3)))
    out = {}
    for name, (cls, n_varints) in BASELINES.items():
        codec = cls(0.02)
        data = codec.compress(cloud)
        out[name] = codec, data, _skip_uvarints(data, _skip_uvarints(data, 0, 1) + 32, n_varints)
    return out


@pytest.fixture(scope="module")
def v1_sections():
    """The golden v1 frame's dense octree and outlier quadtree sections,
    each with the position of its occupancy payload's length."""
    header, dense, _, outlier, _ = unpack_container(GOLDEN_V1.read_bytes())
    leaf_side = DBGCParams(q_xyz=header.q_xyz).leaf_side
    # n_points, origin and leaf side, depth.
    octree_pos = _skip_uvarints(dense, _skip_uvarints(dense, 0, 1) + 32, 1)
    # Outlier section: mode byte, n, tree size, then the quadtree section.
    assert outlier[0] == 0  # quadtree mode
    tree_size, tree_start = decode_uvarint(outlier, _skip_uvarints(outlier, 1, 1))
    tree = outlier[tree_start : tree_start + tree_size]
    quadtree_pos = _skip_uvarints(tree, _skip_uvarints(tree, 0, 1) + 24, 1)
    return {
        "octree": (OctreeCodec(leaf_side), dense, octree_pos),
        "quadtree": (OctreeCodec(leaf_side, dims=2), tree, quadtree_pos),
    }


@pytest.mark.parametrize("baseline", sorted(BASELINES))
class TestBaselines:
    def test_cut_to_a_quarter(self, baseline_payloads, baseline):
        codec, data, pos = baseline_payloads[baseline]
        _stops(codec.decompress, _cut(data, pos, _quarter))

    @pytest.mark.parametrize("short_by", [1, 2, 3, 4, 5])
    def test_cut_near_the_end(self, baseline_payloads, baseline, short_by):
        # A few bytes short, decoding can end up to 31 bits past the bound
        # with no refill left to notice it; the end-of-stream check must.
        codec, data, pos = baseline_payloads[baseline]
        _stops(codec.decompress, _cut(data, pos, lambda size: size - short_by))

    def test_raw_bits_cut(self, baseline_payloads, baseline):
        # The directly coded coordinate bits follow the arithmetic payload:
        # G-PCC's length-prefixed direct section is cut to a quarter, and
        # kd-tree's, which runs to the end, loses the payload's last quarter.
        codec, data, pos = baseline_payloads[baseline]
        if baseline == "gpcc":
            size, start = decode_uvarint(data, pos)
            cut = _cut(data, start + size, _quarter)
        else:
            cut = data[: len(data) * 3 // 4]
        _stops(codec.decompress, cut)


@pytest.mark.parametrize("tree", ["octree", "quadtree"])
class TestV1Readers:
    def test_cut_to_a_quarter(self, v1_sections, tree):
        codec, section, pos = v1_sections[tree]
        _stops(lambda d: codec.decode(d, version=1), _cut(section, pos, _quarter))

    @pytest.mark.parametrize("short_by", [1, 2, 3, 9])
    def test_cut_near_the_end(self, v1_sections, tree, short_by):
        # Only the tail is missing: the tree's shape can survive, and the
        # reader must notice that it ran past its input.  Unbounded, the
        # quadtree reader returns a wrong tree for the 2- and 9-byte cuts.
        codec, section, pos = v1_sections[tree]
        cut = _cut(section, pos, lambda size: size - short_by)
        _stops(lambda d: codec.decode(d, version=1), cut)
