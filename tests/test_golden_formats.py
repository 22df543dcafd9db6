"""Golden-payload compatibility tests for container formats v1, v2 and v3.

``tests/golden/`` holds committed payloads produced by the v1 (seed) and
v2 encoders on a deterministic analytic scene, plus the exact decoder
output at the time they were recorded.  A three-frame temporal drive over
the same scene (one v2 keyframe, two v3 delta frames) is committed with a
SHA-256 digest of each decoded frame and the mode byte of every v3
section.  These pin two promises:

* **Decoder compatibility** — today's decoder reads old payloads
  bit-identically; a v3-capable reader changes nothing about v1/v2.
* **Encoder stability** — re-encoding the same input with default
  parameters reproduces the committed v2 payload byte-for-byte, so a
  format change can never slip in silently.

The original cloud is regenerated analytically (not loaded) so the test
also guards the recipe that would be needed to re-record the goldens.
"""

import hashlib
import json
import struct
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core import DBGCDecompressor, DBGCParams
from repro.core.container import pack_container, pack_container_v3, unpack_container
from repro.core.pipeline import DBGCCompressor
from repro.core.temporal import (
    MODE_DELTA,
    MODE_INTRA,
    TemporalContext,
    TemporalDecoder,
)
from repro.datasets import SensorModel
from repro.entropy.varint import decode_uvarint, encode_uvarint
from repro.geometry import PointCloud

GOLDEN = Path(__file__).parent / "golden"


def golden_cloud() -> tuple[np.ndarray, np.ndarray]:
    """The analytic scene the goldens were recorded from (seeded, exact)."""
    rng = np.random.default_rng(42)
    wall = np.stack(
        [
            4.0 + rng.normal(0.0, 0.004, 900),
            np.tile(np.linspace(-1.5, 1.5, 30), 30),
            np.repeat(np.linspace(-0.9, 0.9, 30), 30),
        ],
        axis=1,
    )
    th = np.linspace(0.0, 2.0 * np.pi, 700, endpoint=False)
    rings = []
    for r, z in ((12.0, -1.2), (18.0, -1.0), (25.0, -0.8)):
        rr = r + rng.normal(0.0, 0.02, 700)
        rings.append(
            np.stack(
                [rr * np.cos(th), rr * np.sin(th), z + rng.normal(0.0, 0.01, 700)],
                axis=1,
            )
        )
    outliers = rng.uniform(-60.0, 60.0, (40, 3))
    outliers[:, 2] = rng.uniform(-2.0, 6.0, 40)
    xyz = np.vstack([wall] + rings + [outliers])
    intensity = rng.random(len(xyz)) * 0.9
    return xyz, intensity


def golden_drive() -> tuple[list[np.ndarray], list[tuple[float, float, float]]]:
    """The v3 golden drive: the golden scene moving 0.4 m per frame.

    Frame ``i`` is ``xyz - i * (0.4, 0, 0)`` plus N(0, 0.003) noise from one
    seeded generator; every frame after the first carries the matching
    ego delta.
    """
    xyz, _ = golden_cloud()
    rng = np.random.default_rng(7)
    step = np.array([0.4, 0.0, 0.0])
    frames = [xyz - i * step + rng.normal(0.0, 0.003, xyz.shape) for i in range(3)]
    return frames, [(0.0, 0.0, 0.0)] + [(0.4, 0.0, 0.0)] * 2


def _digest(cloud: PointCloud) -> str:
    return hashlib.sha256(np.ascontiguousarray(cloud.xyz).tobytes()).hexdigest()


@pytest.mark.parametrize("version", [1, 2])
class TestGoldenDecode:
    def test_version_byte(self, version):
        blob = (GOLDEN / f"v{version}_frame.dbgc").read_bytes()
        assert blob[4] == version

    def test_decodes_bit_identically(self, version):
        blob = (GOLDEN / f"v{version}_frame.dbgc").read_bytes()
        expected = np.load(GOLDEN / f"v{version}_frame_expected.npz")
        cloud, attrs = DBGCDecompressor().decompress_with_attributes(blob)
        assert np.array_equal(cloud.xyz, expected["decoded"])
        assert np.array_equal(attrs["intensity"], expected["intensity"])

    def test_temporal_decoder_reads_intra_unchanged(self, version):
        # The stateful v3-capable reader must treat v1/v2 payloads exactly
        # like the stateless decompressor (they are keyframes).
        blob = (GOLDEN / f"v{version}_frame.dbgc").read_bytes()
        expected = np.load(GOLDEN / f"v{version}_frame_expected.npz")
        cloud = TemporalDecoder().decode(blob)
        assert np.array_equal(cloud.xyz, expected["decoded"])

    def test_recorded_decode_satisfies_error_contract(self, version):
        # The golden isn't just self-consistent: every original point has
        # a reconstruction within the quantization bound, so the committed
        # payload demonstrably honors the codec's error contract.
        expected = np.load(GOLDEN / f"v{version}_frame_expected.npz")
        original = expected["original"]
        decoded = expected["decoded"]
        assert original.shape == decoded.shape
        bound = np.sqrt(3.0) * DBGCParams().q_xyz * 1.0001
        worst = 0.0
        for start in range(0, len(original), 256):
            chunk = original[start : start + 256]
            d2 = ((chunk[:, None, :] - decoded[None, :, :]) ** 2).sum(axis=2)
            worst = max(worst, float(np.sqrt(d2.min(axis=1)).max()))
        assert worst <= bound


class TestGoldenEncode:
    def test_recipe_matches_recorded_original(self):
        xyz, _ = golden_cloud()
        expected = np.load(GOLDEN / "v2_frame_expected.npz")
        assert np.array_equal(xyz, expected["original"])

    def test_v2_reencode_is_byte_stable(self):
        xyz, intensity = golden_cloud()
        compressor = DBGCCompressor(
            DBGCParams(), sensor=SensorModel.benchmark_default().scaled(0.5)
        )
        blob = compressor.compress(
            PointCloud(xyz), attributes={"intensity": intensity}
        )
        assert blob == (GOLDEN / "v2_frame.dbgc").read_bytes()


class TestGoldenTemporal:
    @pytest.fixture(scope="class")
    def recorded(self):
        expected = json.loads((GOLDEN / "v3_drive_expected.json").read_text())
        blobs = [
            (GOLDEN / f"v3_drive_{i}.dbgc").read_bytes()
            for i in range(len(expected["frames"]))
        ]
        return blobs, expected["frames"]

    def test_reencode_is_byte_stable(self, recorded):
        blobs, _ = recorded
        frames, egos = golden_drive()
        compressor = DBGCCompressor(
            DBGCParams(temporal=True, keyframe_interval=8),
            sensor=SensorModel.benchmark_default().scaled(0.5),
        )
        context = TemporalContext()
        for blob, xyz, ego in zip(blobs, frames, egos):
            result = compressor.compress_temporal(PointCloud(xyz), context, ego)
            assert result.payload == blob

    def test_decodes_to_recorded_digests(self, recorded):
        blobs, frames = recorded
        decoder = TemporalDecoder()
        for blob, frame in zip(blobs, frames):
            cloud = decoder.decode(blob)
            assert len(cloud) == frame["points"]
            assert _digest(cloud) == frame["sha256"]

    def test_failed_frame_leaves_context_untouched(self, recorded):
        # A delta frame that fails late (its outlier section cut in half)
        # must not advance the occupancy models: the intact frame decodes
        # next, and the chain goes on.
        blobs, frames = recorded
        header, dense, groups, outlier, attributes = unpack_container(blobs[1])
        broken = pack_container_v3(
            header.to_params(), header.u_theta, header.u_phi,
            header.predictor_fingerprint, header.ego_delta,
            dense, groups, outlier[: len(outlier) // 2], attributes,
        )
        decoder = TemporalDecoder()
        decoder.decode(blobs[0])
        with pytest.raises(ValueError):
            decoder.decode(broken)
        for blob, frame in zip(blobs[1:], frames[1:]):
            assert _digest(decoder.decode(blob)) == frame["sha256"]

    def test_section_modes_are_recorded(self, recorded):
        # Pins the fixture to the delta path: a re-recorded fixture whose
        # sections had all turned intra would still pass the byte and
        # digest checks above, but not these.
        blobs, frames = recorded
        assert [f["version"] for f in frames] == [2, 3, 3]
        for blob, frame in zip(blobs, frames):
            header, dense, groups, _, _ = unpack_container(blob)
            assert header.version == frame["version"]
            assert len(blob) == frame["bytes"]
            if header.is_delta:
                assert dense[0] == frame["dense_mode"] == MODE_DELTA
                assert [g[0] for g in groups] == frame["group_modes"]
                assert MODE_DELTA in frame["group_modes"]
                assert MODE_INTRA in frame["group_modes"]


#: The dense section's ``(origin x, y, z, leaf side)`` header.
_DENSE_FIXED = struct.Struct("<4d")


def _dense_header(blob: bytes) -> dict:
    """Point count, leaf side and depth of a frame's dense section."""
    header, dense, _, _, _ = unpack_container(blob)
    body = dense[1:] if header.is_delta else dense
    n_points, pos = decode_uvarint(body, 0)
    leaf = _DENSE_FIXED.unpack_from(body, pos)[3]
    depth, _ = decode_uvarint(body, pos + _DENSE_FIXED.size)
    return {"n_points": n_points, "leaf": leaf, "depth": depth}


def _with_dense_header(blob: bytes, **changes) -> bytes:
    """``blob`` re-packed with some of its dense header fields replaced."""
    header, dense, groups, outlier, attributes = unpack_container(blob)
    mode = dense[:1] if header.is_delta else b""
    body = dense[len(mode):]
    _, pos = decode_uvarint(body, 0)
    ox, oy, oz, _ = _DENSE_FIXED.unpack_from(body, pos)
    _, end = decode_uvarint(body, pos + _DENSE_FIXED.size)
    fields = {**_dense_header(blob), **changes}
    out = bytearray(mode)
    encode_uvarint(fields["n_points"], out)
    out += _DENSE_FIXED.pack(ox, oy, oz, fields["leaf"])
    encode_uvarint(fields["depth"], out)
    out += body[end:]
    sections = (bytes(out), groups, outlier, attributes)
    params = header.to_params()
    if header.is_delta:
        return pack_container_v3(
            params, header.u_theta, header.u_phi,
            header.predictor_fingerprint, header.ego_delta, *sections,
        )
    return pack_container(params, header.u_theta, header.u_phi, *sections)


def _with_occupancy_count(blob: bytes, n_occupancy: int) -> bytes:
    """The v2 ``blob`` with its dense section's ``n_occupancy`` replaced."""
    header, dense, groups, outlier, attributes = unpack_container(blob)
    _, pos = decode_uvarint(dense, 0)
    _, pos = decode_uvarint(dense, pos + _DENSE_FIXED.size)
    _, end = decode_uvarint(dense, pos)
    out = bytearray(dense[:pos])
    encode_uvarint(n_occupancy, out)
    out += dense[end:]
    return pack_container(
        header.to_params(), header.u_theta, header.u_phi,
        bytes(out), groups, outlier, attributes,
    )


class TestDenseHeaderMutations:
    """Both dense decoders reject a header that disagrees with its tree.

    Each mutation keeps the container well formed, so only the dense
    decoder can notice; each must raise ``ValueError`` promptly instead
    of decoding wrong geometry or expanding a garbage tree.
    """

    @pytest.fixture(scope="class")
    def v2_blob(self):
        blob = (GOLDEN / "v2_frame.dbgc").read_bytes()
        assert _with_dense_header(blob) == blob  # the re-pack itself is exact
        return blob

    @pytest.fixture(scope="class")
    def drive(self):
        blobs = [(GOLDEN / f"v3_drive_{i}.dbgc").read_bytes() for i in range(2)]
        assert _with_dense_header(blobs[1]) == blobs[1]
        return blobs

    def _decode_delta(self, drive, **changes):
        decoder = TemporalDecoder()
        decoder.decode(drive[0])
        return decoder.decode(_with_dense_header(drive[1], **changes))

    def test_v2_point_count_mismatch_rejected(self, v2_blob):
        n_points = _dense_header(v2_blob)["n_points"]
        blob = _with_dense_header(v2_blob, n_points=n_points + 1)
        with pytest.raises(ValueError, match="point count"):
            DBGCDecompressor().decompress(blob)

    def test_v2_inflated_occupancy_count_rejected_fast(self, v2_blob):
        # The claimed count is checked against depth x points (10,790 for
        # this section) before any of it is decoded or allocated.
        assert _with_occupancy_count(v2_blob, 1586) == v2_blob
        blob = _with_occupancy_count(v2_blob, 3_000_000)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match="occupancy count"):
                DBGCDecompressor().decompress(blob)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 4 << 20

    def test_v3_point_count_mismatch_rejected(self, drive):
        n_points = _dense_header(drive[1])["n_points"]
        with pytest.raises(ValueError, match="point count"):
            self._decode_delta(drive, n_points=n_points + 1)

    @pytest.mark.timeout(30)
    @pytest.mark.parametrize("depth", [0, 21, 22, 40, 64])
    def test_v3_depth_out_of_range_rejected(self, drive, depth):
        with pytest.raises(ValueError, match="depth"):
            self._decode_delta(drive, depth=depth)

    @pytest.mark.timeout(30)
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_v3_wrong_leaf_side_stops_tree_growth(self, drive, factor):
        # A wrong grid turns the occupancy bits into noise; the tree must
        # stop growing once a level holds more nodes than points.
        leaf = _dense_header(drive[1])["leaf"]
        with pytest.raises(ValueError, match="more nodes than points"):
            self._decode_delta(drive, leaf=leaf * factor)
