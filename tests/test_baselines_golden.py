"""Byte pins for the G-PCC, kd-tree, Octree and Octree_i baselines.

No committed bench size covers these four coders, so their payloads and
decoded clouds are pinned here: frame 0 of each fig9 scene at half the
benchmark sensor resolution, compressed with ``GpccCompressor(0.02)``,
``KdTreeCompressor(0.02)``, ``OctreeCompressor(0.02)`` and
``OctreeICompressor(0.02)``.  ``tests/golden/baselines_expected.json``
holds the SHA-256 of every payload and of its decoded ``xyz`` (float64,
C order), so any change to the tree or entropy coders under them that
moves one byte or one point fails here.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import (
    GpccCompressor,
    KdTreeCompressor,
    OctreeCompressor,
    OctreeICompressor,
)
from repro.datasets import SensorModel, generate_frame

EXPECTED = json.loads(
    (Path(__file__).parent / "golden" / "baselines_expected.json").read_text()
)
SCENES = [
    "apollo-urban",
    "ford-campus",
    "kitti-campus",
    "kitti-city",
    "kitti-residential",
    "kitti-road",
]
CODECS = {
    "gpcc": GpccCompressor,
    "kdtree": KdTreeCompressor,
    "octree": OctreeCompressor,
    "octree_i": OctreeICompressor,
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def frames():
    sensor = SensorModel.benchmark_default().scaled(0.5)
    return {scene: generate_frame(scene, 0, sensor=sensor) for scene in SCENES}


@pytest.mark.parametrize("codec", sorted(CODECS))
@pytest.mark.parametrize("scene", SCENES)
def test_payload_and_decode_pinned(frames, scene, codec):
    compressor = CODECS[codec](0.02)
    payload = compressor.compress(frames[scene])
    decoded = compressor.decompress(payload)
    expected = EXPECTED[scene][codec]
    assert len(payload) == expected["payload_bytes"]
    assert _sha256(payload) == expected["payload_sha256"]
    assert _sha256(np.ascontiguousarray(decoded.xyz).tobytes()) == expected["xyz_sha256"]
