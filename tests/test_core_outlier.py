"""Tests for outlier compression, grouping and the container."""

import numpy as np
import pytest

from repro.core import DBGCParams, split_into_groups
from repro.core.container import pack_container, unpack_container
from repro.core.outlier import decode_outliers, encode_outliers
from repro.entropy.varint import decode_uvarint, encode_uvarint


def _outlier_cloud(n=200, seed=0):
    """Far scattered points, flat-ish in z (the typical outlier shape).

    Outliers are mostly distant ground/facade returns: z varies smoothly
    with position (Section 3.6's motivation for treating z as an attribute).
    """
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0, 2 * np.pi, n)
    radii = rng.uniform(40, 90, n)
    x = radii * np.cos(angles)
    y = radii * np.sin(angles)
    z = -1.7 + 0.01 * x + 0.05 * np.sin(angles * 2) + rng.normal(0, 0.05, n)
    return np.column_stack([x, y, z])


class TestOutlierCodec:
    @pytest.mark.parametrize("mode", ["quadtree", "octree", "none"])
    def test_roundtrip_all_modes(self, mode):
        params = DBGCParams(outlier_mode=mode)
        xyz = _outlier_cloud()
        payload, mapping = encode_outliers(xyz, params)
        decoded = decode_outliers(payload, params)
        assert decoded.shape == xyz.shape
        err = np.abs(decoded[mapping] - xyz)
        assert err.max() <= params.q_xyz * (1 + 1e-6)

    @pytest.mark.parametrize("mode", ["quadtree", "octree", "none"])
    def test_empty(self, mode):
        params = DBGCParams(outlier_mode=mode)
        payload, mapping = encode_outliers(np.empty((0, 3)), params)
        assert decode_outliers(payload, params).shape == (0, 3)
        assert mapping.size == 0

    def test_quadtree_beats_octree_on_flat_outliers(self):
        """Table 2: the quadtree + z-attribute scheme wins on flat scenes."""
        xyz = _outlier_cloud(n=500)
        quad, _ = encode_outliers(xyz, DBGCParams(outlier_mode="quadtree"))
        octree, _ = encode_outliers(xyz, DBGCParams(outlier_mode="octree"))
        none, _ = encode_outliers(xyz, DBGCParams(outlier_mode="none"))
        assert len(quad) <= len(octree)
        assert len(octree) < len(none)

    def test_mapping_is_permutation(self):
        xyz = _outlier_cloud(100)
        _, mapping = encode_outliers(xyz, DBGCParams())
        assert sorted(mapping.tolist()) == list(range(100))

    @pytest.mark.parametrize("mode", ["quadtree", "octree"])
    def test_section_count_must_match_tree(self, mode):
        # The section's own point count n, raised from 50 to 57, no longer
        # matches the 50 points its tree decodes to.
        params = DBGCParams(outlier_mode=mode)
        payload, _ = encode_outliers(_outlier_cloud(50), params)
        n, pos = decode_uvarint(payload, 1)
        assert n == 50
        inflated = bytearray(payload[:1])
        encode_uvarint(57, inflated)
        with pytest.raises(ValueError, match="outlier count"):
            decode_outliers(bytes(inflated) + payload[pos:], params)

    def test_unknown_mode_byte_rejected(self):
        with pytest.raises(ValueError):
            decode_outliers(bytes([99, 0]), DBGCParams())

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            decode_outliers(b"", DBGCParams())


class TestGrouping:
    def test_single_group(self):
        groups = split_into_groups(np.array([1.0, 5.0, 2.0]), 1)
        assert len(groups) == 1
        assert groups[0].tolist() == [0, 1, 2]

    def test_three_groups_equal_width(self):
        radii = np.linspace(1.0, 100.0, 99)
        groups = split_into_groups(radii, 3)
        assert len(groups) == 3
        # Equal radial intervals: each group spans ~33 m of range.
        spans = [radii[g].max() - radii[g].min() for g in groups]
        assert max(spans) - min(spans) < 5.0

    def test_groups_ordered_by_radius(self):
        radii = np.array([50.0, 1.0, 99.0, 2.0, 51.0, 98.0])
        groups = split_into_groups(radii, 3)
        maxes = [radii[g].max() for g in groups]
        assert maxes == sorted(maxes)

    def test_partition_is_complete(self):
        rng = np.random.default_rng(0)
        radii = rng.uniform(1, 100, 500)
        groups = split_into_groups(radii, 3)
        seen = np.concatenate(groups)
        assert sorted(seen.tolist()) == list(range(500))

    def test_empty_and_invalid(self):
        assert split_into_groups(np.array([]), 3) == []
        with pytest.raises(ValueError):
            split_into_groups(np.array([1.0]), 0)

    def test_degenerate_identical_radii(self):
        groups = split_into_groups(np.full(10, 5.0), 3)
        assert sum(len(g) for g in groups) == 10


class TestContainer:
    def test_roundtrip(self):
        params = DBGCParams(q_xyz=0.05, strict_cartesian=True)
        data = pack_container(
            params, 0.01, 0.005, b"DENSE", [b"G0", b"G111"], b"OUT", b"ATTRS"
        )
        header, dense, groups, outlier, attrs = unpack_container(data)
        assert header.q_xyz == 0.05
        assert header.u_theta == 0.01
        assert header.u_phi == 0.005
        assert header.strict_cartesian
        assert header.spherical_conversion
        assert dense == b"DENSE"
        assert groups == [b"G0", b"G111"]
        assert outlier == b"OUT"
        assert attrs == b"ATTRS"

    def test_flags_roundtrip(self):
        params = DBGCParams(spherical_conversion=False, radial_reference=False)
        data = pack_container(params, 0.01, 0.005, b"", [], b"")
        header, _, groups, _, attrs = unpack_container(data)
        assert attrs == b""
        assert not header.spherical_conversion
        assert not header.radial_reference
        assert groups == []

    def test_to_params_carries_decode_fields(self):
        params = DBGCParams(q_xyz=0.07, th_r=3.5, radial_reference=False)
        data = pack_container(params, 0.01, 0.005, b"", [], b"")
        header, _, _, _, _ = unpack_container(data)
        rebuilt = header.to_params()
        assert rebuilt.q_xyz == 0.07
        assert rebuilt.th_r == 3.5
        assert not rebuilt.radial_reference

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            unpack_container(b"XXXX" + bytes(40))

    def test_bad_version_rejected(self):
        data = bytearray(pack_container(DBGCParams(), 0.01, 0.005, b"", [], b""))
        data[4] = 99
        with pytest.raises(ValueError):
            unpack_container(bytes(data))
