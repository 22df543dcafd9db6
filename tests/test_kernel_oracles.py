"""Vectorized kernels vs their pure-Python oracles.

The sparse-pipeline hot loops (polyline organization, radial reference
coding, plain radial deltas) were rewritten as batched numpy kernels; the
original loop implementations stay as ``*_py`` oracles.  These tests pin
the contract: identical outputs on every input — including the awkward
ones (empty groups, single-point polylines, duplicate ``(theta, phi)``
points whose tie-breaks must match bit for bit).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import DBGCParams
from repro.core.polyline import organize_polylines
from repro.core.reference import (
    decode_radial,
    decode_radial_plain,
    encode_radial,
    encode_radial_plain,
)
from repro.core.sparse_codec import decode_sparse_group, encode_sparse_group
from repro.geometry.spherical import spherical_to_cartesian
from tests.oracles.polyline import organize_polylines_py
from tests.oracles.reference import (
    decode_radial_plain_py,
    decode_radial_py,
    encode_radial_plain_py,
    encode_radial_py,
)


def _assert_same_lines(fast, oracle):
    assert len(fast) == len(oracle)
    for a, b in zip(fast, oracle):
        assert np.array_equal(a, b)


def _cloud(theta, phi, r):
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    xyz = spherical_to_cartesian(np.column_stack([theta, phi, r]))
    return theta, phi, xyz


class TestOrganizeOracle:
    def test_empty(self):
        theta, phi, xyz = _cloud([], [], [])
        assert organize_polylines(theta, phi, xyz, 0.01, 0.01) == []
        assert organize_polylines_py(theta, phi, xyz, 0.01, 0.01) == []

    def test_single_point(self):
        theta, phi, xyz = _cloud([0.3], [1.6], [10.0])
        _assert_same_lines(
            organize_polylines(theta, phi, xyz, 0.01, 0.01),
            organize_polylines_py(theta, phi, xyz, 0.01, 0.01),
        )

    def test_all_duplicate_theta_phi(self):
        """Coincident angular coordinates force pure tie-break ordering."""
        n = 12
        theta, phi, xyz = _cloud(
            np.zeros(n), np.full(n, 1.6), 10.0 + np.arange(n) * 0.001
        )
        fast = organize_polylines(theta, phi, xyz, 0.01, 0.01)
        _assert_same_lines(fast, organize_polylines_py(theta, phi, xyz, 0.01, 0.01))

    def test_duplicate_points_identical_xyz(self):
        """Exactly repeated points: equal distances, index tie-break only."""
        theta, phi, xyz = _cloud(
            [0.0, 0.0, 0.01, 0.01, 0.02],
            [1.6, 1.6, 1.6, 1.6, 1.6],
            [10.0, 10.0, 10.0, 10.0, 10.0],
        )
        fast = organize_polylines(theta, phi, xyz, 0.01, 0.01)
        _assert_same_lines(fast, organize_polylines_py(theta, phi, xyz, 0.01, 0.01))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_organize_property(self, data):
        """Random clouds on a coarse angular lattice (many exact duplicates)."""
        n = data.draw(st.integers(0, 40))
        theta_grid = data.draw(st.integers(1, 8))
        phi_grid = data.draw(st.integers(1, 4))
        theta = np.array(
            data.draw(
                st.lists(st.integers(0, theta_grid), min_size=n, max_size=n)
            ),
            dtype=np.float64,
        ) * 0.013
        phi = 1.5 + np.array(
            data.draw(st.lists(st.integers(0, phi_grid), min_size=n, max_size=n)),
            dtype=np.float64,
        ) * 0.009
        r = np.array(
            data.draw(
                st.lists(
                    st.floats(1.0, 50.0, allow_nan=False), min_size=n, max_size=n
                )
            )
        )
        theta, phi, xyz = _cloud(theta, phi, r)
        fast = organize_polylines(theta, phi, xyz, 0.013, 0.009)
        _assert_same_lines(fast, organize_polylines_py(theta, phi, xyz, 0.013, 0.009))
        if n:
            assert sorted(np.concatenate(fast).tolist()) == list(range(n))


def _radial_case(raw_lines, phis, th_phi, th_r):
    lines_theta = []
    lines_r = []
    for rs in raw_lines:
        lines_theta.append(np.arange(len(rs), dtype=np.int64))
        lines_r.append(np.asarray(rs, dtype=np.int64))
    line_phis = sorted(phis[: len(raw_lines)])
    return lines_theta, lines_r, line_phis, th_phi, th_r


class TestRadialOracle:
    def _check(self, lines_theta, lines_r, line_phis, th_phi, th_r):
        fast = encode_radial(lines_theta, lines_r, line_phis, th_phi, th_r)
        oracle = encode_radial_py(lines_theta, lines_r, line_phis, th_phi, th_r)
        assert np.array_equal(fast[0], oracle[0])
        assert list(fast[1]) == list(oracle[1])
        symbols = np.asarray(fast[1], dtype=np.int64)
        dec_fast = decode_radial(
            lines_theta, line_phis, fast[0], symbols, th_phi, th_r
        )
        dec_oracle = decode_radial_py(
            lines_theta, line_phis, fast[0], symbols, th_phi, th_r
        )
        _assert_same_lines(dec_fast, dec_oracle)
        _assert_same_lines(dec_fast, lines_r)

    def test_empty(self):
        self._check([], [], [], 2, 50)

    def test_single_point_lines(self):
        self._check(*_radial_case([[7], [9], [400]], [0, 1, 2], 2, 50))

    def test_zero_phi_window(self):
        """th_phi = 0: reference sets empty, every line heads fresh."""
        self._check(*_radial_case([[5, 6], [7, 8], [9, 10]], [0, 0, 0], 0, 10))

    def test_identical_lines(self):
        rs = [100, 100, 500, 500]
        self._check(*_radial_case([rs, rs, rs, rs], [0, 0, 1, 1], 3, 40))

    @given(
        st.lists(
            st.lists(st.integers(0, 3000), min_size=1, max_size=12),
            min_size=0,
            max_size=7,
        ),
        st.lists(st.integers(0, 12), min_size=7, max_size=7),
        st.integers(0, 8),
        st.integers(1, 200),
    )
    @settings(max_examples=80, deadline=None)
    def test_radial_property(self, raw_lines, phis, th_phi, th_r):
        self._check(*_radial_case(raw_lines, phis, th_phi, th_r))


class TestPlainRadialOracle:
    def test_empty(self):
        assert np.array_equal(encode_radial_plain([]), encode_radial_plain_py([]))
        assert decode_radial_plain(np.empty(0, np.int64), []) == []
        assert decode_radial_plain_py(np.empty(0, np.int64), []) == []

    @given(
        st.lists(
            st.lists(st.integers(-5000, 5000), min_size=1, max_size=12),
            min_size=0,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_plain_property(self, raw_lines):
        lines_r = [np.asarray(rs, dtype=np.int64) for rs in raw_lines]
        fast = encode_radial_plain(lines_r)
        assert np.array_equal(fast, encode_radial_plain_py(lines_r))
        lengths = [len(rs) for rs in raw_lines]
        dec_fast = decode_radial_plain(fast, lengths)
        _assert_same_lines(dec_fast, decode_radial_plain_py(fast, lengths))
        _assert_same_lines(dec_fast, lines_r)


class TestSparseGroupEdgeCases:
    """End-to-end byte behavior of the group codec on kernel edge cases."""

    def _roundtrip(self, xyz):
        params = DBGCParams()
        enc = encode_sparse_group(xyz, params, 0.01, 0.01)
        decoded = decode_sparse_group(enc.payload, params, 0.01, 0.01)
        coded = len(xyz) - len(enc.outlier_indices)
        assert len(decoded) == coded
        return enc, decoded

    def test_empty_group(self):
        enc, decoded = self._roundtrip(np.empty((0, 3)))
        assert len(enc.payload) >= 1
        assert len(decoded) == 0

    def test_all_single_point_polylines(self):
        """Isolated points are all outliers; the group payload is empty."""
        theta = np.array([0.0, 1.0, 2.0])
        phi = np.array([1.5, 1.7, 1.9])
        _t, _p, xyz = _cloud(theta, phi, [10.0, 20.0, 30.0])
        enc, decoded = self._roundtrip(xyz)
        assert len(enc.outlier_indices) == 3
        assert len(decoded) == 0

    def test_duplicate_theta_phi_points_roundtrip(self):
        theta = np.repeat(np.arange(6) * 0.01, 2)
        phi = np.full(12, 1.6)
        r = np.tile([10.0, 10.002], 6)
        _t, _p, xyz = _cloud(theta, phi, r)
        enc, decoded = self._roundtrip(xyz)
        # Every coded point must come back within the error bound; decoded
        # points arrive in stored polyline order (enc.order).
        params = DBGCParams()
        errors = np.linalg.norm(xyz[enc.order] - decoded, axis=1)
        assert np.all(errors <= np.sqrt(3.0) * params.q_xyz * (1 + 1e-9))
