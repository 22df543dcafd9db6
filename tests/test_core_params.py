"""Tests for DBGCParams."""

import math

import pytest

from repro.core import DBGCParams


class TestValidation:
    def test_defaults_are_paper_values(self):
        p = DBGCParams()
        assert p.q_xyz == 0.02
        assert p.k == 10
        assert p.n_groups == 3
        assert p.th_r == 2.0
        assert p.outlier_mode == "quadtree"

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            DBGCParams(q_xyz=0.0)

    def test_rejects_k_below_2(self):
        # Section 3.2: k must be at least 2 so the leaf diagonal fits in eps.
        with pytest.raises(ValueError):
            DBGCParams(k=1)

    def test_rejects_bad_modes(self):
        with pytest.raises(ValueError):
            DBGCParams(clustering="fancy")
        with pytest.raises(ValueError):
            DBGCParams(outlier_mode="zip")
        with pytest.raises(ValueError):
            DBGCParams(min_pts_mode="area")

    @pytest.mark.parametrize("mode", ["none", "all-dense"])
    def test_rejects_retired_clustering_spellings(self, mode):
        # dense_fraction=0.0 / 1.0 spell the two extremes.
        with pytest.raises(ValueError, match="unknown clustering mode"):
            DBGCParams(clustering=mode)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            DBGCParams(dense_fraction=1.5)

    def test_rejects_bad_groups_and_threshold(self):
        with pytest.raises(ValueError):
            DBGCParams(n_groups=0)
        with pytest.raises(ValueError):
            DBGCParams(th_r=0.0)
        with pytest.raises(ValueError):
            DBGCParams(min_pts=0)


class TestDerived:
    def test_leaf_side_is_twice_bound(self):
        assert DBGCParams(q_xyz=0.02).leaf_side == pytest.approx(0.04)

    def test_eps_formula(self):
        assert DBGCParams(q_xyz=0.02, k=10).eps == pytest.approx(0.2)

    def test_min_pts_volume_formula(self):
        # Paper: pi * k^3 / 6 leaf cells fit in the eps-sphere.
        p = DBGCParams(k=10, min_pts_mode="volume")
        assert p.effective_min_pts == int(math.pi * 1000 / 6)

    def test_min_pts_surface_formula(self):
        p = DBGCParams(k=10, min_pts_mode="surface")
        assert p.effective_min_pts == int(math.pi * 100 / 4)

    def test_min_pts_override_and_scale(self):
        assert DBGCParams(min_pts=42).effective_min_pts == 42
        scaled = DBGCParams(k=10, min_pts_mode="volume", min_pts_scale=0.5)
        assert scaled.effective_min_pts == int(math.pi * 1000 / 6 * 0.5)

    def test_group_ablation(self):
        assert DBGCParams(grouping=False).effective_n_groups == 1
        assert DBGCParams(grouping=True, n_groups=3).effective_n_groups == 3

    def test_with_updates(self):
        p = DBGCParams().with_updates(q_xyz=0.05, n_groups=2)
        assert p.q_xyz == 0.05
        assert p.n_groups == 2
        assert p.k == 10  # unchanged
