"""Unit tests for repro.geometry.bbox."""

import numpy as np

from repro.geometry.bbox import pow2_cover


class TestPow2Cover:
    """The sizing rule of the octree cube and the outlier quadtree."""

    def test_exact_power_of_two_multiples(self):
        assert pow2_cover(0.0, 0.5) == (0.5, 0)
        # An exact-multiple extent still doubles: the boundary epsilon
        # keeps points on the max face inside the half-open cells.
        assert pow2_cover(0.5, 0.5) == (1.0, 1)
        assert pow2_cover(0.6, 0.5) == (1.0, 1)
        assert pow2_cover(7.9, 0.5) == (8.0, 4)

    def test_side_is_leaf_times_power_and_covers(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            extent = float(rng.uniform(0.0, 100.0))
            leaf = float(rng.uniform(1e-3, 2.0))
            side, depth = pow2_cover(extent, leaf)
            assert side == leaf * 2**depth
            assert side >= extent * (1.0 - 1e-12)
            assert depth == 0 or side / 2.0 < extent * (1.0 + 1e-12)
