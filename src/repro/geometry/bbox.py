"""The grid sizing rule of the tree coders."""

from __future__ import annotations

__all__ = ["pow2_cover"]


def pow2_cover(extent: float, leaf_side: float) -> tuple[float, int]:
    """Smallest ``(side, depth)`` with ``side == leaf_side * 2**depth >= extent``.

    The sizing rule of the tree quantizer (:func:`repro.octree.octree.quantize`)
    for the octree root cube and the outlier quadtree alike: grow the leaf
    side by doubling until it covers ``extent``, so recursive halving of the
    result lands exactly back on the leaf size.  The tiny epsilon keeps
    points exactly on the max boundary inside the half-open cell
    decomposition.  ``leaf_side`` must be positive (the quantizer checks it).
    """
    depth = 0
    side = leaf_side
    while side < extent * (1.0 + 1e-12) or side == 0.0:
        side *= 2.0
        depth += 1
    return side, depth
