"""The occupancy tree over Morton-coded leaf cells, in 2D and 3D.

A node is identified by its Morton prefix: with ``dims`` coordinates per
cell (3 for the octree, 2 for the quadtree), the parent of node ``c`` is
``c >> dims`` and its child index is ``c & (2**dims - 1)``.  Building and
expanding the tree is then pure array work on sorted codes, which is what
makes the pure-Python implementation fast enough for full frames.

The breadth-first occupancy serialization (Botsch et al. [7]) emits, level by
level and in sorted node order, one symbol per non-leaf node whose ``i``-th
bit says whether child ``i`` is occupied.

These functions are the one implementation of each step of the tree, for
:class:`~repro.octree.codec.OctreeCodec` at both dimensions, the v3 dense
delta coder (:mod:`repro.core.temporal`) and the Octree_i and G-PCC
baselines:

- :func:`quantize` / :func:`grid_codes` / :func:`grid_cells` — points to
  leaf cells and their Morton codes;
- :func:`build_octree_structure` — the levels of a tree and their occupancy;
- :func:`expand_occupancy_level` — one level's children, bounded by the
  point count;
- :func:`leaf_points` — leaf-centre reconstruction;
- :func:`stable_mapping` — input order to decoded (sorted-code) order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.bbox import pow2_cover
from repro.octree.morton import MAX_DEPTH_2D, MAX_DEPTH_3D, deinterleave, interleave

__all__ = [
    "MAX_DEPTH",
    "MAX_POINTS",
    "OctreeStructure",
    "build_octree_structure",
    "check_occupancy_budget",
    "check_point_count",
    "expand_occupancy_level",
    "grid_cells",
    "grid_codes",
    "leaf_points",
    "quantize",
    "stable_mapping",
]

#: Most points one tree section may hold: 36x a full-scale HDL-64E frame.
#: Decoders reject a larger claimed count before decoding anything, and
#: encoders refuse a larger input, so no valid payload is rejected.
MAX_POINTS = 1 << 22

#: Deepest tree whose leaf codes fit int64 Morton keys, per dimension.
MAX_DEPTH = {2: MAX_DEPTH_2D, 3: MAX_DEPTH_3D}


@dataclass
class OctreeStructure:
    """Levelized view of a tree built from Morton leaf codes.

    Attributes
    ----------
    depth:
        Number of subdivision levels (0 means the root is a leaf).
    leaf_codes:
        Sorted unique Morton codes of occupied leaf cells.
    leaf_counts:
        Number of points per leaf, aligned with ``leaf_codes``.
    node_codes:
        ``node_codes[l]`` are the sorted codes of occupied nodes at level
        ``l`` (level 0 is the root); length ``depth + 1`` with the last
        entry equal to ``leaf_codes``.
    occupancy:
        ``occupancy[l]`` is the uint8 array of occupancy symbols for the
        nodes at level ``l``; length ``depth`` (leaves have none).
    """

    depth: int
    leaf_codes: np.ndarray
    leaf_counts: np.ndarray
    node_codes: list[np.ndarray] = field(default_factory=list)
    occupancy: list[np.ndarray] = field(default_factory=list)

    @property
    def n_points(self) -> int:
        return int(self.leaf_counts.sum()) if self.leaf_counts.size else 0

    @property
    def n_leaves(self) -> int:
        return int(self.leaf_codes.size)

    def occupancy_stream(self) -> np.ndarray:
        """All occupancy symbols in breadth-first order as one array."""
        if not self.occupancy:
            return np.empty(0, dtype=np.uint8)
        return np.concatenate(self.occupancy)


def check_point_count(n_points: int) -> None:
    """Reject a point count above :data:`MAX_POINTS`."""
    if n_points > MAX_POINTS:
        raise ValueError(
            f"tree section holds {n_points} points, above the {MAX_POINTS} a tree may hold"
        )


def grid_cells(points: np.ndarray, origin: np.ndarray, leaf_side: float) -> np.ndarray:
    """Integer leaf cell of each point on the grid of ``leaf_side`` cells at ``origin``."""
    return np.floor((points - origin) / leaf_side).astype(np.int64)


def grid_codes(
    points: np.ndarray, origin: np.ndarray, leaf_side: float, depth: int
) -> np.ndarray:
    """Leaf Morton codes of ``points`` on the depth-``depth`` grid at ``origin``.

    Cells past the grid's faces are clamped onto it.
    """
    cells = grid_cells(points, origin, leaf_side)
    np.clip(cells, 0, (1 << depth) - 1, out=cells)
    return interleave(cells)


def quantize(points: np.ndarray, leaf_side: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Leaf codes, grid origin and depth of the tree covering ``points``.

    ``points`` is an ``(n, dims)`` array with ``n >= 1``.  The grid starts
    at the points' min corner, and its side is the smallest
    ``leaf_side * 2**depth`` that covers their largest extent
    (:func:`~repro.geometry.bbox.pow2_cover`), so halving it ``depth``
    times lands exactly on ``leaf_side``.
    """
    if leaf_side <= 0:
        raise ValueError(f"leaf_side must be positive, got {leaf_side}")
    check_point_count(len(points))
    origin = points.min(axis=0)
    _side, depth = pow2_cover(float((points.max(axis=0) - origin).max()), leaf_side)
    max_depth = MAX_DEPTH[points.shape[1]]
    if depth > max_depth:
        raise ValueError(
            f"tree depth {depth} exceeds Morton key capacity ({max_depth}); "
            "increase leaf_side or shrink the scene"
        )
    return grid_codes(points, origin, leaf_side, depth), origin, depth


def _run_starts(sorted_codes: np.ndarray) -> np.ndarray:
    """Index of the first element of every run of equal values."""
    starts = np.empty(sorted_codes.size, dtype=bool)
    starts[0] = True
    np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def build_octree_structure(
    point_codes: np.ndarray, depth: int, dims: int = 3
) -> OctreeStructure:
    """Build the levelized tree for (possibly duplicated) leaf codes.

    Parameters
    ----------
    point_codes:
        One Morton leaf code per point; duplicates mean several points share
        a leaf cell.
    depth:
        Subdivision depth; codes must fit in ``dims * depth`` bits.
    dims:
        3 for an octree, 2 for a quadtree.

    The codes are sorted once; every level above is already sorted, so it
    is deduplicated at the boundaries of its runs of equal parents.
    """
    codes = np.sort(np.asarray(point_codes, dtype=np.int64))
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    if codes.size == 0:
        return OctreeStructure(
            depth,
            codes,
            np.empty(0, dtype=np.int64),
            [codes] * (depth + 1),
            [np.empty(0, dtype=np.uint8)] * depth,
        )
    if codes[0] < 0 or codes[-1] >= 1 << (dims * depth):
        raise ValueError(f"leaf code exceeds {dims}*depth bits")
    starts = _run_starts(codes)
    leaf_codes = codes[starts]
    node_codes = [leaf_codes]
    occupancy = []
    child_mask = (1 << dims) - 1
    for _ in range(depth):
        children = node_codes[-1]
        parents = children >> dims
        bits = (1 << (children & child_mask)).astype(np.uint8)
        parent_starts = _run_starts(parents)
        occupancy.append(np.bitwise_or.reduceat(bits, parent_starts))
        node_codes.append(parents[parent_starts])
    node_codes.reverse()  # node_codes[0] is the root
    occupancy.reverse()
    return OctreeStructure(
        depth, leaf_codes, np.diff(starts, append=codes.size), node_codes, occupancy
    )


def expand_occupancy_level(
    node_codes: np.ndarray, occupancy: np.ndarray, max_nodes: int, dims: int = 3
) -> np.ndarray:
    """Children codes (sorted) from one level's nodes + occupancy symbols.

    Every node of a valid tree holds a point, so a level with more nodes
    than ``max_nodes`` (the point count) is rejected before it is built;
    that keeps a corrupt stream from growing the tree ``2**dims``-fold per
    level.
    """
    if node_codes.size != occupancy.size:
        raise ValueError("one occupancy symbol per node required")
    bits = np.unpackbits(occupancy.astype(np.uint8)[:, None], axis=1, bitorder="little")
    rows, child_index = np.nonzero(bits[:, : 1 << dims])
    if rows.size > max_nodes:
        raise ValueError("tree level has more nodes than points")
    return (node_codes[rows] << dims) | child_index


def leaf_points(
    leaf_codes: np.ndarray,
    counts: np.ndarray,
    n_points: int,
    origin: np.ndarray,
    leaf_side: float,
) -> np.ndarray:
    """``counts[i]`` copies of leaf ``i``'s cell centre, leaf after leaf.

    ``origin`` has one entry per dimension.  Raises ``ValueError`` unless
    there is one count per leaf and the counts, each in
    ``[1, n_points]``, add up to ``n_points``.
    """
    if counts.size != leaf_codes.size:
        raise ValueError("leaf count stream does not match the tree")
    if counts.size and (counts.min() < 1 or counts.max() > n_points):
        raise ValueError("leaf counts do not add up to the point count")
    if counts.sum() != n_points:
        raise ValueError("leaf counts do not add up to the point count")
    cells = deinterleave(leaf_codes, len(origin))
    return np.repeat(origin + (cells + 0.5) * leaf_side, counts, axis=0)


def stable_mapping(codes: np.ndarray) -> np.ndarray:
    """Permutation taking input order to decoded order.

    A tree decodes its points in sorted leaf-code order, ties in input
    order, so ``decoded[mapping[i]]`` reconstructs input point ``i``.  The
    mapping is recomputable from the input alone and costs no bits.
    """
    order = np.argsort(codes, kind="stable")
    mapping = np.empty(codes.size, dtype=np.int64)
    mapping[order] = np.arange(codes.size)
    return mapping


def check_occupancy_budget(n_occupancy: int, depth: int, n_points: int) -> None:
    """Reject an occupancy count no tree of ``n_points`` points can hold.

    A tree codes one occupancy symbol per node on each of its ``depth``
    non-leaf levels, and every node of a valid tree holds a point, so a
    v2 tree section is checked before its occupancy stream is decoded.
    """
    if n_occupancy > depth * n_points:
        raise ValueError(
            f"occupancy count {n_occupancy} exceeds the {depth * n_points} nodes "
            f"a depth-{depth} tree of {n_points} points can hold"
        )
