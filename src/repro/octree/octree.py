"""Linear octree construction over Morton-coded leaf cells.

An octree node is identified by its Morton prefix: the parent of node ``c``
is ``c >> 3`` and its child octant is ``c & 7``.  Building the tree is then
pure array work on sorted leaf codes, which is what makes the pure-Python
implementation fast enough for full frames.

The breadth-first occupancy serialization (Botsch et al. [7]) emits, level by
level and in sorted node order, one byte per non-leaf node whose ``i``-th bit
says whether child octant ``i`` is occupied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OctreeStructure",
    "build_octree_structure",
    "check_occupancy_budget",
    "expand_occupancy_level",
]


@dataclass
class OctreeStructure:
    """Levelized view of an octree built from Morton leaf codes.

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
        ``occupancy[l]`` is the byte array of occupancy codes for the nodes
        at level ``l``; length ``depth`` (leaves have no occupancy byte).
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
        """All occupancy bytes in breadth-first order as one array."""
        if not self.occupancy:
            return np.empty(0, dtype=np.uint8)
        return np.concatenate(self.occupancy)


def build_octree_structure(point_codes: np.ndarray, depth: int) -> OctreeStructure:
    """Build the levelized octree for (possibly duplicated) leaf codes.

    Parameters
    ----------
    point_codes:
        One Morton leaf code per point; duplicates mean several points share
        a leaf cell.
    depth:
        Subdivision depth; codes must fit in ``3 * depth`` bits.
    """
    point_codes = np.asarray(point_codes, dtype=np.int64)
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    if point_codes.size:
        if point_codes.min() < 0 or point_codes.max() >= (1 << (3 * depth)):
            raise ValueError("leaf code exceeds 3*depth bits")
    leaf_codes, leaf_counts = np.unique(point_codes, return_counts=True)
    structure = OctreeStructure(depth, leaf_codes, leaf_counts)
    if leaf_codes.size == 0:
        structure.node_codes = [np.empty(0, dtype=np.int64) for _ in range(depth + 1)]
        structure.occupancy = [np.empty(0, dtype=np.uint8) for _ in range(depth)]
        return structure
    # Walk bottom-up: level l nodes are unique (codes >> 3*(depth-l)).
    levels: list[np.ndarray] = [leaf_codes]
    for _ in range(depth):
        levels.append(np.unique(levels[-1] >> 3))
    levels.reverse()  # levels[0] == root
    structure.node_codes = levels
    occupancy: list[np.ndarray] = []
    for level in range(depth):
        children = levels[level + 1]
        parents = children >> 3
        bits = (np.uint8(1) << (children & 7).astype(np.uint8)).astype(np.uint8)
        # Children are sorted, so equal parents are adjacent.
        boundaries = np.concatenate([[0], np.flatnonzero(np.diff(parents)) + 1])
        occupancy.append(np.bitwise_or.reduceat(bits, boundaries))
    structure.occupancy = occupancy
    return structure


def expand_occupancy_level(node_codes: np.ndarray, occupancy: np.ndarray) -> np.ndarray:
    """Children codes (sorted) from one level's nodes + occupancy bytes."""
    if node_codes.size != occupancy.size:
        raise ValueError("one occupancy byte per node required")
    if node_codes.size == 0:
        return np.empty(0, dtype=np.int64)
    bits = np.unpackbits(occupancy.astype(np.uint8)[:, None], axis=1, bitorder="little")
    rows, child_index = np.nonzero(bits)
    return (node_codes[rows] << 3) | child_index.astype(np.int64)


def check_occupancy_budget(n_occupancy: int, depth: int, n_points: int) -> None:
    """Reject an occupancy count no tree of ``n_points`` points can hold.

    A tree codes one occupancy symbol per node on each of its ``depth``
    non-leaf levels, and every node of a valid tree holds a point, so a
    v2 octree or quadtree section is checked before its occupancy stream
    is decoded.
    """
    if n_occupancy > depth * n_points:
        raise ValueError(
            f"occupancy count {n_occupancy} exceeds the {depth * n_points} nodes "
            f"a depth-{depth} tree of {n_points} points can hold"
        )
