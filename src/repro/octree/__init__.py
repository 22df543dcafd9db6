"""Tree-based geometry coders.

- :mod:`~repro.octree.morton` — bit-interleaving utilities shared by all
  tree coders.
- :mod:`~repro.octree.octree` — the one implementation of the occupancy
  tree in 2D and 3D: quantizer, level builder, level expander, leaf-centre
  reconstruction and point-order mapping, plus the :data:`MAX_POINTS` cap.
- :class:`~repro.octree.codec.OctreeCodec` — the breadth-first
  occupancy-code coder of Botsch et al. [7].  ``dims=3`` is the octree
  DBGC uses for dense points and the Octree / Octree_i / G-PCC baselines
  build on; ``dims=2`` is the quadtree of DBGC's optimized outlier
  compressor (x, y in the tree; z as an attribute).
"""

from repro.octree.codec import OctreeCodec
from repro.octree.morton import (
    deinterleave2,
    deinterleave3,
    interleave2,
    interleave3,
)
from repro.octree.octree import (
    MAX_POINTS,
    OctreeStructure,
    build_octree_structure,
    quantize,
)

__all__ = [
    "MAX_POINTS",
    "OctreeCodec",
    "OctreeStructure",
    "build_octree_structure",
    "deinterleave2",
    "deinterleave3",
    "interleave2",
    "interleave3",
    "quantize",
]
