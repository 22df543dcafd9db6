"""Spatial substrate: point clouds, coordinates, grids.

This subpackage provides the geometric primitives that every other part of
the system builds on:

- :class:`~repro.geometry.points.PointCloud` — an immutable wrapper around an
  ``(n, 3)`` float array of Cartesian coordinates.
- :func:`~repro.geometry.bbox.pow2_cover` — the power-of-two grid sizing
  rule of the octree and quadtree quantizer (:mod:`repro.octree.octree`).
- :mod:`~repro.geometry.spherical` — Cartesian <-> spherical conversion with
  the paper's (theta, phi, r) convention.
- :class:`~repro.geometry.grid.HashGrid` — a uniform hash grid for
  fixed-radius neighbor queries, used by the density-based clustering.
"""

from repro.geometry.grid import HashGrid
from repro.geometry.points import PointCloud
from repro.geometry.spherical import cartesian_to_spherical, spherical_to_cartesian

__all__ = [
    "HashGrid",
    "PointCloud",
    "cartesian_to_spherical",
    "spherical_to_cartesian",
]
