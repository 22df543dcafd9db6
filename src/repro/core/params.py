"""DBGC configuration.

Collects every tunable of the paper's scheme in one place, with the paper's
defaults: error bound ``q_xyz`` (Section 3.1), clustering parameters
``eps = k * q_xyz`` with ``k = 10`` and ``minPts`` derived from the octree
leaf geometry (Section 3.2), three radial point groups (Section 3.5),
radial threshold ``TH_r = 2 m`` (Step 8), and the feature switches used by
the ablation study (Section 4.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = ["DBGCParams"]


@dataclass(frozen=True)
class DBGCParams:
    """All parameters of the DBGC compression scheme.

    Attributes
    ----------
    q_xyz:
        Per-dimension Cartesian error bound in meters (paper default 0.02).
    k:
        Clustering radius factor: ``eps = k * q_xyz``; the paper sweeps
        2..100 and settles on 10.
    min_pts:
        DBSCAN core threshold.  ``None`` derives it from ``min_pts_mode``.
    min_pts_mode:
        ``"volume"`` — the paper's formula ``pi * k^3 / 6`` (every leaf cell
        inside the eps-sphere occupied; appropriate for full-rate sensors on
        very dense returns).  ``"surface"`` — ``pi * k^2 / 4`` (every leaf
        cell on a surface disc occupied).  ``"sensor"`` (default) — the
        surface criterion adjusted for the sensor's angular resolution:
        a point is core when its eps-disc is sampled at least as densely
        as a full-rate HDL-64E samples a perpendicular surface at the
        range where its returns saturate the octree leaves; this reduces
        to the surface formula at full resolution and scales the threshold
        down for reduced-rate sensors.  Resolved by the compressor (which
        knows ``u_theta`` / ``u_phi``); ``effective_min_pts`` falls back to
        the surface formula when no sensor is available.  See DESIGN.md §4.
    min_pts_scale:
        Multiplier on the derived ``min_pts``; the calibration knob for
        sensors with reduced angular resolution.
    clustering:
        ``"approx"`` (O(n) grid method of Section 4.3, the default) or
        ``"exact"`` (cell-based recursive method of Section 3.2).
    dense_fraction:
        If set, overrides clustering entirely: this fraction of the points
        nearest the sensor is compressed with the octree (the Figure 10
        sweep; ``0.0`` makes everything sparse, ``1.0`` everything dense).
    n_groups:
        Radial point groups for the sparse pipeline (paper default 3).
    th_r:
        Radial-distance threshold of Step 8, meters (paper default 2.0).
    spherical_conversion:
        ``False`` reproduces the ``-Conversion`` ablation: polyline point
        coordinates are coded in Cartesian space.
    radial_reference:
        ``False`` reproduces ``-Radial``: plain delta coding on r.
    grouping:
        ``False`` reproduces ``-Group``: a single radial group.
    outlier_mode:
        ``"quadtree"`` (the paper's optimized scheme), ``"octree"``, or
        ``"none"`` (outliers stored raw) — the Table 2 comparison.
    strict_cartesian:
        Tighten spherical quantizers by ``1/sqrt(3)`` so the per-dimension
        Cartesian error of polyline points stays below ``q_xyz`` (the
        paper's lemma only bounds the Euclidean error).
    temporal:
        Enable inter-frame delta coding for stream compression
        (:mod:`repro.core.temporal`, format v3): non-keyframes reuse the
        previous frame's decoded geometry as predictors.  Single-frame
        :meth:`~repro.core.pipeline.DBGCCompressor.compress` is unaffected.
        Runtime-only: the frame type travels in the container version byte.
    keyframe_interval:
        Period of intra-coded keyframes in a temporal stream (default 8):
        frame ``i`` is a keyframe when ``i % keyframe_interval == 0``.
        Keyframes are byte-identical to independent (v2) coding and reset
        all predictor state, bounding loss propagation and giving readers
        a seek/recovery point.
    """

    q_xyz: float = 0.02
    k: int = 10
    min_pts: int | None = None
    min_pts_mode: str = "sensor"
    min_pts_scale: float = 1.0
    clustering: str = "approx"
    dense_fraction: float | None = None
    n_groups: int = 3
    th_r: float = 2.0
    spherical_conversion: bool = True
    radial_reference: bool = True
    grouping: bool = True
    outlier_mode: str = "quadtree"
    strict_cartesian: bool = False
    temporal: bool = False
    keyframe_interval: int = 8

    def __post_init__(self) -> None:
        if self.q_xyz <= 0:
            raise ValueError(f"q_xyz must be positive, got {self.q_xyz}")
        if self.k < 2:
            raise ValueError(f"k must be >= 2 (Section 3.2), got {self.k}")
        if self.min_pts is not None and self.min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {self.min_pts}")
        if self.min_pts_mode not in ("volume", "surface", "sensor"):
            raise ValueError(f"unknown min_pts_mode {self.min_pts_mode!r}")
        if self.clustering not in ("approx", "exact"):
            raise ValueError(f"unknown clustering mode {self.clustering!r}")
        if self.dense_fraction is not None and not 0.0 <= self.dense_fraction <= 1.0:
            raise ValueError("dense_fraction must be within [0, 1]")
        if self.n_groups < 1:
            raise ValueError(f"n_groups must be >= 1, got {self.n_groups}")
        if self.th_r <= 0:
            raise ValueError(f"th_r must be positive, got {self.th_r}")
        if self.outlier_mode not in ("quadtree", "octree", "none"):
            raise ValueError(f"unknown outlier_mode {self.outlier_mode!r}")
        if self.keyframe_interval < 1:
            raise ValueError(
                f"keyframe_interval must be >= 1, got {self.keyframe_interval}"
            )

    # -- derived values -----------------------------------------------------------

    @property
    def leaf_side(self) -> float:
        """Octree leaf cell side: twice the error bound."""
        return 2.0 * self.q_xyz

    @property
    def eps(self) -> float:
        """Clustering radius ``eps = k * q_xyz``."""
        return self.k * self.q_xyz

    #: Range (meters) at which a full-rate HDL-64E's surface sampling pitch
    #: equals the 2-cm-bound octree leaf side — the operating point implied
    #: by the paper's minPts derivation.
    REFERENCE_DENSE_RANGE_M = 8.4

    @property
    def effective_min_pts(self) -> int:
        """The minPts actually used by the clustering (sensor-agnostic).

        For ``min_pts_mode="sensor"`` this is the surface-formula fallback;
        :meth:`min_pts_for_sensor` gives the resolution-adjusted value.
        """
        if self.min_pts is not None:
            return self.min_pts
        if self.min_pts_mode == "volume":
            # Leaf cells inside the eps-sphere: (4/3 pi eps^3) / (2q)^3.
            base = math.pi * self.k**3 / 6.0
        else:
            # Leaf cells on a surface disc: (pi eps^2) / (2q)^2.
            base = math.pi * self.k**2 / 4.0
        return max(int(base * self.min_pts_scale), 1)

    def min_pts_for_sensor(self, u_theta: float, u_phi: float) -> int:
        """minPts adjusted to a sensor's angular resolution.

        The core criterion is "the eps-disc around the point is sampled at
        least as densely as a reference full-rate spinning LiDAR samples a
        perpendicular surface at :attr:`REFERENCE_DENSE_RANGE_M`":
        ``pi * eps^2 / (r_ref^2 * u_theta * u_phi)``.  At the HDL-64E's
        full resolution this evaluates to the paper's surface count
        (~``pi * k^2 / 4``); halving the resolution halves the threshold
        instead of silently emptying the dense set.
        """
        if self.min_pts is not None:
            return self.min_pts
        if self.min_pts_mode != "sensor":
            return self.effective_min_pts
        r_ref = self.REFERENCE_DENSE_RANGE_M
        base = math.pi * self.eps**2 / (r_ref**2 * u_theta * u_phi)
        return max(int(base * self.min_pts_scale), 2)

    @property
    def effective_n_groups(self) -> int:
        """Number of radial groups after the -Group switch."""
        return self.n_groups if self.grouping else 1

    def with_updates(self, **changes) -> "DBGCParams":
        """Return a copy with fields replaced (dataclass ``replace``)."""
        return replace(self, **changes)
