"""Point cloud container.

The paper (Definition 2.1) models a point cloud as a set of points carrying
geometry, and its compression problem requires a one-to-one mapping between
the input and decompressed clouds.  We therefore keep points in a stable
array order: index ``i`` of the input cloud corresponds to index ``i`` of the
decompressed cloud produced by every codec in this repository.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["PointCloud"]


class PointCloud:
    """An ordered collection of 3D points.

    Parameters
    ----------
    xyz:
        Array-like of shape ``(n, 3)`` holding Cartesian coordinates.
        The data is copied into a contiguous ``float64`` array unless it is
        already one, in which case it is referenced and marked read-only.

    Notes
    -----
    The container is deliberately immutable: codecs hand point clouds around
    freely and rely on them not changing underneath.
    """

    __slots__ = ("_xyz",)

    def __init__(self, xyz: np.ndarray) -> None:
        arr = np.asarray(xyz, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError(f"expected an (n, 3) array, got shape {arr.shape}")
        if not arr.flags["C_CONTIGUOUS"] or arr is xyz:
            arr = np.ascontiguousarray(arr).copy() if arr is xyz else np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self._xyz = arr

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _adopt(cls, xyz: np.ndarray) -> "PointCloud":
        """Wrap ``xyz`` directly, skipping the defensive copy.

        For trusted internal callers only — notably the process-pool
        transfer path, where the array is already backed by immutable
        bytes received from a worker and copying it would defeat the
        zero-copy hand-off.  The array must be a C-contiguous float64
        ``(n, 3)``; it is marked read-only in place, so the caller must
        not hold a writable alias.
        """
        if xyz.dtype != np.float64 or xyz.ndim != 2 or xyz.shape[1] != 3:
            raise ValueError(
                f"expected a float64 (n, 3) array, got {xyz.dtype} {xyz.shape}"
            )
        if not xyz.flags["C_CONTIGUOUS"]:
            raise ValueError("adopted arrays must be C-contiguous")
        xyz.setflags(write=False)
        cloud = cls.__new__(cls)
        cloud._xyz = xyz
        return cloud

    @classmethod
    def empty(cls) -> "PointCloud":
        """Return a cloud with zero points."""
        return cls(np.empty((0, 3), dtype=np.float64))

    @classmethod
    def from_columns(cls, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> "PointCloud":
        """Build a cloud from three coordinate columns of equal length."""
        return cls(np.column_stack([x, y, z]))

    # -- accessors -------------------------------------------------------------

    @property
    def xyz(self) -> np.ndarray:
        """The ``(n, 3)`` read-only coordinate array."""
        return self._xyz

    @property
    def x(self) -> np.ndarray:
        return self._xyz[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self._xyz[:, 1]

    @property
    def z(self) -> np.ndarray:
        return self._xyz[:, 2]

    def __len__(self) -> int:
        return self._xyz.shape[0]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self._xyz)

    def __getitem__(self, index) -> np.ndarray:
        return self._xyz[index]

    def __repr__(self) -> str:
        return f"PointCloud(n={len(self)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointCloud):
            return NotImplemented
        return self._xyz.shape == other._xyz.shape and bool(
            np.array_equal(self._xyz, other._xyz)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    # -- derived quantities -----------------------------------------------------

    def nbytes_raw(self, bits_per_coordinate: int = 32) -> int:
        """Raw storage size in bytes at the paper's accounting.

        The paper sizes an uncompressed point as three floating-point
        coordinates (Section 4.4: ``32 bits x 3 = 96 bits``); compression
        ratios everywhere in the evaluation are raw size / ``|B|``.
        """
        return len(self) * 3 * bits_per_coordinate // 8

    def radii(self, origin: np.ndarray | None = None) -> np.ndarray:
        """Euclidean distance of every point from ``origin`` (default 0)."""
        pts = self._xyz if origin is None else self._xyz - np.asarray(origin, dtype=np.float64)
        return np.linalg.norm(pts, axis=1)

    def select(self, mask_or_indices) -> "PointCloud":
        """Return the sub-cloud given by a boolean mask or index array."""
        return PointCloud(self._xyz[mask_or_indices])

    def concatenate(self, *others: "PointCloud") -> "PointCloud":
        """Return this cloud followed by ``others`` (order preserved)."""
        arrays = [self._xyz] + [o._xyz for o in others]
        return PointCloud(np.vstack(arrays))

    def max_abs_error(self, other: "PointCloud") -> float:
        """Largest per-dimension error against ``other`` (paper Def. 2.2)."""
        if len(self) != len(other):
            raise ValueError("clouds must have the same number of points")
        if len(self) == 0:
            return 0.0
        return float(np.max(np.abs(self._xyz - other._xyz)))

    def max_euclidean_error(self, other: "PointCloud") -> float:
        """Largest per-point Euclidean error against ``other``."""
        if len(self) != len(other):
            raise ValueError("clouds must have the same number of points")
        if len(self) == 0:
            return 0.0
        return float(np.max(np.linalg.norm(self._xyz - other._xyz, axis=1)))
