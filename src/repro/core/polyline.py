"""Sparse point organization into polylines (paper Algorithm 1).

Sparse points are organized into roughly horizontal polylines in the
(theta, phi) plane: a polyline starts at a seed point and is extended to
the right and to the left by repeatedly picking, among points whose polar
angle stays within ``+- u_phi`` of the seed and whose azimuthal angle is
within ``2 * u_theta`` of the current end, the one closest in 3D.

Points that never join a line of length >= 2 are the *outliers* handed to
the outlier compressor.

:func:`organize_polylines` sorts points by theta once and groups them
into polar bands of width ``u_phi``; a line's candidate window is then a
contiguous run of each band's theta-sorted position list, tracked by
monotone pointers as the walk advances, with an alive bitmask for claimed
points.  The common single-candidate step needs no distance computation
at all; multi-candidate blocks fall back to the same vectorized
squared-distance argmin the oracle uses.

The oracle is the original per-point loop over a bucketed angular index,
kept in ``tests/oracles/polyline.py`` for the byte-identity tests and the
perf-regression benchmarks.  Ties in the closest-point argmin are broken
exactly like the oracle's candidate enumeration order (theta bucket, phi
bucket, original index), so both return the same polylines on every
input, including duplicate ``(theta, phi)`` points.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque

import numpy as np

__all__ = ["organize_polylines"]


def _validate(theta: np.ndarray, u_theta: float, u_phi: float) -> None:
    if u_theta <= 0 or u_phi <= 0:
        raise ValueError("angular steps must be positive")


def organize_polylines(
    theta: np.ndarray,
    phi: np.ndarray,
    xyz: np.ndarray,
    u_theta: float,
    u_phi: float,
) -> list[np.ndarray]:
    """Organize points into polylines; returns index arrays (length >= 1).

    Parameters
    ----------
    theta, phi:
        Azimuthal and polar angles per point.
    xyz:
        Cartesian coordinates, used for the closest-point tie-break
        (``||p - p'||`` in Algorithm 1).
    u_theta, u_phi:
        Average angular sample steps from the sensor metadata.

    Returns
    -------
    list of index arrays, one per polyline, each ordered left (small theta)
    to right.  Single-point lines are included; the caller treats them as
    outliers.
    """
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    xyz = np.asarray(xyz, dtype=np.float64)
    _validate(theta, u_theta, u_phi)
    n = len(theta)
    if n == 0:
        return []

    # Theta-sorted views: every candidate window is a contiguous run per
    # polar band, so the walk only ever advances pointers.
    order = np.argsort(theta, kind="stable")
    theta_s = theta[order]
    phi_s = phi[order]
    xyz_s = xyz[order]
    pos_of = np.empty(n, dtype=np.int64)
    pos_of[order] = np.arange(n)

    # Tie-break rank reproducing the oracle's candidate enumeration order:
    # it scans theta buckets, then phi buckets, then insertion (original
    # index) order, and argmin keeps the first minimum.
    bt = np.floor(theta / (2.0 * u_theta)).astype(np.int64)
    bp = np.floor(phi / (2.0 * u_phi)).astype(np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), bp, bt))] = np.arange(n)
    rank_l = rank[order].tolist()

    # Polar bands of width u_phi: a line's +-u_phi window around its seed
    # covers at most three consecutive bands, each holding a theta-sorted
    # list of sorted positions.  Built with one lexsort, converted to
    # Python lists once so the walk below runs without per-step numpy
    # call overhead (candidate runs are typically 1-3 points).
    band_s = np.floor(phi_s / u_phi).astype(np.int64)
    grouped = np.lexsort((np.arange(n), band_s))
    grouped_band = band_s[grouped]
    starts = np.concatenate([[0], np.flatnonzero(np.diff(grouped_band)) + 1])
    ends = np.concatenate([starts[1:], [n]])
    band_members: dict[int, tuple[list[int], list[float]]] = {}
    for s, e in zip(starts.tolist(), ends.tolist()):
        members = grouped[s:e]
        band_members[int(grouped_band[s])] = (
            members.tolist(),
            theta_s[members].tolist(),
        )

    theta_l = theta_s.tolist()
    phi_l = phi_s.tolist()
    pos_l = pos_of.tolist()
    xyz_l = xyz_s.tolist()
    alive = bytearray([1]) * n  # indexed by sorted position
    width = 2.0 * u_theta

    def pick(found: list[int], end: int) -> int:
        """Oracle-identical choice among multiple candidates.

        The oracle scores candidates with ``np.einsum("ij,ij->i")``, whose
        3-term reduction associates as ``(dx2 + dz2) + dy2`` (SIMD lane
        order); the scalar arithmetic here mirrors that association so
        near-tie selections round identically.  The byte-identity tests
        against the oracle pin this on every scene.
        """
        ex, ey, ez = xyz_l[end]
        best = -1
        bd = 0.0
        brank = 0
        for q in found:
            px, py, pz = xyz_l[q]
            dx = px - ex
            dy = py - ey
            dz = pz - ez
            d2 = (dx * dx + dz * dz) + dy * dy
            if best < 0 or d2 < bd or (d2 == bd and rank_l[q] < brank):
                best = q
                bd = d2
                brank = rank_l[q]
        return best

    polylines: list[np.ndarray] = []
    for seed in range(n):
        sp = pos_l[seed]
        if not alive[sp]:
            continue
        alive[sp] = 0
        line: deque[int] = deque([sp])
        phi_c = phi_l[sp]
        phi_lo = phi_c - u_phi
        phi_hi = phi_c + u_phi
        bands = [
            band_members[b]
            for b in range(math.floor(phi_lo / u_phi), math.floor(phi_hi / u_phi) + 1)
            if b in band_members
        ]

        # Extend to the right: candidates have theta in (t_end, t_end + 2u].
        t_end = theta_l[sp]
        ptrs = []
        for _, thetas in bands:
            i0 = bisect_right(thetas, t_end)
            ptrs.append([i0, i0])
        current = sp
        while True:
            t_hi = t_end + width
            found: list[int] = []
            for (positions, thetas), ptr in zip(bands, ptrs):
                i0, i1 = ptr
                size = len(thetas)
                while i0 < size and thetas[i0] <= t_end:
                    i0 += 1
                while i1 < size and thetas[i1] <= t_hi:
                    i1 += 1
                ptr[0] = i0
                ptr[1] = i1
                for j in range(i0, i1):
                    q = positions[j]
                    if alive[q] and phi_lo <= phi_l[q] <= phi_hi:
                        found.append(q)
            if not found:
                break
            nxt = found[0] if len(found) == 1 else pick(found, current)
            alive[nxt] = 0
            line.append(nxt)
            current = nxt
            t_end = theta_l[nxt]

        # ...then to the left: theta in (t_end - 2u, t_end), walking down.
        t_end = theta_l[sp]
        ptrs = []
        for _, thetas in bands:
            j0 = bisect_right(thetas, t_end - width)
            j1 = bisect_left(thetas, t_end) - 1
            ptrs.append([j0, j1])
        current = sp
        while True:
            t_lo = t_end - width
            found = []
            for (positions, thetas), ptr in zip(bands, ptrs):
                j0, j1 = ptr
                while j1 >= 0 and thetas[j1] >= t_end:
                    j1 -= 1
                while j0 > 0 and thetas[j0 - 1] > t_lo:
                    j0 -= 1
                ptr[0] = j0
                ptr[1] = j1
                for j in range(j0, j1 + 1):
                    q = positions[j]
                    if alive[q] and phi_lo <= phi_l[q] <= phi_hi:
                        found.append(q)
            if not found:
                break
            nxt = found[0] if len(found) == 1 else pick(found, current)
            alive[nxt] = 0
            line.appendleft(nxt)
            current = nxt
            t_end = theta_l[nxt]

        polylines.append(order[np.fromiter(line, dtype=np.int64, count=len(line))])
    return polylines
