"""The per-point polyline organizer (paper Algorithm 1 reference).

The first implementation of :func:`repro.core.polyline.organize_polylines`:
a per-point walk over a bucketed angular index with lazy deletion.  The
production kernel must return the same polylines on every input;
``tests/test_kernel_oracles.py`` and ``benchmarks/bench_kernel_speedup.py``
compare them.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.polyline import _validate


class _AngularIndex:
    """Bucketed index over (theta, phi) with lazy deletion (oracle only)."""

    def __init__(self, theta: np.ndarray, phi: np.ndarray, u_theta: float, u_phi: float):
        self.theta = theta
        self.phi = phi
        self.bin_theta = 2.0 * u_theta
        self.bin_phi = 2.0 * u_phi
        bt = np.floor(theta / self.bin_theta).astype(np.int64)
        bp = np.floor(phi / self.bin_phi).astype(np.int64)
        self._bt = bt
        self._bp = bp
        self.alive = np.ones(len(theta), dtype=bool)
        self._buckets: dict[tuple[int, int], list[int]] = {}
        for i in range(len(theta)):
            self._buckets.setdefault((int(bt[i]), int(bp[i])), []).append(i)

    def kill(self, index: int) -> None:
        self.alive[index] = False

    def candidates(
        self,
        theta_lo: float,
        theta_hi: float,
        phi_lo: float,
        phi_hi: float,
    ) -> list[int]:
        """Alive points with theta in (theta_lo, theta_hi] and phi in range."""
        bt_lo = int(np.floor(theta_lo / self.bin_theta))
        bt_hi = int(np.floor(theta_hi / self.bin_theta))
        bp_lo = int(np.floor(phi_lo / self.bin_phi))
        bp_hi = int(np.floor(phi_hi / self.bin_phi))
        theta = self.theta
        phi = self.phi
        alive = self.alive
        found = []
        for bt in range(bt_lo, bt_hi + 1):
            for bp in range(bp_lo, bp_hi + 1):
                for i in self._buckets.get((bt, bp), ()):
                    if (
                        alive[i]
                        and theta_lo < theta[i] <= theta_hi
                        and phi_lo <= phi[i] <= phi_hi
                    ):
                        found.append(i)
        return found


def organize_polylines_py(
    theta: np.ndarray,
    phi: np.ndarray,
    xyz: np.ndarray,
    u_theta: float,
    u_phi: float,
) -> list[np.ndarray]:
    """Reference per-point loop implementation (the byte-identity oracle).

    Same contract as :func:`organize_polylines`; kept for the kernel
    regression tests and the perf benchmarks that assert the vectorized
    version's speedup.
    """
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    xyz = np.asarray(xyz, dtype=np.float64)
    _validate(theta, u_theta, u_phi)
    n = len(theta)
    if n == 0:
        return []
    index = _AngularIndex(theta, phi, u_theta, u_phi)
    polylines: list[np.ndarray] = []

    def extend(end: int, phi_lo: float, phi_hi: float, direction: int) -> int | None:
        """Best next point right (direction=+1) or left (-1) of ``end``."""
        t_end = theta[end]
        if direction > 0:
            cands = index.candidates(t_end, t_end + 2.0 * u_theta, phi_lo, phi_hi)
        else:
            cands = index.candidates(t_end - 2.0 * u_theta, t_end, phi_lo, phi_hi)
            cands = [c for c in cands if theta[c] < t_end]
        if not cands:
            return None
        deltas = xyz[cands] - xyz[end]
        return cands[int(np.argmin(np.einsum("ij,ij->i", deltas, deltas)))]

    for seed in range(n):
        if not index.alive[seed]:
            continue
        index.kill(seed)
        line = deque([seed])
        phi_lo = phi[seed] - u_phi
        phi_hi = phi[seed] + u_phi
        # Extend to the right...
        current = seed
        while True:
            nxt = extend(current, phi_lo, phi_hi, +1)
            if nxt is None:
                break
            index.kill(nxt)
            line.append(nxt)
            current = nxt
        # ...then to the left (paper: both routines are symmetric).
        current = seed
        while True:
            nxt = extend(current, phi_lo, phi_hi, -1)
            if nxt is None:
                break
            index.kill(nxt)
            line.appendleft(nxt)
            current = nxt
        polylines.append(np.fromiter(line, dtype=np.int64, count=len(line)))
    return polylines
