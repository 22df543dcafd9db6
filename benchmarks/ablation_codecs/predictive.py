"""Sprintz-style predictive coding for integer time series.

Sprintz [6] stores the difference between actual and *predicted* values and
bit-packs the residuals; with a double-delta (constant-velocity) predictor
it beats plain delta coding on smoothly varying sequences — exactly the
shape of LiDAR coordinate streams along a scan.  Included as an alternative
back-end for the entropy-stage ablation.
"""

from __future__ import annotations

import numpy as np

from benchmarks.ablation_codecs.bitpacking import bitpack_decode, bitpack_encode
from benchmarks.ablation_codecs.golomb import rice_decode, rice_encode

__all__ = ["delta2_encode", "delta2_decode", "sprintz_encode", "sprintz_decode"]


def delta2_encode(values: np.ndarray) -> np.ndarray:
    """Double-delta transform: residuals of a constant-velocity predictor.

    ``r[0] = v[0]``, ``r[1] = v[1] - v[0]``, and for n >= 2
    ``r[n] = v[n] - (2 * v[n-1] - v[n-2])``.
    """
    arr = np.asarray(values, dtype=np.int64)
    if arr.size == 0:
        return arr.copy()
    residuals = np.empty_like(arr)
    residuals[0] = arr[0]
    if arr.size > 1:
        residuals[1] = arr[1] - arr[0]
    if arr.size > 2:
        residuals[2:] = arr[2:] - (2 * arr[1:-1] - arr[:-2])
    return residuals


def delta2_decode(residuals: np.ndarray) -> np.ndarray:
    """Inverse of :func:`delta2_encode`."""
    res = np.asarray(residuals, dtype=np.int64)
    if res.size == 0:
        return res.copy()
    values = np.empty_like(res)
    values[0] = res[0]
    if res.size > 1:
        values[1] = res[1] + values[0]
    for i in range(2, res.size):
        values[i] = res[i] + 2 * values[i - 1] - values[i - 2]
    return values


def sprintz_encode(values: np.ndarray, backend: str = "bitpack") -> bytes:
    """Predict (double delta) then pack residuals.

    ``backend`` selects the residual coder: ``"bitpack"`` (the original
    Sprintz choice) or ``"rice"``.
    """
    residuals = delta2_encode(np.asarray(values, dtype=np.int64))
    if backend == "bitpack":
        return b"\x00" + bitpack_encode(residuals, signed=True)
    if backend == "rice":
        return b"\x01" + rice_encode(residuals, signed=True)
    raise ValueError(f"unknown sprintz backend {backend!r}")


def sprintz_decode(data: bytes) -> np.ndarray:
    """Inverse of :func:`sprintz_encode`."""
    if not data:
        raise ValueError("empty sprintz stream")
    backend = data[0]
    if backend == 0:
        residuals = bitpack_decode(data[1:])
    elif backend == 1:
        residuals = rice_decode(data[1:])
    else:
        raise ValueError(f"unknown sprintz backend byte {backend}")
    return delta2_decode(residuals)
