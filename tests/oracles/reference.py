"""The per-point radial-reference codecs (paper Step 8 reference).

The first implementations of :func:`repro.core.reference.encode_radial`,
:func:`~repro.core.reference.decode_radial` and the ``-Radial`` plain
delta codec: one Python step per point, with ``bisect`` neighbour
searches on the consensus line.  The numpy kernels must produce the same
arrays; ``tests/test_kernel_oracles.py`` and
``benchmarks/bench_kernel_speedup.py`` compare them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from repro.core.reference import (
    SYM_BOTTOM_LEFT,
    SYM_UPPER_LEFT,
    SYM_UPPER_MIDDLE,
    SYM_UPPER_RIGHT,
    _reference_sets,
    build_consensus,
)


def encode_radial_py(
    lines_theta: list[np.ndarray],
    lines_r: list[np.ndarray],
    line_phis: list[int],
    th_phi: int,
    th_r: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference per-point loop for :func:`encode_radial` (identity oracle)."""
    nabla: list[int] = []
    symbols: list[int] = []
    ref_sets = _reference_sets(line_phis, th_phi)
    prev_head_r: int | None = None
    for li, (ltheta, lr) in enumerate(zip(lines_theta, lines_r)):
        consensus = build_consensus(
            [(lines_theta[j], lines_r[j]) for j in ref_sets[li]]
        )
        c_thetas, c_rs = consensus
        lt = ltheta.tolist()
        lrr = lr.tolist()
        for j, (t, r) in enumerate(zip(lt, lrr)):
            if j == 0:
                ref = _head_reference(c_thetas, c_rs, t, prev_head_r)
                nabla.append(r - ref)
                continue
            r_bl = lrr[j - 1]
            ref, symbol = _tail_reference(c_thetas, c_rs, t, r, r_bl, th_r)
            if symbol is not None:
                symbols.append(symbol)
            nabla.append(r - ref)
        prev_head_r = lrr[0]
    return np.asarray(nabla, dtype=np.int64), np.asarray(symbols, dtype=np.int64)


def decode_radial_py(
    lines_theta: list[np.ndarray],
    line_phis: list[int],
    nabla: np.ndarray,
    symbols: np.ndarray,
    th_phi: int,
    th_r: int,
) -> list[np.ndarray]:
    """Reference per-point loop for :func:`decode_radial` (identity oracle)."""
    ref_sets = _reference_sets(line_phis, th_phi)
    nabla_iter = iter(nabla.tolist())
    symbol_iter = iter(symbols.tolist())
    lines_r: list[np.ndarray] = []
    prev_head_r: int | None = None
    for li, ltheta in enumerate(lines_theta):
        c_thetas, c_rs = build_consensus(
            [(lines_theta[j], lines_r[j]) for j in ref_sets[li]]
        )
        lt = ltheta.tolist()
        lr: list[int] = []
        for j, t in enumerate(lt):
            if j == 0:
                ref = _head_reference(c_thetas, c_rs, t, prev_head_r)
                lr.append(next(nabla_iter) + ref)
                continue
            r_bl = lr[j - 1]
            ref = _tail_reference_decode(
                c_thetas, c_rs, t, r_bl, th_r, symbol_iter
            )
            lr.append(next(nabla_iter) + ref)
        prev_head_r = lr[0]
        lines_r.append(np.asarray(lr, dtype=np.int64))
    return lines_r


def _head_reference(
    c_thetas: list[int], c_rs: list[int], t: int, prev_head_r: int | None
) -> int:
    """Situation (1): reference for a polyline head."""
    if c_thetas:
        idx = bisect_left(c_thetas, t) - 1  # rightmost with theta < t
        if idx >= 0:
            return c_rs[idx]
    if prev_head_r is not None:
        return prev_head_r
    return 0


def _upper_neighbors(
    c_thetas: list[int], c_rs: list[int], t: int
) -> tuple[int | None, int | None, int | None]:
    """(r_ul, r_um, r_ur) from the consensus line around azimuth ``t``."""
    if not c_thetas:
        return None, None, None
    i_ul = bisect_left(c_thetas, t) - 1
    i_ur = bisect_right(c_thetas, t)
    r_ul = c_rs[i_ul] if i_ul >= 0 else None
    r_ur = c_rs[i_ur] if i_ur < len(c_rs) else None
    r_um = c_rs[i_ul + 1] if (i_ul >= 0 and i_ul + 1 < i_ur) else None
    return r_ul, r_um, r_ur


def _tail_reference(
    c_thetas: list[int],
    c_rs: list[int],
    t: int,
    r: int,
    r_bl: int,
    th_r: int,
) -> tuple[int, int | None]:
    """Situations (2a)/(2b): reference and (optional) recorded symbol."""
    r_ul, r_um, r_ur = _upper_neighbors(c_thetas, c_rs, t)
    if r_ul is None or r_ur is None:
        return r_bl, None
    trio = (r_ul, r_ur, r_bl)
    if max(trio) - min(trio) <= th_r:
        return r_bl, None  # flat local scene: situation (2a)
    candidates = [(SYM_BOTTOM_LEFT, r_bl), (SYM_UPPER_RIGHT, r_ur)]
    if r_um is not None:
        candidates.append((SYM_UPPER_MIDDLE, r_um))
    candidates.append((SYM_UPPER_LEFT, r_ul))
    symbol, ref = min(candidates, key=lambda sc: (abs(r - sc[1]), sc[0]))
    return ref, symbol


def _tail_reference_decode(
    c_thetas: list[int],
    c_rs: list[int],
    t: int,
    r_bl: int,
    th_r: int,
    symbol_iter,
) -> int:
    """Decoder mirror of :func:`_tail_reference` (consumes L_ref on 2b)."""
    r_ul, r_um, r_ur = _upper_neighbors(c_thetas, c_rs, t)
    if r_ul is None or r_ur is None:
        return r_bl
    trio = (r_ul, r_ur, r_bl)
    if max(trio) - min(trio) <= th_r:
        return r_bl
    symbol = next(symbol_iter)
    if symbol == SYM_BOTTOM_LEFT:
        return r_bl
    if symbol == SYM_UPPER_RIGHT:
        return r_ur
    if symbol == SYM_UPPER_MIDDLE:
        if r_um is None:
            raise ValueError("L_ref names a missing upper-middle point")
        return r_um
    if symbol == SYM_UPPER_LEFT:
        return r_ul
    raise ValueError(f"invalid L_ref symbol {symbol}")


def encode_radial_plain_py(lines_r: list[np.ndarray]) -> np.ndarray:
    """Reference loop for :func:`encode_radial_plain` (identity oracle)."""
    nabla: list[int] = []
    prev_head: int | None = None
    for lr in lines_r:
        values = lr.tolist()
        head_ref = prev_head if prev_head is not None else 0
        nabla.append(values[0] - head_ref)
        for j in range(1, len(values)):
            nabla.append(values[j] - values[j - 1])
        prev_head = values[0]
    return np.asarray(nabla, dtype=np.int64)


def decode_radial_plain_py(
    nabla: np.ndarray, line_lengths: list[int]
) -> list[np.ndarray]:
    """Reference loop for :func:`decode_radial_plain` (identity oracle)."""
    nabla_iter = iter(nabla.tolist())
    lines_r: list[np.ndarray] = []
    prev_head: int | None = None
    for length in line_lengths:
        head_ref = prev_head if prev_head is not None else 0
        values = [next(nabla_iter) + head_ref]
        for _ in range(length - 1):
            values.append(next(nabla_iter) + values[-1])
        prev_head = values[0]
        lines_r.append(np.asarray(values, dtype=np.int64))
    return lines_r
