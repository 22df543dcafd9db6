"""Radial-distance-optimized delta encoding (paper Definition 3.3, Step 8).

For every sparse point the encoder picks a *reference point* whose radial
distance is likely close, and stores ``nabla_r = r - r_ref``:

- the previous point on the same polyline (the *bottom-left* point) when the
  local scene is flat, which the decoder can detect itself; or
- the best of four spatial neighbours (bottom-left, upper-right,
  upper-middle, upper-left) when the radial jump exceeds ``TH_r``; only this
  choice needs a recorded symbol (stream ``L_ref``).

Upper neighbours come from the *consensus reference polyline* ``l*``
(Algorithm 2), an overlay of the preceding polylines whose polar angle is
within ``TH_phi`` of the current line.

Everything here operates on quantized integers: the decoder reruns exactly
the same branch logic on exactly the same values, so no branch bits are
spent outside ``L_ref``.

The codecs (:func:`encode_radial`, :func:`decode_radial`,
:func:`encode_radial_plain`, :func:`decode_radial_plain`) batch the
per-point neighbour searches and delta arithmetic with numpy.  The
original per-point loops are kept in ``tests/oracles/reference.py`` as
the byte-identity oracles for tests and perf benchmarks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

__all__ = [
    "build_consensus",
    "encode_radial",
    "decode_radial",
    "encode_radial_plain",
    "decode_radial_plain",
]

# L_ref symbols (paper Step 8): bottom-left, upper-right, upper-middle, upper-left.
SYM_BOTTOM_LEFT = 0
SYM_UPPER_RIGHT = 1
SYM_UPPER_MIDDLE = 2
SYM_UPPER_LEFT = 3

_BIG = np.iinfo(np.int64).max


def build_consensus(
    ref_lines: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[list[int], list[int]]:
    """Algorithm 2: overlay reference polylines into one consensus line.

    ``ref_lines`` holds ``(theta_ints, r_ints)`` pairs in ``<PL>`` order.
    Returns the consensus as parallel theta / r lists sorted by theta.
    """
    thetas: list[int] = []
    rs: list[int] = []
    for line_theta, line_r in ref_lines:
        lt = line_theta.tolist()
        lr = line_r.tolist()
        if not thetas or thetas[-1] < lt[0]:
            thetas.extend(lt)
            rs.extend(lr)
            continue
        # Replace the span of l* overlapped by this line with the line itself
        # (newer lines are vertically closer to the target polyline).  The
        # span is inclusive of equal azimuths so no stale duplicates remain.
        id_left = bisect_left(thetas, lt[0])
        id_right = bisect_right(thetas, lt[-1]) - 1
        if id_left <= id_right:
            thetas[id_left : id_right + 1] = lt
            rs[id_left : id_right + 1] = lr
        else:
            thetas[id_left:id_left] = lt
            rs[id_left:id_left] = lr
    return thetas, rs


def _reference_sets(
    line_phis: list[int], th_phi: int
) -> list[range]:
    """Per-line index ranges of reference polylines (preceding, phi-close)."""
    sets = []
    start = 0
    for i, phi in enumerate(line_phis):
        while start < i and line_phis[i] - line_phis[start] > th_phi:
            start += 1
        sets.append(range(start, i))
    return sets


class _ConsensusWindow:
    """Incrementally maintained Algorithm 2 consensus over a sliding window.

    :func:`_reference_sets` yields contiguous windows ``[start, i)`` whose
    bounds only move forward, and the overlay has two properties that make
    incremental maintenance exact: adding a line is the same splice
    :func:`build_consensus` performs, and removing the *oldest* line
    cannot resurrect anything (a point only ever dies to a **later**
    line's span, so the dropped line's span never shadowed a survivor).
    Maintaining the consensus across lines this way replaces the
    per-polyline from-scratch rebuild — the dominant cost of Algorithm 2 —
    with one splice and at most one filter pass per step.
    """

    __slots__ = ("thetas", "rs", "ids")

    def __init__(self) -> None:
        self.thetas = np.empty(0, dtype=np.int64)
        self.rs = np.empty(0, dtype=np.int64)
        self.ids = np.empty(0, dtype=np.int64)

    def add(self, line_id: int, lt: np.ndarray, lr: np.ndarray) -> None:
        """Overlay one line (same splice semantics as build_consensus)."""
        thetas = self.thetas
        tag = np.full(lt.size, line_id, dtype=np.int64)
        if thetas.size and thetas[-1] >= lt[0]:
            i0 = int(np.searchsorted(thetas, lt[0], side="left"))
            i1 = int(np.searchsorted(thetas, lt[-1], side="right"))
            self.thetas = np.concatenate([thetas[:i0], lt, thetas[i1:]])
            self.rs = np.concatenate([self.rs[:i0], lr, self.rs[i1:]])
            self.ids = np.concatenate([self.ids[:i0], tag, self.ids[i1:]])
        else:
            self.thetas = np.concatenate([thetas, lt])
            self.rs = np.concatenate([self.rs, lr])
            self.ids = np.concatenate([self.ids, tag])

    def drop(self, line_id: int) -> None:
        """Remove the (oldest) line's surviving points."""
        keep = self.ids != line_id
        if not keep.all():
            self.thetas = self.thetas[keep]
            self.rs = self.rs[keep]
            self.ids = self.ids[keep]


def _tail_neighbors(
    ct: np.ndarray, cr: np.ndarray, t_tail: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched consensus lookup: (r_ul, r_um, r_ur, has_both, has_um).

    The upper-left, upper-middle and upper-right consensus neighbours of
    every tail azimuth of a polyline at once.  Values at positions where the corresponding
    ``has_*`` mask is False are arbitrary and must not be read.
    """
    m = t_tail.size
    if ct.size == 0:
        zeros = np.zeros(m, dtype=np.int64)
        none = np.zeros(m, dtype=bool)
        return zeros, zeros, zeros, none, none
    i_ul = np.searchsorted(ct, t_tail, side="left") - 1
    i_ur = np.searchsorted(ct, t_tail, side="right")
    has_ul = i_ul >= 0
    has_ur = i_ur < ct.size
    has_um = has_ul & (i_ul + 1 < i_ur)
    r_ul = cr[np.maximum(i_ul, 0)]
    r_ur = cr[np.minimum(i_ur, ct.size - 1)]
    r_um = cr[np.minimum(np.maximum(i_ul, 0) + 1, ct.size - 1)]
    return r_ul, r_um, r_ur, has_ul & has_ur, has_um


def encode_radial(
    lines_theta: list[np.ndarray],
    lines_r: list[np.ndarray],
    line_phis: list[int],
    th_phi: int,
    th_r: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Produce the ``nabla_r`` stream and the ``L_ref`` symbol stream.

    Parameters
    ----------
    lines_theta, lines_r:
        Quantized theta / r per polyline, in sorted ``<PL>`` order.
    line_phis:
        Quantized polar angle of each polyline (its head's phi).
    th_phi, th_r:
        Quantized thresholds ``TH_phi`` (reference-set width) and ``TH_r``
        (flatness test).

    The per-point reference search is batched per polyline: one
    ``searchsorted`` pair finds every tail's upper neighbours, the flatness
    test and the four-candidate ``(|r - r_ref|, symbol)`` argmin run as
    array ops.  Output is byte-identical to the per-point oracle.
    """
    nabla_parts: list[np.ndarray] = []
    symbol_parts: list[np.ndarray] = []
    ref_sets = _reference_sets(line_phis, th_phi)
    lts = [np.asarray(lt, dtype=np.int64) for lt in lines_theta]
    lrs = [np.asarray(lr, dtype=np.int64) for lr in lines_r]
    window = _ConsensusWindow()
    in_window = range(0, 0)
    prev_head_r: int | None = None
    for li, (lt, lrr) in enumerate(zip(lts, lrs)):
        refs_li = ref_sets[li]
        for j in range(in_window.stop, refs_li.stop):
            window.add(j, lts[j], lrs[j])
        for j in range(in_window.start, refs_li.start):
            window.drop(j)
        in_window = refs_li
        ct = window.thetas
        cr = window.rs
        head_ref = _head_reference_arr(ct, cr, int(lt[0]), prev_head_r)
        prev_head_r = int(lrr[0])
        line_nabla = np.empty(lt.size, dtype=np.int64)
        line_nabla[0] = lrr[0] - head_ref
        if lt.size > 1:
            r_tail = lrr[1:]
            r_bl = lrr[:-1]
            r_ul, r_um, r_ur, has_both, has_um = _tail_neighbors(ct, cr, lt[1:])
            # Situation (2a): flat local scene, bottom-left implied.
            spread = np.maximum(np.maximum(r_ul, r_ur), r_bl) - np.minimum(
                np.minimum(r_ul, r_ur), r_bl
            )
            refs = r_bl.copy()
            rows = np.flatnonzero(has_both & (spread > th_r))
            if rows.size:
                # Situation (2b): candidate matrix in L_ref symbol order, so
                # argmin's first-minimum rule is the oracle's
                # (|r - r_ref|, symbol) tie-break for free.
                cand = np.stack(
                    [r_bl[rows], r_ur[rows], r_um[rows], r_ul[rows]], axis=1
                )
                keys = np.abs(r_tail[rows, None] - cand)
                keys[~has_um[rows], SYM_UPPER_MIDDLE] = _BIG
                sym = np.argmin(keys, axis=1)
                refs[rows] = cand[np.arange(rows.size), sym]
                symbol_parts.append(sym.astype(np.int64))
            line_nabla[1:] = r_tail - refs
        nabla_parts.append(line_nabla)
    nabla = (
        np.concatenate(nabla_parts)
        if nabla_parts
        else np.empty(0, dtype=np.int64)
    )
    symbols = (
        np.concatenate(symbol_parts)
        if symbol_parts
        else np.empty(0, dtype=np.int64)
    )
    return nabla, symbols


def decode_radial(
    lines_theta: list[np.ndarray],
    line_phis: list[int],
    nabla: np.ndarray,
    symbols: np.ndarray,
    th_phi: int,
    th_r: int,
) -> list[np.ndarray]:
    """Inverse of :func:`encode_radial`: rebuild per-line r values.

    Decoding is inherently sequential inside a line (the flatness branch
    needs the just-decoded bottom-left r), but the consensus neighbour
    lookups are still batched per line before the scalar walk.
    """
    ref_sets = _reference_sets(line_phis, th_phi)
    nabla_l = nabla.tolist() if isinstance(nabla, np.ndarray) else list(nabla)
    ni = 0
    symbol_iter = iter(symbols.tolist())
    lts = [np.asarray(lt, dtype=np.int64) for lt in lines_theta]
    window = _ConsensusWindow()
    in_window = range(0, 0)
    lines_r: list[np.ndarray] = []
    prev_head_r: int | None = None
    for li, lt in enumerate(lts):
        refs_li = ref_sets[li]
        for j in range(in_window.stop, refs_li.stop):
            window.add(j, lts[j], lines_r[j])
        for j in range(in_window.start, refs_li.start):
            window.drop(j)
        in_window = refs_li
        ct = window.thetas
        cr = window.rs
        head_ref = _head_reference_arr(ct, cr, int(lt[0]), prev_head_r)
        lr: list[int] = [nabla_l[ni] + head_ref]
        ni += 1
        if lt.size > 1:
            r_ul, r_um, r_ur, has_both, has_um = _tail_neighbors(ct, cr, lt[1:])
            ul_l = r_ul.tolist()
            um_l = r_um.tolist()
            ur_l = r_ur.tolist()
            both_l = has_both.tolist()
            hum_l = has_um.tolist()
            for j in range(lt.size - 1):
                r_bl = lr[-1]
                if not both_l[j]:
                    ref = r_bl
                else:
                    ul = ul_l[j]
                    ur = ur_l[j]
                    if max(ul, ur, r_bl) - min(ul, ur, r_bl) <= th_r:
                        ref = r_bl
                    else:
                        symbol = next(symbol_iter, None)
                        if symbol == SYM_BOTTOM_LEFT:
                            ref = r_bl
                        elif symbol == SYM_UPPER_RIGHT:
                            ref = ur
                        elif symbol == SYM_UPPER_MIDDLE:
                            if not hum_l[j]:
                                raise ValueError(
                                    "L_ref names a missing upper-middle point"
                                )
                            ref = um_l[j]
                        elif symbol == SYM_UPPER_LEFT:
                            ref = ul
                        elif symbol is None:
                            raise ValueError("L_ref ends before its last reference")
                        else:
                            raise ValueError(f"invalid L_ref symbol {symbol}")
                lr.append(nabla_l[ni] + ref)
                ni += 1
        prev_head_r = lr[0]
        lines_r.append(np.asarray(lr, dtype=np.int64))
    if next(symbol_iter, None) is not None:
        raise ValueError("L_ref holds symbols past its last reference")
    return lines_r


def _head_reference_arr(
    ct: np.ndarray, cr: np.ndarray, t: int, prev_head_r: int | None
) -> int:
    """Situation (1): reference for a polyline head, from the consensus arrays."""
    if ct.size:
        idx = int(np.searchsorted(ct, t, side="left")) - 1
        if idx >= 0:
            return int(cr[idx])
    if prev_head_r is not None:
        return prev_head_r
    return 0


def encode_radial_plain(lines_r: list[np.ndarray]) -> np.ndarray:
    """-Radial ablation: plain delta coding of r (vectorized).

    Tails delta against their predecessor on the line; heads delta against
    the previous line's head (the first head is stored raw).  One global
    ``diff`` plus a scatter of head-to-head deltas replaces the per-point
    loop of the oracle.
    """
    if not lines_r:
        return np.empty(0, dtype=np.int64)
    all_r = np.concatenate([np.asarray(lr, dtype=np.int64) for lr in lines_r])
    lengths = np.fromiter(
        (len(lr) for lr in lines_r), dtype=np.int64, count=len(lines_r)
    )
    bounds = np.cumsum(lengths)
    starts = bounds - lengths
    nabla = np.empty(all_r.size, dtype=np.int64)
    nabla[0] = all_r[0]
    nabla[1:] = np.diff(all_r)
    heads = all_r[starts]
    nabla[starts[1:]] = np.diff(heads)
    return nabla


def decode_radial_plain(
    nabla: np.ndarray, line_lengths: list[int]
) -> list[np.ndarray]:
    """Inverse of :func:`encode_radial_plain`, as a segmented cumsum.

    With ``c = cumsum(nabla)``, the head values chain through
    ``heads = cumsum(nabla[starts])``, and every point is
    ``c + repeat(heads - c[starts], lengths)`` — integer-exact, so the
    output matches the per-point oracle bit for bit.
    """
    lengths = np.asarray(line_lengths, dtype=np.int64)
    if lengths.size == 0:
        return []
    nabla = np.asarray(nabla, dtype=np.int64)
    bounds = np.cumsum(lengths)
    starts = bounds - lengths
    c = np.cumsum(nabla)
    heads = np.cumsum(nabla[starts])
    values = c + np.repeat(heads - c[starts], lengths)
    return [values[s:e] for s, e in zip(starts.tolist(), bounds.tolist())]
