"""Coordinate compression of sparse points (paper Section 3.5, Figure 6).

Implements the nine-step pipeline for one radial group of sparse points:

1. *Coordinate scaling* — quantize each spherical dimension by twice its
   error bound (``q_theta = q_phi = q_xyz / r_max``, ``q_r = q_xyz``).
2. *Delta encoding* on theta and phi along each polyline.
3. /4. *Reorganization* — heads (original coordinates) and tails (deltas)
   are concatenated into separate streams, polylines back to back.
5. *Lengths* — per-line point counts, arithmetic coded.
6. *Theta streams* — delta-across-heads and within-line deltas, Deflate
   (cross-line repeats make LZ matter here).
7. *Phi streams* — same shape, arithmetic coded (less redundancy).
8. *Radial stream* — radial-distance-optimized delta encoding with the
   consensus reference polyline, plus the ``L_ref`` choice stream.
9. *Output* — length-prefixed stream concatenation.

The ``-Conversion`` ablation keeps the polyline organization but codes
quantized Cartesian ``x, y, z`` instead of ``theta, phi, r`` (see
DESIGN.md §4): the coordinate-system effect on stream entropy is exactly
what the ablation isolates.

With a *predictor* — the previous frame's decoded sparse points plus the
ego motion since (temporal streams, :mod:`repro.core.temporal`) — Step 8
has a second candidate tail.  Each polyline point is matched to the
previous frame's points by quantized ray ``(theta, phi)``, raw and
motion-compensated, giving two radial predictions next to the
stream-order baseline (the previous ``d3``).  Where the candidates
disagree by more than a few steps a 2-bit selector names the best one;
the residual and selector streams replace ``∇L_r`` / ``L_ref``.  The
encoder keeps whichever tail is smaller; Steps 1-7 are the same either
way (angle jitter is frame-independent and does not predict well).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from repro import observability as obs
from repro.core.params import DBGCParams
from repro.entropy.arithmetic import arithmetic_decode, decode_int_sequence
from repro.core.polyline import organize_polylines
from repro.core.reference import (
    decode_radial,
    decode_radial_plain,
    encode_radial,
    encode_radial_plain,
)
from repro.entropy.backend import (
    EntropyBackend,
    backend_for_tag,
    decode_tagged_ints,
    decode_tagged_symbols,
    encode_tagged_ints,
    encode_tagged_symbols,
    get_backend,
)
from repro.entropy.deflate import deflate_compress, deflate_decompress
from repro.entropy.varint import (
    decode_uvarint,
    decode_varints,
    encode_uvarint,
    encode_varints,
)
from repro.geometry.spherical import (
    cartesian_to_spherical,
    spherical_error_bounds,
    spherical_to_cartesian,
)

__all__ = ["GroupEncoding", "encode_sparse_group", "decode_sparse_group"]

_RMAX = struct.Struct("<d")
#: Candidate spread (in radial quantization steps) above which the
#: temporal tail spends a selector symbol instead of trusting the
#: motion-compensated match.
_SPREAD_FLAG = 4


@dataclass
class GroupEncoding:
    """Result of encoding one sparse group."""

    payload: bytes
    #: Local indices (into the group's input array) of outlier points.
    outlier_indices: np.ndarray
    #: Local indices of polyline points, in stored (decoded) order.
    order: np.ndarray
    #: Stream sizes by name, for the breakdown reporting.
    stream_sizes: dict[str, int] = field(default_factory=dict)
    #: Stage wall-clock times: COR (conversion), ORG (organization),
    #: SPA (stream coding) — the Figure 13 breakdown slots.  Durations of
    #: the ``sparse.cor`` / ``sparse.org`` / ``sparse.spa`` spans; zero
    #: when no observability recorder is active (the pipeline always
    #: installs one around :func:`encode_sparse_group`).
    timings: dict[str, float] = field(default_factory=dict)
    #: True when the temporal radial tail was kept (predictor given).
    temporal: bool = False
    #: The decoder's reconstruction of the polyline points, in stored
    #: order — filled in when a predictor was given and the group has
    #: polylines, so the encoder can advance its predictor state.
    points: np.ndarray | None = None


def _quantize(values: np.ndarray, step: float) -> np.ndarray:
    return np.round(values / step).astype(np.int64)


def _heads_tails(lines: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Split quantized per-line sequences into head/tail delta streams.

    Heads are delta-coded across lines (first head raw); tails are the
    within-line deltas (Step 2), concatenated line after line (Steps 3/4).
    """
    heads = np.asarray([line[0] for line in lines], dtype=np.int64)
    head_deltas = np.diff(heads, prepend=np.int64(0))
    tail_chunks = [np.diff(line) for line in lines if len(line) > 1]
    tails = (
        np.concatenate(tail_chunks) if tail_chunks else np.empty(0, dtype=np.int64)
    )
    return head_deltas, tails


def _rebuild_lines(
    head_deltas: np.ndarray, tails: np.ndarray, lengths: list[int]
) -> list[np.ndarray]:
    """Inverse of :func:`_heads_tails`."""
    heads = np.cumsum(head_deltas)
    lines = []
    pos = 0
    for i, length in enumerate(lengths):
        deltas = tails[pos : pos + length - 1]
        pos += length - 1
        lines.append(np.concatenate([[heads[i]], heads[i] + np.cumsum(deltas)]))
    return lines


_STREAM_DEFLATE = 0
#: Entropy-backend streams use mode byte ``backend.tag + 1``; the adaptive
#: arithmetic backend (tag 0) therefore keeps the historical mode byte 1.


def _pack_stream(
    values: np.ndarray, backend: str | EntropyBackend = "adaptive-arith"
) -> bytes:
    """Entropy-code an int stream with the better of Deflate / the backend.

    The paper uses Deflate for the azimuthal streams because repeated
    cross-line patterns favor LZ matching (Step 6); on data whose deltas
    are near-constant-with-noise the entropy backend wins instead.  A
    one-byte mode tag records the choice (0 = Deflate, otherwise
    ``backend.tag + 1``), so the codec always takes the smaller encoding
    and the decoder follows the stream, not the configuration.
    """
    b = get_backend(backend)
    deflated = deflate_compress(encode_varints(values, signed=True))
    coded = b.encode_ints(values)
    if len(deflated) < len(coded):
        return bytes([_STREAM_DEFLATE]) + deflated
    return bytes([b.tag + 1]) + coded


def _unpack_stream(data: bytes, count: int, version: int = 2) -> np.ndarray:
    """Inverse of :func:`_pack_stream`.

    ``version=1`` reads the legacy layout, where mode byte 1 was a
    checksum-less arithmetic int sequence rather than a backend tag.
    """
    if not data:
        raise ValueError("empty entropy stream")
    mode, payload = data[0], data[1:]
    if mode == _STREAM_DEFLATE:
        return decode_varints(deflate_decompress(payload), count, signed=True)
    if version == 1:
        if mode != 1:
            raise ValueError(f"unknown stream mode byte {mode}")
        values = decode_int_sequence(payload, checksum=False)
        if values.size != count:
            raise ValueError("entropy stream count mismatch")
        return values
    try:
        backend = backend_for_tag(mode - 1)
    except ValueError:
        raise ValueError(f"unknown stream mode byte {mode}") from None
    values = backend.decode_ints(payload)
    if values.size != count:
        raise ValueError("entropy stream count mismatch")
    return values


def _append_stream(out: bytearray, payload: bytes) -> None:
    encode_uvarint(len(payload), out)
    out += payload


def _read_stream(data: bytes, pos: int) -> tuple[bytes, int]:
    size, pos = decode_uvarint(data, pos)
    return data[pos : pos + size], pos + size


def _radial_tail(values_payload: bytes, choice_payload: bytes) -> bytes:
    """Step 8's two streams: radial values, then the per-point choices."""
    tail = bytearray()
    _append_stream(tail, values_payload)
    _append_stream(tail, choice_payload)
    return bytes(tail)


def _group_points(
    d1: np.ndarray,
    d2: np.ndarray,
    d3: np.ndarray,
    q_theta: float,
    q_phi: float,
    q_r: float,
) -> np.ndarray:
    """Decoded Cartesian points of one spherical group.

    The encoder builds its predictor state with the same expression the
    decoder uses, so lockstep predictor clouds are bitwise identical.
    """
    tpr = np.column_stack(
        [
            d1.astype(np.float64) * 2.0 * q_theta,
            d2.astype(np.float64) * 2.0 * q_phi,
            d3.astype(np.float64) * 2.0 * q_r,
        ]
    )
    return spherical_to_cartesian(tpr)


# -- temporal radial tail ------------------------------------------------------------


def _row_match(
    d1: np.ndarray, d2: np.ndarray, prev_d1: np.ndarray, prev_d2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest previous point by quantized ray, searching phi rows ±1.

    Returns ``(matched mask, index into the previous arrays)``; score is
    ``|Δtheta| + 1000 · |row offset|`` so the own row always wins when
    populated.
    """
    order = np.lexsort((prev_d1, prev_d2))
    theta_sorted = prev_d1[order]
    phi_sorted = prev_d2[order]
    big = np.int64(1) << 32
    keys = phi_sorted * big + theta_sorted
    no_match = np.int64(1) << 30
    best = np.full(d1.size, no_match)
    best_idx = np.zeros(d1.size, dtype=np.int64)
    for off in (-1, 0, 1):
        query = (d2 + off) * big + d1
        j = np.searchsorted(keys, query)
        for side in (j - 1, j):
            ok = (side >= 0) & (side < keys.size)
            clipped = np.clip(side, 0, keys.size - 1)
            ok &= phi_sorted[clipped] == (d2 + off)
            score = np.abs(theta_sorted[clipped] - d1) + abs(off) * 1000
            better = ok & (score < best)
            best = np.where(better, score, best)
            best_idx = np.where(better, order[clipped], best_idx)
    return best < no_match, best_idx


def _baseline_refs(d3: np.ndarray, lengths: list[int]) -> np.ndarray:
    """Stream-order previous ``d3`` (0 at each line head)."""
    refs = np.empty_like(d3)
    offset = 0
    for length in lengths:
        refs[offset] = 0
        refs[offset + 1 : offset + length] = d3[offset : offset + length - 1]
        offset += length
    return refs


def _ray_candidates(
    d1: np.ndarray,
    d2: np.ndarray,
    prev_sparse: np.ndarray,
    ego_delta,
    q_theta: float,
    q_phi: float,
    q_r: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw and motion-compensated radial predictions per current point.

    Returns ``(matched, r_raw, r_mc)``; ``matched`` requires a hit in
    *both* views so encoder and decoder agree without extra flags.
    """
    prev_sph = cartesian_to_spherical(prev_sparse)
    tq = _quantize(prev_sph[:, 0], 2.0 * q_theta)
    pq = _quantize(prev_sph[:, 1], 2.0 * q_phi)
    rq = _quantize(prev_sph[:, 2], 2.0 * q_r)
    m_raw, idx_raw = _row_match(d1, d2, tq, pq)
    moved = prev_sparse - np.asarray(ego_delta, dtype=np.float64)[None, :]
    mc_sph = cartesian_to_spherical(moved)
    tq_mc = _quantize(mc_sph[:, 0], 2.0 * q_theta)
    pq_mc = _quantize(mc_sph[:, 1], 2.0 * q_phi)
    rq_mc = _quantize(mc_sph[:, 2], 2.0 * q_r)
    m_mc, idx_mc = _row_match(d1, d2, tq_mc, pq_mc)
    return m_raw & m_mc, rq[idx_raw], rq_mc[idx_mc]


def _encode_temporal_tail(
    d1: np.ndarray,
    d2: np.ndarray,
    d3: np.ndarray,
    lengths: list[int],
    predictor,
    q_theta: float,
    q_phi: float,
    q_r: float,
    backend: EntropyBackend,
) -> tuple[bytes, bytes]:
    """The temporal tail's ``(residual stream, selector stream)``."""
    prev_sparse, ego_delta = predictor
    matched, r_raw, r_mc = _ray_candidates(
        d1, d2, prev_sparse, ego_delta, q_theta, q_phi, q_r
    )
    r_baseline = _baseline_refs(d3, lengths)
    candidates = np.stack([r_baseline, r_raw, r_mc], axis=1)
    flagged = matched & ((candidates.max(axis=1) - candidates.min(axis=1)) > _SPREAD_FLAG)
    selectors = np.abs(d3[:, None] - candidates).argmin(axis=1)
    refs = np.where(
        matched,
        np.where(flagged, candidates[np.arange(len(d3)), selectors], r_mc),
        r_baseline,
    )
    sel_payload = bytearray()
    n_flagged = int(flagged.sum())
    encode_uvarint(n_flagged, sel_payload)
    if n_flagged:
        sel_payload += encode_tagged_symbols(selectors[flagged], 3, backend)
    return encode_tagged_ints(d3 - refs, backend), bytes(sel_payload)


def _decode_temporal_d3(
    d1: np.ndarray,
    d2: np.ndarray,
    lengths: list[int],
    residuals: np.ndarray,
    selectors: np.ndarray,
    predictor,
    q_theta: float,
    q_phi: float,
    q_r: float,
) -> np.ndarray:
    """Inverse of :func:`_encode_temporal_tail`: the group's ``d3``."""
    if residuals.size != d1.size:
        raise ValueError("corrupt temporal group: residual stream mismatch")
    prev_sparse, ego_delta = predictor
    matched, r_raw, r_mc = _ray_candidates(
        d1, d2, prev_sparse, ego_delta, q_theta, q_phi, q_r
    )
    # d3 must be reconstructed sequentially: the stream-order baseline (and
    # with it the flag decision) depends on the previous decoded value.
    d3 = np.empty(d1.size, dtype=np.int64)
    matched_l = matched.tolist()
    r_raw_l = r_raw.tolist()
    r_mc_l = r_mc.tolist()
    residuals_l = residuals.tolist()
    selectors_l = selectors.tolist()
    sel_i = 0
    idx = 0
    for length in lengths:
        prev_val = 0
        for _ in range(length):
            if matched_l[idx]:
                cands = (prev_val, r_raw_l[idx], r_mc_l[idx])
                if max(cands) - min(cands) > _SPREAD_FLAG:
                    if sel_i >= len(selectors_l):
                        raise ValueError("corrupt temporal group: selector underrun")
                    ref = cands[selectors_l[sel_i]]
                    sel_i += 1
                else:
                    ref = r_mc_l[idx]
            else:
                ref = prev_val
            prev_val = ref + residuals_l[idx]
            d3[idx] = prev_val
            idx += 1
    if sel_i != len(selectors_l):
        raise ValueError("corrupt temporal group: selector stream mismatch")
    return d3


# -- the group codec -----------------------------------------------------------------


def encode_sparse_group(
    xyz_group: np.ndarray,
    params: DBGCParams,
    u_theta: float,
    u_phi: float,
    predictor=None,
) -> GroupEncoding:
    """Encode one radial group of sparse points.

    Returns the group payload plus the outlier indices (points on no
    polyline of length >= 2) and the stored point order for correspondence.
    ``predictor`` — ``(prev_sparse, ego_delta)``, the previous frame's
    decoded sparse points and the sensor translation since, for spherical
    coding only — adds the temporal radial tail as a candidate; the
    smaller tail is kept and :attr:`GroupEncoding.temporal` says which.
    """
    xyz_group = np.asarray(xyz_group, dtype=np.float64)
    n_input = len(xyz_group)
    if n_input == 0:
        out = bytearray()
        encode_uvarint(0, out)
        return GroupEncoding(bytes(out), np.empty(0, np.int64), np.empty(0, np.int64))

    with obs.span("sparse.cor") as sp_cor:
        tpr = cartesian_to_spherical(xyz_group)
        theta, phi, radius = tpr[:, 0], tpr[:, 1], tpr[:, 2]

    with obs.span("sparse.org") as sp_org:
        if params.spherical_conversion:
            all_lines = organize_polylines(theta, phi, xyz_group, u_theta, u_phi)
        else:
            # -Conversion ablation: extract polylines in the Cartesian system
            # (x plays the scan axis, y the line-grouping axis).  The window is
            # the typical along-scan spacing at the group's median range; rings
            # are circles in the xy plane, so extraction fragments badly — the
            # effect the ablation quantifies.
            window = max(float(np.median(radius)) * u_theta, 4.0 * params.q_xyz)
            all_lines = organize_polylines(
                xyz_group[:, 0], xyz_group[:, 1], xyz_group, window, window
            )
        lines = [line for line in all_lines if len(line) >= 2]
        outliers = (
            np.concatenate([line for line in all_lines if len(line) < 2])
            if any(len(line) < 2 for line in all_lines)
            else np.empty(0, dtype=np.int64)
        )
    if not lines:
        out = bytearray()
        encode_uvarint(0, out)
        return GroupEncoding(
            bytes(out),
            outliers,
            np.empty(0, np.int64),
            timings={"cor": sp_cor.duration, "org": sp_org.duration, "spa": 0.0},
        )
    with obs.span("sparse.spa") as sp_spa:
        r_max = float(max(radius[line].max() for line in lines))
        r_max = max(r_max, 1e-9)
        q_theta, q_phi, q_r = spherical_error_bounds(
            params.q_xyz, r_max, strict_cartesian=params.strict_cartesian
        )

        if params.spherical_conversion:
            d1_all = _quantize(theta, 2.0 * q_theta)
            d2_all = _quantize(phi, 2.0 * q_phi)
            d3_all = _quantize(radius, 2.0 * q_r)
        else:
            step = 2.0 * params.q_xyz
            d1_all = _quantize(xyz_group[:, 0], step)
            d2_all = _quantize(xyz_group[:, 1], step)
            d3_all = _quantize(xyz_group[:, 2], step)

        # Sort polylines by (head polar angle, head azimuth) — paper Line 7.
        # The sort uses quantized values so encoder and decoder agree on the
        # reference-set geometry.
        lines.sort(key=lambda line: (int(d2_all[line[0]]), int(d1_all[line[0]])))
        lines_d1 = [d1_all[line] for line in lines]
        lines_d2 = [d2_all[line] for line in lines]
        lines_d3 = [d3_all[line] for line in lines]
        lengths = [len(line) for line in lines]
        order = np.concatenate(lines)

        backend = get_backend(params.entropy_backend)

        out = bytearray()
        encode_uvarint(int(order.size), out)
        encode_uvarint(len(lines), out)
        out += _RMAX.pack(r_max)
        sizes: dict[str, int] = {}

        payload = encode_tagged_ints(np.asarray(lengths, dtype=np.int64), backend)
        _append_stream(out, payload)
        sizes["lengths"] = len(payload)

        d1_heads, d1_tails = _heads_tails(lines_d1)
        payload = _pack_stream(d1_heads, backend)
        _append_stream(out, payload)
        sizes["d1_heads"] = len(payload)
        payload = _pack_stream(d1_tails, backend)
        _append_stream(out, payload)
        sizes["d1_tails"] = len(payload)

        d2_heads, d2_tails = _heads_tails(lines_d2)
        payload = _pack_stream(d2_heads, backend)
        _append_stream(out, payload)
        sizes["d2_heads"] = len(payload)
        payload = _pack_stream(d2_tails, backend)
        _append_stream(out, payload)
        sizes["d2_tails"] = len(payload)

        if params.spherical_conversion and params.radial_reference:
            th_phi_q = max(int(round(2.0 * u_phi / (2.0 * q_phi))), 0)
            th_r_q = max(int(round(params.th_r / (2.0 * q_r))), 1)
            line_phis = [int(d2[0]) for d2 in lines_d2]
            nabla, symbols = encode_radial(
                lines_d1, lines_d3, line_phis, th_phi_q, th_r_q
            )
            ref_payload = bytearray()
            encode_uvarint(len(symbols), ref_payload)
            if len(symbols):
                ref_payload += encode_tagged_symbols(
                    np.asarray(symbols, dtype=np.int64), 4, backend
                )
        else:
            nabla = encode_radial_plain(lines_d3)
            ref_payload = bytearray()
            encode_uvarint(0, ref_payload)

        d3_payload = encode_tagged_ints(nabla, backend)
        tail = _radial_tail(d3_payload, bytes(ref_payload))
        tail_sizes = {"d3": len(d3_payload), "l_ref": len(ref_payload)}
        temporal, points = False, None
        if predictor is not None:
            d1, d2, d3 = (np.concatenate(s) for s in (lines_d1, lines_d2, lines_d3))
            residual_payload, sel_payload = _encode_temporal_tail(
                d1, d2, d3, lengths, predictor, q_theta, q_phi, q_r, backend
            )
            delta_tail = _radial_tail(residual_payload, sel_payload)
            temporal = len(delta_tail) < len(tail)
            if temporal:
                tail = delta_tail
                tail_sizes = {"d3": len(residual_payload), "l_sel": len(sel_payload)}
            points = _group_points(d1, d2, d3, q_theta, q_phi, q_r)
        out += tail
        sizes.update(tail_sizes)
        # Per-stream byte accounting (the Figure 13 size breakdown): each
        # named stream lands on the active span and the bytes.* counters.
        for name, size in sizes.items():
            obs.add_bytes("sparse." + name, size)

    return GroupEncoding(
        bytes(out),
        outliers,
        order,
        sizes,
        timings={
            "cor": sp_cor.duration,
            "org": sp_org.duration,
            "spa": sp_spa.duration,
        },
        temporal=temporal,
        points=points,
    )


def decode_sparse_group(
    payload: bytes,
    params: DBGCParams,
    u_theta: float,
    u_phi: float,
    version: int = 2,
    predictor=None,
) -> np.ndarray:
    """Decode one group payload back to Cartesian coordinates.

    Points come back in stored polyline order (matching
    :attr:`GroupEncoding.order` on the encoder side).  ``version=1``
    selects the legacy stream layouts (checksum-less int sequences, raw
    arithmetic ``L_ref``), so v1 containers decode bit-identically.
    ``predictor`` (as in :func:`encode_sparse_group`) marks a group whose
    radial tail is the temporal one.
    """
    n_points, pos = decode_uvarint(payload, 0)
    if n_points == 0:
        return np.empty((0, 3), dtype=np.float64)
    if predictor is not None and not len(predictor[0]):
        raise ValueError("temporal group without predictor state")
    n_lines, pos = decode_uvarint(payload, pos)
    (r_max,) = _RMAX.unpack_from(payload, pos)
    pos += _RMAX.size
    q_theta, q_phi, q_r = spherical_error_bounds(
        params.q_xyz, r_max, strict_cartesian=params.strict_cartesian
    )

    stream, pos = _read_stream(payload, pos)
    if version == 1:
        lengths = decode_int_sequence(stream, checksum=False).tolist()
    else:
        lengths = decode_tagged_ints(stream).tolist()
    if len(lengths) != n_lines or sum(lengths) != n_points:
        raise ValueError("corrupt sparse group: length stream mismatch")

    n_tail = n_points - n_lines
    stream, pos = _read_stream(payload, pos)
    d1_heads = _unpack_stream(stream, n_lines, version=version)
    stream, pos = _read_stream(payload, pos)
    d1_tails = _unpack_stream(stream, n_tail, version=version)
    lines_d1 = _rebuild_lines(d1_heads, d1_tails, lengths)

    stream, pos = _read_stream(payload, pos)
    d2_heads = _unpack_stream(stream, n_lines, version=version)
    stream, pos = _read_stream(payload, pos)
    d2_tails = _unpack_stream(stream, n_tail, version=version)
    lines_d2 = _rebuild_lines(d2_heads, d2_tails, lengths)

    stream, pos = _read_stream(payload, pos)
    if version == 1:
        nabla = decode_int_sequence(stream, checksum=False)
    else:
        nabla = decode_tagged_ints(stream)
    ref_stream, pos = _read_stream(payload, pos)
    n_symbols, ref_pos = decode_uvarint(ref_stream, 0)

    d1 = np.concatenate(lines_d1)
    d2 = np.concatenate(lines_d2)
    if predictor is not None:
        if n_symbols:
            selectors = decode_tagged_symbols(ref_stream[ref_pos:], n_symbols, 3)
        else:
            selectors = np.empty(0, dtype=np.int64)
        d3 = _decode_temporal_d3(
            d1, d2, lengths, nabla, selectors, predictor, q_theta, q_phi, q_r
        )
    elif params.spherical_conversion and params.radial_reference:
        if version == 1:
            symbols = arithmetic_decode(ref_stream[ref_pos:], n_symbols, 4)
        elif n_symbols:
            symbols = decode_tagged_symbols(ref_stream[ref_pos:], n_symbols, 4)
        else:
            symbols = np.empty(0, dtype=np.int64)
        th_phi_q = max(int(round(2.0 * u_phi / (2.0 * q_phi))), 0)
        th_r_q = max(int(round(params.th_r / (2.0 * q_r))), 1)
        line_phis = [int(line[0]) for line in lines_d2]
        d3 = np.concatenate(
            decode_radial(lines_d1, line_phis, nabla, symbols, th_phi_q, th_r_q)
        )
    else:
        d3 = np.concatenate(decode_radial_plain(nabla, lengths))

    if params.spherical_conversion:
        return _group_points(d1, d2, d3, q_theta, q_phi, q_r)
    step = 2.0 * params.q_xyz
    return np.column_stack([d.astype(np.float64) * step for d in (d1, d2, d3)])
