"""Temporal stream state: the predictor and the dense delta coder (format v3).

LiDAR frames along a trajectory are highly redundant: most of the scene
geometry of frame ``i`` is already present — shifted by the ego motion —
in frame ``i - 1``.  A temporal stream exploits that with *delta frames*
(container format v3) between periodic intra keyframes.  There is one
frame codec (:mod:`repro.core.pipeline`); a delta frame is what it
produces when it is handed a predictor — a :class:`TemporalContext` plus
the ego delta — and each section then picks intra or delta coding,
whichever is strictly smaller, behind a leading mode byte:

* **Dense section** (this module).  The delta candidate quantizes the
  dense set on a grid whose origin is *chain-snapped* to the previous
  frame's grid (``origin = prev + floor((lo - prev) / leaf) * leaf``) so
  predictor cells and current cells align.  The occupancy bytes are coded
  bit-by-bit with adaptive binary models conditioned on three predictors
  derived from the previous decoded cloud: its exact occupancy (**E**), a
  radially dilated version (**D**, absorbing the half-leaf jitter of
  re-quantization), and an ego-motion-compensated dilated version
  (**M**).  Models persist across delta frames and reset at keyframes.

* **Sparse groups** (:mod:`repro.core.sparse_codec`).  The temporal
  radial tail predicts each polyline point's range from the previous
  frame's decoded sparse points; the front streams are the intra ones.

Outliers and attributes are always intra-coded.

Encoder and decoder advance a shared :class:`TemporalContext` in
lockstep; a content CRC of the predictor cloud travels in the v3 header
(:data:`repro.core.container._V3_EXT`) so a decoder that lost state — a
restarted server — detects the mismatch instead of reconstructing wrong
geometry, and resynchronizes at the next keyframe.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.core.attributes import decode_attributes
from repro.core.container import unpack_container
from repro.core.params import DBGCParams
from repro.entropy.arithmetic import (
    _HALF,
    _LOW31,
    _MASK,
    _QUARTER,
    _bit_source,
    _emit_final,
    _overread,
)
from repro.entropy.backend import decode_tagged_ints, encode_tagged_ints
from repro.entropy.varint import decode_uvarint, encode_uvarint
from repro.geometry.points import PointCloud
from repro.octree.morton import MAX_DEPTH_3D, interleave
from repro.octree.octree import (
    OctreeStructure,
    build_octree_structure,
    check_point_count,
    expand_occupancy_level,
    grid_cells,
    grid_codes,
    leaf_points,
    stable_mapping,
)

__all__ = [
    "KEYFRAME_MAX_VERSION",
    "MODE_INTRA",
    "MODE_DELTA",
    "TemporalContext",
    "TemporalDecoder",
    "dense_payload_origin",
]

#: Component mode bytes inside a v3 container.
MODE_INTRA = 0
MODE_DELTA = 1

#: Highest container version that is a self-contained (key)frame; anything
#: above is a delta frame that needs its predecessor's decoded state.
KEYFRAME_MAX_VERSION = 2

#: Adaptivity of the binary occupancy-bit models (faster than the intra
#: byte model's 32 because each context sees far fewer symbols).
_OCC_INCREMENT = 24
#: A context's two counts are halved (rounding up) once they sum past this,
#: as :class:`repro.entropy.arithmetic.AdaptiveModel` does.
_OCC_MAX_TOTAL = 1 << 16
#: Number of occupancy-bit contexts (see :func:`_level_contexts`).
_N_CONTEXTS = 7 * 2 * 2 * 2 * 8 * 4 * 3
_BITS = np.arange(8, dtype=np.int64)
#: Popcount of every byte value (``np.bitwise_count`` needs numpy >= 2.0).
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.int64)
#: Same ``(origin, leaf_side)`` header as the intra octree payload.
_DENSE_HEADER = struct.Struct("<4d")


# -- predictor state ---------------------------------------------------------------


class TemporalContext:
    """Predictor state advanced in lockstep by encoder and decoder.

    Holds the previous frame's *decoded* geometry (so both sides agree
    bit-for-bit), the dense grid origin the chain is snapped to, and the
    persistent occupancy-bit models.  ``reset()`` / keyframes clear the
    entropy models; the cloud itself is replaced every frame.

    ``occ_models`` is internal: the zero and one counts of every
    occupancy-bit context, two lists indexed by context id.
    """

    def __init__(self) -> None:
        self.frames_coded = 0
        self.prev_cloud: np.ndarray | None = None
        self.prev_sparse: np.ndarray | None = None
        self.prev_dense_origin: np.ndarray | None = None
        self.occ_models = _fresh_models()
        self._fingerprint: int | None = None

    @property
    def has_state(self) -> bool:
        return self.prev_cloud is not None

    def fingerprint(self) -> int:
        """CRC-32 of the predictor cloud bytes (0 when no state).

        Content-only on purpose: a decoder that lost its state (server
        restart) rebuilds an identical fingerprint from the next keyframe
        onward, so recovery needs no side channel.
        """
        if self.prev_cloud is None:
            return 0
        if self._fingerprint is None:
            data = np.ascontiguousarray(self.prev_cloud, dtype=np.float64)
            self._fingerprint = zlib.crc32(data.tobytes()) & 0xFFFFFFFF
        return self._fingerprint

    def observe(
        self,
        dense: np.ndarray,
        groups: list[np.ndarray],
        outliers: np.ndarray,
        dense_origin: np.ndarray | None,
        keyframe: bool = False,
        occ_models: tuple[list[int], list[int]] | None = None,
    ) -> None:
        """Record one decoded frame as the predictor for the next.

        ``occ_models`` are the occupancy-bit models after the frame's dense
        delta section, committed here with the rest of the frame's state.
        """
        if keyframe:
            self.occ_models = _fresh_models()
        elif occ_models is not None:
            self.occ_models = occ_models
        chunks = [np.asarray(c, dtype=np.float64).reshape(-1, 3) for c in groups]
        dense = np.asarray(dense, dtype=np.float64).reshape(-1, 3)
        outliers = np.asarray(outliers, dtype=np.float64).reshape(-1, 3)
        self.prev_sparse = (
            np.vstack(chunks) if chunks else np.empty((0, 3), dtype=np.float64)
        )
        self.prev_cloud = np.vstack([dense, self.prev_sparse, outliers])
        self.prev_dense_origin = (
            None
            if dense_origin is None
            else np.array(dense_origin, dtype=np.float64, copy=True)
        )
        self.frames_coded += 1
        self._fingerprint = None


def _fresh_models() -> tuple[list[int], list[int]]:
    """Zero and one counts of every context, each starting at 1."""
    return [1] * _N_CONTEXTS, [1] * _N_CONTEXTS


def _clone_models(models: tuple[list[int], list[int]]) -> tuple[list[int], list[int]]:
    """Copy the models so a *trial* coding can be discarded."""
    return list(models[0]), list(models[1])


# -- dense (octree occupancy) delta coding ----------------------------------------


def _predict_level(
    nodes: np.ndarray, level_map: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Predictor occupancy byte for each current node (0 where absent)."""
    codes, occ = level_map
    if len(codes) == 0:
        return np.zeros(len(nodes), dtype=np.int64)
    idx = np.minimum(np.searchsorted(codes, nodes), len(codes) - 1)
    return np.where(codes[idx] == nodes, occ[idx], 0)


def _grid_codes(
    points: np.ndarray, origin: np.ndarray, leaf_side: float, depth: int
) -> np.ndarray:
    """Morton codes of the predictor points that land inside the grid."""
    cells = grid_cells(points, origin, leaf_side)
    inside = np.all((cells >= 0) & (cells < (1 << depth)), axis=1)
    return interleave(cells[inside])


def _predictor_points(
    prev_cloud: np.ndarray, leaf_side: float, ego_delta
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact / dilated / motion-compensated predictor point sets."""
    radius = np.linalg.norm(prev_cloud, axis=1, keepdims=True)
    radius[radius == 0.0] = 1.0
    unit = prev_cloud / radius
    dilated = np.vstack(
        [prev_cloud, prev_cloud + leaf_side * unit, prev_cloud - leaf_side * unit]
    )
    moved = prev_cloud - np.asarray(ego_delta, dtype=np.float64)[None, :]
    mc_dilated = np.vstack([moved, moved + leaf_side * unit, moved - leaf_side * unit])
    return prev_cloud, dilated, mc_dilated


def _pred_maps(
    prev_cloud: np.ndarray,
    origin: np.ndarray,
    leaf_side: float,
    depth: int,
    ego_delta,
) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Per-level ``(sorted node codes, occupancy bytes)`` of each predictor set."""
    maps = []
    for points in _predictor_points(prev_cloud, leaf_side, ego_delta):
        tree = build_octree_structure(_grid_codes(points, origin, leaf_side, depth), depth)
        maps.append(list(zip(tree.node_codes, tree.occupancy)))
    return maps


def _level_contexts(
    level: int, pe: np.ndarray, pd: np.ndarray, pm: np.ndarray
) -> np.ndarray:
    """``(n, 8)`` context ids of each node's bits, less the decoded-bits term.

    A bit's context is ``(min(level, 6), e_b, d_b, m_b, b, min(pop(d), 3),
    min(pop(decoded), 2))``: bit ``b`` of the exact, dilated and
    motion-compensated predictor bytes, the bit position, the dilated
    byte's popcount and the popcount of the bits below ``b`` already coded.
    The last term is the id's lowest digit, added while coding.
    """
    ids = np.minimum(level, 6) * 2 + ((pe[:, None] >> _BITS) & 1)
    ids = ids * 2 + ((pd[:, None] >> _BITS) & 1)
    ids = ids * 2 + ((pm[:, None] >> _BITS) & 1)
    ids = (ids * 8 + _BITS) * 4 + np.minimum(_POPCOUNT[pd], 3)[:, None]
    return ids * 3


def _code_occupancy(
    tree: OctreeStructure,
    pred_maps: list[list[tuple[np.ndarray, np.ndarray]]],
    models: tuple[list[int], list[int]],
) -> bytes:
    """Context-code the tree's occupancy, level by level; mutates
    ``models`` (pass a clone for a trial encode and commit it only if delta
    mode is chosen).

    The arithmetic coder of :func:`repro.entropy.arithmetic.arithmetic_encode`
    over binary models, fused into one loop per level.
    """
    zeros, ones = models
    out = bytearray()
    acc = n_acc = 0
    low, high, pending = 0, _MASK, 0
    for level, (nodes, level_occ) in enumerate(zip(tree.node_codes, tree.occupancy)):
        pe, pd, pm = (_predict_level(nodes, maps[level]) for maps in pred_maps)
        ids = _level_contexts(level, pe, pd, pm)
        # The decoded-bits term is known up front: the popcount of the
        # bits below b.
        ids += np.minimum(_POPCOUNT[level_occ[:, None] & ((1 << _BITS) - 1)], 2)
        bits = (level_occ[:, None] >> _BITS) & 1
        for ctx, bit in zip(ids.ravel().tolist(), bits.ravel().tolist()):
            f0 = zeros[ctx]
            f1 = ones[ctx]
            split = low + (high - low + 1) * f0 // (f0 + f1)
            if bit:
                low = split
                f1 += _OCC_INCREMENT
            else:
                high = split - 1
                f0 += _OCC_INCREMENT
            if f0 + f1 > _OCC_MAX_TOTAL:
                f0 = (f0 + 1) >> 1
                f1 = (f1 + 1) >> 1
            zeros[ctx] = f0
            ones[ctx] = f1
            if high < _HALF or low >= _HALF:
                k = 32 - (low ^ high).bit_length()
                emit = low >> (32 - k)
                if pending:
                    emit += ((1 << pending) - 1) << (k - 1)
                    acc <<= pending
                    n_acc += pending
                    pending = 0
                acc = (acc << k) | emit
                n_acc += k
                low = (low << k) & _MASK
                high = ((high << k) & _MASK) | ((1 << k) - 1)
            if low & _QUARTER and not high & _QUARTER:
                u = 31 - ((~low | high) & _LOW31).bit_length()
                pending += u
                low = (low << u) & _LOW31
                high = _HALF | ((high << u) & _LOW31) | ((1 << u) - 1)
            if n_acc >= 64:
                rest = n_acc & 7
                out += (acc >> rest).to_bytes(n_acc >> 3, "big")
                acc &= (1 << rest) - 1
                n_acc = rest
    return _emit_final(out, acc, n_acc, low, pending)


def _decode_occupancy(
    payload: bytes,
    pred_maps: list[list[tuple[np.ndarray, np.ndarray]]],
    depth: int,
    models: tuple[list[int], list[int]],
    max_nodes: int,
) -> np.ndarray:
    """Mirror of :func:`_code_occupancy`; returns the leaf Morton codes.

    Mutates ``models``.  No level of a valid tree holds more nodes than
    there are points, so a level past ``max_nodes`` is corruption;
    stopping there keeps a bad payload from growing the tree eightfold per
    level.  Like :func:`repro.entropy.arithmetic.arithmetic_decode`, it
    raises once it reads more than 30 bits past the end of ``payload``.
    """
    zeros, ones = models
    words, limit = _bit_source(payload)
    # `value` is the code register minus low; it takes in the same bits.
    value, next_word, buf, n_buf = words[0], 1, 0, 0
    low, high = 0, _MASK
    nodes = np.zeros(1, dtype=np.int64)
    for level in range(depth):
        pe, pd, pm = (_predict_level(nodes, maps[level]) for maps in pred_maps)
        level_occ = bytearray()
        byte = decoded_term = 0
        bit = 1
        for ctx in _level_contexts(level, pe, pd, pm).ravel().tolist():
            ctx += decoded_term
            f0 = zeros[ctx]
            f1 = ones[ctx]
            step = (high - low + 1) * f0 // (f0 + f1)
            if value >= step:
                low += step
                value -= step
                f1 += _OCC_INCREMENT
                byte |= bit
                if decoded_term < 2:
                    decoded_term += 1
            else:
                high = low + step - 1
                f0 += _OCC_INCREMENT
            if f0 + f1 > _OCC_MAX_TOTAL:
                f0 = (f0 + 1) >> 1
                f1 = (f1 + 1) >> 1
            zeros[ctx] = f0
            ones[ctx] = f1
            if bit == 128:
                level_occ.append(byte)
                byte = decoded_term = 0
                bit = 1
            else:
                bit <<= 1
            shift = 0
            if high < _HALF or low >= _HALF:
                shift = 32 - (low ^ high).bit_length()
                low = (low << shift) & _MASK
                high = ((high << shift) & _MASK) | ((1 << shift) - 1)
            if low & _QUARTER and not high & _QUARTER:
                u = 31 - ((~low | high) & _LOW31).bit_length()
                low = (low << u) & _LOW31
                high = _HALF | ((high << u) & _LOW31) | ((1 << u) - 1)
                shift += u
            if shift:
                if n_buf < shift:
                    if 32 * next_word - n_buf + shift > limit:
                        raise _overread()
                    buf = ((buf & ((1 << n_buf) - 1)) << 32) | words[next_word]
                    next_word += 1
                    n_buf += 32
                n_buf -= shift
                value = (value << shift) | ((buf >> n_buf) & ((1 << shift) - 1))
        nodes = expand_occupancy_level(
            nodes, np.frombuffer(level_occ, dtype=np.uint8), max_nodes
        )
    if 32 * next_word - n_buf > limit:
        raise _overread()
    return nodes


def dense_payload_origin(dense_payload: bytes) -> np.ndarray | None:
    """Grid origin of a dense payload (intra and delta share the header)."""
    n_points, pos = decode_uvarint(dense_payload, 0)
    if n_points == 0:
        return None
    ox, oy, oz, _leaf = _DENSE_HEADER.unpack_from(dense_payload, pos)
    return np.array([ox, oy, oz], dtype=np.float64)


def _encode_dense_delta(
    xyz: np.ndarray,
    params: DBGCParams,
    context: TemporalContext,
    ego_delta,
    intra_size: int,
):
    """Delta-code the dense set on the chain-snapped grid, if that wins.

    Returns ``(payload, mapping, points, origin)`` — the decoded-order
    permutation and the decoder's reconstruction, for the predictor — and
    commits the occupancy-model updates to ``context``, when the delta
    payload is strictly smaller than ``intra_size`` bytes.  Returns
    ``None`` and leaves ``context`` untouched otherwise, or when delta
    coding is not applicable (empty set, grid overflow).
    """
    if len(xyz) == 0 or context.prev_cloud is None or len(context.prev_cloud) == 0:
        return None
    leaf = params.leaf_side
    lo = xyz.min(axis=0)
    prev_origin = context.prev_dense_origin
    if prev_origin is None:
        origin = lo
    else:
        origin = prev_origin + np.floor((lo - prev_origin) / leaf) * leaf
    extent = float((xyz.max(axis=0) - origin).max()) + leaf
    depth = max(1, int(np.ceil(np.log2(extent / leaf))))
    if depth > MAX_DEPTH_3D:
        return None
    codes = grid_codes(xyz, origin, leaf, depth)
    tree = build_octree_structure(codes, depth)
    maps = _pred_maps(context.prev_cloud, origin, leaf, depth, ego_delta)
    models = _clone_models(context.occ_models)
    occ_payload = _code_occupancy(tree, maps, models)
    out = bytearray()
    encode_uvarint(len(xyz), out)
    out += _DENSE_HEADER.pack(origin[0], origin[1], origin[2], leaf)
    encode_uvarint(depth, out)
    encode_uvarint(len(occ_payload), out)
    out += occ_payload
    out += encode_tagged_ints(tree.leaf_counts - 1)
    if len(out) >= intra_size:
        return None
    context.occ_models = models
    points = leaf_points(tree.leaf_codes, tree.leaf_counts, len(xyz), origin, leaf)
    return bytes(out), stable_mapping(codes), points, origin


def _decode_dense_delta(
    data: bytes, context: TemporalContext, ego_delta
) -> tuple[np.ndarray, np.ndarray | None, tuple[list[int], list[int]] | None]:
    """Inverse of :func:`_encode_dense_delta`.

    Returns ``(points, origin, models)``: the occupancy models advanced on
    a copy, for :meth:`TemporalContext.observe` to commit with the rest of
    the frame, so a frame that fails later leaves ``context`` untouched.
    """
    n_points, pos = decode_uvarint(data, 0)
    if n_points == 0:
        return np.empty((0, 3), dtype=np.float64), None, None
    check_point_count(n_points)
    if context.prev_cloud is None:
        raise ValueError("delta frame without predictor state")
    ox, oy, oz, leaf = _DENSE_HEADER.unpack_from(data, pos)
    pos += _DENSE_HEADER.size
    origin = np.array([ox, oy, oz], dtype=np.float64)
    depth, pos = decode_uvarint(data, pos)
    if not 1 <= depth <= MAX_DEPTH_3D:
        raise ValueError(f"dense delta depth {depth} outside [1, {MAX_DEPTH_3D}]")
    occ_len, pos = decode_uvarint(data, pos)
    occ_payload = data[pos : pos + occ_len]
    pos += occ_len
    maps = _pred_maps(context.prev_cloud, origin, leaf, depth, ego_delta)
    models = _clone_models(context.occ_models)
    leaf_codes = _decode_occupancy(occ_payload, maps, depth, models, n_points)
    counts = decode_tagged_ints(data[pos:]) + 1
    return leaf_points(leaf_codes, counts, n_points, origin, leaf), origin, models


class TemporalDecoder:
    """Stateful frame decoder: feed every frame of a stream in order.

    Intra frames (v1/v2) decode standalone and refresh the predictor
    state; delta frames (v3) decode against it.  Safe for any stream —
    a purely intra stream simply never exercises the delta path.
    """

    def __init__(self) -> None:
        self.context = TemporalContext()

    def decode(self, data: bytes) -> PointCloud:
        # Imported here: the frame codec imports this module.
        from repro.core.pipeline import decode_frame

        return decode_frame(data, self.context)

    def decode_with_attributes(
        self, data: bytes
    ) -> tuple[PointCloud, dict[str, np.ndarray]]:
        cloud = self.decode(data)
        header, _, _, _, attribute_payload = unpack_container(data)
        return cloud, decode_attributes(attribute_payload, version=header.version)
