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
    AdaptiveModel,
    ArithmeticDecoder,
    ArithmeticEncoder,
)
from repro.entropy.backend import decode_tagged_ints, encode_tagged_ints
from repro.entropy.varint import decode_uvarint, encode_uvarint
from repro.geometry.points import PointCloud
from repro.octree.morton import MAX_DEPTH_3D, deinterleave3, interleave3
from repro.octree.octree import build_octree_structure, expand_occupancy_level

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
#: Same ``(origin, leaf_side)`` header as the intra octree payload.
_DENSE_HEADER = struct.Struct("<4d")


# -- predictor state ---------------------------------------------------------------


class TemporalContext:
    """Predictor state advanced in lockstep by encoder and decoder.

    Holds the previous frame's *decoded* geometry (so both sides agree
    bit-for-bit), the dense grid origin the chain is snapped to, and the
    persistent occupancy-bit models.  ``reset()`` / keyframes clear the
    entropy models; the cloud itself is replaced every frame.
    """

    def __init__(self) -> None:
        self.frames_coded = 0
        self.prev_cloud: np.ndarray | None = None
        self.prev_sparse: np.ndarray | None = None
        self.prev_dense_origin: np.ndarray | None = None
        self.occ_models: dict[tuple, AdaptiveModel] = {}
        self._fingerprint: int | None = None

    @property
    def has_state(self) -> bool:
        return self.prev_cloud is not None

    def reset(self) -> None:
        self.frames_coded = 0
        self.prev_cloud = None
        self.prev_sparse = None
        self.prev_dense_origin = None
        self.occ_models = {}
        self._fingerprint = None

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
    ) -> None:
        """Record one decoded frame as the predictor for the next."""
        if keyframe:
            self.occ_models = {}
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


def _clone_models(models: dict[tuple, AdaptiveModel]) -> dict[tuple, AdaptiveModel]:
    """Deep-copy the adaptive models so a *trial* encode can be discarded."""
    clone: dict[tuple, AdaptiveModel] = {}
    for key, model in models.items():
        fresh = AdaptiveModel(
            model.num_symbols, increment=model.increment, max_total=model.max_total
        )
        fresh._freq = list(model._freq)
        fresh.total = model.total
        fresh._tree = list(model._tree)
        clone[key] = fresh
    return clone


# -- dense (octree occupancy) delta coding ----------------------------------------


def _level_maps(codes: np.ndarray, depth: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-level ``(sorted node codes, occupancy bytes)`` of a predictor set."""
    maps = []
    child = np.unique(codes)
    for _ in range(depth):
        parents, inverse = np.unique(child >> 3, return_inverse=True)
        occ = np.zeros(len(parents), dtype=np.int64)
        np.bitwise_or.at(occ, inverse, np.int64(1) << (child & 7))
        maps.append((parents, occ))
        child = parents
    maps.reverse()
    return maps


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
    cells = np.floor((points - origin) / leaf_side).astype(np.int64)
    inside = np.all((cells >= 0) & (cells < (1 << depth)), axis=1)
    cells = cells[inside]
    return interleave3(cells[:, 0], cells[:, 1], cells[:, 2])


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
    return [
        _level_maps(_grid_codes(points, origin, leaf_side, depth), depth)
        for points in _predictor_points(prev_cloud, leaf_side, ego_delta)
    ]


def _bit_context(level: int, e: int, d: int, m: int, b: int, decoded: int, dpop: int):
    return (
        level,
        (e >> b) & 1,
        (d >> b) & 1,
        (m >> b) & 1,
        b,
        min(bin(decoded).count("1"), 2),
        dpop,
    )


def _code_occupancy(
    occ: np.ndarray,
    pred_maps: list[list[tuple[np.ndarray, np.ndarray]]],
    depth: int,
    models: dict[tuple, AdaptiveModel],
) -> bytes:
    """Context-code the occupancy stream; mutates ``models`` (pass a clone
    for a trial encode and commit it only if delta mode is chosen)."""
    encoder = ArithmeticEncoder()
    nodes = np.zeros(1, dtype=np.int64)
    offset = 0
    for level in range(depth):
        n = len(nodes)
        level_occ = occ[offset : offset + n]
        preds = [_predict_level(nodes, maps[level]) for maps in pred_maps]
        level_bounded = min(level, 6)
        pe, pd, pm = (p.tolist() for p in preds)
        for i, byte in enumerate(level_occ.tolist()):
            e, d, m = pe[i], pd[i], pm[i]
            dpop = min(bin(d).count("1"), 3)
            decoded = 0
            for b in range(8):
                bit = (byte >> b) & 1
                ctx = _bit_context(level_bounded, e, d, m, b, decoded, dpop)
                model = models.get(ctx)
                if model is None:
                    model = AdaptiveModel(2, increment=_OCC_INCREMENT)
                    models[ctx] = model
                cum_low, cum_high = model.cum_range(bit)
                encoder.encode(cum_low, cum_high, model.total)
                model.update(bit)
                decoded |= bit << b
        nodes = expand_occupancy_level(nodes, level_occ.astype(np.uint8))
        offset += n
    return encoder.finish()


def _decode_occupancy(
    payload: bytes,
    pred_maps: list[list[tuple[np.ndarray, np.ndarray]]],
    depth: int,
    models: dict[tuple, AdaptiveModel],
    max_nodes: int,
) -> np.ndarray:
    """Mirror of :func:`_code_occupancy`; returns the leaf Morton codes.

    No level of a valid tree holds more nodes than there are points, so a
    level past ``max_nodes`` is corruption; stopping there keeps a bad
    payload from growing the tree eightfold per level.
    """
    decoder = ArithmeticDecoder(payload)
    nodes = np.zeros(1, dtype=np.int64)
    for level in range(depth):
        n = len(nodes)
        preds = [_predict_level(nodes, maps[level]) for maps in pred_maps]
        level_bounded = min(level, 6)
        pe, pd, pm = (p.tolist() for p in preds)
        level_occ = np.empty(n, dtype=np.uint8)
        for i in range(n):
            e, d, m = pe[i], pd[i], pm[i]
            dpop = min(bin(d).count("1"), 3)
            decoded = 0
            for b in range(8):
                ctx = _bit_context(level_bounded, e, d, m, b, decoded, dpop)
                model = models.get(ctx)
                if model is None:
                    model = AdaptiveModel(2, increment=_OCC_INCREMENT)
                    models[ctx] = model
                bit = decoder.decode_symbol(model)
                decoded |= bit << b
            level_occ[i] = decoded
        nodes = expand_occupancy_level(nodes, level_occ)
        if len(nodes) > max_nodes:
            raise ValueError("dense delta tree has more nodes than points")
    return nodes


def _leaf_points(
    leaf_codes: np.ndarray, counts: np.ndarray, origin: np.ndarray, leaf_side: float
) -> np.ndarray:
    """Leaf-center reconstruction (shared so both sides agree bitwise)."""
    ix, iy, iz = deinterleave3(leaf_codes)
    centers = np.column_stack(
        [
            origin[0] + (ix + 0.5) * leaf_side,
            origin[1] + (iy + 0.5) * leaf_side,
            origin[2] + (iz + 0.5) * leaf_side,
        ]
    )
    return np.repeat(centers, counts, axis=0)


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
    cells = np.floor((xyz - origin) / leaf).astype(np.int64)
    np.clip(cells, 0, (1 << depth) - 1, out=cells)
    codes = interleave3(cells[:, 0], cells[:, 1], cells[:, 2])
    structure = build_octree_structure(codes, depth)
    occ = structure.occupancy_stream().astype(np.int64)
    maps = _pred_maps(context.prev_cloud, origin, leaf, depth, ego_delta)
    models = _clone_models(context.occ_models)
    occ_payload = _code_occupancy(occ, maps, depth, models)
    out = bytearray()
    encode_uvarint(len(xyz), out)
    out += _DENSE_HEADER.pack(origin[0], origin[1], origin[2], leaf)
    encode_uvarint(depth, out)
    encode_uvarint(len(occ_payload), out)
    out += occ_payload
    out += encode_tagged_ints(structure.leaf_counts - 1, params.entropy_backend)
    if len(out) >= intra_size:
        return None
    context.occ_models = models
    order = np.argsort(codes, kind="stable")
    mapping = np.empty(len(codes), dtype=np.int64)
    mapping[order] = np.arange(len(codes))
    points = _leaf_points(structure.leaf_codes, structure.leaf_counts, origin, leaf)
    return bytes(out), mapping, points, origin


def _decode_dense_delta(
    data: bytes, context: TemporalContext, ego_delta
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverse of :func:`_encode_dense_delta`; returns ``(points, origin)``.

    Commits the occupancy-model updates into ``context.occ_models``.
    """
    n_points, pos = decode_uvarint(data, 0)
    if n_points == 0:
        return np.empty((0, 3), dtype=np.float64), None
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
    leaf_codes = _decode_occupancy(
        occ_payload, maps, depth, context.occ_models, n_points
    )
    counts = decode_tagged_ints(data[pos:]) + 1
    if counts.size != leaf_codes.size:
        raise ValueError("leaf count stream does not match occupancy tree")
    if counts.sum() != n_points:
        raise ValueError("leaf counts do not add up to the point count")
    return _leaf_points(leaf_codes, counts, origin, leaf), origin


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
