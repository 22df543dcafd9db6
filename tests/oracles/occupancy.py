"""The tuple-keyed dense-delta occupancy-bit coder (format v3 reference).

The first implementation of the v3 occupancy-bit coder: one
:class:`~tests.oracles.arithmetic.AdaptiveModel` per 7-tuple context in a
dict, coded through the bit-at-a-time
:class:`~tests.oracles.arithmetic.ArithmeticEncoder` and
:class:`~tests.oracles.arithmetic.ArithmeticDecoder`.  The fused
loops in :mod:`repro.core.temporal` must produce the same bytes and the
same trees; ``tests/test_entropy_fused.py`` and
``benchmarks/bench_kernel_speedup.py`` compare them.
"""

from __future__ import annotations

import numpy as np

from repro.core.temporal import _OCC_INCREMENT, _predict_level
from repro.octree.octree import OctreeStructure, expand_occupancy_level
from tests.oracles.arithmetic import (
    AdaptiveModel,
    ArithmeticDecoder,
    ArithmeticEncoder,
)


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
    tree: OctreeStructure,
    pred_maps: list[list[tuple[np.ndarray, np.ndarray]]],
    models: dict[tuple, AdaptiveModel],
) -> bytes:
    """Context-code the tree's occupancy, level by level; mutates
    ``models`` (pass a clone for a trial encode and commit it only if delta
    mode is chosen)."""
    encoder = ArithmeticEncoder()
    for level, (nodes, level_occ) in enumerate(zip(tree.node_codes, tree.occupancy)):
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
        nodes = expand_occupancy_level(nodes, level_occ, max_nodes)
    return nodes
