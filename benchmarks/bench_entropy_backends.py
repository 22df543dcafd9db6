"""Ablation: entropy back-ends on DBGC's actual coordinate streams.

The paper chooses Deflate for the azimuthal streams (Step 6) and arithmetic
coding for the polar/radial streams (Steps 7/8).  This bench re-codes the
real delta streams of one frame with every back-end we implement —
adaptive arithmetic, our Deflate, canonical Huffman, Rice, bit packing,
Sprintz-style prediction, and the vectorized rANS coder — quantifying
the codec choices, and checks the rANS contract on the hot streams: at
least 2x faster than adaptive arithmetic at a size within 2%.
"""

import time

import numpy as np

from benchmarks.ablation_codecs.bitpacking import bitpack_encode
from benchmarks.ablation_codecs.golomb import rice_encode
from benchmarks.ablation_codecs.predictive import sprintz_encode
from benchmarks.ablation_codecs.rans import (
    rans_decode_ints,
    rans_decode_symbols,
    rans_encode_ints,
    rans_encode_symbols,
)
from benchmarks.common import frame, write_result
from repro.core import DBGCParams
from repro.core.clustering import cluster_approx
from repro.core.grouping import split_into_groups
from repro.core.polyline import organize_polylines
from repro.datasets import SensorModel
from repro.entropy.arithmetic import (
    arithmetic_decode,
    arithmetic_encode,
    decode_int_sequence,
    encode_int_sequence,
)
from repro.entropy.deflate import deflate_compress
from repro.entropy.huffman import huffman_compress
from repro.entropy.varint import encode_varints
from repro.eval import render_table
from repro.geometry.spherical import cartesian_to_spherical, spherical_error_bounds
from repro.octree import build_octree_structure, quantize

BACKENDS = {
    "arithmetic": encode_int_sequence,
    "deflate": lambda v: deflate_compress(encode_varints(v)),
    "huffman": lambda v: huffman_compress(encode_varints(v)),
    "rice": rice_encode,
    "bitpack": bitpack_encode,
    "sprintz": sprintz_encode,
    "rans": rans_encode_ints,
}


def _main_group_streams():
    """The within-line delta streams of the biggest radial group."""
    params = DBGCParams()
    sensor = SensorModel.benchmark_default()
    cloud = frame("kitti-city")
    min_pts = params.min_pts_for_sensor(sensor.u_theta, sensor.u_phi)
    sparse = cloud.xyz[~cluster_approx(cloud.xyz, params.eps, min_pts)]
    groups = split_into_groups(np.linalg.norm(sparse, axis=1), 3)
    biggest = max(groups, key=len)
    xyz = sparse[biggest]
    tpr = cartesian_to_spherical(xyz)
    lines = [
        l
        for l in organize_polylines(
            tpr[:, 0], tpr[:, 1], xyz, sensor.u_theta, sensor.u_phi
        )
        if len(l) >= 2
    ]
    r_max = max(float(tpr[l, 2].max()) for l in lines)
    q_theta, q_phi, q_r = spherical_error_bounds(params.q_xyz, r_max)
    tq = np.round(tpr[:, 0] / (2 * q_theta)).astype(np.int64)
    pq = np.round(tpr[:, 1] / (2 * q_phi)).astype(np.int64)
    rq = np.round(tpr[:, 2] / (2 * q_r)).astype(np.int64)
    return {
        "d_theta": np.concatenate([np.diff(tq[l]) for l in lines]),
        "d_phi": np.concatenate([np.diff(pq[l]) for l in lines]),
        "d_r": np.concatenate([np.diff(rq[l]) for l in lines]),
    }


def test_entropy_backend_ablation(benchmark):
    streams = _main_group_streams()
    rows = []
    winners = {}
    for name, values in streams.items():
        row = [name]
        sizes = {}
        for backend, encode in BACKENDS.items():
            size = len(encode(values))
            sizes[backend] = size
            row.append(8.0 * size / len(values))
        winners[name] = min(sizes, key=sizes.get)
        rows.append(row)
    text = render_table(
        ["stream"] + list(BACKENDS),
        rows,
        title="Entropy back-ends on DBGC delta streams (bits/point, kitti-city)",
    )
    text += "\nwinners: " + ", ".join(f"{k}: {v}" for k, v in winners.items())
    text += (
        "\n(the codec picks the better of deflate/arithmetic per stream; "
        "this ablation justifies that choice)"
    )
    write_result("ablation_entropy_backends", text)
    # The shipped choice (best of arithmetic/deflate) must win or tie
    # everywhere up to Rice's occasional sliver on near-geometric data.
    for name, values in streams.items():
        shipped = min(
            len(BACKENDS["arithmetic"](values)), len(BACKENDS["deflate"](values))
        )
        best = min(len(encode(values)) for encode in BACKENDS.values())
        assert shipped <= best * 1.15
    benchmark.pedantic(
        BACKENDS["arithmetic"], args=(streams["d_r"],), rounds=1, iterations=1
    )


def _best_of(fn, repeats=3):
    """(result, best wall-clock seconds) — min-of-N suppresses runner noise."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_rans_vs_adaptive_hot_streams(benchmark):
    """The rANS acceptance contract on the two hottest streams.

    Occupancy (the full-cloud octree byte stream) and Δφ dominate the
    entropy-coding wall-clock; the vectorized coder must be at least 2x
    faster end-to-end (encode + decode) while staying within 2% of the
    adaptive coder's size.
    """
    cloud = frame("kitti-city")
    codes, _, depth = quantize(cloud.xyz, DBGCParams().q_xyz)
    occupancy = build_octree_structure(codes, depth).occupancy_stream().astype(
        np.int64
    )
    d_phi = _main_group_streams()["d_phi"]

    # (encode, decode) per coder, for a symbol stream and an int stream.
    adaptive = {
        "occupancy": (
            lambda: arithmetic_encode(occupancy, 256),
            lambda data: arithmetic_decode(data, occupancy.size, 256),
        ),
        "d_phi": (lambda: encode_int_sequence(d_phi), decode_int_sequence),
    }
    rans = {
        "occupancy": (
            lambda: rans_encode_symbols(occupancy, 256),
            lambda data: rans_decode_symbols(data, occupancy.size, 256),
        ),
        "d_phi": (lambda: rans_encode_ints(d_phi), rans_decode_ints),
    }
    rows = []
    for name, reference in (("occupancy", occupancy), ("d_phi", d_phi)):
        (enc_a, dec_a), (enc_r, dec_r) = adaptive[name], rans[name]
        decoded_a, t_adaptive = _best_of(lambda: dec_a(enc_a()))
        decoded_r, t_rans = _best_of(lambda: dec_r(enc_r()))
        assert np.array_equal(decoded_a, reference)
        assert np.array_equal(decoded_r, reference)
        size_a = len(enc_a())
        size_r = len(enc_r())
        speedup = t_adaptive / t_rans
        ratio = size_r / size_a
        rows.append(
            [name, size_a, size_r, f"{ratio:.3f}", f"{speedup:.1f}x"]
        )
        assert speedup >= 2.0, f"{name}: rANS only {speedup:.2f}x faster"
        assert ratio <= 1.02, f"{name}: rANS {ratio:.3f}x the adaptive size"
    write_result(
        "rans_vs_adaptive",
        render_table(
            ["stream", "adaptive B", "rans B", "size ratio", "speedup"],
            rows,
            title="rANS vs adaptive arithmetic, encode+decode (kitti-city)",
        ),
    )
    encode_occupancy, decode_occupancy = rans["occupancy"]
    benchmark.pedantic(
        lambda: decode_occupancy(encode_occupancy()), rounds=1, iterations=1
    )
