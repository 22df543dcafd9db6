"""Ablation: entropy back-ends on DBGC's actual coordinate streams.

The paper chooses Deflate for the azimuthal streams (Step 6) and arithmetic
coding for the polar/radial streams (Steps 7/8).  This bench re-codes the
real delta streams of one frame with every back-end we implement —
adaptive arithmetic, our Deflate, canonical Huffman, Rice, bit packing,
Sprintz-style prediction, and the vectorized rANS coder — quantifying
the codec choices, and times rANS against adaptive arithmetic on the hot
streams: sizes within 2%, at least 2x faster end to end on occupancy,
and a faster decode on the Δφ int stream.
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


def _best_of(fn, repeats=5):
    """(result, best wall-clock seconds) — min-of-N suppresses runner noise."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_rans_vs_adaptive_hot_streams(benchmark):
    """What the rANS ablation still shows on the two hottest streams.

    Occupancy (the full-cloud octree byte stream) and Δφ dominate the
    entropy-coding wall-clock.  Both coders must round-trip, and rANS must
    stay within 2% of the adaptive coder's size.  On occupancy it must be
    at least 2x faster end to end (encode + decode).  On the Δφ int stream
    it must decode faster; its encode ratio is printed, not gated, because
    the fused adaptive coder encodes that short stream about as fast.
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
    speedups = {}
    for name, reference in (("occupancy", occupancy), ("d_phi", d_phi)):
        times = {}
        sizes = {}
        for coder, (encode, decode) in (("adaptive", adaptive[name]), ("rans", rans[name])):
            data, t_encode = _best_of(encode)
            decoded, t_decode = _best_of(lambda: decode(data))
            assert np.array_equal(decoded, reference), f"{name}: {coder} round trip"
            times[coder] = (t_encode, t_decode)
            sizes[coder] = len(data)
        (enc_a, dec_a), (enc_r, dec_r) = times["adaptive"], times["rans"]
        speedups[name] = (enc_a / enc_r, dec_a / dec_r, (enc_a + dec_a) / (enc_r + dec_r))
        ratio = sizes["rans"] / sizes["adaptive"]
        rows.append(
            [name, sizes["adaptive"], sizes["rans"], f"{ratio:.3f}"]
            + [f"{x:.2f}x" for x in speedups[name]]
        )
        assert ratio <= 1.02, f"{name}: rANS {ratio:.3f}x the adaptive size"
    write_result(
        "rans_vs_adaptive",
        render_table(
            ["stream", "adaptive B", "rans B", "size ratio", "encode", "decode", "total"],
            rows,
            title="rANS speedup over adaptive arithmetic, best of 5 (kitti-city)",
        ),
    )
    encode_x, decode_x, _ = speedups["d_phi"]
    print(f"d_phi: rANS encodes at {encode_x:.2f}x, decodes at {decode_x:.2f}x")
    total_x = speedups["occupancy"][2]
    assert total_x >= 2.0, f"occupancy: rANS only {total_x:.2f}x faster"
    assert decode_x > 1.0, f"d_phi: rANS decodes at only {decode_x:.2f}x"
    encode_occupancy, decode_occupancy = rans["occupancy"]
    benchmark.pedantic(
        lambda: decode_occupancy(encode_occupancy()), rounds=1, iterations=1
    )
