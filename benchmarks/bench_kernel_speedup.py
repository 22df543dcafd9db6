"""Perf-regression smoke: vectorized kernels vs their pure-Python oracles.

The PR 5 tentpole rewrote the sparse-pipeline hot loops (polyline
organization, radial reference coding, plain radial deltas) as batched
numpy kernels that must stay byte-identical to the original loop
implementations (kept as ``*_py`` oracles).  This bench asserts the two
properties CI cares about:

- identical outputs, and
- the vectorized kernels actually pay for themselves: >= 2x over the
  oracles on a real organized scene.

One more row compresses a frame and records its payload size, which
``benchmarks/compare.py`` checks exactly against the committed baseline.

Two more rows time the fused arithmetic-coder loops against the
class-API loops they replaced (``tests/oracles/``): the dense-delta
occupancy-bit decoder, gated at >= 2x, and the int-sequence decoder,
whose ratio is recorded without a gate.

Timing loops are interleaved (fast/oracle alternating, min-of-N) so
CPU-frequency drift cancels instead of biasing one side.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.common import bench_sensor, frame, record_bench
from repro.core.container import unpack_container
from repro.core.params import DBGCParams
from repro.core.pipeline import DBGCCompressor
from repro.core.temporal import (
    _DENSE_HEADER,
    MODE_DELTA,
    TemporalContext,
    TemporalDecoder,
    _decode_occupancy,
    _fresh_models,
    _pred_maps,
)
from repro.datasets import SensorModel, generate_frame
from repro.datasets.trajectories import generate_sequence, straight
from repro.entropy.arithmetic import decode_int_sequence, encode_int_sequence
from repro.entropy.varint import decode_uvarint
from repro.core.polyline import organize_polylines
from repro.core.reference import (
    decode_radial,
    decode_radial_plain,
    encode_radial,
    encode_radial_plain,
)
from repro.geometry.spherical import (
    cartesian_to_spherical,
    spherical_error_bounds,
)
from tests.oracles import arithmetic as arithmetic_oracle
from tests.oracles import occupancy as occupancy_oracle
from tests.oracles.polyline import organize_polylines_py
from tests.oracles.reference import (
    decode_radial_plain_py,
    decode_radial_py,
    encode_radial_plain_py,
    encode_radial_py,
)

#: Required advantage of the vectorized kernels over the ``*_py`` oracles.
MIN_SPEEDUP = 2.0

_ROUNDS = 3


def _interleaved_best(fast, oracle):
    """(fast_best_s, oracle_best_s, fast_result, oracle_result)."""
    fast_best = oracle_best = float("inf")
    fast_result = oracle_result = None
    for _ in range(_ROUNDS):
        start = time.perf_counter()
        fast_result = fast()
        fast_best = min(fast_best, time.perf_counter() - start)
        start = time.perf_counter()
        oracle_result = oracle()
        oracle_best = min(oracle_best, time.perf_counter() - start)
    return fast_best, oracle_best, fast_result, oracle_result


def _sparse_group(scene: str = "kitti-city"):
    """The sparse-point input of the scene, as the encoder sees it.

    Always generated at the sensor's full benchmark resolution, whatever
    ``DBGC_BENCH_SENSOR_SCALE`` says: the vectorized kernels amortize
    per-call numpy overhead over realistic point counts, so a toy frame
    would measure overhead, not the kernels.
    """
    sensor = SensorModel.benchmark_default()
    cloud = generate_frame(scene, 0, sensor=sensor)
    params = DBGCParams()
    compressor = DBGCCompressor(params, sensor=sensor)
    dense_mask = compressor._classify(cloud.xyz)
    xyz = cloud.xyz[~dense_mask]
    tpr = cartesian_to_spherical(xyz)
    return (
        tpr[:, 0],
        tpr[:, 1],
        tpr[:, 2],
        xyz,
        params,
        compressor.u_theta,
        compressor.u_phi,
    )


def test_organize_polylines_speedup():
    theta, phi, _r, xyz, _params, u_theta, u_phi = _sparse_group()
    fast_s, py_s, fast_lines, py_lines = _interleaved_best(
        lambda: organize_polylines(theta, phi, xyz, u_theta, u_phi),
        lambda: organize_polylines_py(theta, phi, xyz, u_theta, u_phi),
    )
    assert len(fast_lines) == len(py_lines)
    for a, b in zip(fast_lines, py_lines):
        assert np.array_equal(a, b)
    speedup = py_s / fast_s
    record_bench(
        "kernels",
        wall_times_s={"organize.fast": fast_s, "organize.py": py_s},
        point_counts={"organize.points": len(xyz)},
    )
    assert speedup >= MIN_SPEEDUP, (
        f"organize_polylines only {speedup:.2f}x over the oracle "
        f"(needs >= {MIN_SPEEDUP}x on {len(xyz)} points)"
    )


def _radial_inputs():
    """Quantized sorted polylines, exactly as encode_sparse_group builds them."""
    theta, phi, radius, xyz, params, u_theta, u_phi = _sparse_group()
    lines = [
        line
        for line in organize_polylines(theta, phi, xyz, u_theta, u_phi)
        if len(line) >= 2
    ]
    r_max = max(float(max(radius[line].max() for line in lines)), 1e-9)
    q_theta, q_phi, q_r = spherical_error_bounds(params.q_xyz, r_max)
    d1_all = np.round(theta / (2.0 * q_theta)).astype(np.int64)
    d2_all = np.round(phi / (2.0 * q_phi)).astype(np.int64)
    d3_all = np.round(radius / (2.0 * q_r)).astype(np.int64)
    lines.sort(key=lambda line: (int(d2_all[line[0]]), int(d1_all[line[0]])))
    lines_d1 = [d1_all[line] for line in lines]
    lines_d3 = [d3_all[line] for line in lines]
    line_phis = [int(d2_all[line[0]]) for line in lines]
    th_phi_q = max(int(round(2.0 * u_phi / (2.0 * q_phi))), 0)
    th_r_q = max(int(round(params.th_r / (2.0 * q_r))), 1)
    return lines_d1, lines_d3, line_phis, th_phi_q, th_r_q


def test_radial_coding_speedup():
    lines_d1, lines_d3, line_phis, th_phi_q, th_r_q = _radial_inputs()

    enc_fast_s, enc_py_s, fast_enc, py_enc = _interleaved_best(
        lambda: encode_radial(lines_d1, lines_d3, line_phis, th_phi_q, th_r_q),
        lambda: encode_radial_py(lines_d1, lines_d3, line_phis, th_phi_q, th_r_q),
    )
    nabla, symbols = fast_enc
    assert np.array_equal(nabla, py_enc[0]) and list(symbols) == list(py_enc[1])

    symbols_arr = np.asarray(symbols, dtype=np.int64)
    dec_fast_s, dec_py_s, fast_dec, py_dec = _interleaved_best(
        lambda: decode_radial(
            lines_d1, line_phis, nabla, symbols_arr, th_phi_q, th_r_q
        ),
        lambda: decode_radial_py(
            lines_d1, line_phis, nabla, symbols_arr, th_phi_q, th_r_q
        ),
    )
    for a, b, original in zip(fast_dec, py_dec, lines_d3):
        assert np.array_equal(a, b) and np.array_equal(a, original)

    record_bench(
        "kernels",
        wall_times_s={
            "radial_encode.fast": enc_fast_s,
            "radial_encode.py": enc_py_s,
            "radial_decode.fast": dec_fast_s,
            "radial_decode.py": dec_py_s,
        },
    )
    enc_speedup = enc_py_s / enc_fast_s
    dec_speedup = dec_py_s / dec_fast_s
    assert enc_speedup >= MIN_SPEEDUP, f"encode_radial only {enc_speedup:.2f}x"
    assert dec_speedup >= MIN_SPEEDUP, f"decode_radial only {dec_speedup:.2f}x"


def test_radial_plain_round_trip_matches_oracle():
    _lines_d1, lines_d3, _phis, _thp, _thr = _radial_inputs()
    nabla = encode_radial_plain(lines_d3)
    assert np.array_equal(nabla, encode_radial_plain_py(lines_d3))
    lengths = [len(line) for line in lines_d3]
    decoded = decode_radial_plain(nabla, lengths)
    decoded_py = decode_radial_plain_py(nabla, lengths)
    for a, b, original in zip(decoded, decoded_py, lines_d3):
        assert np.array_equal(a, b) and np.array_equal(a, original)


def test_payload_size():
    """Record the default payload size of one frame (an exact-size row)."""
    cloud = frame("kitti-city")
    payload = DBGCCompressor(DBGCParams(), sensor=bench_sensor()).compress(cloud)
    record_bench(
        "kernels",
        wall_times_s={},
        sizes_bytes={"payload.q0.02": len(payload)},
        point_counts={"frame.points": len(cloud)},
    )


def _delta_occupancy():
    """The dense delta section of a real frame, as the decoder sees it.

    ``(occupancy payload, predictor maps, depth, point count)`` of the
    first delta frame of a straight kitti-road drive, at the sensor's
    full benchmark resolution (like :func:`_sparse_group`).
    """
    sensor = SensorModel.benchmark_default()
    trajectory = straight(2)
    frames = generate_sequence("kitti-road", trajectory, sensor=sensor, seed=3)
    compressor = DBGCCompressor(DBGCParams(temporal=True), sensor=sensor)
    context = TemporalContext()
    payloads = []
    for i, cloud in enumerate(frames):
        prev, cur = trajectory[max(0, i - 1)], trajectory[i]
        ego = (cur[0] - prev[0], cur[1] - prev[1], 0.0)
        payloads.append(compressor.compress_temporal(cloud, context, ego).payload)
    decoder = TemporalDecoder()
    decoder.decode(payloads[0])
    header, dense, _, _, _ = unpack_container(payloads[1])
    assert dense[0] == MODE_DELTA
    body = dense[1:]
    n_points, pos = decode_uvarint(body, 0)
    ox, oy, oz, leaf = _DENSE_HEADER.unpack_from(body, pos)
    depth, pos = decode_uvarint(body, pos + _DENSE_HEADER.size)
    occ_len, pos = decode_uvarint(body, pos)
    maps = _pred_maps(
        decoder.context.prev_cloud, np.array([ox, oy, oz]), leaf, depth, header.ego_delta
    )
    return body[pos : pos + occ_len], maps, depth, n_points


def test_fused_coder_speedup():
    payload, maps, depth, n_points = _delta_occupancy()
    occ_fast_s, occ_oracle_s, fast_leaves, oracle_leaves = _interleaved_best(
        lambda: _decode_occupancy(payload, maps, depth, _fresh_models(), n_points),
        lambda: occupancy_oracle._decode_occupancy(payload, maps, depth, {}, n_points),
    )
    assert np.array_equal(fast_leaves, oracle_leaves)

    lines_d1, lines_d3, line_phis, th_phi_q, th_r_q = _radial_inputs()
    nabla, _symbols = encode_radial(lines_d1, lines_d3, line_phis, th_phi_q, th_r_q)
    ints = encode_int_sequence(nabla)
    int_fast_s, int_oracle_s, fast_ints, oracle_ints = _interleaved_best(
        lambda: decode_int_sequence(ints),
        lambda: arithmetic_oracle.decode_int_sequence(ints),
    )
    assert np.array_equal(fast_ints, nabla) and np.array_equal(oracle_ints, nabla)

    record_bench(
        "kernels",
        wall_times_s={
            "occupancy_decode.fused": occ_fast_s,
            "occupancy_decode.oracle": occ_oracle_s,
            "int_sequence_decode.fused": int_fast_s,
            "int_sequence_decode.oracle": int_oracle_s,
        },
        sizes_bytes={"occupancy_delta": len(payload), "int_sequence.nabla": len(ints)},
        point_counts={"occupancy_delta.leaves": len(fast_leaves)},
    )
    speedup = occ_oracle_s / occ_fast_s
    assert speedup >= MIN_SPEEDUP, (
        f"fused occupancy-bit decoder only {speedup:.2f}x over the oracle "
        f"(needs >= {MIN_SPEEDUP}x on {len(fast_leaves)} leaves)"
    )
