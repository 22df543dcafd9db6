"""Command-line interface: ``dbgc``.

Subcommands:

- ``compress``   — point cloud file (.bin/.ply/.npz) -> .dbgc stream
- ``decompress`` — .dbgc stream -> point cloud file
- ``info``       — inspect a .dbgc stream's header and layout
- ``simulate``   — generate a synthetic frame into a point cloud file
- ``sequence``   — compress a simulated drive into a .dbgcs frame stream
- ``dataset``    — create/inspect a KITTI-layout archive of frames
- ``verify``     — validate a .dbgc stream (optionally against the original)
- ``reproduce``  — re-run one of the paper's tables/figures
- ``bench``      — quick ratio comparison of all methods on one frame
- ``stream``     — run the client/server pipeline over a (faulty) uplink
- ``serve``      — run a standalone multi-client ingest server
- ``fleet``      — drive N concurrent clients against one server (loadgen)
- ``scrub``      — audit (and repair) replica CRCs of an on-disk store

All commands run offline; see ``dbgc <command> --help`` for options.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from pathlib import Path

from repro.core.container import unpack_container
from repro.core.params import DBGCParams
from repro.core.pipeline import DBGCCompressor, DBGCDecompressor
from repro.datasets.frames import SCENE_BUILDERS, generate_frame
from repro.datasets.io import (
    load_kitti_bin,
    load_npz,
    load_ply,
    save_kitti_bin,
    save_npz,
    save_ply,
)
from repro.datasets.sensors import SensorModel
from repro.geometry.points import PointCloud

__all__ = ["main"]


def _load_cloud(path: Path) -> PointCloud:
    suffix = path.suffix.lower()
    if suffix == ".bin":
        cloud, _ = load_kitti_bin(path)
        return cloud
    if suffix == ".ply":
        return load_ply(path)
    if suffix == ".npz":
        return load_npz(path)
    raise SystemExit(f"unsupported point cloud format {suffix!r} (use .bin/.ply/.npz)")


def _save_cloud(cloud: PointCloud, path: Path) -> None:
    suffix = path.suffix.lower()
    if suffix == ".bin":
        save_kitti_bin(cloud, path)
    elif suffix == ".ply":
        save_ply(cloud, path)
    elif suffix == ".npz":
        save_npz(cloud, path)
    else:
        raise SystemExit(f"unsupported output format {suffix!r} (use .bin/.ply/.npz)")


def _sensor_from_args(args: argparse.Namespace) -> SensorModel:
    sensor = SensorModel.velodyne_hdl64e()
    if args.sensor_scale != 1.0:
        sensor = sensor.scaled(args.sensor_scale)
    return sensor


def _frame_list(text: str) -> frozenset[int]:
    """``--disconnect-frames``: comma-separated frame numbers."""
    return frozenset(int(i) for i in text.split(",") if i.strip())


#: Flags more than one subcommand declares: argparse keywords by name.
_FLAGS: dict[str, dict] = {
    "--sensor-scale": dict(
        type=float, default=0.5,
        help="angular resolution scale of the HDL-64E model (default %(default)s)",
    ),
    # Fault injection and client transport (stream, fleet).
    "--corrupt-rate": dict(
        type=float, default=0.0, help="per-attempt probability of payload bit flips",
    ),
    "--ack-drop-rate": dict(
        type=float, default=0.0,
        help="probability a server ACK is lost (exercises dedupe)",
    ),
    "--disconnect-frames": dict(
        type=_frame_list, default="",
        help="comma-separated frame numbers whose first send is cut "
        "mid-record (on every client of a fleet)",
    ),
    "--bandwidth": dict(
        type=float, default=0.0,
        help="uplink bandwidth per client in Mbps; 0 disables pacing "
        "(default %(default)s)",
    ),
    "--ack-timeout": dict(
        type=float, default=2.0,
        help="seconds to wait for a server ACK before retransmitting",
    ),
    "--window": dict(
        type=int, default=1,
        help="sliding-window size: unACKed frames in flight per stream "
        "(protocol v2.2 selective repeat; 1 = stop-and-wait)",
    ),
    # The server (stream, serve, fleet).
    "--mode": dict(
        default="store", choices=["decompress", "store"],
        help="server behavior: decompress clouds or store raw payloads",
    ),
    "--shards": dict(
        type=int, default=1, help="SQLite store shards (frame_index %% shards routing)",
    ),
    "--max-clients": dict(
        type=int, default=8,
        help="concurrent connection-handler cap (fleet default: the client count)",
    ),
    "--replication": dict(
        type=int, default=1, help="store each frame on N shards (needs --shards > 1)",
    ),
    "--receipt-journal": dict(
        default="", metavar="PATH",
        help="durable receipt journal: a server restarted over it answers "
        "retransmissions of already-stored frames with DUPLICATE",
    ),
    "--decode-workers": dict(
        type=int, default=0, metavar="N",
        help="decode offload tier: decoder worker processes, each keyframe "
        "chain on one (needs --mode decompress; 0 = decode inline)",
    ),
}


def _add_flags(parser: argparse.ArgumentParser, *names: str, **defaults) -> None:
    """Declare the shared flags ``names``; ``defaults`` overrides by dest."""
    for name in names:
        kwargs = dict(_FLAGS[name])
        kwargs["default"] = defaults.pop(name[2:].replace("-", "_"), kwargs["default"])
        parser.add_argument(name, **kwargs)
    if defaults:
        raise TypeError(f"defaults for undeclared flags: {sorted(defaults)}")


def _emit_metrics(recorder, dest: str) -> None:
    """Write the observability report as JSON; ``-`` prints to stdout."""
    from repro import observability as obs

    text = obs.to_json(recorder)
    if dest == "-":
        print(text)
    else:
        Path(dest).write_text(text + "\n")
        print(f"metrics report -> {dest}")
        print(obs.ascii_breakdown(recorder))


def _cmd_compress(args: argparse.Namespace) -> int:
    from repro import observability as obs

    cloud = _load_cloud(Path(args.input))
    params = DBGCParams(q_xyz=args.q, strict_cartesian=args.strict)
    compressor = DBGCCompressor(params, sensor=_sensor_from_args(args))
    start = time.perf_counter()
    metrics_ctx = obs.recording() if args.metrics else contextlib.nullcontext()
    with metrics_ctx as recorder:
        result = compressor.compress_detailed(cloud)
    elapsed = time.perf_counter() - start
    Path(args.output).write_bytes(result.payload)
    print(
        f"{args.input}: {len(cloud)} points -> {result.size} bytes "
        f"({result.compression_ratio():.1f}x) in {elapsed:.2f}s"
    )
    print(
        f"  dense {result.n_dense} / sparse {result.n_sparse} / "
        f"outliers {result.n_outliers}; q = {args.q} m"
    )
    if recorder is not None:
        _emit_metrics(recorder, args.metrics)
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    payload = Path(args.input).read_bytes()
    start = time.perf_counter()
    cloud = DBGCDecompressor().decompress(payload)
    elapsed = time.perf_counter() - start
    _save_cloud(cloud, Path(args.output))
    print(f"{args.input}: {len(cloud)} points restored in {elapsed:.2f}s -> {args.output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    payload = Path(args.input).read_bytes()
    header, dense, groups, outlier, attrs = unpack_container(payload)
    print(f"{args.input}: {len(payload)} bytes, DBGC v{payload[4]}")
    print(f"  error bound q_xyz : {header.q_xyz} m")
    print(f"  angular steps     : u_theta={header.u_theta:.6f}, u_phi={header.u_phi:.6f}")
    print(
        f"  coding flags      : spherical={header.spherical_conversion}, "
        f"radial_ref={header.radial_reference}, strict={header.strict_cartesian}"
    )
    print(f"  dense stream      : {len(dense)} bytes")
    for i, group in enumerate(groups):
        print(f"  sparse group {i}    : {len(group)} bytes")
    print(f"  outlier stream    : {len(outlier)} bytes")
    if attrs:
        print(f"  attribute block   : {len(attrs)} bytes")
    cloud = DBGCDecompressor().decompress(payload)
    print(f"  decoded points    : {len(cloud)}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cloud = generate_frame(
        args.scene, args.frame, sensor=_sensor_from_args(args), seed=args.seed
    )
    _save_cloud(cloud, Path(args.output))
    print(f"{args.scene} frame {args.frame}: {len(cloud)} points -> {args.output}")
    return 0


def _cmd_sequence(args: argparse.Namespace) -> int:
    from repro.core.streaming import FrameStreamReader, FrameStreamWriter
    from repro.datasets import trajectories

    sensor = _sensor_from_args(args)
    builders = {
        "straight": trajectories.straight,
        "curve": trajectories.curve,
        "loop": trajectories.loop,
    }
    traj = builders[args.trajectory](args.frames)
    params = DBGCParams(
        q_xyz=args.q,
        temporal=args.temporal,
        keyframe_interval=args.keyframe_interval,
    )
    frames = trajectories.generate_sequence(
        args.scene, traj, sensor=sensor, seed=args.seed
    )
    start = time.perf_counter()
    with open(args.output, "wb") as sink:
        with FrameStreamWriter(sink, params, sensor=sensor) as writer:
            for index, cloud in enumerate(frames):
                size = writer.write_frame(cloud, ego_position=traj[index])
                kind = (
                    "delta"
                    if args.temporal and index % args.keyframe_interval != 0
                    else "key"
                )
                print(f"frame {index}: {len(cloud)} points -> {size} B ({kind})")
    elapsed = time.perf_counter() - start
    stats = writer.stats
    print(
        f"{args.output}: {stats.n_frames} frames, "
        f"{stats.total_compressed_bytes} bytes "
        f"({stats.compression_ratio:.1f}x) in {elapsed:.2f}s"
    )
    print(
        f"  mean bandwidth at {sensor.frames_per_second:.1f} fps: "
        f"{stats.bandwidth_mbps(sensor.frames_per_second):.2f} Mbps"
    )
    if args.verify:
        with open(args.output, "rb") as source:
            decoded = list(FrameStreamReader(source))
        if len(decoded) != stats.n_frames:
            print(f"verify FAILED: {len(decoded)}/{stats.n_frames} frames decoded")
            return 1
        total = sum(len(c) for c in decoded)
        print(f"  verified: {len(decoded)} frames decode back to {total} points")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.validation import validate_stream

    payload = Path(args.input).read_bytes()
    original = _load_cloud(Path(args.original)) if args.original else None
    sensor = _sensor_from_args(args) if args.original else None
    report = validate_stream(payload, original=original, sensor=sensor)
    print(str(report))
    return 0 if report.ok else 1


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.datasets.archive import archive_info, write_archive

    if args.action == "create":
        root = write_archive(
            args.path,
            args.scene,
            args.frames,
            sensor=_sensor_from_args(args),
            seed=args.seed,
        )
        info = archive_info(root)
        total = sum(info["point_counts"])
        print(f"{root}: {info['n_frames']} frames of {info['scene']}, {total} points")
    else:
        info = archive_info(args.path)
        print(f"{args.path}: {info['n_frames']} frames of {info['scene']}")
        print(f"  seed {info['seed']}, sensor {info['sensor']['name']} "
              f"({info['sensor']['n_beams']} beams x {info['sensor']['azimuth_steps']} steps)")
        print(f"  points per frame: {info['point_counts']}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.eval.experiments import list_experiments, reproduce

    sensor = _sensor_from_args(args)
    names = list_experiments() if args.experiment == "all" else [args.experiment]
    for name in names:
        kwargs = {"sensor": sensor}
        if name == "fig9":
            kwargs["scene"] = args.scene
        result = reproduce(name, **kwargs)
        print(result.text)
        print()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.eval.harness import make_compressors
    from repro.eval.reporting import render_table

    sensor = _sensor_from_args(args)
    if args.input:
        cloud = _load_cloud(Path(args.input))
        label = args.input
    else:
        cloud = generate_frame(args.scene, 0, sensor=sensor)
        label = args.scene
    rows = []
    for compressor in make_compressors(args.q, sensor=sensor):
        start = time.perf_counter()
        payload = compressor.compress(cloud)
        elapsed = time.perf_counter() - start
        rows.append(
            [compressor.name, cloud.nbytes_raw() / len(payload), f"{elapsed:.2f}s"]
        )
    print(
        render_table(
            ["method", "ratio", "compress time"],
            rows,
            title=f"{label}: {len(cloud)} points, q = {args.q} m",
        )
    )
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.datasets.frames import generate_frames
    from repro.system import (
        BandwidthShaper,
        DbgcClient,
        DbgcServer,
        FaultSpec,
        FaultyChannel,
        SqliteFrameStore,
    )

    from repro import observability as obs

    sensor = _sensor_from_args(args)
    shaper = BandwidthShaper(args.bandwidth) if args.bandwidth > 0 else None
    spec = FaultSpec(
        corrupt_rate=args.corrupt_rate,
        disconnect_rate=args.disconnect_rate,
        ack_drop_rate=args.ack_drop_rate,
        jitter=args.jitter,
        force_disconnect_frames=args.disconnect_frames,
    )
    faulty = spec != FaultSpec()
    channel = FaultyChannel(shaper, seed=args.fault_seed, spec=spec) if faulty else shaper

    store = SqliteFrameStore(args.store if args.store else ":memory:")
    server_channel = channel if isinstance(channel, FaultyChannel) else None
    # The recording block spans client, server, and sender threads: one
    # shared report covers compression spans and transport counters.
    metrics_ctx = obs.recording() if args.metrics else contextlib.nullcontext()
    with metrics_ctx as recorder:
        with DbgcServer(store, mode=args.mode, channel=server_channel) as server:
            with DbgcClient(
                server.address,
                params=DBGCParams(q_xyz=args.q),
                sensor=sensor,
                channel=channel,
                queue_capacity=args.queue_capacity,
                overflow_policy=args.policy,
                ack_timeout=args.ack_timeout,
                backoff_base=0.02,
                window=args.window,
            ) as client:
                frames = generate_frames(
                    args.scene, args.frames, sensor=sensor, seed=args.seed
                )
                for index, cloud in enumerate(frames):
                    trace = client.send_frame(index, cloud)
                    print(
                        f"frame {index}: {len(cloud)} points, "
                        f"{trace.payload_bytes} B queued"
                    )
            server.join()
        client.merge_receipts(server.receipts)

    report = client.report
    print(f"\nstored {report.n_stored}/{args.frames} frames "
          f"({len(store)} in store) over {server.connections} connection(s)")
    print(f"  retries     : {report.total_retries}")
    print(f"  dropped     : {report.n_dropped}")
    print(f"  quarantined : {report.n_quarantined}")
    print(f"  degraded    : {report.n_degraded}")
    for bad in server.quarantine:
        print(f"  quarantine: {bad}")
    if report.n_stored:
        print(f"mean total latency: {report.mean_total_latency * 1e3:.0f} ms/frame; "
              f"throughput {report.throughput_fps():.2f} fps")
    if shaper is not None:
        mbps = report.bandwidth_mbps(sensor.frames_per_second)
        verdict = "fits" if mbps <= shaper.bandwidth_mbps else "exceeds"
        print(f"stream needs {mbps:.2f} Mbps; {verdict} the "
              f"{shaper.bandwidth_mbps:g} Mbps uplink")
    if recorder is not None:
        _emit_metrics(recorder, args.metrics)
    # Every frame must be accounted for: stored, quarantined, or dropped.
    accounted = report.n_stored + report.n_quarantined + report.n_dropped
    return 0 if accounted == args.frames else 1


def _open_scrub_store(path: Path, replication: int):
    """Reopen an on-disk SQLite store for scrubbing: one database or shards."""
    from repro.system import ShardedFrameStore, SqliteFrameStore

    if path.is_file():
        # A single SQLite database: still CRC-audited, just replica-less.
        return ShardedFrameStore([SqliteFrameStore(path)])
    shards = list(path.glob("shard_*.sqlite")) if path.is_dir() else []
    if not shards:
        raise SystemExit(
            f"{path} is neither a SQLite database nor a directory of "
            "shard_K.sqlite files"
        )
    return ShardedFrameStore.sqlite(
        len(shards), directory=path, replication=replication
    )


def _cmd_scrub(args: argparse.Namespace) -> int:
    store = _open_scrub_store(Path(args.store), args.replication)
    with store:
        report = store.scrub(repair=not args.no_repair)
    print(str(report))
    for defect in report.defects:
        print(f"  {defect}")
    # Healthy, or every defect repaired -> success.
    return 0 if report.n_unrepaired == 0 else 1


def _open_serve_store(args: argparse.Namespace):
    from repro.system import ShardedFrameStore, SqliteFrameStore

    replication = args.replication
    if args.shards > 1:
        return ShardedFrameStore.sqlite(
            args.shards,
            directory=args.store if args.store else None,
            replication=replication,
        )
    if replication > 1:
        raise SystemExit("--replication needs --shards > 1 (copies live on shards)")
    return SqliteFrameStore(args.store if args.store else ":memory:")


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.system import DbgcServer

    store = _open_serve_store(args)
    with store, DbgcServer(
        store,
        mode=args.mode,
        host=args.host,
        port=args.port,
        max_clients=args.max_clients,
        receipt_journal=args.receipt_journal if args.receipt_journal else None,
        busy_threshold_s=args.busy_threshold if args.busy_threshold > 0 else None,
        decode_workers=args.decode_workers,
        journal_rotate_bytes=(
            args.journal_rotate_bytes if args.journal_rotate_bytes > 0 else None
        ),
    ) as server:
        host, port = server.address
        print(f"listening on {host}:{port} "
              f"(mode={args.mode}, max-clients={args.max_clients}, "
              f"shards={args.shards}, decode-workers={args.decode_workers})",
              flush=True)
        try:
            if args.exit_after_streams > 0:
                server.wait_for_streams(args.exit_after_streams, timeout=args.timeout)
            else:
                while True:
                    time.sleep(1.0)
        except KeyboardInterrupt:
            pass
        print(f"served {server.connections} connection(s), "
              f"{server.streams_ended} stream(s) ended, "
              f"{len(store)} frame(s) stored, "
              f"{len(server.quarantine)} quarantined")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.eval.reporting import render_table
    from repro.system import FaultSpec, FleetSpec, ShardedFrameStore, run_fleet

    spec = FleetSpec(
        n_clients=args.clients,
        frames_per_client=args.frames,
        seed=args.seed,
        fault_spec=FaultSpec(
            corrupt_rate=args.corrupt_rate,
            ack_drop_rate=args.ack_drop_rate,
        ),
        force_disconnect_local=args.disconnect_frames,
        bandwidth_mbps=args.bandwidth if args.bandwidth > 0 else None,
        latency_s=args.latency,
        ack_timeout=args.ack_timeout,
        window=args.window,
    )
    if args.kill_after > 0 and not args.receipt_journal:
        raise SystemExit("--kill-after requires --receipt-journal")
    if args.decode_workers > 0 and args.mode != "decompress":
        raise SystemExit("--decode-workers requires --mode decompress")
    payloads = None
    if args.mode == "decompress":
        from repro.system import compressed_fleet_payloads

        payloads = compressed_fleet_payloads(
            spec, sensor_scale=args.sensor_scale, temporal=args.temporal
        )
    with ShardedFrameStore.sqlite(args.shards, replication=args.replication) as store:
        result = run_fleet(
            spec,
            store,
            mode=args.mode,
            max_clients=args.max_clients,
            receipt_journal=args.receipt_journal if args.receipt_journal else None,
            kill_after_frames=args.kill_after if args.kill_after > 0 else None,
            decode_workers=args.decode_workers,
            payloads=payloads,
        )
        rows = []
        for cid in sorted(result.reports):
            report = result.reports[cid]
            rows.append([
                f"client {cid}",
                report.n_stored,
                report.n_quarantined,
                report.n_dropped,
                report.total_retries,
            ])
        print(render_table(
            ["stream", "stored", "quarantined", "dropped", "retries"],
            rows,
            title=f"fleet: {spec.n_clients} clients x {spec.frames_per_client} frames",
        ))
        print(f"aggregate: {result.n_stored} stored in {result.wall_s:.2f}s "
              f"({result.frames_per_second:.1f} fps), "
              f"peak concurrency {result.server.peak_active_clients}"
              + (f", {result.restarts} server restart(s)" if result.restarts else ""))
        merged = result.merged
        if merged.ack_latencies:
            print(f"ack latency: p50 {merged.ack_latency_percentile(50) * 1e3:.1f} ms, "
                  f"p99 {merged.ack_latency_percentile(99) * 1e3:.1f} ms "
                  f"(window {spec.window})")
        shard_bytes = store.shard_payload_bytes()
        print("shards: " + ", ".join(
            f"#{k}={nbytes}B" for k, nbytes in enumerate(shard_bytes)
        ))
    total = spec.n_clients * spec.frames_per_client
    accounted = result.n_stored + result.n_quarantined + result.n_dropped
    return 0 if accounted == total and result.n_stored + result.n_quarantined == total else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbgc",
        description="Density-based geometry compression for LiDAR point clouds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a point cloud file")
    p.add_argument("input", help="input cloud (.bin/.ply/.npz)")
    p.add_argument("output", help="output .dbgc stream")
    p.add_argument("--q", type=float, default=0.02, help="error bound in meters")
    p.add_argument(
        "--strict", action="store_true", help="hard per-dimension error bound"
    )
    p.add_argument(
        "--metrics",
        metavar="PATH",
        default="",
        help="write an observability JSON report to PATH ('-' for stdout)",
    )
    _add_flags(p, "--sensor-scale")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decompress", help="decompress a .dbgc stream")
    p.add_argument("input", help="input .dbgc stream")
    p.add_argument("output", help="output cloud (.bin/.ply/.npz)")
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("info", help="inspect a .dbgc stream")
    p.add_argument("input", help="input .dbgc stream")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("simulate", help="generate a synthetic LiDAR frame")
    p.add_argument("scene", choices=sorted(SCENE_BUILDERS), help="scene name")
    p.add_argument("output", help="output cloud (.bin/.ply/.npz)")
    p.add_argument("--frame", type=int, default=0, help="frame index on the drive")
    p.add_argument("--seed", type=int, default=0, help="scene random seed")
    _add_flags(p, "--sensor-scale")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "sequence", help="compress a simulated drive into a .dbgcs frame stream"
    )
    p.add_argument("scene", choices=sorted(SCENE_BUILDERS), help="scene name")
    p.add_argument("output", help="output .dbgcs frame stream")
    p.add_argument(
        "--trajectory",
        default="straight",
        choices=["straight", "curve", "loop"],
        help="drive path shape (default straight)",
    )
    p.add_argument("--frames", type=int, default=8, help="frames to capture")
    p.add_argument("--q", type=float, default=0.02, help="error bound in meters")
    p.add_argument(
        "--temporal",
        action="store_true",
        help="inter-frame delta coding (format v3) between keyframes",
    )
    p.add_argument(
        "--keyframe-interval",
        type=int,
        default=8,
        metavar="N",
        help="intra-coded keyframe period in temporal mode (default 8)",
    )
    p.add_argument("--seed", type=int, default=0, help="scene random seed")
    p.add_argument(
        "--verify",
        action="store_true",
        help="decode the written stream back and check the frame count",
    )
    _add_flags(p, "--sensor-scale")
    p.set_defaults(func=_cmd_sequence)

    p = sub.add_parser("dataset", help="create or inspect a frame archive")
    p.add_argument("action", choices=["create", "info"])
    p.add_argument("path", help="archive directory")
    p.add_argument("--scene", default="kitti-city", choices=sorted(SCENE_BUILDERS))
    p.add_argument("--frames", type=int, default=5, help="frames to generate")
    p.add_argument("--seed", type=int, default=0)
    _add_flags(p, "--sensor-scale")
    p.set_defaults(func=_cmd_dataset)

    from repro.eval.experiments import list_experiments

    p = sub.add_parser("reproduce", help="re-run a paper experiment")
    p.add_argument(
        "experiment",
        choices=list_experiments() + ["all"],
        help="which table/figure to regenerate",
    )
    p.add_argument("--scene", default="kitti-city", choices=sorted(SCENE_BUILDERS))
    _add_flags(p, "--sensor-scale")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("verify", help="validate a .dbgc stream")
    p.add_argument("input", help="input .dbgc stream")
    p.add_argument(
        "--original",
        help="original cloud file: also verify the error-bound contract",
    )
    _add_flags(p, "--sensor-scale")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "stream", help="run the client/server pipeline over a (faulty) uplink"
    )
    p.add_argument("--scene", default="kitti-city", choices=sorted(SCENE_BUILDERS))
    p.add_argument("--frames", type=int, default=5, help="frames to stream")
    p.add_argument("--seed", type=int, default=0, help="scene random seed")
    p.add_argument("--q", type=float, default=0.02, help="error bound in meters")
    p.add_argument(
        "--store", default="", help="SQLite path for the server store (default memory)"
    )
    p.add_argument(
        "--policy", default="block", choices=["block", "drop-oldest", "coarsen"],
        help="send-queue overflow policy under congestion",
    )
    p.add_argument("--queue-capacity", type=int, default=8, help="send queue bound")
    p.add_argument("--fault-seed", type=int, default=0, help="fault injection seed")
    p.add_argument(
        "--disconnect-rate", type=float, default=0.0,
        help="per-attempt probability of a mid-record disconnect",
    )
    p.add_argument(
        "--jitter", type=float, default=0.0,
        help="bandwidth jitter amplitude in [0, 1)",
    )
    _add_flags(
        p, "--mode", "--bandwidth", "--ack-timeout", "--window", "--corrupt-rate",
        "--ack-drop-rate", "--disconnect-frames",
        mode="decompress", bandwidth=8.2, ack_timeout=10.0,
    )
    p.add_argument(
        "--metrics",
        metavar="PATH",
        nargs="?",
        const="-",
        default="",
        help="emit an observability JSON report (to PATH, or stdout if bare)",
    )
    _add_flags(p, "--sensor-scale")
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("serve", help="run a standalone multi-client ingest server")
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=0, help="bind port (0 = ephemeral)")
    p.add_argument(
        "--store", default="",
        help="store path: SQLite file, or shard directory when --shards > 1 "
        "(default: in-memory)",
    )
    p.add_argument(
        "--exit-after-streams", type=int, default=0, metavar="N",
        help="exit once N client streams have ENDed (0 = run until Ctrl-C)",
    )
    p.add_argument(
        "--timeout", type=float, default=300.0,
        help="seconds to wait for --exit-after-streams before giving up",
    )
    p.add_argument(
        "--busy-threshold", type=float, default=0.0, metavar="SECONDS",
        help="store-latency EWMA above which ACKs carry the BUSY "
        "backpressure hint (0 = disabled)",
    )
    p.add_argument(
        "--journal-rotate-bytes", type=int, default=0, metavar="BYTES",
        help="seal the receipt journal into a new segment past this size "
        "and compact fully-ended streams (0 = never rotate)",
    )
    _add_flags(
        p, "--mode", "--shards", "--max-clients", "--replication",
        "--receipt-journal", "--decode-workers",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "fleet", help="drive N concurrent clients against one server (loadgen)"
    )
    p.add_argument("--clients", type=int, default=4, help="concurrent clients")
    p.add_argument("--frames", type=int, default=25, help="frames per client")
    p.add_argument("--seed", type=int, default=0, help="payload/fault root seed")
    p.add_argument(
        "--latency", type=float, default=0.0, metavar="SECONDS",
        help="simulated one-way link latency, charged on the ACK path "
        "(shows the window's bandwidth×delay win on loopback)",
    )
    p.add_argument(
        "--kill-after", type=int, default=0, metavar="N",
        help="kill-and-restart drill: SIGKILL-equivalently stop the server "
        "after N stored frames and restart it on the same port "
        "(requires --receipt-journal)",
    )
    p.add_argument(
        "--temporal", action="store_true",
        help="decompress mode: send a temporal stream (v3 delta frames "
        "between keyframes) instead of independent intra frames",
    )
    _add_flags(
        p, "--corrupt-rate", "--ack-drop-rate", "--disconnect-frames",
        "--bandwidth", "--ack-timeout", "--window", "--mode", "--shards",
        "--max-clients", "--replication", "--receipt-journal",
        "--decode-workers", "--sensor-scale",
        shards=2, max_clients=None,
    )
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "scrub", help="audit (and repair) replica CRCs of an on-disk store"
    )
    p.add_argument(
        "store",
        help="store location: a directory of shard_K.sqlite files or a "
        "single SQLite database",
    )
    p.add_argument(
        "--replication", type=int, default=1,
        help="replica fan-out the store was written with",
    )
    p.add_argument(
        "--no-repair", action="store_true",
        help="report defects only; do not rewrite bad copies",
    )
    p.set_defaults(func=_cmd_scrub)

    p = sub.add_parser("bench", help="compare all methods on one frame")
    p.add_argument("--scene", default="kitti-city", choices=sorted(SCENE_BUILDERS))
    p.add_argument("--input", help="use a cloud file instead of a synthetic frame")
    p.add_argument("--q", type=float, default=0.02, help="error bound in meters")
    _add_flags(p, "--sensor-scale")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
