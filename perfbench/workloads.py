"""The closed-loop workloads and their seeded inputs.

Every workload runs over unpaced loopback against a server in its own
process.  Inputs are built from the seed by the current ``src/`` on
every run — never cached — so an encoder change reaches
``bits_per_point``.  Building them (simulation, compression of the
re-shipped payloads, and the serial reference decode the correctness
gate compares against) happens before the server starts and counts in
no metric.

Sizing.  The workloads use the benchmark sensor scaled by 0.25 to 0.3
(about 1.8k to 2.6k points per frame, q = 0.02 m).  At full scale one
frame costs ~0.5 s to compress and ~0.45 s to decode, so a
one-frame-in-flight run would store too few frames to put ten latency
samples beyond p90.  Each drive spans several independently seeded
scene blocks, so a run's content mix — and with it ``bits_per_point`` —
varies little from seed to seed.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass

__all__ = ["Inputs", "WORKLOADS", "Workload", "build_inputs", "digest"]

Q_XYZ = 0.02
KEYFRAME_INTERVAL = 8


@dataclass(frozen=True)
class Workload:
    name: str
    #: Why the workload exists (mirrored in BENCHMARK.json).
    why: str
    #: The layers it isolates, and the ones it bypasses.
    isolates: str
    bypasses: str
    #: Server side (always ``mode="decompress"``).
    store: str  # "sqlite-file" (one durable SqliteFrameStore) or "sharded-memory"
    decode_workers: int
    rotate_bytes: int | None
    #: Client side (one client, window 1).  True: it compresses captured
    #: intra clouds (``send_frame``); False: it re-ships a temporal (v3)
    #: stream compressed at input generation (``send_payload``).
    capture: bool
    #: The drive: ``blocks`` scenes (seeded from the run seed) with
    #: ``frames_per_block`` consecutive frames each, cycled over distinct
    #: frame indices for as long as the run lasts.
    scene: str
    blocks: int
    frames_per_block: int
    #: Fraction of ``SensorModel.benchmark_default()`` (HDL-64E x 0.5).
    sensor_scale: float

    @property
    def temporal(self) -> bool:
        return not self.capture

    @property
    def warmup_frames(self) -> int:
        """Frames before the timed window: one, or enough for every decode
        worker to start a keyframe chain (a pool slot forks its worker
        process on its first submit)."""
        return max(1, self.decode_workers * KEYFRAME_INTERVAL)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sensor_capture",
            why=(
                "one vehicle, one frame in flight: compress, intra decode and a durable "
                "SQLite commit in series, so layer times add up to frame latency"
            ),
            isolates=(
                "codec encode (DEN, OCT, ORG, SPA, OUT, entropy) on the client and inline "
                "intra decode on the server; with one frame in flight a faster layer saves "
                "its own share of the latency and nothing queues"
            ),
            bypasses="the decode pool, delta decode, sharding and journal rotation",
            store="sqlite-file",
            decode_workers=0,
            rotate_bytes=None,
            capture=True,
            scene="kitti-city",
            blocks=48,
            frames_per_block=1,
            sensor_scale=0.25,
        ),
        Workload(
            name="pool_decode",
            why=(
                "one vehicle re-ships a temporal (v3) stream, one frame in flight, to a "
                "server decoding on two pool workers: the offloaded decode path in series"
            ),
            isolates=(
                "v3 delta and keyframe decode on the StickyWorkerPool (keyframe chains "
                "alternate workers), pool submit and round trip, decoded-cloud writes to "
                "4 in-memory SQLite shards, journal appends with rotation and compaction"
            ),
            bypasses=(
                "client-side compression, the inline decode path of sensor_capture, and "
                "queueing: with frames pipelined at window 8 (the fleet shape) the queue "
                "turned every slowdown of a shared 2-core VM into latency, far past any bound"
            ),
            store="sharded-memory",
            decode_workers=2,
            rotate_bytes=8 << 10,
            capture=False,
            scene="kitti-road",
            blocks=4,
            frames_per_block=KEYFRAME_INTERVAL,
            sensor_scale=0.3,
        ),
    )
}


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@dataclass
class Inputs:
    """One run's inputs plus the reference outputs the gate checks against."""

    workload: Workload
    seed: int
    sensor: object
    params: object
    #: Captured clouds, one per position of the cycle (``capture`` only).
    clouds: list
    #: The payload of each position: re-shipped bytes, or (``capture``)
    #: the reference compression of the cloud.
    payloads: list[bytes]
    n_points: list[int]
    #: Digest of the ``xyz`` bytes a serial decode gives for each position:
    #: what the store must hold.
    expected: list[str]
    #: CRC-32 the receipt journal must record for each position.
    crcs: list[int]

    def __len__(self) -> int:
        return len(self.payloads)

    def describe(self) -> dict:
        return {
            "seed": self.seed,
            "sensor": {
                "name": self.sensor.name,
                "scale_of_benchmark_default": self.workload.sensor_scale,
                "beams": self.sensor.n_beams,
                "azimuth_steps": self.sensor.azimuth_steps,
            },
            "scene": self.workload.scene,
            "q_xyz": Q_XYZ,
            "distinct_frames": len(self),
            "points_per_frame_mean": sum(self.n_points) / len(self),
            "payload_bytes_total": sum(len(p) for p in self.payloads),
        }


def build_inputs(workload: Workload, seed: int) -> Inputs:
    """Simulate the seeded drive and compress / decode its references."""
    from repro.core.params import DBGCParams
    from repro.core.pipeline import DBGCCompressor
    from repro.core.temporal import TemporalContext, TemporalDecoder
    from repro.datasets.sensors import SensorModel
    from repro.datasets.trajectories import generate_sequence, straight

    sensor = SensorModel.benchmark_default().scaled(workload.sensor_scale)
    params = DBGCParams(
        q_xyz=Q_XYZ, temporal=workload.temporal, keyframe_interval=KEYFRAME_INTERVAL
    )
    compressor = DBGCCompressor(params, sensor=sensor)
    clouds, payloads = [], []
    context = TemporalContext()
    for block in range(workload.blocks):
        trajectory = straight(workload.frames_per_block)
        frames = generate_sequence(
            workload.scene, trajectory, sensor=sensor, seed=seed * 7919 + block
        )
        for i, cloud in enumerate(frames):
            clouds.append(cloud)
            if workload.temporal:
                prev, cur = trajectory[max(0, i - 1)], trajectory[i]
                ego = (cur[0] - prev[0], cur[1] - prev[1], 0.0)
                payloads.append(compressor.compress_temporal(cloud, context, ego).payload)
            else:
                payloads.append(compressor.compress(cloud))
    # One decoder over the cycle in order: each block is one keyframe
    # chain, so every lap of the cycle decodes to the same bytes.
    decoder = TemporalDecoder()
    expected = [digest(decoder.decode(p).xyz.tobytes()) for p in payloads]
    return Inputs(
        workload=workload,
        seed=seed,
        sensor=sensor,
        params=params,
        clouds=clouds if workload.capture else [],
        payloads=payloads,
        n_points=[len(c) for c in clouds],
        expected=expected,
        crcs=[zlib.crc32(p) for p in payloads],
    )
