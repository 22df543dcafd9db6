"""Fleet load generation: N concurrent clients over seeded fault channels.

Drives the multi-client ingest tier for the `bench_fleet` throughput
table, the fault-injection acceptance tests, and ``dbgc fleet``.  Every
client of the fleet gets

- its own **stream id** (= client id), so server-side dedupe, ACK
  ordinals, and receipts are scoped per client;
- a disjoint global frame-index range — client *k* owns
  ``[k * INDEX_STRIDE, k * INDEX_STRIDE + frames_per_client)`` — so the
  shared (sharded) store never sees two writers on one index;
- an independent, deterministically derived
  :class:`~repro.system.faults.FaultyChannel`
  (:meth:`~repro.system.faults.FaultyChannel.for_stream` of the root
  seed), so a concurrent run and a serial replay of the same spec plan
  identical faults per client regardless of thread interleaving.

Payloads are seeded random bytes: the ingest tier's cost is framing,
CRCs, ACK round-trips, store writes, and fault recovery — compression
itself is benchmarked elsewhere.  Decompress-mode fleets instead need
payloads that actually decode: :func:`compressed_fleet_payloads` builds
real DBGC frame sequences (intra or temporal) and ``run_fleet`` accepts
them via its ``payloads`` override, together with a ``decode_workers``
knob for the server's decode offload tier.
"""

from __future__ import annotations

import errno
import random
import threading
import time
from dataclasses import dataclass, field, replace

from pathlib import Path

from repro.system.channel import BandwidthShaper
from repro.system.durability import ReceiptJournal
from repro.system.faults import FaultSpec, FaultyChannel, ServerKillSwitch
from repro.system.client import DbgcClient
from repro.system.metrics import PipelineReport
from repro.system.server import DbgcServer

__all__ = [
    "FleetSpec",
    "FleetResult",
    "client_payloads",
    "cloud_contents",
    "compressed_fleet_payloads",
    "payload_contents",
    "run_fleet",
]

#: Client k owns global frame indices [k * INDEX_STRIDE, (k + 1) * INDEX_STRIDE).
INDEX_STRIDE = 1_000_000


@dataclass(frozen=True)
class FleetSpec:
    """One fleet run: client count, per-client load, faults, link shape."""

    n_clients: int = 4
    frames_per_client: int = 25
    #: Root of payload generation and every client's fault derivation.
    seed: int = 0
    #: Base fault probabilities applied to every client.
    fault_spec: FaultSpec = field(default_factory=FaultSpec)
    #: *Local* frame numbers whose first transmission is forced to die
    #: mid-record, applied to every client (translated to each client's
    #: global index range).
    force_disconnect_local: frozenset[int] = frozenset()
    #: Inclusive payload-size range in bytes.
    payload_bytes: tuple[int, int] = (180, 300)
    #: Per-client uplink bandwidth (each client gets its own shaper), or
    #: None for an unshaped loopback link.
    bandwidth_mbps: float | None = None
    #: Simulated one-way link latency in seconds (charged on the ACK
    #: path as a full round trip — see ``BandwidthShaper.pace``).  A
    #: non-zero latency with ``bandwidth_mbps=None`` gets an effectively
    #: unconstrained 10 Gbps serialization model.
    latency_s: float = 0.0
    # Client transport knobs (see DbgcClient).
    ack_timeout: float = 2.0
    backoff_base: float = 0.01
    max_retries: int = 5
    #: Sliding-window size per client (protocol v2.2 selective repeat);
    #: 1 = classic stop-and-wait.
    window: int = 1

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ValueError(f"need at least one client, got {self.n_clients}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.latency_s < 0:
            raise ValueError(f"latency_s must be >= 0, got {self.latency_s}")
        if self.frames_per_client > INDEX_STRIDE:
            raise ValueError(
                f"frames_per_client {self.frames_per_client} overflows the "
                f"index stride {INDEX_STRIDE}"
            )
        object.__setattr__(
            self, "force_disconnect_local", frozenset(self.force_disconnect_local)
        )

    def global_index(self, client_id: int, local_index: int) -> int:
        """The fleet-wide frame index of one client's local frame number."""
        return client_id * INDEX_STRIDE + local_index

    def client_indices(self, client_id: int) -> list[int]:
        """All global indices client ``client_id`` will send, in order."""
        return [
            self.global_index(client_id, i) for i in range(self.frames_per_client)
        ]

    def client_fault_spec(self, client_id: int) -> FaultSpec:
        """The base spec with forced disconnects mapped into the client's range."""
        if not self.force_disconnect_local:
            return self.fault_spec
        forced = frozenset(
            self.global_index(client_id, i) for i in self.force_disconnect_local
        )
        return replace(self.fault_spec, force_disconnect_frames=forced)


def client_payloads(spec: FleetSpec, client_id: int) -> dict[int, bytes]:
    """One client's seeded payloads, keyed by global frame index.

    Pure in ``(spec.seed, client_id)`` — integers only, so the derivation
    is stable across processes (no string hashing involved).
    """
    rng = random.Random(spec.seed * 1_000_003 + client_id)
    lo, hi = spec.payload_bytes
    return {
        index: rng.randbytes(rng.randint(lo, hi))
        for index in spec.client_indices(client_id)
    }


def payload_contents(store) -> dict[int, bytes]:
    """Every stored payload keyed by index (byte-identity comparisons)."""
    return {index: store.get_payload(index) for index in store.frame_indices()}


def cloud_contents(store) -> dict[int, bytes]:
    """Every stored cloud's raw ``xyz`` bytes keyed by index.

    The decompress-mode twin of :func:`payload_contents`: decoded
    geometry is deterministic per payload, so two runs that stored the
    same frames must compare equal byte for byte.
    """
    return {
        index: store.get_cloud(index).xyz.tobytes()
        for index in store.frame_indices()
    }


def compressed_fleet_payloads(
    spec: FleetSpec,
    sensor_scale: float = 0.3,
    temporal: bool = False,
    keyframe_interval: int = 4,
    scene: str = "kitti-road",
    q_xyz: float = 0.02,
) -> dict[int, dict[int, bytes]]:
    """Real compressed frame payloads for a decompress-mode fleet.

    One short drive (``spec.frames_per_client`` frames, seeded by
    ``spec.seed``) is compressed *once* — as independent intra frames,
    or as a temporal stream with format-v3 deltas between keyframes —
    and every client sends the same blobs on its own global index range.
    Per-client decode work is therefore identical, each client's local
    send order is the stream's decode order, and a serial replay decodes
    the exact same byte sequences as the concurrent fleet.

    Feed the result to :func:`run_fleet`'s ``payloads`` override.
    """
    # Local imports: the codec stack is heavy and only decompress-mode
    # fleets need it.
    from repro.core.params import DBGCParams
    from repro.core.pipeline import DBGCCompressor
    from repro.core.temporal import TemporalContext
    from repro.datasets.sensors import SensorModel
    from repro.datasets.trajectories import generate_sequence, straight

    sensor = SensorModel.benchmark_default().scaled(sensor_scale)
    trajectory = straight(spec.frames_per_client)
    frames = list(
        generate_sequence(scene, trajectory, sensor=sensor, seed=spec.seed + 1)
    )
    if temporal:
        params = DBGCParams(
            q_xyz=q_xyz, temporal=True, keyframe_interval=keyframe_interval
        )
        compressor = DBGCCompressor(params, sensor=sensor)
        context = TemporalContext()
        blobs = []
        for i, cloud in enumerate(frames):
            if i == 0:
                ego_delta = (0.0, 0.0, 0.0)
            else:
                prev, cur = trajectory[i - 1], trajectory[i]
                ego_delta = (cur[0] - prev[0], cur[1] - prev[1], 0.0)
            blobs.append(
                compressor.compress_temporal(
                    cloud, context, ego_delta=ego_delta
                ).payload
            )
    else:
        compressor = DBGCCompressor(DBGCParams(q_xyz=q_xyz), sensor=sensor)
        blobs = [compressor.compress(cloud) for cloud in frames]
    return {
        cid: dict(zip(spec.client_indices(cid), blobs))
        for cid in range(spec.n_clients)
    }


@dataclass
class FleetResult:
    """Outcome of one fleet run (the server object stays inspectable)."""

    spec: FleetSpec
    reports: dict[int, PipelineReport]
    payloads: dict[int, dict[int, bytes]]
    #: The final server — after a kill-and-restart drill, the restarted one.
    server: DbgcServer
    wall_s: float
    #: Server restarts performed by the kill switch (0 = no process fault).
    restarts: int = 0

    @property
    def merged(self) -> PipelineReport:
        """All clients' traces/events as one report (disjoint index ranges)."""
        return PipelineReport.merged(
            self.reports[cid] for cid in sorted(self.reports)
        )

    @property
    def n_stored(self) -> int:
        return sum(r.n_stored for r in self.reports.values())

    @property
    def n_quarantined(self) -> int:
        return sum(r.n_quarantined for r in self.reports.values())

    @property
    def n_dropped(self) -> int:
        return sum(r.n_dropped for r in self.reports.values())

    @property
    def frames_per_second(self) -> float:
        """Aggregate ingest throughput: frames stored / fleet wall time."""
        return self.n_stored / self.wall_s if self.wall_s > 0 else 0.0

    def accounting_keys(self) -> dict[int, tuple]:
        """Per-client deterministic fault-handling fingerprints."""
        return {cid: report.accounting_key() for cid, report in self.reports.items()}


def run_fleet(
    spec: FleetSpec,
    store,
    mode: str = "store",
    max_clients: int | None = None,
    concurrent: bool = True,
    receipt_journal: ReceiptJournal | str | Path | None = None,
    kill_after_frames: int | None = None,
    decode_workers: int = 0,
    payloads: dict[int, dict[int, bytes]] | None = None,
) -> FleetResult:
    """Drive ``spec.n_clients`` clients against one server over ``store``.

    ``concurrent=False`` replays the exact same per-client work one
    client at a time — the serial oracle: because faults, payloads, and
    stream scoping are all keyed per client, the resulting store contents
    and per-client accounting must match the concurrent run byte for
    byte.

    ``kill_after_frames=N`` turns the run into a kill-and-restart drill:
    a :class:`~repro.system.faults.ServerKillSwitch` SIGKILL-equivalently
    stops the server once N frames have been stored and immediately
    restarts it on the *same port* over the same store and
    ``receipt_journal`` (required — recovery needs durable receipts).
    The clients ride their normal reconnect/retransmit path across the
    outage; the restarted server recovers its dedupe state from the
    journal and answers retransmissions of pre-kill frames with
    DUPLICATE.

    ``decode_workers=N`` sizes the server's decode offload tier
    (``mode="decompress"`` only); after a kill, the restarted server
    gets a fresh pool — and fresh decoder state, so mid-stream delta
    frames quarantine until their stream's next keyframe.  ``payloads``
    overrides the default seeded-random bytes with real frames (see
    :func:`compressed_fleet_payloads`), keyed client id → {global frame
    index: payload} — required for decompress mode, where random bytes
    would only exercise the quarantine path.
    """
    if kill_after_frames is not None and receipt_journal is None:
        raise ValueError(
            "kill_after_frames requires a receipt_journal: without durable "
            "receipts the restarted server would double-ACK duplicates"
        )
    if payloads is None:
        payloads = {
            cid: client_payloads(spec, cid) for cid in range(spec.n_clients)
        }
    root = FaultyChannel(None, seed=spec.seed, spec=spec.fault_spec)

    def make_shaper() -> BandwidthShaper | None:
        if spec.bandwidth_mbps is None and spec.latency_s == 0.0:
            return None
        # Latency-only links get an effectively unconstrained pipe so the
        # round trip, not serialization, dominates.
        return BandwidthShaper(
            spec.bandwidth_mbps if spec.bandwidth_mbps is not None else 10_000.0,
            latency_s=spec.latency_s,
        )

    channels = {
        cid: root.for_stream(
            cid,
            spec=spec.client_fault_spec(cid),
            shaper=make_shaper(),
        )
        for cid in range(spec.n_clients)
    }
    reports: dict[int, PipelineReport] = {}
    errors: list[BaseException] = []
    errors_lock = threading.Lock()

    def make_server(host: str = "127.0.0.1", port: int = 0) -> DbgcServer:
        return DbgcServer(
            store,
            mode=mode,
            host=host,
            port=port,
            channel=channels,
            max_clients=max_clients if max_clients is not None else spec.n_clients,
            receipt_journal=receipt_journal,
            decode_workers=decode_workers,
        ).start()

    server = make_server()
    servers = [server]
    switch: ServerKillSwitch | None = None
    if kill_after_frames is not None:
        host, port = server.address

        def restart() -> None:
            # kill() closed the old listener object, but CPython defers
            # the real fd close while the accept loop is parked inside
            # accept() — the port can stay bound for up to that loop's
            # 0.1s poll timeout.  Retry the rebind briefly instead of
            # racing it; clients meanwhile reconnect with backoff and
            # retransmit into the recovered server.
            deadline = time.monotonic() + 5.0
            while True:
                try:
                    servers.append(make_server(host, port))
                    return
                except OSError as exc:
                    if (
                        exc.errno != errno.EADDRINUSE
                        or time.monotonic() >= deadline
                    ):
                        with errors_lock:
                            errors.append(exc)
                        return
                    time.sleep(0.02)
                except BaseException as exc:  # pragma: no cover - surfaced below
                    with errors_lock:
                        errors.append(exc)
                    return

        switch = ServerKillSwitch(kill_after_frames).arm(server, on_kill=restart)

    def drive(cid: int) -> None:
        try:
            with DbgcClient(
                server.address,
                stream_id=cid,
                channel=channels[cid],
                ack_timeout=spec.ack_timeout,
                backoff_base=spec.backoff_base,
                max_retries=spec.max_retries,
                retry_seed=cid,
                window=spec.window,
            ) as client:
                for index, payload in payloads[cid].items():
                    client.send_payload(index, payload)
            reports[cid] = client.report
        except BaseException as exc:
            with errors_lock:
                errors.append(exc)

    started = time.perf_counter()
    try:
        if concurrent:
            threads = [
                threading.Thread(target=drive, args=(cid,), daemon=True)
                for cid in range(spec.n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        else:
            for cid in range(spec.n_clients):
                drive(cid)
        if switch is not None:
            switch.cancel()  # joins the watcher, so any restart is complete
        if errors:
            raise errors[0]
        # After a restart the journal-recovered ENDs of pre-kill streams
        # count toward the final server's tally, so waiting on it covers
        # the whole fleet.
        servers[-1].wait_for_streams(spec.n_clients, timeout=120.0)
        wall = time.perf_counter() - started
    finally:
        if switch is not None:
            switch.cancel()
        for srv in servers:
            srv.close()
    return FleetResult(
        spec=spec,
        reports=reports,
        payloads=payloads,
        server=servers[-1],
        wall_s=wall,
        restarts=len(servers) - 1,
    )
