"""The end-to-end DBGC system (paper Figure 2), hardened for a lossy link.

A :class:`~repro.system.client.DbgcClient` pulls frames from a (simulated)
sensor, compresses them, and ships the bit sequences over a TCP connection
shaped to a mobile-network bandwidth
(:class:`~repro.system.channel.BandwidthShaper`).  A
:class:`~repro.system.server.DbgcServer` receives, decompresses (or stores
the raw stream), and writes frames into a
:class:`~repro.system.storage.SqliteFrameStore`.  Per-frame stage
timestamps support the Section 4.4 throughput / latency evaluation.

Transport protocol v2 (:mod:`repro.system.protocol`) makes delivery
fault-tolerant: CRC-checked typed records, client retransmission with
capped exponential backoff, server-side quarantine and dedupe, and
bounded-queue degradation policies for congested links.  A seeded
:class:`~repro.system.faults.FaultyChannel` injects deterministic bit
flips, truncations, disconnects, and bandwidth jitter to prove it.

The ingest tier is multi-client: the server runs a handler thread per
connection (capped by ``max_clients``), keys all per-stream state by the
stream id each client announces in its HELLO record, and can fan storage
out over the SQLite shards of a
:class:`~repro.system.storage.ShardedFrameStore`.  The load
generator (:mod:`repro.system.loadgen`) drives N concurrent clients over
independently seeded fault channels for the `bench_fleet` throughput
table and the fleet acceptance tests.

The durability tier (:mod:`repro.system.durability`) survives *process*
faults on top of the channel faults: every store commits each frame in
one SQLite transaction, the server journals receipts
(:class:`~repro.system.durability.ReceiptJournal`) so a restart rebuilds
its dedupe state, :class:`~repro.system.storage.ShardedFrameStore` can
replicate frames across shards and ``scrub()`` them back to health, and
an overloaded server piggybacks a BUSY hint on its ACKs that clients
answer by slowing down or coarsening.
:class:`~repro.system.faults.ServerKillSwitch` injects the process fault
deterministically for the kill-and-restart drills.

The client compresses each frame inline, one at a time.  The server's
decode offload tier (``DbgcServer(decode_workers=N)``) is the system's
one process pool: it moves ``decompress``-mode decoding off the
GIL-bound handler threads onto a
:class:`~repro.system.pool.StickyWorkerPool` of decoder worker
processes.  Each decode chain (a keyframe and the deltas after it) pins
to one worker, which owns the chain's stateful temporal decoder;
successive chains take the workers in turn, frames decode in arrival
order, and decoded clouds return through pickle-protocol-5 out-of-band
buffers — so decompress-mode fleet throughput scales with cores.  Only
where the decode runs changes: every mode shares one ingest sequence and
with it every contract (ACK after commit, journaling, quarantine,
dedupe).

The pipelined transport (protocol v2.2, ``DbgcClient(window=W)``)
overlaps send, decode, and commit *within* a stream: a selective-repeat
sliding window keeps up to ``W`` unACKed frames in flight with
out-of-order ACK matching and AIMD adaptation on BUSY hints, while the
server hands frames on as they arrive and a per-connection drainer
commits and ACKs them in arrival order.
``window=1`` reduces exactly to the classic stop-and-wait behaviour.
"""

from repro.system.channel import BandwidthShaper
from repro.system.client import OVERFLOW_POLICIES, DbgcClient
from repro.system.durability import (
    JournalReplay,
    ReceiptJournal,
    ScrubDefect,
    ScrubReport,
    atomic_write_bytes,
)
from repro.system.faults import FaultPlan, FaultSpec, FaultyChannel, ServerKillSwitch
from repro.system.loadgen import (
    FleetResult,
    FleetSpec,
    cloud_contents,
    compressed_fleet_payloads,
    run_fleet,
)
from repro.system.metrics import FrameTrace, PipelineReport, TransportEvent
from repro.system.pool import StickyWorkerPool, pack_array, unpack_array
from repro.system.server import (
    DbgcServer,
    QuarantinedFrame,
    RemoteDecodeError,
    StreamState,
)
from repro.system.storage import ShardedFrameStore, SqliteFrameStore

__all__ = [
    "BandwidthShaper",
    "DbgcClient",
    "DbgcServer",
    "FaultPlan",
    "FaultSpec",
    "FaultyChannel",
    "FleetResult",
    "FleetSpec",
    "FrameTrace",
    "JournalReplay",
    "OVERFLOW_POLICIES",
    "PipelineReport",
    "QuarantinedFrame",
    "ReceiptJournal",
    "RemoteDecodeError",
    "ScrubDefect",
    "ScrubReport",
    "ServerKillSwitch",
    "ShardedFrameStore",
    "SqliteFrameStore",
    "StickyWorkerPool",
    "StreamState",
    "TransportEvent",
    "atomic_write_bytes",
    "cloud_contents",
    "compressed_fleet_payloads",
    "pack_array",
    "run_fleet",
    "unpack_array",
]
