"""Correctness gate, end-to-end metrics, per-layer metrics, ranked bottlenecks."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from session import RSS_AFTER_FRAMES, Outcome, Window
from stats import nearest_rank, require_tail, summary_line
from tracer import merge
from workloads import Inputs

E2E_UNITS = {
    "frames_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_frame": "ms",
    "server_rss_mb": "MB",
    "bits_per_point": "bit",
    "stored_ok_frac": "ratio",
    "setup_s": "s",
}


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list[str]

    def __add__(self, other: "Verdict") -> "Verdict":
        return Verdict(
            self.attempted + other.attempted,
            self.failed + other.failed,
            self.problems + other.problems,
        )


def gate(inputs: Inputs, outcome: Outcome) -> Verdict:
    """Every handed frame stored exactly once, with the reference bytes.

    Checks per frame: the client saw it STORED on its first attempt;
    exactly one receipt; the store holds the reference bytes (the
    ``xyz`` of a serial decode); and, where the journal does not
    rotate, the journaled payload CRC is the reference payload's.  A
    stored frame nobody handed fails too.
    """
    traces = {t.frame_index: t for t in outcome.report.traces}
    digests = {int(k): v for k, v in outcome.reply["digests"].items()}
    journal = outcome.reply["journal"]
    crcs = None if journal is None else {index: crc for _sid, index, crc in journal}
    problems = []
    for index, handed in enumerate(outcome.handed):
        trace = traces.get(index)
        why = None
        if trace is None or trace.status != "stored":
            why = f"client status {getattr(trace, 'status', None)!r}"
        elif trace.attempts != 1:
            why = f"{trace.attempts} attempts"
        elif outcome.receipt_counts.get(index, 0) != 1:
            why = f"{outcome.receipt_counts.get(index, 0)} receipts"
        elif index not in digests:
            why = "not in the store"
        elif digests[index] != inputs.expected[handed.position]:
            why = "stored bytes differ from the reference"
        elif crcs is not None and crcs.get(index) != inputs.crcs[handed.position]:
            why = "journaled payload CRC differs from the reference payload"
        if why is not None:
            problems.append(f"frame {index}: {why}")
    extra = sorted(set(digests) - set(range(len(outcome.handed))))
    problems += [f"frame {index}: stored but never sent" for index in extra]
    return Verdict(len(outcome.handed), len(problems), problems)


def window_frames(outcome: Outcome, window: Window) -> list[int]:
    """Frames handed in the timed window (warm-up frames excluded)."""
    return [i for i, h in enumerate(outcome.handed) if h.at >= window.start]


def latencies_s(outcome: Outcome, frames: list[int]) -> list[float]:
    """Hand-off (before compression) to store commit, per frame."""
    return [outcome.stored_at[i] - outcome.handed[i].at for i in frames]


@dataclass
class SteadySlices:
    """The slices of the window in which the machine ran at its usual speed.

    Other tenants of a shared machine slow it by a third or more for
    seconds at a time, and the share of slow time moves from run to run.
    ``probe.py`` times a fixed loop on every CPU beside the window; a
    slice is left out when its median probe time exceeds the run's usual
    level (the 25th percentile of the slices' medians) by more than
    ``SLOW_TOLERANCE``.  The choice never looks at the program's own
    progress, so the program's stalls (journal, SQLite, GC) count in
    full.  One frame is in flight and every slice boundary falls between
    an ACK and the next hand-off, so each frame is handed, committed and
    paid for in one slice.
    """

    seconds: float
    cpu_s: float
    frames: list[int]
    kept: int
    slices: int


#: Share by which a slice's probe time may exceed the run's usual level.
SLOW_TOLERANCE = 0.10
#: Frames the kept slices must hold (ten beyond p90, with margin); slices
#: are added back in probe order until they do.
MIN_KEPT_FRAMES = 120


def steady_slices(outcome: Outcome, window: Window) -> SteadySlices:
    frames = window_frames(outcome, window)
    slices = []
    for (t0, c0), (t1, c1) in zip(window.marks, window.marks[1:]):
        probe = [ms for at, ms in window.probe if t0 <= at < t1]
        if probe:
            inside = [i for i in frames if t0 <= outcome.handed[i].at < t1]
            slices.append((statistics.median(probe), t1 - t0, c1 - c0, inside))
    if not slices:
        raise RuntimeError("the window holds no probed slice")
    slices.sort(key=lambda s: s[0])
    usual = nearest_rank([s[0] for s in slices], 25)
    k = sum(1 for s in slices if s[0] <= usual * (1 + SLOW_TOLERANCE))
    while k < len(slices) and sum(len(s[3]) for s in slices[:k]) < MIN_KEPT_FRAMES:
        k += 1
    kept = slices[:k]
    return SteadySlices(
        seconds=sum(s[1] for s in kept),
        cpu_s=sum(s[2] for s in kept),
        frames=sorted(i for s in kept for i in s[3]),
        kept=k,
        slices=len(slices),
    )


def end_to_end(
    inputs: Inputs, outcome: Outcome, window: Window, setups: list[float], verdict: Verdict
) -> tuple[dict[str, float], list[str]]:
    """End-to-end metrics; rates, CPU and latencies over the steady slices."""
    steady = steady_slices(outcome, window)
    latency = latencies_s(outcome, steady.frames)
    require_tail("latency", len(latency), 90)
    if window.rss_mb is None:
        raise RuntimeError(
            f"the run handed fewer than {RSS_AFTER_FRAMES} frames, "
            "so server_rss_mb was never read"
        )
    frames = window_frames(outcome, window)
    if inputs.workload.capture:
        traces = {t.frame_index: t for t in outcome.report.traces}
        bits = 8 * sum(traces[i].payload_bytes for i in frames)
        points = sum(traces[i].n_points for i in frames)
    else:
        positions = [outcome.handed[i].position for i in frames]
        bits = 8 * sum(len(inputs.payloads[p]) for p in positions)
        points = sum(inputs.n_points[p] for p in positions)
    values = {
        "frames_per_s": len(steady.frames) / steady.seconds,
        "latency_p50_ms": nearest_rank(latency, 50) * 1e3,
        "latency_p90_ms": nearest_rank(latency, 90) * 1e3,
        "cpu_ms_per_frame": steady.cpu_s * 1e3 / len(steady.frames),
        "server_rss_mb": window.rss_mb,
        "bits_per_point": bits / points,
        "stored_ok_frac": 1.0 - verdict.failed / verdict.attempted,
        "setup_s": nearest_rank(setups, 50),
    }
    cpu_s = window.marks[-1][1] - window.marks[0][1]
    lines = [
        summary_line("latency, steady slices", latency, "ms", 1e3),
        summary_line("latency, whole window", latencies_s(outcome, frames), "ms", 1e3),
        summary_line("setup (launch -> first timed frame)", setups, "s"),
        f"  steady slices: {steady.kept} of {steady.slices}, {len(steady.frames)} frames "
        f"in {steady.seconds:.2f} s, cpu {steady.cpu_s:.2f} s",
        f"  whole window: {len(frames)} frames in {window.wall_s:.2f} s "
        f"({len(frames) / window.wall_s:.2f}/s), cpu {cpu_s:.2f} s",
    ]
    return values, lines


class LayerView:
    """A traced run's merged records plus the per-frame sums they share."""

    def __init__(self, inputs: Inputs, outcome: Outcome, window: Window, gen: dict) -> None:
        reply = outcome.reply
        self.inputs = inputs
        self.server = reply["trace"]
        self.workers = reply["worker_trace"]
        self.merged = merge(gen, self.server, self.workers)
        self.frames = window_frames(outcome, window)
        self.n = len(self.frames)
        if self.n == 0:
            raise RuntimeError("traced run handed no frame in its window")
        stored, received = outcome.stored_at, outcome.received_at
        self.ingest = sum(stored[i] - received[i] for i in self.frames)
        self.latency = sum(latencies_s(outcome, self.frames))
        inline_decode = self.total("core.temporal.keyframe_decode", self.server) + self.total(
            "core.temporal.delta_decode", self.server
        )
        self.server_self = (
            self.ingest
            - inline_decode
            - self.total("system.pool.submit_wait")
            - self.total("system.pool.roundtrip")
            - self.total("system.storage.put")
        )
        self.busy_wall = max(stored[i] for i in self.frames) - window.start

    def total(self, layer: str, snap: dict | None = None) -> float:
        return (snap or self.merged)["calls"].get(layer, [0, 0.0, 0.0])[1]

    def own(self, layer: str) -> float:
        return self.merged["calls"].get(layer, [0, 0.0, 0.0])[2]

    def ms(self, seconds: float) -> tuple[float, str]:
        return seconds * 1e3 / self.n, "ms"


def per_layer(
    inputs: Inputs, outcome: Outcome, window: Window, gen: dict, overhead_frac: float
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics of a traced run: ms per stored frame unless named."""
    v = LayerView(inputs, outcome, window, gen)
    total, own, ms, n = v.total, v.own, v.ms, v.n
    workers = inputs.workload.decode_workers
    acks = outcome.report.ack_latencies[inputs.workload.warmup_frames:]
    traces = {t.frame_index: t for t in outcome.report.traces}
    appends = v.merged["samples"].get("system.durability.append", [])
    busy_hints = outcome.report.busy_hints - outcome.busy_hints_at_ready
    attributed = (
        own("system.client.send")
        + total("core.pipeline.compress")
        + total("system.protocol.encode")
        + v.ingest
    )
    metrics = {
        "core.pipeline.compress_ms": ms(total("core.pipeline.compress")),
        "core.clustering.den_ms": ms(total("core.clustering.den")),
        "core.polyline.org_ms": ms(total("core.polyline.org")),
        "octree.encode_ms": ms(own("octree.encode")),
        "octree.decode_ms": ms(own("octree.decode")),
        "core.reference.encode_ms": ms(total("core.reference.encode")),
        "core.reference.decode_ms": ms(total("core.reference.decode")),
        "core.sparse_codec.encode_self_ms": ms(own("core.sparse_codec.encode")),
        "core.sparse_codec.decode_self_ms": ms(own("core.sparse_codec.decode")),
        "entropy.encode_ms": ms(total("entropy.encode")),
        "entropy.decode_ms": ms(total("entropy.decode")),
        "core.outlier.encode_ms": ms(own("core.outlier.encode")),
        "core.outlier.decode_ms": ms(own("core.outlier.decode")),
        "core.temporal.keyframe_decode_ms": ms(total("core.temporal.keyframe_decode")),
        "core.temporal.delta_decode_ms": ms(total("core.temporal.delta_decode")),
        "system.client.enqueue_wait_ms": ms(own("system.client.send")),
        "system.client.ack_rtt_p50_ms": (nearest_rank(acks, 50) * 1e3, "ms"),
        "system.client.attempts_per_frame": (
            sum(traces[i].attempts for i in v.frames) / n, "count"
        ),
        "system.client.busy_hint_frac": (busy_hints / n, "ratio"),
        "system.protocol.encode_ms": ms(total("system.protocol.encode")),
        "system.protocol.read_ms": ms(total("system.protocol.read")),
        "system.server.ingest_ms": ms(v.ingest),
        "system.server.self_ms": ms(v.server_self),
        "system.pool.submit_wait_ms": ms(total("system.pool.submit_wait")),
        "system.pool.roundtrip_ms": ms(total("system.pool.roundtrip")),
        "system.pool.queue_wait_ms": ms(
            max(0.0, total("system.pool.roundtrip") - total("system.pool.decode"))
        ),
        "system.pool.worker_busy_frac": (
            total("system.pool.decode") / (workers * v.busy_wall) if workers else 0.0,
            "ratio",
        ),
        "system.storage.put_ms": ms(total("system.storage.put")),
        "system.storage.bytes_per_frame": (
            v.merged["counters"].get("system.storage.bytes", 0) / n, "B"
        ),
        "system.storage.busy_frac": (total("system.storage.put") / v.busy_wall, "ratio"),
        "system.durability.append_ms": ms(total("system.durability.append")),
        "system.durability.append_p99_ms": (
            nearest_rank(appends, 99) * 1e3 if appends else 0.0, "ms"
        ),
        "system.durability.rotations": (float(outcome.reply["rotations"]), "count"),
        "trace.unattributed_frac": (1.0 - attributed / v.latency, "ratio"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
    lines = [f"  per-call timings and per-frame totals over {n} frames:"]
    for layer in sorted(v.merged["samples"]):
        _calls, tot, slf = v.merged["calls"][layer]
        lines.append(
            summary_line(layer, v.merged["samples"][layer], "ms", 1e3)
            + f"  total {tot * 1e3 / n:.3f} self {slf * 1e3 / n:.3f} ms/frame"
        )
    depths = outcome.reply.get("pool_depths") or []
    if depths:
        lines.append(summary_line("pool depth (sampled every 0.2 s)", depths, "fr"))
    return metrics, lines + ranked(v)


def ranked(v: LayerView) -> list[str]:
    """Layers by share of frame latency (every workload has one frame in flight).

    This is the ranked list of bottlenecks that picks the next perf change.
    """
    total, own, n = v.total, v.own, v.n
    leaves = {
        "compress (pipeline self)": own("core.pipeline.compress"),
        "DEN cluster_approx": total("core.clustering.den"),
        "ORG organize_polylines": total("core.polyline.org"),
        "OCT encode (self)": own("octree.encode"),
        "SPA reference encode": total("core.reference.encode"),
        "sparse encode (self)": own("core.sparse_codec.encode"),
        "entropy encode": total("entropy.encode"),
        "OUT encode (self)": own("core.outlier.encode"),
        "client send (self: enqueue wait)": own("system.client.send"),
        "protocol encode_record": total("system.protocol.encode"),
        "temporal decode (self)": own("core.temporal.keyframe_decode")
        + own("core.temporal.delta_decode"),
        "OCT decode (self)": own("octree.decode"),
        "SPA reference decode": total("core.reference.decode"),
        "sparse decode (self)": own("core.sparse_codec.decode"),
        "entropy decode": total("entropy.decode"),
        "OUT decode (self)": own("core.outlier.decode"),
        "pool decode worker (self)": own("system.pool.decode"),
        "pool submit wait": total("system.pool.submit_wait"),
        "pool queue + transfer (round trip - worker)": max(
            0.0, total("system.pool.roundtrip") - total("system.pool.decode")
        ),
        "store put": total("system.storage.put"),
        "journal append": total("system.durability.append"),
        "server self (ingest - decode - pool - store)": v.server_self,
    }
    leaves["unattributed (wire, hand-offs)"] = max(0.0, v.latency - sum(leaves.values()))
    rows = sorted(leaves.items(), key=lambda kv: -kv[1])
    out = [f"  ranked bottlenecks: share of frame latency ({v.latency * 1e3 / n:.2f} ms/frame)"]
    out += [
        f"  {rank:>2}. {name:<46} {sec * 1e3 / n:>9.3f} ms/frame {sec / v.latency:>7.1%}"
        for rank, (name, sec) in enumerate(rows, 1)
        if sec > 0
    ]
    return out
