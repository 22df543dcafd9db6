"""Bandwidth-shaped transfer model.

The paper's system ships compressed frames over a 4G uplink averaging
8.2 Mbps [41].  The shaper models a link as bandwidth + fixed latency; it
can either *simulate* transfer times (fast, deterministic — used by the
benchmarks) or actually pace a sender by sleeping (used by the live
client/server example).
"""

from __future__ import annotations

import time

__all__ = ["BandwidthShaper"]


class BandwidthShaper:
    """A link with finite bandwidth and fixed one-way latency.

    Parameters
    ----------
    bandwidth_mbps:
        Link bandwidth in megabits per second (paper's 4G uplink: 8.2).
    latency_s:
        Fixed one-way latency in seconds.
    """

    #: The paper's reference uplink.
    MOBILE_4G_MBPS = 8.2

    def __init__(self, bandwidth_mbps: float, latency_s: float = 0.0) -> None:
        if bandwidth_mbps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_mbps}")
        if latency_s < 0:
            raise ValueError(f"latency must be non-negative, got {latency_s}")
        self.bandwidth_mbps = float(bandwidth_mbps)
        self.latency_s = float(latency_s)

    @classmethod
    def mobile_4g(cls) -> "BandwidthShaper":
        """The paper's 4G uplink (8.2 Mbps average upload [41])."""
        return cls(cls.MOBILE_4G_MBPS)

    def transfer_seconds(self, n_bytes: int) -> float:
        """Simulated one-way transfer time for a payload."""
        return self.latency_s + self.serialization_seconds(n_bytes)

    def serialization_seconds(self, n_bytes: int) -> float:
        """Time the payload occupies the link (transfer minus latency)."""
        return 8.0 * n_bytes / (self.bandwidth_mbps * 1e6)

    def sustainable_fps(self, n_bytes: int) -> float:
        """Frames per second the link sustains at this payload size."""
        serialization = self.serialization_seconds(n_bytes)
        return float("inf") if serialization == 0 else 1.0 / serialization

    def supports(self, n_bytes: int, frames_per_second: float) -> bool:
        """Can the link keep up with the sensor's frame rate? (Section 4.4)"""
        return self.sustainable_fps(n_bytes) >= frames_per_second

    def pace(self, n_bytes: int, started_at: float, scale: float = 1.0) -> None:
        """Sleep until the payload 'fits through' the link (live mode).

        Pacing models **serialization only**: a sliding-window sender
        keeps the pipe full, so per-frame sends must not each pay the
        propagation delay — the client charges ``latency_s`` on the ACK
        path instead (one way out, one way back = a full RTT), which
        keeps the bandwidth×delay product observable without
        serializing latencies.

        ``scale`` stretches or shrinks this transfer's serialization time
        around the nominal link model — fault injection uses it to model
        bandwidth jitter without mutating the shaper.
        """
        deadline = started_at + scale * self.serialization_seconds(n_bytes)
        remaining = deadline - time.perf_counter()
        if remaining > 0:
            time.sleep(remaining)
