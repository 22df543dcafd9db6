"""One benchmark session: a server process, its client, the frames handed.

A session launches ``serve.py`` in its own process, connects one client
(window 1), pushes warm-up frames through every lazily started part
(store, journal, every decode-pool worker, the codec), and then hands
frames closed loop for the timed window: each frame only after the
previous one's ACK.  ``finish`` drains the client, collects what the
server recorded, and stops the server process and its workers.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Inputs

HERE = Path(__file__).resolve().parent

STREAM_ID = 0
#: Far above any ACK round trip (one frame in flight, well under a
#: second), so no frame is ever retransmitted.
ACK_TIMEOUT_S = 120.0
#: ``server_rss_mb`` is read once this many frames of the window were
#: handed: a fixed amount of work, so the in-memory stores' growth does
#: not make it track throughput.
RSS_AFTER_FRAMES = 60
#: The window is cut into slices of about this length (at the first frame
#: boundary past each multiple), each with its own CPU reading; see
#: ``report.steady_slices``.
SLICE_S = 2.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class AckWatch:
    """Wakes the generator as soon as the client settles a frame.

    Wraps ``_deliver_ack`` on the client instance (its class stays
    untouched) so that it notifies a condition after the original ran;
    the generator blocks on the condition instead of polling.
    """

    def __init__(self, client) -> None:
        self._cond = threading.Condition()
        deliver = client._deliver_ack

        def deliver_and_notify(record) -> None:
            deliver(record)
            with self._cond:
                self._cond.notify_all()

        client._deliver_ack = deliver_and_notify

    def wait(self, trace, timeout: float = ACK_TIMEOUT_S) -> None:
        deadline = time.perf_counter() + timeout
        with self._cond:
            while trace.status == "pending":
                left = deadline - time.perf_counter()
                if left <= 0:
                    raise TimeoutError(f"frame {trace.frame_index} was never acknowledged")
                # The bound only matters for a frame dropped without an ACK.
                self._cond.wait(min(left, 1.0))


class ServerProcess:
    """``serve.py`` in its own process group, driven by JSON lines."""

    def __init__(self, inputs: Inputs, workdir: Path, root: Path, trace: bool) -> None:
        w = inputs.workload
        workdir.mkdir(parents=True, exist_ok=True)
        cfg = {
            "root": str(root),
            "workdir": str(workdir),
            "trace": trace,
            "store": w.store,
            "decode_workers": w.decode_workers,
            "rotate_bytes": w.rotate_bytes,
            "stream_id": STREAM_ID,
        }
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve.py"), json.dumps(cfg)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self.pid = self.proc.pid
        self.port = self._read()["port"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server process exited with {self.proc.wait()}")
        return json.loads(line)

    def request(self, cmd: dict) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def wait(self, timeout: float = 60.0) -> None:
        self.proc.stdin.close()
        code = self.proc.wait(timeout)
        self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"server process exited with {code}")

    def kill(self) -> None:
        """Stop the server and its decode workers, and reap the server."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


@dataclass
class Handed:
    """Frame ``i`` of a session is ``handed[i]``: its cycle position and
    when the generator handed it to the client (before compression)."""

    position: int
    at: float


@dataclass
class Window:
    #: ``(time, CPU seconds of generator + server + decode workers)`` at
    #: the window's start, at each slice boundary and at its stop; every
    #: mark falls between an ACK and the next hand-off.
    marks: list[tuple[float, float]]
    #: Peak RSS of server + decode workers once ``RSS_AFTER_FRAMES``
    #: frames were handed (None: not reached).
    rss_mb: float | None
    #: ``(time, loop CPU ms)`` samples of the machine-speed probe.
    probe: list[tuple[float, float]]

    @property
    def start(self) -> float:
        return self.marks[0][0]

    @property
    def wall_s(self) -> float:
        return self.marks[-1][0] - self.start


@dataclass
class Outcome:
    """What one finished session produced (all times are perf_counter)."""

    handed: list[Handed]
    report: object
    reply: dict
    busy_hints_at_ready: int
    received_at: dict[int, float] = field(default_factory=dict)
    stored_at: dict[int, float] = field(default_factory=dict)
    receipt_counts: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for index, _nbytes, received, stored in self.reply["receipts"]:
            self.receipt_counts[index] = self.receipt_counts.get(index, 0) + 1
            self.received_at[index] = received
            self.stored_at[index] = stored


class Session:
    """Set up one server + client, hand frames, and finish."""

    def __init__(self, inputs: Inputs, workdir: Path, root: Path, tracer=None) -> None:
        from repro.system import DbgcClient

        self.inputs = inputs
        self.workload = w = inputs.workload
        self.handed: list[Handed] = []
        self.launched_at = time.perf_counter()
        self.server = ServerProcess(inputs, workdir, root, trace=tracer is not None)
        try:
            self.client = DbgcClient(
                ("127.0.0.1", self.server.port),
                params=inputs.params,
                sensor=inputs.sensor,
                stream_id=STREAM_ID,
                window=1,
                ack_timeout=ACK_TIMEOUT_S,
                retry_seed=STREAM_ID,
            )
            self.acks = AckWatch(self.client)
            for _ in range(w.warmup_frames):
                self.acks.wait(self.hand())
            self.worker_pids = self.server.request({"cmd": "workers"})["pids"]
            if len(self.worker_pids) != w.decode_workers:
                raise RuntimeError(
                    f"{len(self.worker_pids)} decode workers after the warm-up, "
                    f"expected {w.decode_workers}"
                )
            if tracer is not None:
                tracer.reset()
                self.server.request({"cmd": "reset"})
        except BaseException:
            self.abort()
            raise
        self.ready_at = time.perf_counter()
        self.setup_s = self.ready_at - self.launched_at
        self.busy_hints_at_ready = self.client.report.busy_hints

    def hand(self):
        """Hand the client the next frame of the cycle; return its trace."""
        index = len(self.handed)
        position = index % len(self.inputs)
        at = time.perf_counter()
        if self.workload.capture:
            trace = self.client.send_frame(index, self.inputs.clouds[position])
        else:
            trace = self.client.send_payload(index, self.inputs.payloads[position])
        self.handed.append(Handed(position, at))
        return trace

    def cpu_s(self) -> float:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return (
            usage.ru_utime
            + usage.ru_stime
            + sum(proc_cpu_s(pid) for pid in (self.server.pid, *self.worker_pids))
        )

    def peak_rss_mb(self) -> float:
        return sum(proc_peak_rss_mb(pid) for pid in (self.server.pid, *self.worker_pids))

    def measure(self, seconds: float | None = None, frames: int | None = None) -> Window:
        """Hand frames for ``seconds`` (or ``frames`` frames), each after the
        previous one's ACK, with the machine-speed probe running beside."""
        probe = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            first = len(self.handed)
            rss = None
            start = time.perf_counter()
            marks = [(start, self.cpu_s())]
            while True:
                done = len(self.handed) - first
                if done == RSS_AFTER_FRAMES:
                    rss = self.peak_rss_mb()
                now = time.perf_counter()
                if frames is not None and done >= frames:
                    break
                if frames is None and now - start >= seconds:
                    break
                if now - start >= SLICE_S * len(marks):
                    marks.append((now, self.cpu_s()))
                self.acks.wait(self.hand())
            marks.append((time.perf_counter(), self.cpu_s()))
            out, _ = probe.communicate(timeout=30)
        finally:
            if probe.poll() is None:
                probe.kill()
                probe.wait()
        samples = [tuple(map(float, line.split())) for line in out.splitlines()]
        return Window(marks, rss, samples)

    def finish(self, since: float) -> Outcome:
        """Drain and END the client, then collect and stop the server."""
        try:
            self.client.close()
            reply = self.server.request({"cmd": "finish", "since": since})
            self.server.wait()
        except BaseException:
            self.abort()
            raise
        return Outcome(
            handed=self.handed,
            report=self.client.report,
            reply=reply,
            busy_hints_at_ready=self.busy_hints_at_ready,
        )

    def abort(self) -> None:
        """Error path: kill the server group; the client's daemon threads die
        with this process (a clean ``close`` would retry a dead server)."""
        self.server.kill()
