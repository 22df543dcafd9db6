"""The benchmark's server process: one ``DbgcServer`` in its own interpreter.

Started by ``run.py`` as ``python3 perfbench/serve.py '<json config>'``.
It builds the workload's store and receipt journal (wrapped in timing
proxies on a traced run, after the codec and server wrappers are
installed), starts the server, and answers one JSON command per stdin
line with one JSON line on its original stdout:

- ``workers``: pids of the decode worker processes;
- ``reset``: drop trace records so far (the warm-up frames);
- ``finish``: wait for every stream's END, close the server, and return
  the collected receipts, a digest of every stored frame, the journaled
  payload CRCs, journal rotations and the trace records.

A collector thread copies ``receipts_for()`` of the client's stream
every 0.2 s, so receipts are kept before the server's ``max_receipts``
bound evicts them.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import threading
from pathlib import Path


class ReceiptCollector(threading.Thread):
    """Copies a stream's receipts before the server evicts them."""

    def __init__(self, server, stream_id: int, tracer=None, interval: float = 0.2) -> None:
        super().__init__(daemon=True)
        self.server = server
        self.stream_id = stream_id
        self.tracer = tracer
        self.interval = interval
        self.receipts: list = []
        self._seen: set = set()
        self.pool_depths: list[int] = []
        self._stop_event = threading.Event()

    def poll(self) -> None:
        for receipt in self.server.receipts_for(self.stream_id):
            if receipt not in self._seen:
                self._seen.add(receipt)
                self.receipts.append(receipt)
        pool = None if self.tracer is None else self.tracer.pool
        if pool is not None:
            self.pool_depths.append(pool.depth())

    def run(self) -> None:
        while not self._stop_event.wait(self.interval):
            self.poll()

    def stop(self) -> None:
        self._stop_event.set()
        self.join()
        self.poll()


def build_store(cfg: dict, workdir: Path):
    from repro.system import ShardedFrameStore, SqliteFrameStore

    if cfg["store"] == "sqlite-file":
        return SqliteFrameStore(workdir / "frames.sqlite")
    return ShardedFrameStore.sqlite(4)


def stored_digests(store, digest) -> dict[int, str]:
    return {i: digest(store.get_cloud(i).xyz.tobytes()) for i in store.frame_indices()}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    workdir = Path(cfg["workdir"])
    sys.path.insert(0, str(Path(cfg["root"]) / "src"))
    # Replies go to the original stdout; anything else printed lands on stderr.
    out = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    # Commands come from a private copy of stdin: a forked decode worker
    # closes ``sys.stdin`` when it starts, which would block forever on the
    # lock the main thread holds while it waits for the next command.
    commands = os.fdopen(os.dup(0), "r", encoding="utf-8")
    sys.stdin = open(os.devnull, encoding="utf-8")

    def reply(obj: dict) -> None:
        out.write(json.dumps(obj) + "\n")
        out.flush()

    from tracer import TimedJournal, TimedStore, Tracer, read_sinks
    from workloads import digest

    tracer = None
    if cfg["trace"]:
        # Before the server exists, so its forked decode workers inherit it.
        tracer = Tracer(sink_dir=workdir)
        tracer.install("server")
    from repro.system import DbgcServer, ReceiptJournal

    store = build_store(cfg, workdir)
    journal = ReceiptJournal(
        workdir / "receipts.jsonl", batch=16, rotate_bytes=cfg["rotate_bytes"]
    )
    server = DbgcServer(
        store if tracer is None else TimedStore(store, tracer),
        mode="decompress",
        receipt_journal=journal if tracer is None else TimedJournal(journal, tracer),
        decode_workers=cfg["decode_workers"],
    ).start()
    collector = ReceiptCollector(server, cfg["stream_id"], tracer)
    collector.start()
    reply({"port": server.address[1]})
    try:
        for line in commands:
            cmd = json.loads(line)
            if cmd["cmd"] == "workers":
                reply({"pids": [p.pid for p in multiprocessing.active_children()]})
            elif cmd["cmd"] == "reset":
                if tracer is not None:
                    tracer.reset()
                reply({})
            elif cmd["cmd"] == "finish":
                server.wait_for_streams(1, timeout=120.0)
                collector.stop()
                server.close()
                journal.drain()
                # Compaction drops ENDed streams' records, so a rotating
                # journal cannot vouch for every frame afterwards.
                journaled = (
                    [list(f) for f in journal.replay().frames]
                    if cfg["rotate_bytes"] is None
                    else None
                )
                result = {
                    "receipts": collector.receipts,
                    "digests": stored_digests(store, digest),
                    "journal": journaled,
                    "rotations": journal.rotations,
                    "pool_depths": collector.pool_depths,
                }
                if tracer is not None:
                    tracer.uninstall()
                    result["trace"] = tracer.snapshot()
                    result["worker_trace"] = read_sinks(workdir, cmd["since"])
                    result["leftovers"] = Tracer.leftovers()
                reply(result)
                return 0
    finally:
        if collector.is_alive():
            collector.stop()
        server.close()
        journal.close()
        store.close()
    return 1  # stdin closed before "finish": the generator is gone


if __name__ == "__main__":
    sys.exit(main())
