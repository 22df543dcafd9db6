"""Per-layer timing from outside the program.

The traced run times every layer by wrapping the public entry points of
the ``repro`` modules — module functions where the codec modules import
them, class methods on their classes — and by timing proxies around the
store and journal objects the benchmark itself hands to ``DbgcServer``.
Nothing under ``src/`` changes, and :meth:`Tracer.uninstall` puts every
original back (:meth:`Tracer.leftovers` proves it).

A layer's *self* time is its call time minus the wrapped calls nested
inside it on the same thread.  A layer entered again while already
active on the thread (an entropy coder calling another) counts once, for
the outermost call.

Decode workers forked from the server process inherit the wrappers; in a
forked child the tracer appends one JSON line per outermost call to
``trace-<pid>.jsonl`` in the run's work directory, because worker
processes exit without running ``atexit`` hooks.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

__all__ = ["Tracer", "TimedJournal", "TimedStore", "merge", "read_sinks"]

#: Module functions timed wherever a ``repro`` module imported them:
#: (defining module, name) -> layer.
CODEC_FUNCTIONS = {
    ("repro.core.clustering", "cluster_approx"): "core.clustering.den",
    ("repro.core.polyline", "organize_polylines"): "core.polyline.org",
    ("repro.core.reference", "encode_radial"): "core.reference.encode",
    ("repro.core.reference", "decode_radial"): "core.reference.decode",
    ("repro.core.sparse_codec", "encode_sparse_group"): "core.sparse_codec.encode",
    ("repro.core.sparse_codec", "decode_sparse_group"): "core.sparse_codec.decode",
    ("repro.core.outlier", "encode_outliers"): "core.outlier.encode",
    ("repro.core.outlier", "decode_outliers"): "core.outlier.decode",
    ("repro.entropy.backend", "encode_tagged_ints"): "entropy.encode",
    ("repro.entropy.backend", "encode_tagged_symbols"): "entropy.encode",
    ("repro.entropy.deflate", "deflate_compress"): "entropy.encode",
    ("repro.entropy.backend", "decode_tagged_ints"): "entropy.decode",
    ("repro.entropy.backend", "decode_tagged_symbols"): "entropy.decode",
    ("repro.entropy.deflate", "deflate_decompress"): "entropy.decode",
}

#: Class methods timed on the class: (module, class, method) -> layer.
CODEC_METHODS = {
    ("repro.core.pipeline", "DBGCCompressor", "compress"): "core.pipeline.compress",
    ("repro.octree.codec", "OctreeCodec", "encode"): "octree.encode",
    ("repro.octree.codec", "OctreeCodec", "decode"): "octree.decode",
    ("repro.core.temporal", "TemporalDecoder", "decode"): "core.temporal.decode",
}

CLIENT_METHODS = {
    ("repro.system.client", "DbgcClient", "send_frame"): "system.client.send",
    ("repro.system.client", "DbgcClient", "send_payload"): "system.client.send",
}

#: Names timed in one importing module only: (module, name) -> layer.
CLIENT_NAMES = {("repro.system.client", "encode_record"): "system.protocol.encode"}
SERVER_NAMES = {
    ("repro.system.server", "read_record"): "system.protocol.read",
    ("repro.system.server", "_decode_frame"): "system.pool.decode",
}


def _temporal_layer(args: tuple) -> str:
    """Split ``TemporalDecoder.decode`` by container version (3 = delta)."""
    from repro.core.container import container_version

    try:
        delta = container_version(args[1]) == 3
    except ValueError:
        delta = False
    return "core.temporal.delta_decode" if delta else "core.temporal.keyframe_decode"


class _ThreadState:
    __slots__ = ("stack", "active")

    def __init__(self) -> None:
        #: One ``[child_seconds]`` cell per active wrapped call.
        self.stack: list[list[float]] = []
        self.active: set[str] = set()


class Tracer:
    """Aggregates per-layer call counts, times and per-call samples.

    ``sink_dir`` names the directory where forked children append their
    records; without it a child's records are lost.
    """

    def __init__(self, sink_dir: str | Path | None = None) -> None:
        self.sink_dir = None if sink_dir is None else Path(sink_dir)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self._sink: Path | None = None
        self._installed = False
        #: The decode pool seen by the ``submit`` wrapper (for ``depth()``).
        self.pool = None
        self.reset()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- aggregation ---------------------------------------------------

    def reset(self) -> None:
        """Drop everything recorded so far (e.g. the warm-up frames)."""
        with self._lock:
            #: layer -> [calls, total seconds, self seconds]
            self.calls: dict[str, list[float]] = {}
            #: layer -> per-call seconds
            self.samples: dict[str, list[float]] = {}
            self.counters: dict[str, float] = {}

    def record(self, layer: str, elapsed: float, own: float) -> None:
        with self._lock:
            entry = self.calls.get(layer)
            if entry is None:
                entry = self.calls[layer] = [0, 0.0, 0.0]
                self.samples[layer] = []
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += own
            self.samples[layer].append(elapsed)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "calls": {k: list(v) for k, v in self.calls.items()},
                "samples": {k: list(v) for k, v in self.samples.items()},
                "counters": dict(self.counters),
            }

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            return state

    def _after_fork(self) -> None:
        # Runs in every forked child: start clean (the parent's totals and
        # its forking thread's call stack are not the child's) and send
        # records to a per-process file.
        self._lock = threading.Lock()
        self._local = threading.local()
        if self._installed and self.sink_dir is not None:
            self._sink = self.sink_dir / f"trace-{os.getpid()}.jsonl"
            self.reset()

    def _flush_child(self, started: float) -> None:
        line = json.dumps({"t": started, **self.snapshot()})
        with open(self._sink, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        self.reset()

    # -- wrapping ------------------------------------------------------

    def wrap(
        self,
        layer: str | Callable[[tuple], str],
        fn: Callable,
        after: Callable[[Any, float, tuple], None] | None = None,
    ) -> Callable:
        """``fn`` timed as ``layer`` (or ``layer(args)`` when callable)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer(args) if callable(layer) else layer
            state = tracer._state()
            if name in state.active:
                return fn(*args, **kwargs)
            cell = [0.0]
            state.stack.append(cell)
            state.active.add(name)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                elapsed = ended - started
                state.stack.pop()
                state.active.discard(name)
                if state.stack:
                    state.stack[-1][0] += elapsed
                tracer.record(name, elapsed, elapsed - cell[0])
                if not state.stack and tracer._sink is not None:
                    tracer._flush_child(started)
            if after is not None:
                after(result, ended, args)
            return result

        traced.__perfbench_layer__ = layer
        return traced

    def _patch(self, owner: Any, attr: str, wrapper: Callable, original: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self, role: str) -> None:
        """Wrap the codec layers plus the ``client`` or ``server`` layers."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        if role not in ("client", "server"):
            raise ValueError(f"unknown role {role!r}")
        names = CLIENT_NAMES if role == "client" else SERVER_NAMES
        methods = {**CODEC_METHODS, **(CLIENT_METHODS if role == "client" else {})}
        # Import every importer first, so no module binds an original later.
        for module in ("repro.core", "repro.core.temporal", "repro.entropy", "repro.system"):
            importlib.import_module(module)
        # Every repro module that imported a codec function gets the same
        # wrapper (including the defining module itself).
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))
        ]
        for (home, attr), layer in CODEC_FUNCTIONS.items():
            original = getattr(sys.modules[home], attr)
            wrapper = self.wrap(layer, original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapper, original)
        for (home, attr), layer in names.items():
            module = sys.modules[home]
            original = getattr(module, attr)
            self._patch(module, attr, self.wrap(layer, original), original)
        for (home, cls_name, attr), layer in methods.items():
            cls = getattr(sys.modules[home], cls_name)
            original = cls.__dict__[attr]
            if layer == "core.temporal.decode":
                layer = _temporal_layer
            self._patch(cls, attr, self.wrap(layer, original), original)
        if role == "server":
            from repro.system.pool import StickyWorkerPool

            original = StickyWorkerPool.__dict__["submit"]
            self._patch(
                StickyWorkerPool, "submit",
                self.wrap("system.pool.submit_wait", original, after=self._track_future),
                original,
            )
        self._installed = True

    def _track_future(self, future, submitted: float, args: tuple) -> None:
        """Time the pool round trip: submit returned -> future resolved."""
        self.pool = args[0]

        def done(_future) -> None:
            elapsed = time.perf_counter() - submitted
            self.record("system.pool.roundtrip", elapsed, elapsed)

        future.add_done_callback(done)

    def uninstall(self) -> None:
        """Put every wrapped name back, newest patch first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._installed = False

    @staticmethod
    def leftovers() -> list[str]:
        """Names in any ``repro`` module or class that still hold a wrapper."""
        found = []
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if hasattr(value, "__perfbench_layer__"):
                    found.append(f"{name}.{attr}")
                elif isinstance(value, type) and value.__module__ == name:
                    found.extend(
                        f"{name}.{attr}.{meth}"
                        for meth, fn in vars(value).items()
                        if hasattr(fn, "__perfbench_layer__")
                    )
        return found


class TimedStore:
    """Times ``put_cloud`` of the store given to a decompress-mode server."""

    def __init__(self, store, tracer: Tracer) -> None:
        self._store = store
        self._tracer = tracer
        self._put_cloud = tracer.wrap("system.storage.put", store.put_cloud)

    def put_cloud(self, frame_index: int, cloud):
        self._tracer.count("system.storage.bytes", cloud.xyz.nbytes)
        return self._put_cloud(frame_index, cloud)

    def __getattr__(self, name: str):
        return getattr(self._store, name)


class TimedJournal:
    """Times ``append_frame`` of the receipt journal given to the server."""

    def __init__(self, journal, tracer: Tracer) -> None:
        self._journal = journal
        self.append_frame = tracer.wrap("system.durability.append", journal.append_frame)

    def __getattr__(self, name: str):
        return getattr(self._journal, name)


def merge(*snapshots: dict) -> dict:
    """Sum tracer snapshots from several processes."""
    out: dict = {"calls": {}, "samples": {}, "counters": {}}
    for snap in snapshots:
        for layer, (n, total, own) in snap["calls"].items():
            entry = out["calls"].setdefault(layer, [0, 0.0, 0.0])
            entry[0] += n
            entry[1] += total
            entry[2] += own
        for layer, values in snap["samples"].items():
            out["samples"].setdefault(layer, []).extend(values)
        for name, amount in snap["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0) + amount
    return out


def read_sinks(sink_dir: Path, since: float) -> dict:
    """Merge forked children's records of calls that started at ``since`` or later."""
    lines = []
    for path in sorted(sink_dir.glob("trace-*.jsonl")):
        for text in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(text)
            if record["t"] >= since:
                lines.append(record)
    return merge(*lines)
