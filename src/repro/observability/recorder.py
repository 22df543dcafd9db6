"""Process-wide tracing and metrics substrate.

One recorder replaces the four disjoint instrumentation copies that grew
across the repo (the ``timings`` dicts of :mod:`repro.core.pipeline` and
:mod:`repro.core.sparse_codec`, the per-command ``time.perf_counter``
pairs in :mod:`repro.cli`, and the transport-side ``FrameTrace`` /
``TransportEvent`` bookkeeping):

- **Spans** — nested wall-clock intervals (``with obs.span("dbgc.den")``)
  forming a tree per thread; byte counters attach to the active span via
  :func:`add_bytes`, so a span-tree query answers both of the paper's
  Section 4.4 questions (where does time go, where do bytes go).
- **Counters / histograms** — a flat registry of named monotonic counters
  (:func:`count`) and value distributions (:func:`observe`) shared by the
  codec and the transport.

Dispatch is ambient: the module keeps one process-global recorder
(installed by :class:`recording` or :func:`set_recorder`) plus a
per-thread override (installed by :class:`ensure_recorder`).  When neither
is set, every hook is a no-op behind a single global read — no span
objects, no dict writes, no allocation — so instrumented hot paths cost
nothing in production.

Thread-safety: each thread builds its own span stack (``threading.local``)
while root registration, counters, and histograms are lock-protected, so
the transport's sender/serve threads and the main thread can record into
one shared recorder.
"""

from __future__ import annotations

import threading
import time

__all__ = [
    "Span",
    "Recorder",
    "recording",
    "ensure_recorder",
    "current",
    "get_recorder",
    "set_recorder",
    "span",
    "count",
    "add_bytes",
    "observe",
]


class Span:
    """One timed interval in the span tree.

    Created by :meth:`Recorder.span` and used as a context manager; the
    clock runs from ``__enter__`` to ``__exit__``.  ``bytes`` holds the
    byte counters attached while the span was the innermost active one.
    """

    __slots__ = ("name", "started_at", "ended_at", "children", "bytes", "_recorder")

    def __init__(self, name: str, recorder: "Recorder") -> None:
        self.name = name
        self.started_at = 0.0
        self.ended_at = 0.0
        self.children: list[Span] = []
        self.bytes: dict[str, int] = {}
        self._recorder = recorder

    def __enter__(self) -> "Span":
        self.started_at = time.perf_counter()
        self._recorder._push(self)
        return self

    def __exit__(self, *exc_info) -> None:
        self.ended_at = time.perf_counter()
        self._recorder._pop(self)

    @property
    def duration(self) -> float:
        """Wall-clock seconds (0.0 while the span is still open)."""
        return max(0.0, self.ended_at - self.started_at)

    def iter_spans(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def total(self, name: str) -> float:
        """Summed duration of all spans named ``name`` in this subtree."""
        return sum(s.duration for s in self.iter_spans() if s.name == name)

    def to_dict(self) -> dict:
        """JSON-able form (see docs/OBSERVABILITY.md for the schema)."""
        node: dict = {"name": self.name, "duration_s": self.duration}
        if self.bytes:
            node["bytes"] = dict(self.bytes)
        if self.children:
            node["children"] = [child.to_dict() for child in self.children]
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration:.6f}s, {len(self.children)} children)"


class _NoopSpan:
    """The shared do-nothing span returned while recording is off."""

    __slots__ = ()
    duration = 0.0
    name = ""
    bytes: dict[str, int] = {}
    children: list = []

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def iter_spans(self):
        return iter(())

    def total(self, name: str) -> float:
        return 0.0


_NOOP = _NoopSpan()


class Recorder:
    """Collects a span forest plus the counter/histogram registry."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stacks = threading.local()
        #: Top-level spans, in start order across all threads.
        self.roots: list[Span] = []
        #: Monotonic named counters (includes ``bytes.<tag>`` mirrors).
        self.counters: dict[str, int] = {}
        #: Raw observed values per histogram name.
        self.histograms: dict[str, list[float]] = {}

    # -- span plumbing -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # Tolerate a mismatched exit (an exception unwound child spans).
        while stack and stack.pop() is not span:
            pass

    # -- recording API -------------------------------------------------

    def span(self, name: str) -> Span:
        """A new span; use as a context manager."""
        return Span(name, self)

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the named counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(value)

    def add_bytes(self, tag: str, n: int) -> None:
        """Attach ``n`` bytes to the active span and the ``bytes.<tag>`` counter."""
        stack = self._stack()
        if stack:
            top = stack[-1]
            top.bytes[tag] = top.bytes.get(tag, 0) + int(n)
        self.count("bytes." + tag, int(n))

    def observe(self, name: str, value: float) -> None:
        """Record one sample of the named histogram."""
        with self._lock:
            self.histograms.setdefault(name, []).append(float(value))

    # -- queries -------------------------------------------------------

    def byte_totals(self) -> dict[str, int]:
        """Total bytes per tag, from the ``bytes.<tag>`` counter mirrors."""
        with self._lock:
            return {
                name[len("bytes."):]: value
                for name, value in self.counters.items()
                if name.startswith("bytes.")
            }


# -- ambient dispatch -------------------------------------------------------

_GLOBAL: Recorder | None = None
_SCOPED = threading.local()


def current() -> Recorder | None:
    """The recorder hooks dispatch to: thread-scoped first, then global."""
    scoped = getattr(_SCOPED, "recorder", None)
    if scoped is not None:
        return scoped
    return _GLOBAL


def get_recorder() -> Recorder | None:
    """The process-global recorder (``None`` = disabled)."""
    return _GLOBAL


def set_recorder(recorder: Recorder | None) -> Recorder | None:
    """Install (or clear, with ``None``) the process-global recorder."""
    global _GLOBAL
    _GLOBAL = recorder
    return recorder


def span(name: str):
    """A span under the ambient recorder; shared no-op when disabled."""
    recorder = current()
    if recorder is None:
        return _NOOP
    return recorder.span(name)


def count(name: str, value: int = 1) -> None:
    """Increment a counter on the ambient recorder, if one is active."""
    recorder = current()
    if recorder is not None:
        recorder.count(name, value)


def add_bytes(tag: str, n: int) -> None:
    """Attach bytes to the ambient recorder's active span, if recording."""
    recorder = current()
    if recorder is not None:
        recorder.add_bytes(tag, n)


def observe(name: str, value: float) -> None:
    """Record a histogram sample on the ambient recorder, if one is active."""
    recorder = current()
    if recorder is not None:
        recorder.observe(name, value)


class recording:
    """Enable process-global recording for a ``with`` block.

    ::

        with obs.recording() as rec:
            compressor.compress(cloud)
        print(obs.ascii_breakdown(rec))

    Restores the previous global recorder on exit.  Spans started by other
    threads while the block is open land in the same recorder — that is
    the point: transport threads and the codec share one report.
    """

    def __init__(self, recorder: Recorder | None = None) -> None:
        self.recorder = recorder if recorder is not None else Recorder()
        self._previous: Recorder | None = None

    def __enter__(self) -> Recorder:
        self._previous = _GLOBAL
        set_recorder(self.recorder)
        return self.recorder

    def __exit__(self, *exc_info) -> None:
        set_recorder(self._previous)


class ensure_recorder:
    """Reuse the ambient recorder, or install a thread-scoped one.

    Instrumented entry points (``compress_detailed`` and friends) wrap
    themselves in this so their span tree always exists: inside a
    :class:`recording` block they join the global report; otherwise they
    get a private recorder visible only to the current thread, which the
    caller can query and drop.
    """

    __slots__ = ("recorder", "_installed")

    def __init__(self) -> None:
        self.recorder: Recorder | None = None
        self._installed = False

    def __enter__(self) -> Recorder:
        recorder = current()
        if recorder is None:
            recorder = Recorder()
            _SCOPED.recorder = recorder
            self._installed = True
        self.recorder = recorder
        return recorder

    def __exit__(self, *exc_info) -> None:
        if self._installed:
            _SCOPED.recorder = None
            self._installed = False
