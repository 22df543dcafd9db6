"""Pluggable entropy-backend registry for the hot coding paths.

Every arithmetic-coded stream in DBGC — octree/quadtree occupancy, Δφ,
∇L_r, L_ref, outlier z, per-leaf counts, attributes — goes through one of
the backends registered here:

- ``"adaptive-arith"`` — the paper's adaptive arithmetic coder
  (:mod:`repro.entropy.arithmetic`): symbol-at-a-time, model-free wire
  format, best on tiny or highly non-stationary streams.
- ``"rans"`` — the numpy-vectorized semi-static range coder
  (:mod:`repro.entropy.rans`): two-pass, transmits a frequency table,
  then codes in batches; a multi-x speedup on the dominant streams.

Encoded streams are *self-describing*: :func:`encode_tagged_symbols` and
:func:`encode_tagged_ints` prefix one backend tag byte, so decoders never
need out-of-band backend knowledge — the container records the frame-level
default purely as metadata.  The registry is the seam future backends
(native kernels, context-mixing coders) plug into: register an instance
and select it per-frame via ``DBGCParams.entropy_backend``.
"""

from __future__ import annotations

import numpy as np

from repro.observability import recorder as _obs
from repro.entropy.arithmetic import (
    arithmetic_decode,
    arithmetic_encode,
    decode_int_sequence,
    encode_int_sequence,
)
from repro.entropy.rans import rans_decode, rans_encode
from repro.entropy.varint import (
    decode_uvarint,
    decode_varints,
    encode_uvarint,
    encode_varints,
)

__all__ = [
    "EntropyBackend",
    "AdaptiveArithmeticBackend",
    "RansBackend",
    "register_backend",
    "get_backend",
    "backend_for_tag",
    "available_backends",
    "encode_tagged_symbols",
    "decode_tagged_symbols",
    "encode_tagged_ints",
    "decode_tagged_ints",
    "DEFAULT_BACKEND",
]


class EntropyBackend:
    """A symbol-stream codec with a stable name and wire tag.

    Subclasses implement :meth:`encode` / :meth:`decode` over a finite
    alphabet.  Integer sequences ride on top: zigzag varint bytes coded as
    an alphabet-256 stream (:meth:`encode_ints` / :meth:`decode_ints`);
    backends may override those when they have a better native path.
    """

    #: Registry name (e.g. ``"rans"``); unique.
    name: str
    #: One-byte wire tag written ahead of tagged streams; stable forever.
    tag: int

    def encode(self, symbols: np.ndarray, num_symbols: int) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes, count: int, num_symbols: int) -> np.ndarray:
        raise NotImplementedError

    def encode_ints(self, values: np.ndarray) -> bytes:
        """Compress arbitrary signed integers (self-contained payload)."""
        arr = np.asarray(values, dtype=np.int64)
        out = bytearray()
        encode_uvarint(arr.size, out)
        if arr.size == 0:
            return bytes(out)
        byte_stream = encode_varints(arr, signed=True)
        encode_uvarint(len(byte_stream), out)
        out += self.encode(np.frombuffer(byte_stream, dtype=np.uint8), 256)
        return bytes(out)

    def decode_ints(self, data: bytes) -> np.ndarray:
        """Inverse of :meth:`encode_ints`."""
        count, pos = decode_uvarint(data, 0)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        n_bytes, pos = decode_uvarint(data, pos)
        raw = self.decode(data[pos:], n_bytes, 256).astype(np.uint8).tobytes()
        return decode_varints(raw, count, signed=True)


class AdaptiveArithmeticBackend(EntropyBackend):
    """The paper's adaptive arithmetic coder behind the backend interface."""

    name = "adaptive-arith"
    tag = 0

    def encode(self, symbols: np.ndarray, num_symbols: int) -> bytes:
        return arithmetic_encode(symbols, num_symbols)

    def decode(self, data: bytes, count: int, num_symbols: int) -> np.ndarray:
        return arithmetic_decode(data, count, num_symbols)

    def encode_ints(self, values: np.ndarray) -> bytes:
        # The native int-sequence path: varint bytes are self-delimiting, so
        # no byte-count header is needed and the checksum guards truncation.
        return encode_int_sequence(values)

    def decode_ints(self, data: bytes) -> np.ndarray:
        return decode_int_sequence(data)


class RansBackend(EntropyBackend):
    """Vectorized semi-static rANS (see :mod:`repro.entropy.rans`).

    Streams below :attr:`small_threshold` symbols fall back to the adaptive
    arithmetic coder (recorded in a leading mode byte): rANS pays a
    frequency-table header that dominates tiny streams, and the adaptive
    coder's per-symbol cost is negligible at that size.  Large streams —
    the ones that dominate wall-clock — take the vectorized path.
    """

    name = "rans"
    tag = 1

    _MODE_RANS = 0
    _MODE_ADAPTIVE = 1

    def __init__(self, small_threshold: int = 1024):
        self.small_threshold = small_threshold

    def encode(self, symbols: np.ndarray, num_symbols: int) -> bytes:
        arr = np.asarray(symbols)
        if arr.size == 0:
            return b""
        if arr.size < self.small_threshold:
            return bytes([self._MODE_ADAPTIVE]) + arithmetic_encode(arr, num_symbols)
        return bytes([self._MODE_RANS]) + rans_encode(arr, num_symbols)

    def decode(self, data: bytes, count: int, num_symbols: int) -> np.ndarray:
        if count == 0:
            return np.empty(0, dtype=np.int64)
        if not data:
            raise ValueError("truncated rans stream (missing mode byte)")
        mode, payload = data[0], data[1:]
        if mode == self._MODE_ADAPTIVE:
            return arithmetic_decode(payload, count, num_symbols)
        if mode == self._MODE_RANS:
            return rans_decode(payload, count, num_symbols)
        raise ValueError(f"unknown rans stream mode byte {mode}")


_REGISTRY: dict[str, EntropyBackend] = {}
_BY_TAG: dict[int, EntropyBackend] = {}

DEFAULT_BACKEND = "adaptive-arith"


def register_backend(backend: EntropyBackend) -> EntropyBackend:
    """Add a backend to the registry; names and tags must be unique."""
    if not 0 <= backend.tag <= 255:
        raise ValueError(f"backend tag must fit one byte, got {backend.tag}")
    existing = _REGISTRY.get(backend.name)
    if existing is not None and existing.tag != backend.tag:
        raise ValueError(f"backend name {backend.name!r} already registered")
    claimed = _BY_TAG.get(backend.tag)
    if claimed is not None and claimed.name != backend.name:
        raise ValueError(f"backend tag {backend.tag} already registered")
    _REGISTRY[backend.name] = backend
    _BY_TAG[backend.tag] = backend
    return backend


register_backend(AdaptiveArithmeticBackend())
register_backend(RansBackend())


def get_backend(backend: str | EntropyBackend) -> EntropyBackend:
    """Resolve a backend by name (or pass an instance through)."""
    if isinstance(backend, EntropyBackend):
        return backend
    try:
        return _REGISTRY[backend]
    except KeyError:
        raise ValueError(
            f"unknown entropy backend {backend!r}; "
            f"available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def backend_for_tag(tag: int) -> EntropyBackend:
    """Resolve a backend by its wire tag byte."""
    try:
        return _BY_TAG[tag]
    except KeyError:
        raise ValueError(f"unknown entropy backend tag {tag}") from None


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


# -- self-describing stream helpers ---------------------------------------------


def encode_tagged_symbols(
    symbols: np.ndarray, num_symbols: int, backend: str | EntropyBackend = DEFAULT_BACKEND
) -> bytes:
    """Encode a symbol stream with a leading backend tag byte."""
    b = get_backend(backend)
    payload = bytes([b.tag]) + b.encode(symbols, num_symbols)
    rec = _obs.current()
    if rec is not None:
        rec.count("entropy." + b.name + ".streams")
        rec.add_bytes("entropy." + b.name, len(payload))
    return payload


def decode_tagged_symbols(data: bytes, count: int, num_symbols: int) -> np.ndarray:
    """Decode a tagged symbol stream (backend chosen by its tag byte)."""
    if not data:
        raise ValueError("empty tagged symbol stream")
    return backend_for_tag(data[0]).decode(data[1:], count, num_symbols)


def encode_tagged_ints(
    values: np.ndarray, backend: str | EntropyBackend = DEFAULT_BACKEND
) -> bytes:
    """Encode a signed integer sequence with a leading backend tag byte."""
    b = get_backend(backend)
    payload = bytes([b.tag]) + b.encode_ints(values)
    rec = _obs.current()
    if rec is not None:
        rec.count("entropy." + b.name + ".streams")
        rec.add_bytes("entropy." + b.name, len(payload))
    return payload


def decode_tagged_ints(data: bytes) -> np.ndarray:
    """Decode a tagged integer sequence (backend chosen by its tag byte)."""
    if not data:
        raise ValueError("empty tagged int stream")
    return backend_for_tag(data[0]).decode_ints(data[1:])
