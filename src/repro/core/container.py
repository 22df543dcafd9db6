"""Final bit-sequence layout (paper Section 3.7, Figure 8).

The container records the error bound, the coding flags, the entropy
coder's tag and the sensor's angular steps, followed by the three
length-prefixed components: the octree stream for dense points, one
coordinate stream per radial group (each group carries its own ``r_max``
inside, Figure 8b), and the outlier stream.  The header makes the
decompressor fully self-contained.

Format version 2 adds the entropy tag byte (always 0, the adaptive
arithmetic coder, the tag every entropy-coded stream also starts with; any
other value is rejected) and covers the version-2 stream layouts of the
sub-codecs — see docs/FORMAT.md.

Format version 3 marks a *delta frame* (inter-frame temporal coding,
:mod:`repro.core.temporal`): the version byte doubles as the frame-type
flag (1/2 = intra, 3 = delta), and the header gains a predictor-state
fingerprint (CRC-32 of the previous decoded frame) plus the ego-motion
translation between the predictor frame and this one.  Keyframes are
plain version-2 containers, byte-identical to independent coding.

Version-1 and version-2 payloads remain decodable: :func:`unpack_container`
dispatches on the version byte and reports it in the header so the
sub-codecs can select their legacy stream layouts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.params import DBGCParams
from repro.entropy.backend import TAG
from repro.entropy.varint import decode_uvarint, encode_uvarint

__all__ = [
    "ContainerHeader",
    "pack_container",
    "pack_container_v3",
    "unpack_container",
    "container_version",
]

_MAGIC = b"DBGC"
_VERSION = 2
_VERSION_DELTA = 3
_FIXED = struct.Struct("<4d")  # q_xyz, u_theta, u_phi, th_r
#: v3 extension: u32 predictor fingerprint + 3 x f64 ego-motion delta.
_V3_EXT = struct.Struct("<I3d")

_FLAG_SPHERICAL = 1
_FLAG_RADIAL = 2
_FLAG_STRICT = 4


@dataclass(frozen=True)
class ContainerHeader:
    """Decoded container metadata."""

    q_xyz: float
    u_theta: float
    u_phi: float
    th_r: float
    spherical_conversion: bool
    radial_reference: bool
    strict_cartesian: bool
    #: Container format version (1, 2 = intra frame; 3 = delta frame).
    version: int = 2
    #: CRC-32 of the predictor state a delta frame was coded against
    #: (v3 only; 0 on intra frames).
    predictor_fingerprint: int = 0
    #: Sensor translation (current - predictor frame), meters (v3 only).
    ego_delta: tuple[float, float, float] = (0.0, 0.0, 0.0)

    @property
    def is_delta(self) -> bool:
        return self.version == _VERSION_DELTA

    def to_params(self, base: DBGCParams | None = None) -> DBGCParams:
        """Reconstruct the params fields the decompressor needs."""
        base = base if base is not None else DBGCParams()
        return base.with_updates(
            q_xyz=self.q_xyz,
            th_r=self.th_r,
            spherical_conversion=self.spherical_conversion,
            radial_reference=self.radial_reference,
            strict_cartesian=self.strict_cartesian,
        )


def container_version(data: bytes) -> int:
    """The format version byte of a DBGC payload (frame-type discriminator)."""
    if data[:4] != _MAGIC or len(data) < 5:
        raise ValueError("not a DBGC stream (bad magic)")
    return data[4]


def _flags_byte(params: DBGCParams) -> int:
    flags = 0
    if params.spherical_conversion:
        flags |= _FLAG_SPHERICAL
    if params.radial_reference:
        flags |= _FLAG_RADIAL
    if params.strict_cartesian:
        flags |= _FLAG_STRICT
    return flags


def _pack_sections(
    out: bytearray,
    dense_payload: bytes,
    group_payloads: list[bytes],
    outlier_payload: bytes,
    attribute_payload: bytes,
) -> bytes:
    encode_uvarint(len(dense_payload), out)
    out += dense_payload
    encode_uvarint(len(group_payloads), out)
    for payload in group_payloads:
        encode_uvarint(len(payload), out)
        out += payload
    encode_uvarint(len(outlier_payload), out)
    out += outlier_payload
    encode_uvarint(len(attribute_payload), out)
    out += attribute_payload
    return bytes(out)


def pack_container(
    params: DBGCParams,
    u_theta: float,
    u_phi: float,
    dense_payload: bytes,
    group_payloads: list[bytes],
    outlier_payload: bytes,
    attribute_payload: bytes = b"",
) -> bytes:
    """Assemble the final bit sequence B (an intra frame / keyframe).

    ``attribute_payload`` is an optional trailing block carrying per-point
    attributes (e.g. intensity) in decoded point order.
    """
    out = bytearray(_MAGIC)
    out.append(_VERSION)
    out.append(_flags_byte(params))
    out.append(TAG)
    out += _FIXED.pack(params.q_xyz, u_theta, u_phi, params.th_r)
    return _pack_sections(
        out, dense_payload, group_payloads, outlier_payload, attribute_payload
    )


def pack_container_v3(
    params: DBGCParams,
    u_theta: float,
    u_phi: float,
    predictor_fingerprint: int,
    ego_delta: tuple[float, float, float],
    dense_payload: bytes,
    group_payloads: list[bytes],
    outlier_payload: bytes,
    attribute_payload: bytes = b"",
) -> bytes:
    """Assemble a delta frame (format v3).

    The dense payload and every group payload must already carry their
    leading intra/delta mode byte (see :mod:`repro.core.temporal`); the
    outlier and attribute sections are always intra-coded.
    """
    out = bytearray(_MAGIC)
    out.append(_VERSION_DELTA)
    out.append(_flags_byte(params))
    out.append(TAG)
    out += _FIXED.pack(params.q_xyz, u_theta, u_phi, params.th_r)
    dx, dy, dz = ego_delta
    out += _V3_EXT.pack(predictor_fingerprint & 0xFFFFFFFF, dx, dy, dz)
    return _pack_sections(
        out, dense_payload, group_payloads, outlier_payload, attribute_payload
    )


def _take(data: bytes, pos: int, size: int) -> tuple[bytes, int]:
    """Bounds-checked slice: a short container raises instead of truncating."""
    if size < 0 or pos + size > len(data):
        raise ValueError("truncated DBGC container")
    return data[pos : pos + size], pos + size


def unpack_container(
    data: bytes,
) -> tuple[ContainerHeader, bytes, list[bytes], bytes, bytes]:
    """Split B back into (header, dense, groups, outlier, attributes).

    Every length field is bounds-checked against the payload, so a
    truncated or corrupt container raises ``ValueError("truncated DBGC
    container")`` instead of handing short slices to the sub-decoders.
    """
    if data[:4] != _MAGIC:
        raise ValueError("not a DBGC stream (bad magic)")
    if len(data) < 6:
        raise ValueError("truncated DBGC container")
    version = data[4]
    if version not in (1, _VERSION, _VERSION_DELTA):
        raise ValueError(f"unsupported DBGC version {version}")
    flags = data[5]
    if version == 1:
        # v1 has no tag byte: flags at 5, fixed header at 6.
        pos = 6
    else:
        if len(data) < 7:
            raise ValueError("truncated DBGC container")
        if data[6] != TAG:
            raise ValueError(f"unknown entropy tag {data[6]} in DBGC header")
        pos = 7
    if pos + _FIXED.size > len(data):
        raise ValueError("truncated DBGC container")
    q_xyz, u_theta, u_phi, th_r = _FIXED.unpack_from(data, pos)
    pos += _FIXED.size
    fingerprint = 0
    ego_delta = (0.0, 0.0, 0.0)
    if version == _VERSION_DELTA:
        if pos + _V3_EXT.size > len(data):
            raise ValueError("truncated DBGC container")
        fingerprint, dx, dy, dz = _V3_EXT.unpack_from(data, pos)
        ego_delta = (dx, dy, dz)
        pos += _V3_EXT.size
    header = ContainerHeader(
        q_xyz=q_xyz,
        u_theta=u_theta,
        u_phi=u_phi,
        th_r=th_r,
        spherical_conversion=bool(flags & _FLAG_SPHERICAL),
        radial_reference=bool(flags & _FLAG_RADIAL),
        strict_cartesian=bool(flags & _FLAG_STRICT),
        version=version,
        predictor_fingerprint=fingerprint,
        ego_delta=ego_delta,
    )
    try:
        size, pos = decode_uvarint(data, pos)
        dense, pos = _take(data, pos, size)
        n_groups, pos = decode_uvarint(data, pos)
        groups = []
        for _ in range(n_groups):
            size, pos = decode_uvarint(data, pos)
            group, pos = _take(data, pos, size)
            groups.append(group)
        size, pos = decode_uvarint(data, pos)
        outlier, pos = _take(data, pos, size)
        size, pos = decode_uvarint(data, pos)
        attributes, pos = _take(data, pos, size)
    except (IndexError, ValueError):
        # A length varint ran off the end of the buffer (or was malformed),
        # or a section body was short — one uniform error for callers.
        raise ValueError("truncated DBGC container") from None
    return header, dense, groups, outlier, attributes
