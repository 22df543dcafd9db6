"""Stream validation: decode a DBGC stream and check its contracts.

For archival pipelines (the paper's server may store ``B`` directly) it
matters that a stored stream is *provably* usable later.  The validator
decodes a stream, checks structural consistency, and — when the original
cloud is available — verifies the one-to-one mapping and the error bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.container import unpack_container
from repro.core.pipeline import DBGCCompressor, DBGCDecompressor
from repro.geometry.points import PointCloud

__all__ = ["ValidationReport", "validate_stream"]


@dataclass
class ValidationReport:
    """Outcome of validating one DBGC stream."""

    ok: bool
    n_points: int
    q_xyz: float
    issues: list[str] = field(default_factory=list)
    max_euclidean_error: float | None = None

    def __str__(self) -> str:  # pragma: no cover - convenience formatting
        status = "OK" if self.ok else "FAILED"
        lines = [f"{status}: {self.n_points} points, q = {self.q_xyz} m"]
        if self.max_euclidean_error is not None:
            lines.append(f"max Euclidean error: {self.max_euclidean_error:.5f} m")
        lines.extend(f"- {issue}" for issue in self.issues)
        return "\n".join(lines)


def validate_stream(
    payload: bytes,
    original: PointCloud | None = None,
    sensor=None,
) -> ValidationReport:
    """Decode and check a DBGC stream.

    Structural checks always run: the container parses, every component
    decodes, and the decoded cloud is finite.  With ``original`` given, the
    error-bound contract is verified end-to-end by re-deriving the
    point correspondence (re-compressing with the stream's own header
    parameters — deterministic, so the mapping matches).
    """
    issues: list[str] = []
    try:
        header, *_ = unpack_container(payload)
    except (ValueError, IndexError, KeyError) as exc:
        return ValidationReport(
            ok=False, n_points=0, q_xyz=0.0, issues=[f"container: {exc}"]
        )
    try:
        decoded = DBGCDecompressor().decompress(payload)
    except Exception as exc:  # noqa: BLE001 - report, don't crash
        return ValidationReport(
            ok=False,
            n_points=0,
            q_xyz=header.q_xyz,
            issues=[f"decode: {type(exc).__name__}: {exc}"],
        )
    if not np.isfinite(decoded.xyz).all():
        issues.append("decoded coordinates contain non-finite values")

    max_error: float | None = None
    if original is not None:
        if len(original) != len(decoded):
            issues.append(
                f"point count mismatch: original {len(original)}, "
                f"decoded {len(decoded)}"
            )
        else:
            params = header.to_params()
            compressor = DBGCCompressor(
                params,
                sensor=sensor,
                u_theta=header.u_theta,
                u_phi=header.u_phi,
            )
            result = compressor.compress_detailed(original)
            if result.payload != payload:
                issues.append(
                    "stream does not match a deterministic re-compression of "
                    "the original (different parameters or corrupted data)"
                )
            else:
                diff = decoded.xyz[result.mapping] - original.xyz
                max_error = float(np.linalg.norm(diff, axis=1).max()) if len(diff) else 0.0
                bound = float(np.sqrt(3.0)) * header.q_xyz * (1 + 1e-6)
                if header.strict_cartesian:
                    if float(np.abs(diff).max()) > header.q_xyz * (1 + 1e-6):
                        issues.append("strict per-dimension error bound violated")
                elif max_error > bound:
                    issues.append(
                        f"error bound violated: {max_error:.5f} > {bound:.5f}"
                    )
    return ValidationReport(
        ok=not issues,
        n_points=len(decoded),
        q_xyz=header.q_xyz,
        issues=issues,
        max_euclidean_error=max_error,
    )
