"""Spinning LiDAR sensor models.

The paper's datasets were captured with a Velodyne HDL-64E [9]: 64 laser
beams spanning elevations +2 deg to -24.8 deg, ~0.09 deg azimuthal
resolution, 10 revolutions per second, ~120 m range.  The sensor metadata
(Section 3.3) — angle ranges, sample counts H and W — drives both the
simulator and DBGC's polyline organization, which needs the average angular
steps ``u_theta`` and ``u_phi``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["SensorModel"]


@dataclass(frozen=True)
class SensorModel:
    """Geometry and noise model of a spinning LiDAR sensor.

    Attributes
    ----------
    name:
        Human-readable sensor name.
    n_beams:
        Number of laser rows (vertical samples, the paper's ``W``).
    azimuth_steps:
        Samples per revolution (the paper's ``H``).
    elevation_max_deg / elevation_min_deg:
        Beam elevations relative to the horizon, degrees (top / bottom).
    r_min / r_max:
        Valid radial range in meters.
    frames_per_second:
        Revolutions (frames) per second.
    range_noise_sigma:
        Std-dev of Gaussian radial measurement noise, meters.
    angle_jitter:
        Std-dev of *per-ray* angular noise as a fraction of the angular
        step (encoder timing noise; small).
    beam_jitter:
        Std-dev of *per-beam* systematic calibration offsets as a fraction
        of the angular step.  Calibration moves whole lasers, so offsets
        are constant along a ring — this is what makes a calibrated cloud
        "positioned with regularity but not on a grid" (paper Figure 5).
    dropout:
        Probability that a ray returns nothing (absorbed / out of range).
    height:
        Sensor mounting height above the ground plane, meters.
    """

    name: str = "velodyne-hdl64e"
    n_beams: int = 64
    azimuth_steps: int = 2083
    elevation_max_deg: float = 2.0
    elevation_min_deg: float = -24.8
    r_min: float = 0.9
    r_max: float = 120.0
    frames_per_second: float = 10.0
    range_noise_sigma: float = 0.018
    angle_jitter: float = 0.005
    beam_jitter: float = 0.4
    dropout: float = 0.12
    height: float = 1.73

    def __post_init__(self) -> None:
        if self.n_beams < 1 or self.azimuth_steps < 1:
            raise ValueError("sensor needs at least one beam and azimuth step")
        if self.elevation_min_deg >= self.elevation_max_deg:
            raise ValueError("elevation_min_deg must be below elevation_max_deg")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.r_min <= 0 or self.r_max <= self.r_min:
            raise ValueError("need 0 < r_min < r_max")

    # -- derived metadata (paper Section 3.3) ------------------------------------

    @property
    def phi_angles(self) -> np.ndarray:
        """Polar angles (from +z) of the beams, ascending."""
        elevations = np.linspace(
            self.elevation_max_deg, self.elevation_min_deg, self.n_beams
        )
        return np.deg2rad(90.0 - elevations)

    @property
    def phi_range(self) -> tuple[float, float]:
        """(phi_min, phi_max) across the beams."""
        angles = self.phi_angles
        return float(angles.min()), float(angles.max())

    @property
    def u_theta(self) -> float:
        """Average azimuthal step between adjacent samples (paper u_theta)."""
        return 2.0 * np.pi / self.azimuth_steps

    @property
    def u_phi(self) -> float:
        """Average polar step between adjacent beams (paper u_phi)."""
        lo, hi = self.phi_range
        return (hi - lo) / max(self.n_beams - 1, 1)

    @property
    def rays_per_frame(self) -> int:
        return self.n_beams * self.azimuth_steps

    def raw_frame_bits(self, bits_per_coordinate: int = 32) -> float:
        """Raw data rate accounting of Section 4.4 (bits per frame)."""
        return self.rays_per_frame * 3 * bits_per_coordinate

    # -- scaling ------------------------------------------------------------------

    def scaled(self, factor: float) -> "SensorModel":
        """A sensor with both angular resolutions scaled by ``factor``.

        Scaling beams and azimuth steps together preserves the
        ``u_theta : u_phi`` aspect ratio, which the polyline organization
        depends on (a lopsided scale makes adjacent beams spuriously close
        and the extension step weaves between rings).  Used to generate
        smaller frames that pure-Python codecs can chew through while
        keeping the angular structure intact.
        """
        steps = max(int(round(self.azimuth_steps * factor)), 8)
        beams = max(int(round(self.n_beams * factor)), 2)
        return replace(self, azimuth_steps=steps, n_beams=beams)

    @classmethod
    def velodyne_hdl64e(cls) -> "SensorModel":
        """The paper's sensor at full resolution."""
        return cls()

    @classmethod
    def benchmark_default(cls) -> "SensorModel":
        """Half-resolution HDL-64E producing ~25-35 K points per frame."""
        return cls().scaled(0.5)
