"""Scan-direction grid, room geometry, and incidence angles.

Conventions used throughout the package:

* positions are metres, x/y along the floor, z up from the floor;
* beam elevation is measured from straight down (nadir), so elevation 0
  points at the floor and 90 is horizontal;
* beam azimuth 0 is +x and 90 is +y, counter-clockwise seen from above.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

UP = np.array([0.0, 0.0, 1.0])


def unit(v) -> np.ndarray:
    """Normalize a vector; raises on zero length."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("zero-length vector has no direction")
    return v / n


def direction_from_angles(azimuth_deg: float, elevation_deg: float) -> np.ndarray:
    """Unit pointing vector for a beam at the given azimuth/elevation.

    (az=0, el=0) -> (0, 0, -1); (az=0, el=90) -> (1, 0, 0).
    """
    if not 0.0 <= azimuth_deg < 360.0:
        raise ValueError(f"azimuth_deg must be in [0, 360), got {azimuth_deg}")
    if not 0.0 <= elevation_deg <= 90.0:
        raise ValueError(f"elevation_deg must be in [0, 90], got {elevation_deg}")
    a = np.radians(azimuth_deg)
    e = np.radians(elevation_deg)
    return np.array([np.sin(e) * np.cos(a), np.sin(e) * np.sin(a), -np.cos(e)])


def spherical_from_direction(v) -> tuple[float, float]:
    """Inverse of direction_from_angles.

    Returns (azimuth_deg in [0, 360), elevation_deg from nadir in [0, 180]).
    """
    v = unit(v)
    el = float(np.degrees(np.arccos(np.clip(-v[2], -1.0, 1.0))))
    az = float(np.degrees(np.arctan2(v[1], v[0])) % 360.0)
    return az, el


@dataclass(frozen=True)
class Room:
    """Rectangular room with the emitter mounted at the ceiling centre."""

    width_m: float = 1.0
    depth_m: float = 1.0
    height_m: float = 3.0

    def __post_init__(self):
        if min(self.width_m, self.depth_m, self.height_m) <= 0.0:
            raise ValueError("room dimensions must be positive")

    @property
    def emitter_pos(self) -> np.ndarray:
        return np.array([self.width_m / 2.0, self.depth_m / 2.0, self.height_m])

    def contains(self, p) -> bool:
        x, y, z = np.asarray(p, dtype=float)
        return (
            0.0 <= x <= self.width_m
            and 0.0 <= y <= self.depth_m
            and 0.0 <= z <= self.height_m
        )


def check_fov(fov_deg: float) -> None:
    """Raise ValueError unless the full cone angle lies in (0, 180]."""
    if not 0.0 < fov_deg <= 180.0:
        raise ValueError("fov_deg must be in (0, 180]")


@dataclass(frozen=True)
class ReceiverState:
    """Photodetector pose: position [m], unit facing normal, field of view.

    fov_deg is the full cone angle; incidence beyond half of it is rejected.
    """

    position: np.ndarray
    normal: np.ndarray = field(default_factory=lambda: UP.copy())
    fov_deg: float = 120.0

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "normal", unit(self.normal))
        check_fov(self.fov_deg)


@dataclass(frozen=True)
class BeamGrid:
    """All scan directions, ordered ring by ring from nadir outwards.

    Beam j = ring * n_azimuth + az_index points at
    (az_index * azimuth_step, ring * elevation_step).  Elevation rings cover
    0 .. 90 - step; the ring at elevation 0 repeats the exact nadir vector
    for every azimuth, so the beam count stays n_azimuth * n_elevation.
    """

    directions: np.ndarray  # (M, 3) unit vectors
    azimuth_step_deg: float
    elevation_step_deg: float

    @property
    def n_azimuth(self) -> int:
        return int(round(360.0 / self.azimuth_step_deg))

    @property
    def n_elevation(self) -> int:
        return int(round(90.0 / self.elevation_step_deg))

    @property
    def size(self) -> int:
        return int(self.directions.shape[0])

    def angles_of(self, j: int) -> tuple[float, float]:
        """(azimuth_deg, elevation_deg) of beam j."""
        ring, az_index = divmod(int(j), self.n_azimuth)
        return az_index * self.azimuth_step_deg, ring * self.elevation_step_deg


def check_beam_steps(azimuth_step_deg: float, elevation_step_deg: float) -> None:
    """Raise ValueError unless the steps divide 360 and 90 evenly."""
    for name, span, step in (
        ("azimuth", 360.0, azimuth_step_deg),
        ("elevation", 90.0, elevation_step_deg),
    ):
        if step <= 0.0 or abs(span / step - round(span / step)) > 1e-9:
            raise ValueError(f"{name} step {step} does not divide {span} evenly")


def build_beam_grid(azimuth_step_deg: float = 1.0, elevation_step_deg: float = 1.0) -> BeamGrid:
    """Construct the full sweep grid; steps must divide 360 and 90 evenly."""
    check_beam_steps(azimuth_step_deg, elevation_step_deg)
    n_az = int(round(360.0 / azimuth_step_deg))
    n_el = int(round(90.0 / elevation_step_deg))
    az = np.radians(np.arange(n_az) * azimuth_step_deg)
    el = np.radians(np.arange(n_el) * elevation_step_deg)
    dirs = np.empty((n_el * n_az, 3))
    dirs[:, 0] = (np.sin(el)[:, None] * np.cos(az)[None, :]).ravel()
    dirs[:, 1] = (np.sin(el)[:, None] * np.sin(az)[None, :]).ravel()
    dirs[:, 2] = np.repeat(-np.cos(el), n_az)
    return BeamGrid(dirs, float(azimuth_step_deg), float(elevation_step_deg))


def incidence_cosine(tx_pos, rx: ReceiverState) -> float:
    """Cosine of the incidence angle at the receiver.

    Computed from the displacement receiver -> transmitter, so an
    upward-facing receiver below the emitter gets a positive value.
    Clamped to [-1, 1].
    """
    d = np.asarray(tx_pos, dtype=float) - rx.position
    n = float(np.linalg.norm(d))
    if n == 0.0:
        raise ValueError("transmitter and receiver positions coincide")
    return float(np.clip(np.dot(d, rx.normal) / n, -1.0, 1.0))


def in_fov(cos_psi: float, fov_deg: float) -> bool:
    """True when the incidence angle lies inside the detector cone.

    The boundary is inclusive; the epsilon absorbs rounding in the cosine
    of the half-angle so an exactly-on-cone arrival stays inside.
    """
    check_fov(fov_deg)
    return cos_psi >= float(np.cos(np.radians(fov_deg / 2.0))) - 1e-12
