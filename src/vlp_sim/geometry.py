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


def norm(v):
    """Euclidean length of one vector (3,) or of each row of a batch (N, 3).

    Summed as x*x + y*y + z*z, element by element, so one vector and a batch
    of vectors give the same bits.
    """
    x, y, z = np.asarray(v, dtype=float).T
    return np.sqrt(x * x + y * y + z * z)


def unit(v) -> np.ndarray:
    """Normalize one vector (3,) or each row of a batch (N, 3); raises on zero length."""
    v = np.asarray(v, dtype=float)
    n = norm(v)
    if not n.all():
        raise ValueError("zero-length vector has no direction")
    return v / n[..., None]


def spherical_from_direction(v):
    """Beam angles of one direction (3,) or of each row of (N, 3), in the
    module's convention: (azimuth_deg in [0, 360), elevation_deg from nadir
    in [0, 180]); (0, 0, -1) is elevation 0 and (1, 0, 0) is (0, 90).
    """
    # contiguous components: numpy's strided and SIMD loops for arccos and
    # arctan2 can differ in the last bit, and a batch must match one vector
    x, y, z = unit(v).T.copy()
    el = np.degrees(np.arccos(np.minimum(np.maximum(-z, -1.0), 1.0)))
    az = np.degrees(np.arctan2(y, x)) % 360.0
    return az, el


@dataclass(frozen=True)
class Room:
    """Rectangular room with the emitter mounted at the ceiling centre."""

    width_m: float = 1.0
    depth_m: float = 1.0
    height_m: float = 3.0

    def __post_init__(self):
        if not all(0.0 < span < np.inf for span in (self.width_m, self.depth_m, self.height_m)):
            raise ValueError("room dimensions must be positive and finite")

    @property
    def emitter_pos(self) -> np.ndarray:
        return np.array([self.width_m / 2.0, self.depth_m / 2.0, self.height_m])

    def contains(self, p):
        """Whether each point (last axis x, y, z) lies in the room, walls included."""
        x, y, z = np.asarray(p, dtype=float).T
        return (
            (0.0 <= x) & (x <= self.width_m)
            & (0.0 <= y) & (y <= self.depth_m)
            & (0.0 <= z) & (z <= self.height_m)
        )

    def check_receiver(self, position) -> None:
        """Raise ValueError unless every position lies in the room, below the ceiling."""
        position = np.asarray(position, dtype=float)
        if not self.contains(position).all():
            raise ValueError("receiver position is outside the room")
        if (position[..., 2] >= self.height_m).any():
            raise ValueError("receiver must sit below the ceiling")


def check_fov(fov_deg: float) -> None:
    """Raise ValueError unless the full cone angle lies in (0, 180]."""
    if not 0.0 < fov_deg <= 180.0:
        raise ValueError("fov_deg must be in (0, 180]")


@dataclass(frozen=True)
class ReceiverState:
    """Photodetector pose: position [m], unit facing normal, field of view.

    fov_deg is the full cone angle; incidence beyond half of it is rejected.
    position and normal may also be (N, 3) arrays: N receivers, one pass.
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
    for every azimuth, so the beam count stays n_azimuth * n_elevation.  A
    beam's direction is a closed form of its index (direction), so the grid
    holds only its two steps.
    """

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
        return self.n_azimuth * self.n_elevation

    def angles_of(self, beam) -> tuple:
        """(azimuth_deg, elevation_deg) of each beam index (any shape)."""
        ring, az_index = np.divmod(beam, self.n_azimuth)
        return az_index * self.azimuth_step_deg, ring * self.elevation_step_deg

    def direction(self, beam) -> np.ndarray:
        """Unit vector of each beam index (any shape; 0-d gives (3,)), on a
        trailing axis of 3: (sin el cos az, sin el sin az, -cos el)."""
        ring, az_index = np.divmod(beam, self.n_azimuth)
        az = np.radians(az_index * self.azimuth_step_deg)
        el = np.radians(ring * self.elevation_step_deg)
        sin_el = np.sin(el)
        return np.stack([sin_el * np.cos(az), sin_el * np.sin(az), -np.cos(el)], axis=-1)


def check_beam_steps(azimuth_step_deg: float, elevation_step_deg: float) -> None:
    """Raise ValueError unless the steps divide 360 and 90 evenly, at least once."""
    for name, span, step in (
        ("azimuth", 360.0, azimuth_step_deg),
        ("elevation", 90.0, elevation_step_deg),
    ):
        if not step > 0.0 or round(span / step) < 1 or abs(span / step - round(span / step)) > 1e-9:
            raise ValueError(f"{name} step {step} does not divide {span} evenly")


def build_beam_grid(azimuth_step_deg: float = 1.0, elevation_step_deg: float = 1.0) -> BeamGrid:
    """Construct the full sweep grid; steps must divide 360 and 90 evenly."""
    check_beam_steps(azimuth_step_deg, elevation_step_deg)
    return BeamGrid(float(azimuth_step_deg), float(elevation_step_deg))


def incidence_cosine(tx_pos, rx: ReceiverState):
    """Cosine of the incidence angle at the receiver, or at each one of a batch.

    Computed from the displacement receiver -> transmitter, so an
    upward-facing receiver below the emitter gets a positive value.
    Clamped to [-1, 1].
    """
    d = np.asarray(tx_pos, dtype=float) - rx.position
    n = norm(d)
    if not n.all():
        raise ValueError("transmitter and receiver positions coincide")
    (dx, dy, dz), (mx, my, mz) = d.T, rx.normal.T
    return np.minimum(np.maximum((dx * mx + dy * my + dz * mz) / n, -1.0), 1.0)


def in_fov(cos_psi, fov_deg: float):
    """True where the incidence angle lies inside the detector cone.

    The boundary is inclusive; the epsilon absorbs rounding in the cosine
    of the half-angle so an exactly-on-cone arrival stays inside.
    """
    check_fov(fov_deg)
    return cos_psi >= float(np.cos(np.radians(fov_deg / 2.0))) - 1e-12
