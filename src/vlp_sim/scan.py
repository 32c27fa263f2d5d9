"""Timed beam sweep: trace generation, timing offsets, pilot realignment.

A sweep visits every grid direction once, dwelling for a fixed step time.
The receiver records one power sample per dwell slot; an optional known
pilot preamble precedes the sweep so a desynchronized receiver can realign
its sample indexing by cyclic cross-correlation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, received_power_on_axis
from .geometry import BeamGrid, ReceiverState, Room, in_fov, incidence_cosine, spherical_from_direction

DEFAULT_PILOT_LEN = 64
_PILOT_SEED = 0x5CA17B0  # fixed so the stock preamble is reproducible


@dataclass(frozen=True)
class ScanPlan:
    """One sweep: the grid and an optional pilot preamble."""

    grid: BeamGrid
    pilot_w: np.ndarray | None = None

    def __post_init__(self):
        if self.pilot_w is not None:
            object.__setattr__(self, "pilot_w", np.asarray(self.pilot_w, dtype=float))
            if np.any(self.pilot_w < 0.0):
                raise ValueError("pilot power levels must be nonnegative")

    @property
    def pilot_len(self) -> int:
        return 0 if self.pilot_w is None else int(len(self.pilot_w))


@dataclass
class MeasurementTrace:
    """Sampled powers for one sweep: pilot slots first, then one slot per beam."""

    samples: np.ndarray

    def __len__(self) -> int:
        return int(len(self.samples))


def make_pilot(on_level_w: float, length: int = DEFAULT_PILOT_LEN, seed: int = _PILOT_SEED) -> np.ndarray:
    """Pseudo-random on/off pilot with a sharp cyclic autocorrelation peak."""
    if on_level_w <= 0.0:
        raise ValueError("pilot on-level must be positive")
    if length < 1:
        raise ValueError("pilot length must be >= 1")
    bits = np.random.Generator(np.random.PCG64(seed)).integers(0, 2, size=length)
    if bits.sum() == 0:  # degenerate all-off draw cannot correlate
        bits[0] = 1
    return bits.astype(float) * on_level_w


def _rings_within_half_step(elevation_deg: float, grid: BeamGrid) -> list[int]:
    step = grid.elevation_step_deg
    centre = int(round(elevation_deg / step))
    rings = []
    for ring in (centre - 1, centre, centre + 1):
        if 0 <= ring < grid.n_elevation and abs(ring * step - elevation_deg) <= 0.5 * step:
            rings.append(ring)
    return rings


def _azimuths_within_half_step(azimuth_deg: float, grid: BeamGrid) -> list[int]:
    step = grid.azimuth_step_deg
    n = grid.n_azimuth
    centre = int(round(azimuth_deg / step))
    hits = []
    for a in (centre - 1, centre, centre + 1):
        ai = a % n
        delta = abs(ai * step - azimuth_deg)
        if min(delta, 360.0 - delta) <= 0.5 * step and ai not in hits:
            hits.append(ai)
    return sorted(hits)


def run_scan(
    plan: ScanPlan,
    room: Room,
    rx: ReceiverState,
    params: ChannelParams,
    sigma_w: float,
    rng: np.random.Generator,
) -> MeasurementTrace:
    """Sweep every beam once and record the received power per dwell slot.

    The receiver collects on-axis power in the slots whose beam cell covers
    its direction from the emitter (the nadir ring counts as one cell for
    every azimuth, since all its beams point the same way), provided the
    arrival lies inside the field of view.  Every slot, pilot included,
    additionally gets an independent N(0, sigma_w^2) noise draw.
    """
    if not room.contains(rx.position):
        raise ValueError("receiver position is outside the room")
    if rx.position[2] >= room.height_m:
        raise ValueError("receiver must sit below the ceiling")
    if sigma_w < 0.0:
        raise ValueError("sigma_w must be nonnegative")

    grid = plan.grid
    k = plan.pilot_len
    n = k + grid.size
    if sigma_w > 0.0:
        samples = rng.normal(0.0, sigma_w, size=n)
    else:
        samples = np.zeros(n)
    if k:
        samples[:k] += plan.pilot_w

    tx = room.emitter_pos
    to_rx = rx.position - tx
    dist = float(np.linalg.norm(to_rx))
    cos_psi = incidence_cosine(tx, rx)
    if dist > 0.0 and in_fov(cos_psi, rx.fov_deg):
        power = received_power_on_axis(dist, cos_psi, params)
        az_t, el_t = spherical_from_direction(to_rx)
        for ring in _rings_within_half_step(el_t, grid):
            if ring == 0:
                samples[k : k + grid.n_azimuth] += power
            else:
                base = k + ring * grid.n_azimuth
                for a in _azimuths_within_half_step(az_t, grid):
                    samples[base + a] += power
    return MeasurementTrace(samples)


def apply_timing_offset(trace: MeasurementTrace, offset_steps: int) -> MeasurementTrace:
    """Cyclically rotate the sample indexing, as a desynchronized receiver sees it.

    The trace is one full period, so shifting by its length is the identity.
    """
    n = len(trace.samples)
    if abs(offset_steps) > n:
        raise ValueError("offset beyond one full trace period")
    return MeasurementTrace(np.roll(trace.samples, offset_steps))


def realign_with_pilot(trace: MeasurementTrace, pilot_w) -> MeasurementTrace:
    """Undo an unknown cyclic offset by correlating against the known pilot.

    Scores every cyclic shift, takes the best (ties -> smallest nonnegative
    shift), rotates the trace so the pilot sits at the head, and returns the
    measurement part with the pilot stripped.
    """
    pilot = np.asarray(pilot_w, dtype=float)
    k = int(len(pilot))
    if k == 0:
        raise ValueError("cannot realign without a pilot")
    x = trace.samples
    n = len(x)
    if n < k:
        raise ValueError("trace shorter than the pilot")
    # corr[s] = sum_i pilot[i] * x[(s + i) mod n]; accumulating per pilot tap
    # keeps the float op order identical for every shift, so exact ties stay
    # exact and argmax's first-index rule implements the tie-break.
    corr = np.zeros(n)
    for i in range(k):
        if pilot[i] != 0.0:
            corr += pilot[i] * np.roll(x, -i)
    best = int(np.argmax(corr))
    realigned = np.roll(x, -best)
    return MeasurementTrace(realigned[k:])
