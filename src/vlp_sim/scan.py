"""Timed beam sweep: trace generation, timing offsets, pilot realignment.

A sweep visits every grid direction once, dwelling for a fixed step time.
The receiver records one power sample per dwell slot; an optional known
pilot preamble precedes the sweep so a desynchronized receiver can realign
its sample indexing by cyclic cross-correlation.  A peak-only trace keeps
just the samples that can hold the sweep's maximum, drawn from the same law;
the noise-only maximum comes from the standard library's normal quantile,
statistics.NormalDist().inv_cdf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .channel import ChannelParams, received_power_on_axis
from .geometry import BeamGrid, ReceiverState, Room, in_fov, incidence_cosine, spherical_from_direction

DEFAULT_PILOT_LEN = 64
_PILOT_SEED = 0x5CA17B0  # fixed so the stock preamble is reproducible
_STD_NORMAL = NormalDist()


@dataclass(frozen=True)
class ScanPlan:
    """One sweep: the grid, an optional pilot preamble, and the trace it needs.

    peak_only asks run_scan for just the samples a peak pick reads (see
    there); it samples the same peak as the dense trace but has no pilot.
    """

    grid: BeamGrid
    pilot_w: np.ndarray | None = None
    peak_only: bool = False

    def __post_init__(self):
        if self.pilot_w is not None:
            object.__setattr__(self, "pilot_w", np.asarray(self.pilot_w, dtype=float))
            if np.any(self.pilot_w < 0.0):
                raise ValueError("pilot power levels must be nonnegative")
            if self.peak_only:
                raise ValueError("a peak-only plan cannot carry a pilot")

    @property
    def pilot_len(self) -> int:
        return 0 if self.pilot_w is None else int(len(self.pilot_w))


@dataclass
class MeasurementTrace:
    """Sampled powers for one sweep: pilot slots first, then one slot per beam.

    A peak-only trace holds a few of the beam slots; slots gives the beam
    index of each sample (None on a dense trace, where it is the position).
    """

    samples: np.ndarray
    slots: np.ndarray | None = None


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


def support(grid: BeamGrid, room: Room, rx: ReceiverState, params: ChannelParams) -> tuple[np.ndarray, float]:
    """Beam slots that carry signal, ascending, and the on-axis power they carry.

    A slot carries signal when its beam cell covers the receiver's direction
    from the emitter (the nadir ring counts as one cell for every azimuth,
    since all its beams point the same way) and the arrival lies inside the
    field of view.  Returns an empty slot array and zero power otherwise.
    """
    tx = room.emitter_pos
    to_rx = rx.position - tx
    dist = float(np.linalg.norm(to_rx))
    cos_psi = incidence_cosine(tx, rx)
    if not (dist > 0.0 and in_fov(cos_psi, rx.fov_deg)):
        return np.zeros(0, dtype=int), 0.0
    az_t, el_t = spherical_from_direction(to_rx)
    slots = []
    for ring in _rings_within_half_step(el_t, grid):
        if ring == 0:
            slots.extend(range(grid.n_azimuth))
        else:
            slots.extend(ring * grid.n_azimuth + a for a in _azimuths_within_half_step(az_t, grid))
    return np.array(sorted(slots), dtype=int), received_power_on_axis(dist, cos_psi, params)


def draw_noise_max(sigma_w: float, k: int, rng: np.random.Generator) -> float:
    """One draw of the maximum of k iid N(0, sigma_w^2) samples.

    The maximum has CDF Phi(x / sigma_w)^k, so with U uniform on (0, 1) it is
    sigma_w * Phi^-1(p) for p = U^(1/k).  Phi^-1 is the standard library's
    NormalDist().inv_cdf (Wichura's AS 241, full double precision); for
    p > 1/2 it is evaluated as -Phi^-1(1 - p), with 1 - p formed by expm1 so
    the upper tail keeps its relative precision.  Consumes one uniform from rng.
    """
    if k < 1:
        raise ValueError("need at least one sample")
    u = rng.random()
    while u == 0.0:  # the open interval: log(0) has no quantile
        u = rng.random()
    log_p = math.log(u) / k
    p = math.exp(log_p)
    if p <= 0.5:
        return sigma_w * _STD_NORMAL.inv_cdf(p)
    return -sigma_w * _STD_NORMAL.inv_cdf(-math.expm1(log_p))


def run_scan(
    plan: ScanPlan,
    room: Room,
    rx: ReceiverState,
    params: ChannelParams,
    sigma_w: float,
    rng: np.random.Generator,
) -> MeasurementTrace:
    """Sweep every beam once and record the received power per dwell slot.

    The slots from support() collect its on-axis power.  Dense plans give
    every slot, pilot included, an independent N(0, sigma_w^2) draw.
    Peak-only plans keep just what the peak pick can read: the support slots
    with their noise draws (ascending slot order), then the maximum of the K
    noise-only slots as one draw_noise_max sample placed at a uniformly drawn
    noise-only slot.  Their trace lists the slot of every sample in ascending
    order, so argmax ties resolve as on the dense trace.  Noiseless, that
    maximum is 0 at the lowest noise-only slot, as a dense argmax sees it.
    """
    room.check_receiver(rx.position)
    if sigma_w < 0.0:
        raise ValueError("sigma_w must be nonnegative")

    grid = plan.grid
    slots, power = support(grid, room, rx, params)
    if plan.peak_only:
        return _peak_only_trace(grid.size, slots, power, sigma_w, rng)

    k = plan.pilot_len
    n = k + grid.size
    if sigma_w > 0.0:
        samples = rng.normal(0.0, sigma_w, size=n)
    else:
        samples = np.zeros(n)
    if k:
        samples[:k] += plan.pilot_w
    samples[k + slots] += power
    return MeasurementTrace(samples)


def _peak_only_trace(n_slots, slots, power, sigma_w, rng) -> MeasurementTrace:
    m = len(slots)
    values = power + rng.normal(0.0, sigma_w, size=m) if sigma_w > 0.0 else np.full(m, power)
    n_noise = n_slots - m
    if n_noise == 0:
        return MeasurementTrace(values, slots)
    if sigma_w > 0.0:
        peak = draw_noise_max(sigma_w, n_noise, rng)
        r = int(rng.integers(n_noise))
    else:
        peak, r = 0.0, 0
    # the r-th noise-only slot is r plus the number of support slots before it
    before = int(np.searchsorted(slots - np.arange(m), r, side="right"))
    return MeasurementTrace(
        np.concatenate((values[:before], [peak], values[before:])),
        np.concatenate((slots[:before], [r + before], slots[before:])),
    )


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
    # x[(s + i) mod n] == xx[s + i]: slices of one wrapped copy, no rolls.
    xx = np.concatenate([x, x[:k]])
    corr = np.zeros(n)
    for i in range(k):
        if pilot[i] != 0.0:
            corr += pilot[i] * xx[i : i + n]
    best = int(np.argmax(corr))
    realigned = np.roll(x, -best)
    return MeasurementTrace(realigned[k:])
