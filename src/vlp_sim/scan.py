"""Timed beam sweep: trace generation, timing offsets, pilot realignment.

A sweep visits every grid direction once, dwelling for a fixed step time.
The receiver records one power sample per dwell slot; an optional known
pilot preamble precedes the sweep so a desynchronized receiver can realign
its sample indexing by cyclic cross-correlation.  Realignment returns the
cyclic shift it recovers, the one that scoring every shift returns, but
scores only the short run of shifts that can beat a floor (see
realign_with_pilot); with a noisy pilot nothing can be ruled out and every
shift is scored.

The geometry and the sweep are two calls: support() finds, for one
receiver or a batch, the beam cells that carry signal and their on-axis
power; run_scan() sweeps them.  A dense sweep takes one receiver's support
and records every slot.  A peak-only pass takes a whole batch's support and
keeps, per receiver, just the strongest sample and its slot, drawn from the
same law as the dense trace; the maximum of many noise samples comes from
the standard library's normal quantile, statistics.NormalDist().inv_cdf.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .channel import ChannelParams, received_power_on_axis
from .geometry import BeamGrid, ReceiverState, Room, in_fov, incidence_cosine, norm, spherical_from_direction
from .streams import uniform_index

DEFAULT_PILOT_LEN = 64
_PILOT_SEED = 0x5CA17B0  # fixed so the stock preamble is reproducible
_STD_NORMAL = NormalDist()

# pilot realignment's rounding allowance per tap, relative to
# levels.sum() * max|x| (see realign_with_pilot): about 90 units of
# roundoff (2^-53 = 1.1e-16)
_TAP_ROUNDING = 1e-14
_SUBNORMAL = np.finfo(float).smallest_subnormal

# uniforms a peak-only pass reads per receiver, by column: Box-Muller pairs
# for the normals of the four support cells (0-3), the noise-only maximum
# and its slot (4, 5), the nadir ring's maximum and its slot (6, 7)
PEAK_UNIFORMS = 8

# candidate rings (and azimuths) of a support cell: the nearest and its two neighbours
_NEAR = np.array([-1.0, 0.0, 1.0])


@dataclass(frozen=True)
class ScanPlan:
    """One sweep: the grid, an optional pilot preamble, and the trace it needs.

    peak_only asks run_scan for a peak-only pass over a batch of receivers
    (see there); it samples the same peak as the dense trace but has no pilot.
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
    """Sampled powers for one sweep: pilot slots first, then one slot per beam."""

    samples: np.ndarray


@dataclass
class PeakTrace:
    """A peak-only pass: per receiver, the strongest sample and its beam slot."""

    samples: np.ndarray
    beams: np.ndarray


def make_pilot(on_level_w: float, length: int) -> np.ndarray:
    """Pseudo-random on/off pilot with a sharp cyclic autocorrelation peak."""
    if not on_level_w > 0.0:
        raise ValueError("pilot on-level must be positive")
    if length < 1:
        raise ValueError("pilot length must be >= 1")
    bits = np.random.Generator(np.random.PCG64(_PILOT_SEED)).integers(0, 2, size=length)
    if bits.sum() == 0:  # degenerate all-off draw cannot correlate
        bits[0] = 1
    return bits.astype(float) * on_level_w


def support(grid: BeamGrid, room: Room, rx: ReceiverState, params: ChannelParams):
    """Beam cells that carry signal for each receiver, and the on-axis power they carry.

    A cell carries signal when it covers the receiver's direction from the
    emitter and the arrival lies inside the field of view.  The nadir ring
    counts as one cell for every azimuth, since all its beams point the same
    way; it is listed as slot 0 and stands for slots 0 .. n_azimuth - 1.
    Returns (cells, power): cells (..., 4) beam slots, ascending, padded with
    grid.size; power (...) in W, zero (with no cells) out of view.  Raises
    ValueError for a receiver outside the room or at the ceiling.
    """
    room.check_receiver(rx.position)
    tx = room.emitter_pos
    shape = np.shape(rx.position)[:-1]
    to_rx = np.reshape(rx.position - tx, (-1, 3))
    cos_psi = np.reshape(incidence_cosine(tx, rx), -1)
    seen = in_fov(cos_psi, rx.fov_deg)
    az, el = (a[:, None] for a in spherical_from_direction(to_rx))
    e_step, a_step, n_az = grid.elevation_step_deg, grid.azimuth_step_deg, grid.n_azimuth
    ring = np.rint(el / e_step) + _NEAR
    ring_ok = (ring >= 0) & (ring < grid.n_elevation) & (np.abs(ring * e_step - el) <= 0.5 * e_step)
    azi = (np.rint(az / a_step) + _NEAR) % n_az
    delta = np.abs(azi * a_step - az)
    azi_ok = np.minimum(delta, 360.0 - delta) <= 0.5 * a_step
    # (N, 3, 3) candidates, ring by azimuth; the nadir ring is one cell at slot 0
    nadir = (ring == 0)[:, :, None]
    slot = np.where(nadir, 0.0, (ring * n_az)[:, :, None] + azi[:, None, :])
    ok = (ring_ok & seen[:, None])[:, :, None] & (azi_ok[:, None, :] | nadir)
    cells = np.sort(np.where(ok, slot, grid.size).reshape(-1, 9), axis=1)
    cells[:, 1:][cells[:, 1:] == cells[:, :-1]] = grid.size  # one entry per cell
    cells = np.sort(cells, axis=1)[:, :4].astype(int)
    power = np.where(seen, received_power_on_axis(norm(to_rx), np.where(seen, cos_psi, 0.0), params), 0.0)
    return cells.reshape(shape + (4,)), power.reshape(shape)


def noise_max(sigma_w: float, k, u):
    """Maximum of k iid N(0, sigma_w^2) samples from a uniform u in (0, 1), elementwise.

    The maximum has CDF Phi(x / sigma_w)^k, so it is sigma_w * Phi^-1(p) for
    p = u^(1/k).  Phi^-1 is the standard library's NormalDist().inv_cdf
    (Wichura's AS 241, full double precision); for p > 1/2 it is evaluated
    as -Phi^-1(1 - p), with 1 - p formed by expm1 so the upper tail keeps
    its relative precision.
    """
    if (np.asarray(k) < 1).any():
        raise ValueError("need at least one sample")
    log_p = np.log(u) / k
    p = np.exp(log_p)
    upper = p > 0.5
    q = np.where(upper, -np.expm1(log_p), p)
    z = np.array([_STD_NORMAL.inv_cdf(x) for x in np.ravel(q).tolist()]).reshape(q.shape)
    return sigma_w * np.where(upper, -z, z)


def _box_muller(u):
    """Standard normals from uniform pairs: columns (0, 1) give normals 0 and 1, (2, 3) give 2 and 3."""
    r = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    t = 2.0 * np.pi * u[:, 1::2]
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1).reshape(len(u), -1)


def run_scan(plan: ScanPlan, cells, power, sigma_w: float, draws):
    """Sweep every beam once and record the received power per dwell slot.

    cells and power are support()'s output: the cells collect their on-axis
    power.  A dense plan sweeps one receiver (cells (4,), power a scalar) and
    returns a MeasurementTrace: every slot, pilot included, gets an
    independent N(0, sigma_w^2) draw from draws, a numpy Generator (unread,
    and may be None, when sigma_w is 0).

    A peak-only plan sweeps a batch (cells (N, 4), power (N,)) and returns a
    PeakTrace; draws holds each receiver's PEAK_UNIFORMS uniforms.  Each
    support cell gets power plus a Box-Muller normal; the nadir ring cell
    gets power plus the noise_max of its n_azimuth slots, at a uniformly
    drawn ring slot; the K noise-only slots give one noise_max sample at a
    uniformly drawn noise-only slot.  The peak is the largest of these, ties
    to the lowest slot, as a dense argmax picks it.  Noiseless, every
    maximum is its power (0 for the noise-only slots) at its lowest slot.
    """
    if not sigma_w >= 0.0:
        raise ValueError("sigma_w must be nonnegative")

    grid = plan.grid
    if plan.peak_only:
        return _peak_pass(grid, cells, power, sigma_w, np.asarray(draws))

    k = plan.pilot_len
    n = k + grid.size
    if sigma_w > 0.0:
        samples = draws.standard_normal(n)
        samples *= sigma_w  # bit for bit draws.normal(0.0, sigma_w, n), by the faster fill loop
    else:
        samples = np.zeros(n)
    if k:
        samples[:k] += plan.pilot_w
    slots = cells[cells < grid.size]
    if len(slots) and slots[0] == 0:  # the nadir ring cell covers its whole ring
        slots = np.concatenate([np.arange(grid.n_azimuth), slots[1:]])
    samples[k + slots] += power
    return MeasurementTrace(samples)


def _peak_pass(grid, cells, power, sigma_w, u) -> PeakTrace:
    n, n_az = grid.size, grid.n_azimuth
    lit = cells < n
    ring = cells == 0
    size = np.where(ring, n_az, lit)  # beam slots per cell
    k = n - size.sum(axis=1)  # noise-only slots
    values = np.where(lit, power[:, None], -np.inf)
    slots = cells.copy()
    noise = np.where(k > 0, 0.0, -np.inf)
    r = np.zeros(len(k), dtype=int)  # rank of the noise-only maximum's slot
    if sigma_w > 0.0:
        values += sigma_w * _box_muller(u[:, 0:4])
        rows = ring[:, 0]
        values[rows, 0] = power[rows] + noise_max(sigma_w, n_az, u[rows, 6])
        slots[rows, 0] = uniform_index(u[rows, 7], n_az)
        has = k > 0
        noise[has] = noise_max(sigma_w, k[has], u[has, 4])
        r[has] = uniform_index(u[has, 5], k[has])
    # the r-th noise-only slot is r plus the support slots before it; a cell
    # at slot c with j support slots ahead of it lies before it when c - j <= r
    ahead = np.cumsum(size, axis=1) - size
    before = (size * (cells - ahead <= r[:, None])).sum(axis=1)
    values = np.column_stack([values, noise])
    slots = np.column_stack([slots, r + before])
    peak = values.max(axis=1)
    beams = np.where(values == peak[:, None], slots, n).min(axis=1)
    return PeakTrace(peak, beams)


def apply_timing_offset(trace: MeasurementTrace, offset_steps: int) -> MeasurementTrace:
    """Cyclically rotate the sample indexing, as a desynchronized receiver sees it.

    The trace is one full period, so shifting by its length is the identity.
    """
    x = trace.samples
    n = len(x)
    if abs(offset_steps) > n:
        raise ValueError("offset beyond one full trace period")
    cut = n - offset_steps % n if n else 0  # np.roll(x, offset_steps), by slices
    return MeasurementTrace(np.concatenate((x[cut:], x[:cut])))


def realign_with_pilot(trace: MeasurementTrace, pilot_w) -> int:
    """The cyclic shift s in [0, n) that puts the known pilot at the head of
    the trace: apply_timing_offset(trace, -s) is the synchronized trace.

    Shift s scores corr[s] = sum_i pilot[i] * x[(s + i) mod n] over the
    on-taps i, accumulated tap by tap in ascending order from 0.0, so every
    shift gets the same float operations and exact ties stay exact.  The
    best score wins, ties to the smallest nonnegative shift (a first NaN
    score wins, as argmax takes it).  Pilot levels must be nonnegative.

    Only the shifts that can win are scored, and the result is the shift
    that scoring every shift gives:
    * floor: the best exact score of the shifts that put an on-tap on the
      strongest sample.  It is a score some shift gets, so the best score
      is at least the floor.
    * bound: with levels >= 0, a shift scores at most L = levels.sum() times
      the largest sample in its k-sample window, plus rounding.  The margin
      (k + 1) * (1e-14 * L * max|x| + the smallest subnormal) is about 90
      times the rounding a k-term sum of products can carry, so a shift
      whose window holds no sample >= (floor - margin) / L scores below the
      floor and cannot win.
    * run: the shortest cyclic run of shifts whose windows cover every such
      sample holds every shift that can win, ties included.  When it is
      longer than half the trace, or the floor is not finite (a NaN or an
      infinity in the trace), every shift is scored.
    """
    pilot = np.asarray(pilot_w, dtype=float)
    k = int(len(pilot))
    if k == 0:
        raise ValueError("cannot realign without a pilot")
    if np.any(pilot < 0.0):
        raise ValueError("pilot power levels must be nonnegative")
    x = trace.samples
    n = len(x)
    if n < k:
        raise ValueError("trace shorter than the pilot")
    taps = np.flatnonzero(pilot)
    start, count = _candidate_shifts(x, pilot, taps)
    # corr[j] scores shift (start + j) mod n.  The shifts read one cyclic
    # segment of x, one slice or two joined: it ends before 2n, since the
    # run of all n shifts starts at 0 and a pruned run holds k to n / 2.
    # Each distinct tap level multiplies it once; a tap adds a slice of that.
    stop = start + count + k - 1
    seg = x[start:stop] if stop <= n else np.concatenate((x[start:], x[: stop - n]))
    scaled = {}
    corr = np.zeros(count)
    for i in taps:
        level = pilot[i]
        if level not in scaled:
            scaled[level] = level * seg
        corr += scaled[level][i : i + count]
    j = int(corr.argmax())
    if j < n - start < count:  # the run wraps past shift n - 1: a tie after the wrap is a smaller shift
        late = corr[n - start :]
        i = int(late.argmax())
        if late[i] == corr[j]:
            j = n - start + i
    return (start + j) % n


def _candidate_shifts(x, pilot, taps) -> tuple[int, int]:
    """The cyclic run of shifts, (start, count), that holds every shift able
    to win (see realign_with_pilot); (0, n) when it cannot be narrowed."""
    n, k = len(x), len(pilot)
    if len(taps) == 0:
        return 0, n
    levels = pilot[taps]
    peak = int(x.argmax())
    # exact scores of the shifts peak - taps: accumulate adds along a row in
    # tap order, as the scoring loop does (whose first add, 0.0 + a, equals a)
    window = np.take(x, (peak - taps)[:, None] + taps, mode="wrap") * levels
    floor = np.add.accumulate(window, axis=1)[:, -1].max()
    if not np.isfinite(floor):
        return 0, n
    total = levels.sum()
    margin = (k + 1) * (_TAP_ROUNDING * total * max(x[peak], -x.min()) + _SUBNORMAL)
    tau = (floor - margin) / total
    if not np.isfinite(tau):  # an infinite sample
        return 0, n
    hot = x >= tau
    # a run of at most n / 2 shifts leaves more than n / 2 samples in a row
    # not hot, a stretch that holds one of eight equal arcs whole: when every
    # arc holds a hot sample, the run cannot be that short
    if np.logical_or.reduceat(hot, range(0, n, -(-n // 8))).all():
        return 0, n
    hot = np.flatnonzero(hot)
    # the shortest cyclic run covering every hot sample leaves out the widest
    # gap between neighbours; shifts hot - k + 1 .. hot cover a hot sample
    gaps = np.diff(hot, append=hot[0] + n)
    g = int(gaps.argmax())
    count = n - int(gaps[g]) + k
    if 2 * count > n:
        return 0, n
    return (int(hot[(g + 1) % len(hot)]) - k + 1) % n, count
