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
power; run_scan() sweeps them, in one of three plans.  A dense sweep takes
one receiver's support and records every slot.  A peak-only pass takes a
whole batch's support and keeps, per receiver, just the strongest sample
and its slot, drawn from the same law as the dense trace; the maximum of
many noise samples comes from the standard library's normal quantile,
statistics.NormalDist().inv_cdf.  A sync trial takes one receiver's support
and a timing offset and returns the peaks of its synced, realigned and
naive traces; unless its pilot is too noisy to prune on, it draws only the
samples that the realignment and the three peaks read, and the rest of the
trace stays implicit (see run_scan).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .channel import ChannelParams, received_power_on_axis
from .estimator import peak
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

# a sync trial draws the noise-only slots above tau standard deviations up
# front; tau leaves about this many of them per trace, so the slots each of
# its peaks is taken over hold one with near certainty (odds about e^-32 not)
_HOT_PER_TRACE = 32
# the expected count of noise-only samples at the pilot's level above which a
# noisy sync trial draws every slot up front (see _SyncPilot); below about
# this, its sparse attempt costs less than the dense trial (measured)
_SPREAD_ODDS = 0.25


@dataclass(frozen=True)
class ScanPlan:
    """One sweep: the grid, an optional pilot preamble, and the trace it needs.

    peak_only asks run_scan for a peak-only pass over a batch of receivers
    (see there); it samples the same peak as the dense trace but has no pilot.
    sync asks it for a sync trial of one receiver, which needs the pilot.
    """

    grid: BeamGrid
    pilot_w: np.ndarray | None = None
    peak_only: bool = False
    sync: bool = False

    def __post_init__(self):
        if self.pilot_w is not None:
            object.__setattr__(self, "pilot_w", np.asarray(self.pilot_w, dtype=float))
            if np.any(self.pilot_w < 0.0):
                raise ValueError("pilot power levels must be nonnegative")
            if self.peak_only:
                raise ValueError("a peak-only plan cannot carry a pilot")
        elif self.sync:
            raise ValueError("a sync plan needs a pilot")

    @property
    def pilot_len(self) -> int:
        return 0 if self.pilot_w is None else int(len(self.pilot_w))

    @cached_property
    def _sync_pilot(self) -> _SyncPilot:
        return _SyncPilot(self)


@dataclass
class MeasurementTrace:
    """Sampled powers for one sweep: pilot slots first, then one slot per beam."""

    samples: np.ndarray


@dataclass
class PeakTrace:
    """A peak-only pass: per receiver, the strongest sample and its beam slot."""

    samples: np.ndarray
    beams: np.ndarray


@dataclass
class SyncTrace:
    """A sync trial: the samples it drew, and the peak and its beam slot of
    the synced, the realigned and the naive trace, in that order."""

    samples: np.ndarray
    peaks: np.ndarray
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


def run_scan(plan: ScanPlan, cells, power, sigma_w: float, draws, offset_steps: int = 0):
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

    A sync plan sweeps one receiver, desynchronized by offset_steps, and
    returns a SyncTrace: the peaks that estimator.peak takes of the synced
    trace, of the offset trace after realign_with_pilot, and of the offset
    trace itself, each over the slots after the pilot; draws is a Generator
    as for a dense plan.  The result is that of the dense trace, drawn from
    the same law, but only the samples read are drawn, and the trace's
    samples are those (see _sync_trial); at a sigma_w too large for that to
    pay, the trial draws the dense trace, as a dense plan does, and its
    samples are all of them.  The realignment runs inside this call.
    """
    if not sigma_w >= 0.0:
        raise ValueError("sigma_w must be nonnegative")

    if plan.peak_only:
        return _peak_pass(plan.grid, cells, power, sigma_w, np.asarray(draws))
    if plan.sync:
        return _sync_trial(plan, cells, power, sigma_w, draws, offset_steps)
    return MeasurementTrace(_dense_samples(plan, cells, power, sigma_w, draws))


def _dense_samples(plan, cells, power, sigma_w, draws):
    """A dense plan's trace: one N(0, sigma_w^2) draw per slot, pilot first, plus the signal."""
    k = plan.pilot_len
    n = k + plan.grid.size
    if sigma_w > 0.0:
        samples = draws.standard_normal(n)
        samples *= sigma_w  # bit for bit draws.normal(0.0, sigma_w, n), by the faster fill loop
    else:
        samples = np.zeros(n)
    if k:
        samples[:k] += plan.pilot_w
    samples[k + _beam_slots(plan.grid, cells)] += power
    return samples


def _beam_slots(grid, cells):
    """Every beam slot one receiver's cells stand for, ascending."""
    slots = cells[cells < grid.size]
    if len(slots) and slots[0] == 0:  # the nadir ring cell covers its whole ring
        slots = np.concatenate([np.arange(grid.n_azimuth), slots[1:]])
    return slots


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
    return _winner(corr, start, n)


def _winner(corr, start, n) -> int:
    """The best-scoring shift of the run whose corr[j] scores shift (start + j) mod n."""
    j = int(corr.argmax())
    count = len(corr)
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
    tau = _hot_level(floor, levels.sum(), k, max(x[peak], -x.min()))
    if not np.isfinite(tau):  # an infinite sample
        return 0, n
    hot = x >= tau
    # a run of at most n / 2 shifts leaves more than n / 2 samples in a row
    # not hot, a stretch that holds one of eight equal arcs whole: when every
    # arc holds a hot sample, the run cannot be that short
    if np.logical_or.reduceat(hot, range(0, n, -(-n // 8))).all():
        return 0, n
    return _covering_run(np.flatnonzero(hot), n, k)


def _scores(seg, taps, levels, count):
    """corr[j] = sum_i levels[i] * seg[j + taps[i]] for j < count (levels a
    column), added tap by tap in ascending order, as realign_with_pilot's
    loop adds them: numpy sums pairwise only along the fast axis, so a
    reduce over axis 0 adds the tap rows one after another."""
    return np.add.reduce(seg[taps[:, None] + np.arange(count)] * levels, axis=0)


def _hot_level(floor, total, k, scale) -> float:
    """The level a window must reach to beat the floor, less the rounding
    allowance (k + 1) * (1e-14 * total * scale + the smallest subnormal)."""
    return (floor - (k + 1) * (_TAP_ROUNDING * total * scale + _SUBNORMAL)) / total


def _covering_run(hot, n, k) -> tuple[int, int]:
    """The shortest cyclic run of shifts whose windows cover every hot slot
    (nonempty), (start, count); (0, n) when longer than n / 2."""
    # it leaves out the widest gap between neighbours; shifts hot - k + 1 .. hot
    # cover a hot sample
    hot = np.sort(hot)
    gaps = np.concatenate((hot[1:], hot[:1] + n)) - hot  # to the next hot slot, round the ring
    g = int(gaps.argmax())
    count = n - int(gaps[g]) + k
    if 2 * count > n:
        return 0, n
    return (int(hot[(g + 1) % len(hot)]) - k + 1) % n, count


class _SyncPilot:
    """What a sync trial reads of its plan, once per plan: the pilot, its
    on-taps and their levels (a column) and sum, the level tau that a
    noise-only sample exceeds with probability q, the head (the pilot and
    pad = k - 1 slots either side of it, none on a trace too short to hold
    them, whose signal is the pilot), and sigma_sparse, the largest sigma_w
    a trial draws sparsely at."""

    def __init__(self, plan: ScanPlan):
        self.pilot = plan.pilot_w
        k = self.k = len(self.pilot)
        n = self.n = k + plan.grid.size
        self.taps = np.flatnonzero(self.pilot)
        self.levels = self.pilot[self.taps][:, None]
        self.total = self.levels.sum()
        self.q = min(0.5, _HOT_PER_TRACE / n)
        self.tau = -_STD_NORMAL.inv_cdf(self.q)
        self.pad = k - 1 if n >= 3 * k - 2 else 0
        self.head_slots = np.arange(-self.pad, k + self.pad) % n
        self.head_signal = np.zeros(k + 2 * self.pad)
        self.head_signal[self.pad : self.pad + k] = self.pilot
        # the pruned run is short when the only samples that reach the bound
        # level, about sum(level^2) / sum(level), are the pilot's: a noise-only
        # one that does stretches it across the trace.  Where the noise-only
        # slots hold more than _SPREAD_ODDS of one on average (a pilot SNR
        # under 12.7 dB on the 1 degree grid), a trial draws every slot up
        # front: the choice reads sigma_w alone, never a draw
        reach = float(self.levels[:, 0] @ self.levels[:, 0]) / self.total if len(self.taps) else 0.0
        self.sigma_sparse = reach / -_STD_NORMAL.inv_cdf(_SPREAD_ODDS / n)


class _LazyTrace:
    """A synced trace with pilot, drawn only where read.

    slots and values hold the samples drawn so far, in draw order, the head
    first (see _SyncPilot).  Every other slot is noise-only and holds at
    most cut: exactly 0.0 when noiseless, else sigma_w times a standard
    normal conditioned below tau, drawn the first time the slot is read.
    """

    def __init__(self, p: _SyncPilot, support, power, sigma_w, rng):
        self.n, self.sigma_w, self.rng = p.n, sigma_w, rng
        first = p.k + p.pad  # the first slot past the head
        head, outside = p.head_signal, support
        if len(support) and not first <= support[0] <= support[-1] < p.n - p.pad:
            at = (support + p.pad) % p.n  # a support slot's place in the head, if it is there
            inside = at < len(head)
            head = head.copy()
            head[at[inside]] = power
            outside = support[~inside]  # ascending, past the head
        slots = np.concatenate((p.head_slots, outside))
        signal = np.concatenate((head, np.full(len(outside), power)))
        if sigma_w == 0.0:
            self.tau = self.cut = 0.0
            self.slots, self.values = slots, signal
            return
        # the head and the other support slots, exactly, in that order; then
        # the noise-only slots above tau: how many (binomial), which (uniform
        # distinct ranks), and their values by inversion, z = -Phi^-1(q u)
        # for u uniform in (0, 1]
        values = sigma_w * rng.standard_normal(len(slots)) + signal
        self.tau = p.tau
        self.cut = sigma_w * p.tau
        rest = p.n - len(slots)
        m = rng.binomial(rest, p.q)
        u = rng.random(2 * m)  # m ranks, then m values
        ranks = np.sort(uniform_index(u[:m], rest))
        while (dup := ranks[1:] == ranks[:-1]).any():  # redraw repeats: a uniform distinct set
            ranks[1:][dup] = uniform_index(rng.random(int(dup.sum())), rest)
            ranks.sort()
        hot = [-sigma_w * _STD_NORMAL.inv_cdf(v) for v in (p.q * (1.0 - u[m:])).tolist()]
        # the r-th noise-only slot is the r-th past the head, plus the support slots at or before it
        ranks += first + np.searchsorted(outside - first - np.arange(len(outside)), ranks, "right")
        self.slots = np.concatenate((slots, ranks))
        self.values = np.concatenate((values, hot))

    def _below(self, z):
        """sigma_w times z, every z_i >= tau redrawn until it is below: N(0, 1)
        conditioned below tau, by rejection, in place."""
        while (high := z >= self.tau).any():
            z[high] = self.rng.standard_normal(int(high.sum()))
        z *= self.sigma_w
        return z

    def read(self, start, length):
        """The samples of the cyclic run of slots start .. start + length - 1
        (length <= n), drawing those not yet drawn in slot order from start."""
        rel = (self.slots - start) % self.n
        seen = rel < length
        hit = rel[seen]
        out = np.zeros(length)
        out[hit] = self.values[seen]
        if self.sigma_w > 0.0:
            new = np.ones(length, dtype=bool)
            new[hit] = False
            out[new] = fresh = self._below(self.rng.standard_normal(int(new.sum())))
            self.slots = np.concatenate((self.slots, (start + np.flatnonzero(new)) % self.n))
            self.values = np.concatenate((self.values, fresh))
        return out

    def dense(self):
        """Every slot: one normal per slot, in slot order, of which those
        drawn already are discarded, conditioned below tau (see _below)."""
        if self.sigma_w > 0.0:
            x = self.rng.standard_normal(self.n)
            x[self.slots] = -np.inf  # never redrawn, then overwritten
            x = self._below(x)
        else:
            x = np.zeros(self.n)
        x[self.slots] = self.values
        return x


def _sync_trial(plan, cells, power, sigma_w, rng, offset) -> SyncTrace:
    """A sync trial on the synced trace x = signal + noise, drawn lazily.

    In synced slots, shift s of the offset trace scores the window of k
    slots from s - offset, and each peak is the argmax of x outside one such
    window: the synced peak's starts at 0, the naive one's at -offset and
    the realigned one's at shift - offset, mod n; ties go to the lowest slot
    counted from the window's start.  Above sigma_sparse (see _SyncPilot)
    the trial draws the dense plan's trace and takes the dense path
    (_full_draw) from the start.  Else, draw order: the head (the pilot and
    k - 1 slots either side) and the other support slots, exactly; the
    noise-only slots above tau (_LazyTrace); then, in slot order, any other
    slot the pruned run's windows read.  When the realignment cannot be
    pruned on what is drawn, or a peak's best drawn sample may be beaten by
    one not drawn, the trial draws the rest (_LazyTrace.dense) and
    _full_draw runs the dense path.
    """
    p = plan._sync_pilot
    if abs(offset) > p.n:
        raise ValueError("offset beyond one full trace period")
    if sigma_w > p.sigma_sparse:  # a pruned run would rarely be short: draw every slot
        return _full_draw(_dense_samples(plan, cells, power, sigma_w, rng), p, offset)
    x = _LazyTrace(p, p.k + _beam_slots(plan.grid, cells), power, sigma_w, rng)
    shift = _sparse_shift(x, p, offset)
    if shift is not None and (found := _sparse_peaks(x, p.k, [[0], [shift - offset], [-offset]])) is not None:
        return SyncTrace(x.values, *found)
    return _full_draw(x.dense(), p, offset)


def _sparse_shift(x, p: _SyncPilot, offset):
    """realign_with_pilot's shift from the drawn samples, or None when its
    bound and run argument needs samples not drawn (see _pruned_run)."""
    if (run := _pruned_run(x, p)) is None:
        return None
    start, corr = run
    return _winner(corr, (start + offset) % p.n, p.n)


def _pruned_run(x, p: _SyncPilot):
    """(start, scores) of the run of windows that can win, in
    synced slots, or None when it cannot be found on the drawn samples.

    In synced slots, the window starting at slot w is shift w + offset's.
    The floor is the score of the synced window, shift offset's: a score
    some shift gets, which is all the bound asks of a floor.  With the bound
    level above cut, every hot sample is drawn, and only the pruned run's
    windows are read and scored, tap by tap in ascending order as
    realign_with_pilot scores them; they lie in the head when every hot
    sample is a pilot slot.  Every window the bound rules out holds samples
    under a positive level t only, and a window's score rounds monotonically
    in its samples, so it stays under (1 + (k + 1) 2^-53) L t whatever its
    negative samples: the strongest sample drawn, which is at least the
    synced window's, scales the rounding allowance.
    """
    k, n = p.k, p.n
    if len(p.taps) == 0 or 2 * k - 2 > n:  # no score to beat, or a run whose windows overlap
        return None
    head = x.values[: len(p.head_slots)]
    floor = np.add.accumulate(head[p.pad + p.taps] * p.levels[:, 0])[-1]  # in tap order, as _scores adds
    tau = _hot_level(floor, p.total, k, x.values.max())
    if not tau > x.cut:
        return None
    start, count = _covering_run(x.slots[x.values >= tau], n, k)
    if count == n:
        return None
    lo = (start + p.pad) % n
    seg = head[lo : lo + count + k - 1] if lo + count + k - 1 <= len(head) else x.read(start, count + k - 1)
    return start, _scores(seg, p.taps, p.levels, count)


def _sparse_peaks(x, k, starts):
    """(peaks, beams) of the traces whose pilot windows start at the given
    synced slots (a column), or None when a sample not drawn could beat a peak."""
    above = x.values > x.cut  # only these can beat a slot not drawn
    rel = (x.slots[above] - np.array(starts)) % x.n
    values = np.where(rel >= k, x.values[above], -np.inf)
    best = values.max(axis=1, initial=-np.inf)
    beams = np.where(values == best[:, None], rel, x.n).min(axis=1, initial=x.n) - k
    if x.sigma_w == 0.0:
        # noiseless samples are >= 0 and the undrawn ones 0: with no positive
        # drawn sample, the trace is all zeros and peaks at its first slot
        flat = best == -np.inf
        best[flat], beams[flat] = 0.0, 0
    elif (best == -np.inf).any():
        return None
    return best, beams


def _full_draw(samples, p: _SyncPilot, offset) -> SyncTrace:
    """The dense path, on every slot of the synced trace: realign_with_pilot and estimator.peak."""
    shifted = apply_timing_offset(MeasurementTrace(samples), offset)
    shift = realign_with_pilot(shifted, p.pilot)
    synced = peak(samples[p.k :])
    # the realigned trace is a temporary: a third trace kept alive measured
    # 10x the minor faults (heap-top trims)
    realigned = synced if shift == offset % p.n else peak(apply_timing_offset(shifted, -shift).samples[p.k :])
    found = (synced, realigned, peak(shifted.samples[p.k :]))
    # it returns a copy, made last: the one array that outlives the trial then
    # sits above those it frees, so glibc reuses their pages rather than trim
    # the heap top and fault them in again next trial (half the minor faults)
    return SyncTrace(samples.copy(), *map(np.array, zip(*found)))
