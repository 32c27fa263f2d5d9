"""Timed beam sweep: trace generation, timing offsets, pilot realignment.

A sweep visits every grid direction once, dwelling for a fixed step time.
The receiver records one power sample per dwell slot; an optional known
pilot preamble precedes the sweep so a desynchronized receiver can realign
its sample indexing by cyclic cross-correlation.  Realignment of one
trace scores every cyclic shift and takes the best (realign_with_pilot).  A
sync run's sparse pass finds the same shift but scores only the shifts
whose windows hold a sample high enough to beat a floor (_pruned_runs); a
trial it cannot settle on the samples it drew takes realign_with_pilot on
its whole trace.

The geometry and the sweep are two calls: support() finds, for one
receiver or a batch, the beam cells that carry signal and their on-axis
power; a sweep takes them.  dense_trace() records every slot of one
receiver's sweep, pilot first, from a Philox row, as a sync trial
completes its trace.  run_scan() sweeps a batch, and its pilot picks the
sweep.  With no pilot it is a peak-only pass, which keeps, per receiver,
just the strongest sample and its slot, drawn from the same law as the
dense trace; the maximum of many noise samples comes from the
standard library's normal quantile, the C routine (AS 241) that
statistics.NormalDist().inv_cdf calls, mapped over the values with no
Python frame per value (_normal_quantile).  With a pilot it is a sync run,
which takes the receivers' timing offsets too and returns, per trial, the
peaks of its synced, realigned and naive traces; its trials run as one
array pass that draws only the samples that the realignment and the three
peaks read, each a pure function of the trial's Philox row and the slot,
and the rest of each trace stays implicit, but for the trials the pass
cannot settle, which complete theirs from the same counters (see run_scan).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import erf, sqrt
from statistics import _normal_dist_inv_cdf
from typing import NamedTuple

import numpy as np

from .channel import ChannelParams, received_power_on_axis
from .estimator import peak
from .geometry import BeamGrid, ReceiverState, Room, in_fov, incidence_cosine, norm, spherical_from_direction
from .streams import uniform_index, uniforms

DEFAULT_PILOT_LEN = 64
# the pilot's on/off bits, most significant first: the first 1,024 integers(0, 2)
# of numpy's Generator(PCG64(0x5CA17B0)), which a shorter draw repeats as a prefix
_PILOT_BITS = (
    "3431a523d1894c62c1267be48d0fa94c05c3559abf7057c306618eda4532e45a"
    "ebdb75612f864284720b47b3a034d8d815a4fa050bf03ebf834d2ac8091b6a83"
    "49113971682b77e2132f65e14f2347fc9627349eb3ec1da63fcbbbb2f40c8089"
    "2f48895d38db5689ac96d10a69ab68307cb3c01c6f4f1dfce08ce167c298e8ac"
)
MAX_PILOT_LEN = 4 * len(_PILOT_BITS)

# the sparse pass's rounding allowance per tap in its bound on a window's
# score (see _pruned_runs), relative to levels.sum() times the trial's
# largest drawn sample: about 90 units of roundoff (2^-53 = 1.1e-16)
_TAP_ROUNDING = 1e-14
_SUBNORMAL = np.finfo(float).smallest_subnormal

# uniforms a peak-only pass reads per receiver, by column: Box-Muller pairs
# for the normals of the four support cells (0-3), the noise-only maximum
# and its slot (4, 5), the nadir ring's maximum and its slot (6, 7)
PEAK_UNIFORMS = 8

# candidate rings (and azimuths) of a support cell: the two that bracket the direction
_BRACKET = np.array([0.0, 1.0])

# a sync trial draws the noise-only slots above tau standard deviations up
# front; tau leaves about this many of them per trace, so the slots each of
# its peaks is taken over hold one with near certainty (odds about e^-32 not)
_HOT_PER_TRACE = 32
# a sync trial's Philox blocks, past the 0-5 of its row's uniforms, b =
# ceil(n / 2) per trace: slot s's normal from block _SLOT_BLOCK + s // 2, its
# conditioning uniform from block _SLOT_BLOCK + b + s // 2, and the noise-only
# exceedances from _SLOT_BLOCK + 2b on (see _slot_normals)
_SLOT_BLOCK = 6


@dataclass
class PeakTrace:
    """A peak-only pass: per receiver, the strongest sample and its beam slot."""

    samples: np.ndarray
    beams: np.ndarray


@dataclass
class SyncTrace:
    """A sync run: the samples its sparse pass drew, and per trial the peak
    and its beam slot of the synced, the realigned and the naive trace, in
    that order, (3, T) each."""

    samples: np.ndarray
    peaks: np.ndarray
    beams: np.ndarray


class SyncDraws(NamedTuple):
    """A sync run's draws: the master seed and every trial's Philox counter
    prefix (T, 3), from which each trial draws every slot it reads (see
    run_scan)."""

    seed: int
    prefix: np.ndarray

    def uniforms(self, rows, blocks):
        """The two uniforms of each block (R, B) or (B,) of the trials rows (R,): (R, B, 2)."""
        return uniforms(self.seed, self.prefix[rows], blocks=blocks)


def make_pilot(on_level_w: float, length: int) -> np.ndarray:
    """Pseudo-random on/off pilot with a sharp cyclic autocorrelation peak."""
    if not on_level_w > 0.0:
        raise ValueError("pilot on-level must be positive")
    if not 1 <= length <= MAX_PILOT_LEN:
        raise ValueError(f"pilot length must be in [1, {MAX_PILOT_LEN}]")
    bits = np.unpackbits(np.frombuffer(bytes.fromhex(_PILOT_BITS), dtype=np.uint8))[:length]
    if bits.sum() == 0:  # degenerate all-off draw cannot correlate
        bits[0] = 1
    return bits.astype(float) * on_level_w


def support(grid: BeamGrid, room: Room, rx: ReceiverState, params: ChannelParams):
    """Beam cells that carry signal for each receiver, and the on-axis power they carry.

    A cell carries signal when it covers the receiver's direction from the
    emitter and the arrival lies inside the field of view: of the two rings
    and two azimuths that bracket the direction, those within half a step
    (both, on a boundary).  The nadir ring counts as one cell for every
    azimuth, since all its beams point the same way; it is listed as slot 0
    and stands for slots 0 .. n_azimuth - 1.
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
    ring = np.floor(el / e_step) + _BRACKET
    ring_ok = (ring < grid.n_elevation) & (np.abs(ring * e_step - el) <= 0.5 * e_step)
    azi = (np.floor(az / a_step) + _BRACKET) % n_az
    delta = np.abs(azi * a_step - az)
    azi_ok = (np.minimum(delta, 360.0 - delta) <= 0.5 * a_step) & (_BRACKET < n_az)  # one azimuth: one cell
    # (N, 2, 2) candidates, ring by azimuth; the nadir ring is one cell at slot 0
    nadir = (ring == 0)[:, :, None]
    slot = np.where(nadir, 0.0, (ring * n_az)[:, :, None] + azi[:, None, :])
    ok = (ring_ok & seen[:, None])[:, :, None] & np.where(nadir, _BRACKET == 0, azi_ok[:, None, :])
    cells = np.sort(np.where(ok, slot, grid.size).reshape(-1, 4), axis=1).astype(int)
    power = received_power_on_axis(norm(to_rx), np.where(seen, cos_psi, 0.0), params)  # +0.0 W out of view
    return cells.reshape(shape + (4,)), power.reshape(shape)


def noise_max(sigma_w: float, k, u):
    """Maximum of k iid N(0, sigma_w^2) samples from a uniform u in (0, 1), elementwise.

    The maximum has CDF Phi(x / sigma_w)^k, so it is sigma_w * Phi^-1(p) for
    p = u^(1/k).  Phi^-1 is the standard library's NormalDist().inv_cdf,
    bit for bit: its C routine (Wichura's AS 241, full double precision),
    called with no Python frame per value (_normal_quantile).  For p > 1/2
    it is evaluated as -Phi^-1(1 - p), with 1 - p formed by expm1 so the
    upper tail keeps its relative precision.
    """
    if (np.asarray(k) < 1).any():
        raise ValueError("need at least one sample")
    log_p = np.log(u) / k
    p = np.exp(log_p)
    upper = p > 0.5
    q = np.where(upper, -np.expm1(log_p), p)
    z = _normal_quantile(q)
    return sigma_w * np.where(upper, -z, z)


def _normal_quantile(p) -> np.ndarray:
    """Phi^-1 elementwise: NormalDist().inv_cdf of each element of p, bit for bit.

    It maps the routine inv_cdf itself calls, statistics._normal_dist_inv_cdf
    (AS 241, in C), with inv_cdf's mean 0.0 and sigma 1.0, so no Python frame
    runs per value.  Like inv_cdf, it raises ValueError for p = 0 or 1 and
    passes NaN through.
    """
    p = np.asarray(p, dtype=float)
    z = map(_normal_dist_inv_cdf, p.ravel().tolist(), repeat(0.0), repeat(1.0))
    return np.fromiter(z, dtype=float, count=p.size).reshape(p.shape)


def _box_muller(u):
    """Standard normals from uniform pairs: columns (0, 1) give normals 0 and 1, (2, 3) give 2 and 3."""
    r = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    t = 2.0 * np.pi * u[:, 1::2]
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1).reshape(len(u), -1)


def dense_trace(grid: BeamGrid, cells, power, sigma_w: float, draws, pilot_w=None) -> np.ndarray:
    """One receiver's sweep, every slot recorded: the received power per
    dwell slot, pilot slots first (pilot_w, the pilot's power per slot, if
    given), then one slot per beam.

    cells (4,) and power (a scalar) are support()'s output for the receiver:
    the cells collect their on-axis power.  Every slot gets an independent
    N(0, sigma_w^2) draw from the Philox row of draws, a SyncDraws of one
    row, as a sync trial completes its trace (_philox_trace); draws is
    unread, and may be None, when sigma_w is 0.
    """
    if not sigma_w >= 0.0:
        raise ValueError("sigma_w must be nonnegative")
    return _philox_trace(_SyncPilot(grid, () if pilot_w is None else pilot_w), cells, power, sigma_w, draws, 0)


def run_scan(grid: BeamGrid, cells, power, sigma_w: float, draws, pilot_w=None, offset_steps: int = 0):
    """Sweep every beam of grid once for a batch of receivers, and keep what the fix reads.

    cells and power are support()'s output: the cells collect their on-axis
    power.  Without a pilot, run_scan runs a peak-only pass over the batch
    (cells (N, 4), power (N,)) and returns a PeakTrace; draws holds each
    receiver's PEAK_UNIFORMS uniforms.  Each support cell gets power plus a
    Box-Muller normal; the nadir ring cell gets power plus the noise_max of
    its n_azimuth slots, at a uniformly drawn ring slot; the K noise-only
    slots give one noise_max sample at a uniformly drawn noise-only slot.
    The peak is the largest of these, ties to the lowest slot, as a dense
    argmax picks it.  Noiseless, every maximum is its power (0 for the
    noise-only slots) at its lowest slot.

    With a pilot, pilot_w its power per slot, run_scan runs a sync run over
    a batch of trials (cells (T, 4), power (T,)), each receiver
    desynchronized by its offset_steps (T,) (or one for all), and returns a
    SyncTrace: per trial, the peaks that estimator.peak takes of the synced
    trace, of the offset trace after realign_with_pilot, and of the offset
    trace itself, each over the slots after the pilot.  draws is a SyncDraws.
    The trials run as one array pass that draws only the samples they read,
    from their Philox rows, every slot's noise a pure function of its row
    and slot (see _SparseTraces); a trial the pass cannot settle completes
    its trace from the same counters (_philox_trace).  Either way the
    results are those of the dense trace that the counters complete, and
    the samples are those the pass drew.  The realignment runs inside this
    call.
    """
    if not sigma_w >= 0.0:
        raise ValueError("sigma_w must be nonnegative")
    if pilot_w is None:
        return _peak_pass(grid, cells, power, sigma_w, np.asarray(draws))
    samples, _, peaks, beams = _sync_trials(_SyncPilot(grid, pilot_w), cells, power, sigma_w, draws, offset_steps)
    return SyncTrace(samples, peaks, beams)


def _peak_pass(grid, cells, power, sigma_w, u) -> PeakTrace:
    # candidate-major (4, N): row j holds each receiver's j-th support cell, so
    # every step, the max and min over the candidates too, runs along whole
    # (N,) rows, not over each receiver's few candidates
    n, n_az = grid.size, grid.n_azimuth
    slots = cells.T.copy()
    lit = slots < n
    ring = slots[0] == 0  # the nadir ring cell is slot 0, so it sorts first
    size = lit.astype(int)  # beam slots per cell
    size[0, ring] = n_az
    values = np.where(lit, power, -np.inf)
    k = n - size.sum(axis=0)  # noise-only slots
    noise = np.where(k > 0, 0.0, -np.inf)
    r = np.zeros(len(k), dtype=int)  # rank of the noise-only maximum's slot
    if sigma_w > 0.0:
        values += sigma_w * _box_muller(u[:, 0:4]).T
        values[0, ring] = power[ring] + noise_max(sigma_w, n_az, u[ring, 6])
        slots[0, ring] = uniform_index(u[ring, 7], n_az)
        has = k > 0
        noise[has] = noise_max(sigma_w, k[has], u[has, 4])
        r[has] = uniform_index(u[has, 5], k[has])
    # the r-th noise-only slot is r plus the support slots before it; a cell
    # at slot c with j support slots ahead of it lies before it when c - j <= r
    before = np.zeros_like(r)
    ahead = 0
    for c, s in zip(cells.T, size):
        before += s * (c - ahead <= r)
        ahead = ahead + s
    peak = np.maximum(values.max(axis=0), noise)
    beams = np.minimum(np.where(values == peak, slots, n).min(axis=0), np.where(noise == peak, r + before, n))
    return PeakTrace(peak, beams)


def realign_with_pilot(x: np.ndarray, pilot_w) -> int:
    """The cyclic shift s in [0, n) that puts the known pilot at the head of
    the trace x: np.roll(x, -s) is the synchronized trace.

    Every shift s is scored, corr[s] = sum_i pilot[i] * x[(s + i) mod n]
    over the on-taps i, accumulated tap by tap in ascending order from the
    first on-tap's product (_scores), so every shift gets the same float
    operations and exact ties stay exact (with no on-tap every shift scores
    0.0).  The argmax wins: the best score, ties to the smallest shift, and
    a first NaN score before it, as argmax takes them.  Pilot levels must
    be nonnegative.
    """
    pilot = np.asarray(pilot_w, dtype=float)
    k = int(len(pilot))
    if k == 0:
        raise ValueError("cannot realign without a pilot")
    if np.any(pilot < 0.0):
        raise ValueError("pilot power levels must be nonnegative")
    n = len(x)
    if n < k:
        raise ValueError("trace shorter than the pilot")
    taps = np.flatnonzero(pilot)
    if len(taps) == 0:
        return 0
    return int(_scores(np.concatenate((x, x[: k - 1]))[None], taps, pilot[taps], n)[0].argmax())


def _scores(seg, taps, levels, count):
    """corr[r, j] = sum_i levels[i] * seg[r, j + taps[i]] for j < count, the
    segments seg (R, >= count + taps[-1]), taps nonempty: added tap by tap
    in ascending order from the first tap's product, so every shift gets the
    same float operations and exact ties stay exact.  Each distinct level
    multiplies seg once; a tap adds a slice of that."""
    scaled = {}
    corr = None
    for i, level in zip(taps.tolist(), levels.tolist()):
        if level not in scaled:
            scaled[level] = level * seg
        part = scaled[level][:, i : i + count]
        if corr is None:
            corr = part.copy()
        else:
            corr += part
    return corr


def _hot_level(floor, total, k, scale):
    """The level a window must reach to beat the floor, less the rounding
    allowance (k + 1) * (1e-14 * total * scale + the smallest subnormal)."""
    return (floor - (k + 1) * (_TAP_ROUNDING * total * scale + _SUBNORMAL)) / total


def _window_runs(hot, k):
    """The shifts whose k-slot windows hold a hot slot, hot (F,) ascending,
    as runs (start, count) of count shifts from start: the slots split into
    runs wherever two are k or more apart, and a run starts at its first
    slot - k + 1."""
    first = np.flatnonzero(np.diff(hot, prepend=-k) >= k)
    last = np.append(first[1:], len(hot))[: len(first)] - 1
    return hot[first] - k + 1, hot[last] - hot[first] + k


def _best_shifts(rows, first, count, n, k, taps, levels, segments):
    """The best-scoring shift of each row's runs: (rows, shifts), rows the
    distinct ones, ascending.  rows (R,) ascending, first (R,) in [0, n)
    and count (R,) give the runs: run j scores shifts (first[j] + i) mod n,
    i < count[j], on segments(g, width), the samples (len(g), width) of
    the runs g from their first windows on.  Runs within a factor of two in
    count share a pass of _scores, padded to the longest.  The best score
    wins, ties to the smallest shift mod n, within a run that crosses shift
    n - 1 and across a row's runs.  The samples must be finite."""
    best, shift = np.empty(len(first)), np.empty(len(first), dtype=int)
    size = np.frexp(count)[1]
    for b in sorted(set(size.tolist())):
        g = np.flatnonzero(size == b)
        most = int(count[g].max())
        corr = _scores(segments(g, most + k - 1), taps, levels, most)
        cols = np.arange(most)
        corr[cols >= count[g, None]] = -np.inf
        # past a crossing of shift n - 1 the shifts are smaller: a tie there wins
        late = np.where(cols >= (n - first[g])[:, None], corr, -np.inf)
        j, i, r = corr.argmax(axis=1), late.argmax(axis=1), np.arange(len(g))
        best[g] = corr[r, j]
        shift[g] = (first[g] + np.where(late[r, i] == best[g], i, j)) % n
    lead = np.flatnonzero(np.diff(rows, prepend=-1))  # each row's first run
    top = np.repeat(np.maximum.reduceat(best, lead), np.diff(np.append(lead, len(rows))))
    return rows[lead], np.minimum.reduceat(np.where(best == top, shift, n), lead)


class _SyncPilot:
    """A sync run's plan, built once per run: the grid, the pilot, its
    on-taps, their levels and sum; the head (the pilot and pad = k - 1 slots
    either side of it, none with no pilot or on a trace too short for them,
    whose signal is the pilot) and the first slot past it; q and the level
    tau that a noise-only sample reaches with probability q, and Phi(tau)."""

    def __init__(self, grid: BeamGrid, pilot_w):
        self.grid = grid
        self.pilot = np.asarray(pilot_w, dtype=float)
        if np.any(self.pilot < 0.0):
            raise ValueError("pilot power levels must be nonnegative")
        k = self.k = len(self.pilot)
        n = self.n = k + grid.size
        self.blocks = (n + 1) // 2  # Philox blocks a trace's slot normals take
        self.taps = np.flatnonzero(self.pilot)
        self.levels = self.pilot[self.taps]
        self.total = self.levels.sum()
        self.q = min(0.5, _HOT_PER_TRACE / n)
        self.tau = -_normal_dist_inv_cdf(self.q, 0.0, 1.0)  # as NormalDist().inv_cdf and .cdf compute them
        self.below = 0.5 * (1.0 + erf(self.tau / sqrt(2.0)))
        self.pad = k - 1 if k and n >= 3 * k - 2 else 0
        self.head_slots = np.arange(-self.pad, k + self.pad) % n
        self.head_signal = np.zeros(k + 2 * self.pad)
        self.head_signal[self.pad : self.pad + k] = self.pilot
        self.first = k + self.pad


def _sync_trials(p: _SyncPilot, cells, power, sigma_w, draws, offsets):
    """A sync run's (samples, shifts (T,), peaks (3, T), beams (3, T)), see run_scan.

    In synced slots, shift s of the offset trace scores the window of k
    slots from s - offset, and each peak is the argmax of x outside one such
    window: the synced peak's starts at 0, the naive one's at -offset and
    the realigned one's at shift - offset, mod n; ties go to the lowest slot
    counted from the window's start.  The trials run as one sparse pass
    (_SparseTraces, _pruned_runs, _sparse_peaks); a trial whose realignment
    cannot be pruned on what is drawn, or whose peak's best drawn sample may
    lose to one not drawn, completes its trace from its counters
    (_philox_trace) and takes the dense path (_full_draw).
    """
    offsets = np.broadcast_to(np.asarray(offsets, dtype=int), (len(cells),))
    if (np.abs(offsets) > p.n).any():
        raise ValueError("offset beyond one full trace period")
    x = _SparseTraces(p, cells, power, sigma_w, draws)
    ok, shifts = _pruned_runs(x, p, offsets)
    found, peaks, beams = _sparse_peaks(x, np.stack([0 * offsets, shifts - offsets, -offsets]))
    for t in np.flatnonzero(~(ok & found)):  # the dense path overwrites what the pass could not settle
        trace = _philox_trace(p, cells[t], power[t], sigma_w, draws, t)
        shifts[t], peaks[:, t], beams[:, t] = _full_draw(trace, p, int(offsets[t]))
    return x.drawn(), shifts, peaks, beams


def _slot_normals(draws, rows, slots):
    """Per trial of rows (R,), the normal of each of its slots, slots (R, B),
    or (B,) for slots every trial shares: slot s takes half s % 2 (the
    cosine, the sine) of Box-Muller on the uniforms of block
    _SLOT_BLOCK + s // 2 of the trial's row.  Shared slots draw each block once."""
    if slots.ndim == 2:
        z = _box_muller(draws.uniforms(rows, _SLOT_BLOCK + slots // 2).reshape(len(rows), -1))
        return np.take_along_axis(z, 2 * np.arange(slots.shape[1]) + slots % 2, axis=1)
    blocks = np.sort(slots // 2)
    blocks = blocks[np.append(True, blocks[1:] != blocks[:-1])]
    z = _box_muller(draws.uniforms(rows, _SLOT_BLOCK + blocks).reshape(len(rows), -1))
    return z[:, 2 * np.searchsorted(blocks, slots // 2) + slots % 2]


def _below_tau(p: _SyncPilot, draws, rows, slots, z):
    """z (F,), the normals of noise-only (row, slot)s, conditioned below tau in
    place: a z at or above tau becomes Phi^-1(u' Phi(tau)), u' uniform
    slot % 2 of block _SLOT_BLOCK + ceil(n / 2) + slot // 2.  The two cases add up to N(0, 1)
    conditioned below tau, with no rejection loop."""
    high = np.flatnonzero(z >= p.tau)
    if len(high):
        u = draws.uniforms(rows[high], _SLOT_BLOCK + p.blocks + slots[high, None] // 2)[:, 0, :]
        u = u[np.arange(len(high)), slots[high] % 2]
        z[high] = _normal_quantile(p.below * u)
    return z


def _exceedances(p: _SyncPilot, draws, rows):
    """The noise-only slots past the head that reach tau, per row: an iid
    Bernoulli(q) process over the ranks 0 .. n - len(head) - 1, slot
    p.first + rank, whose j-th rank reads block _SLOT_BLOCK + 2 ceil(n / 2) + j: the
    gap to it from the one before, floor(log u / log1p(-q)), and its value,
    -Phi^-1(q u').  Returns (i, slots, z) (F,), i each hit's index into rows,
    a row's hits in rank order.  A slot that carries signal is drawn exactly instead."""
    rest = p.n - p.first - p.pad
    chunk = int(p.q * rest + 4.0 * np.sqrt(p.q * rest)) + 2  # blocks per row at a time: one pass nearly always
    last = np.full(len(rows), -1.0)
    i, ranks, values = [], [], []
    todo = np.arange(len(rows))
    while len(todo):
        u = draws.uniforms(rows[todo], _SLOT_BLOCK + 2 * p.blocks + len(i) * chunk + np.arange(chunk))
        at = last[todo, None] + np.cumsum(np.floor(np.log(u[..., 0]) / np.log1p(-p.q)) + 1.0, axis=1)
        r, c = np.nonzero(at < rest)
        i.append(todo[r])
        ranks.append(at[r, c])
        values.append(u[r, c, 1])
        last[todo] = at[:, -1]
        todo = todo[at[:, -1] < rest]
    i, ranks, values = map(np.concatenate, (i, ranks, values))
    return i, p.first + ranks.astype(int), -_normal_quantile(p.q * values)


def _support_slots(grid, cells, k):
    """Every synced slot, k + beam slot, that each receiver's cells (T, 4)
    stand for: (rows, slots), by row."""
    rows, c = np.nonzero(cells < grid.size)
    slots = k + cells[rows, c]
    ring = np.flatnonzero(cells[:, 0] == 0)  # the nadir ring cell covers its whole ring
    if len(ring):
        rows = np.concatenate((rows, np.repeat(ring, grid.n_azimuth - 1)))
        slots = np.concatenate((slots, np.tile(k + np.arange(1, grid.n_azimuth), len(ring))))
    return rows, slots


class _SparseTraces:
    """The synced traces with pilot of a batch of trials, drawn only where read.

    head (T, len(head)) holds the head's samples.  One store, sorted by key
    row * (n + k) + slot (keys; rows, slots and values alike), holds every
    other sample drawn, the support slots past the head and the noise-only
    slots at or above tau (_exceedances), the head's samples above cut, and
    per row a sentinel (slot n, value -inf) that closes it, so no row is
    empty; first[r] is where row r's entries start.  Every slot past the
    head that the store does not hold is noise-only and holds at most cut:
    exactly 0.0 when noiseless, else sigma_w times its normal conditioned
    below tau (_below_tau), drawn by read().  Only a drawn sample above cut
    can beat one not drawn.  scale is each trial's largest drawn sample.
    """

    def __init__(self, p: _SyncPilot, cells, power, sigma_w, draws):
        count, n, width = len(cells), p.n, len(p.head_slots)
        self.p, self.sigma_w, self.draws = p, sigma_w, draws
        rows, slots = _support_slots(p.grid, cells, p.k)
        at = (slots + p.pad) % n  # a support slot's place in the head, if it is there
        inside = at < width
        head = np.tile(p.head_signal, (count, 1))
        head[rows[inside], at[inside]] = power[rows[inside]]
        rows, slots = rows[~inside], slots[~inside]
        values = power[rows]
        self.cut = sigma_w * p.tau
        if sigma_w > 0.0:
            # the head and the other support slots, exactly; then the noise-only
            # slots at or above tau
            head += sigma_w * _slot_normals(draws, np.arange(count), p.head_slots)
            values += sigma_w * _slot_normals(draws, rows, slots[:, None])[:, 0]
            r, hot, z = _exceedances(p, draws, np.arange(count))
            rows, slots, values = np.append(rows, r), np.append(slots, hot), np.append(values, sigma_w * z)
        self.head = head
        # the store: the sentinels, the head's samples above cut, then the rest;
        # an exceedance on a support slot sorts after it, and the signal stands
        r, c = np.nonzero(head > self.cut)
        rows = np.concatenate((np.arange(count), r, rows))
        slots = np.concatenate((np.full(count, n), p.head_slots[c], slots))
        values = np.concatenate((np.full(count, -np.inf), head[r, c], values))
        keys = rows * (n + p.k) + slots
        order = np.argsort(keys, kind="stable")
        order = order[np.append(True, np.diff(keys[order]) > 0)]
        self.keys, self.rows, self.slots, self.values = keys[order], rows[order], slots[order], values[order]
        self.first = np.searchsorted(self.keys, np.arange(count) * (n + p.k))
        self.scale = np.maximum(head.max(axis=1), np.maximum.reduceat(self.values, self.first))
        self.reads = []

    def read(self, rows, slots):
        """The samples of the (row, slot)s, rows and slots (F,), drawing those
        not yet drawn."""
        p, n = self.p, self.p.n
        out = np.empty(len(slots))
        at = (slots + p.pad) % n
        head = at < self.head.shape[1]
        out[head] = self.head[rows[head], at[head]]
        rest = np.flatnonzero(~head)
        key = rows[rest] * (n + p.k) + slots[rest]
        i = np.searchsorted(self.keys, key)  # at most the row's sentinel
        drawn = self.keys[i] == key
        out[rest[drawn]] = self.values[i[drawn]]
        new = rest[~drawn]
        if len(new):
            fresh = 0.0
            if self.sigma_w > 0.0:
                z = _slot_normals(self.draws, rows[new], slots[new, None])[:, 0]
                fresh = self.sigma_w * _below_tau(p, self.draws, rows[new], slots[new], z)
                self.reads.append(fresh)
            out[new] = fresh
        return out

    def drawn(self):
        """Every sample drawn so far: the head, row by row, then the rest."""
        past = (self.slots >= self.p.first) & (self.slots < self.p.n - self.p.pad)
        return np.concatenate([self.head.ravel(), self.values[past], *self.reads])


def _pruned_runs(x: _SparseTraces, p: _SyncPilot, offsets):
    """(ok, shifts): per trial, realign_with_pilot's shift, where the drawn
    samples prove it (ok), found by scoring only the shifts that can win.

    In synced slots, the window starting at slot w is shift w + offset's.
    * floor: the exact score of the synced window, shift offset's.  It is
      a score some shift gets, so the best score is at least the floor.
    * bound: with levels >= 0, a shift scores at most L = levels.sum()
      times the largest sample in its k-sample window, plus rounding.  The
      margin of _hot_level is about 90 times the rounding a k-term sum of
      products can carry, so a shift whose window holds no sample at or
      above the level (floor - margin) / L (a hot sample) scores below the
      floor and cannot win.
    * runs: the shifts whose windows hold a hot sample, as runs of
      consecutive shifts (_window_runs), hold every shift that can win,
      ties included; _best_shifts scores them.
    A trial is ok when the level is above cut, so every hot sample is
    drawn, and its runs cover at most half the trace; its runs' windows are
    read from the head where they lie in it.  Every window the bound rules
    out holds samples under a positive level t only, and a window's score
    rounds monotonically in its samples, so it stays under
    (1 + (k + 1) 2^-53) L t whatever its negative samples: the strongest
    sample drawn, which is at least the synced window's, scales the
    rounding allowance.
    """
    k, n = p.k, p.n
    ok, shifts = np.zeros(len(offsets), dtype=bool), np.zeros(len(offsets), dtype=int)
    if len(p.taps) == 0 or 2 * k - 2 > n:  # no score to beat, or a run whose windows overlap
        return ok, shifts
    floor = np.add.accumulate(x.head[:, p.pad + p.taps] * p.levels, axis=1)[:, -1]  # in tap order, as _scores adds
    level = _hot_level(floor, p.total, k, x.scale)
    # the hot samples drawn, every one where level > cut, by key: rows apart
    # by more than a window, so no run joins two
    hot = x.keys[x.values >= level[x.rows]]
    start, count = _window_runs(hot, k)
    rows, start = np.divmod(start + k - 1, n + k)
    start -= k - 1
    ok = (level > x.cut) & (2 * np.bincount(rows, count, len(offsets)) <= n)
    keep = ok[rows]
    rows, start, count = rows[keep], start[keep], count[keep]
    width = x.head.shape[1]
    lo = (start + p.pad) % n  # each run's first window, as a column of the head

    def segments(g, w):  # a slice of the head, else read (past a run's own segment, zeros)
        cols = np.arange(w)
        seg = x.head[rows[g, None], np.minimum(lo[g, None] + cols, width - 1)]
        out = np.flatnonzero(lo[g] + count[g] + k - 1 > width)
        if len(out):
            r = g[out]
            need = cols < (count[r] + k - 1)[:, None]
            part = np.zeros(need.shape)
            at = np.broadcast_to(rows[r, None], need.shape)[need]
            part[need] = x.read(at, ((start[r, None] + cols) % n)[need])
            seg[out] = part
        return seg

    found, best = _best_shifts(rows, (start + offsets[rows]) % n, count, n, k, p.taps, p.levels, segments)
    shifts[found] = best
    return ok, shifts


def _sparse_peaks(x: _SparseTraces, starts):
    """(found (T,), peaks (3, T), beams (3, T)) of the traces whose pilot
    windows start at the synced slots starts (3, T); found is False where a
    sample not drawn could beat a peak."""
    n, k = x.p.n, x.p.k
    rel = x.slots - (starts % n)[:, x.rows]
    rel[rel < 0] += n
    values = np.where((rel >= k) & (x.values > x.cut), x.values, -np.inf)  # only those can beat a slot not drawn
    best = np.maximum.reduceat(values, x.first, axis=1)
    beams = np.minimum.reduceat(np.where(values == best[:, x.rows], rel, n), x.first, axis=1) - k
    return (best > -np.inf).all(axis=0), best, beams


def _philox_trace(p: _SyncPilot, cells, power, sigma_w, draws, t):
    """Trial t's whole synced trace from its counters, as its sparse pass reads
    it: the head and support slots their normals, the noise-only slots of
    _exceedances their values, every other slot its normal conditioned below
    tau; plus the signal."""
    signal = np.zeros(p.n)
    signal[: p.k] = p.pilot
    support = _support_slots(p.grid, cells[None], p.k)[1]
    signal[support] += power
    if sigma_w == 0.0:
        return signal
    z = _box_muller(draws.uniforms(np.array([t]), _SLOT_BLOCK + np.arange(p.blocks)).reshape(1, -1))[0, : p.n]
    exact = np.zeros(p.n, dtype=bool)
    exact[p.head_slots] = exact[support] = True
    noise = np.flatnonzero(~exact)
    z[noise] = _below_tau(p, draws, np.full(len(noise), t), noise, z[noise])
    _, hot, z_hot = _exceedances(p, draws, np.array([t]))
    keep = ~exact[hot]
    z[hot[keep]] = z_hot[keep]
    return sigma_w * z + signal


def _full_draw(samples, p: _SyncPilot, offset):
    """The dense path, on every slot of the synced trace: realign_with_pilot
    and estimator.peak; (shift, peaks, beams)."""
    shifted = np.roll(samples, offset)
    shift = realign_with_pilot(shifted, p.pilot)
    synced = peak(samples[p.k :])
    # the realigned trace is a temporary: a third trace kept alive measured
    # 10x the minor faults (heap-top trims)
    realigned = synced if shift == offset % p.n else peak(np.roll(shifted, -shift)[p.k :])
    return shift, *zip(synced, realigned, peak(shifted[p.k :]))
