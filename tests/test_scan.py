import os
import subprocess
import sys
import textwrap
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from scipy import special, stats

from vlp_sim import scan
from vlp_sim.channel import ChannelParams, received_power_on_axis
from vlp_sim.geometry import (
    UP,
    ReceiverState,
    Room,
    build_beam_grid,
    in_fov,
    incidence_cosine,
    norm,
    spherical_from_direction,
)
from vlp_sim.orientation import LaplaceParams, OrientationConfig, receiver_normals
from vlp_sim.scan import (
    MAX_PILOT_LEN,
    PEAK_UNIFORMS,
    beam_cells,
    dense_trace,
    in_view,
    make_pilot,
    noise_max,
    realign_with_pilot,
    run_scan,
    support,
)
from vlp_sim.streams import uniform_index, uniforms

P = ChannelParams()
ROOM = Room()


@pytest.fixture(scope="module")
def grid():
    return build_beam_grid(1.0, 1.0)


def support_slots(grid, cells):
    """Every beam slot the cells stand for; the nadir ring cell is slot 0."""
    cells = cells[cells < grid.size]
    if len(cells) and cells[0] == 0:
        return np.concatenate([np.arange(grid.n_azimuth), cells[1:]])
    return cells


def enumerated_support(grid, room, positions, normals, params):
    """support() by enumeration, one receiver (a position and a normal) at a
    time: every (ring, azimuth) cell within half a step of the receiver's
    direction, the nadir ring once as slot 0, padded with grid.size; the
    on-axis power in view and 0.0 out of view."""
    cells, power = [], []
    rings = np.arange(grid.n_elevation, dtype=float)
    azimuths = np.arange(grid.n_azimuth, dtype=float)
    for pos, normal in zip(positions, normals):
        one = ReceiverState(pos, normal)
        cos_psi = incidence_cosine(room.emitter_pos, one)
        seen = bool(in_fov(cos_psi, one.fov_deg))
        az, el = spherical_from_direction(pos - room.emitter_pos)
        delta = np.abs(azimuths * grid.azimuth_step_deg - az)
        ring_ok = np.abs(rings * grid.elevation_step_deg - el) <= 0.5 * grid.elevation_step_deg
        azi_ok = np.minimum(delta, 360.0 - delta) <= 0.5 * grid.azimuth_step_deg
        found = sorted({0 if r == 0 else r * grid.n_azimuth + a
                        for r in np.flatnonzero(ring_ok) for a in np.flatnonzero(azi_ok)} if seen else ())
        assert len(found) <= 4
        cells.append(found + [grid.size] * (4 - len(found)))
        power.append(received_power_on_axis(norm(pos - room.emitter_pos), cos_psi, params) if seen else 0.0)
    return np.array(cells), np.array(power, dtype=float)


def exact_boundary(start, axes, az, el=None):
    """start with its coordinates on axes moved together by the fewest ulps
    that make spherical_from_direction, from the emitter, return exactly az
    (and el, unless None).  Which decimal lands on a half step depends on how
    numpy's dispatched arccos and arctan2 kernels round, so each run derives
    its own."""
    start = np.array(start, dtype=float)
    for k in sorted(range(-512, 513), key=abs):
        p = start.copy()
        p[axes] += k * np.spacing(start[axes])
        got_az, got_el = spherical_from_direction(p - ROOM.emitter_pos)
        if got_az == az and (el is None or got_el == el):
            return p
    raise AssertionError(f"no receiver within 512 ulps of {start} has azimuth {az}, elevation {el}")


@pytest.fixture(scope="module")
def boundary_receivers():
    """Receivers whose direction from the emitter lies exactly on half-step
    boundaries: azimuth 45 (dx == dy) with elevation 67.5 and 45, azimuth 0
    with elevation 16.5, azimuth 0.5 and 359.5, azimuth 45; then the centre
    column (the nadir ring), azimuths a hair either side of 0, and an
    elevation within half a step of 90, past the last ring."""
    diagonal, tilt = np.sqrt(0.5), np.radians(0.5)
    return np.array([
        exact_boundary([0.5 + diagonal * 0.1 * np.tan(np.radians(67.5))] * 2 + [2.9], [0, 1], 45.0, 67.5),
        exact_boundary([0.5 + diagonal * 0.707] * 2 + [2.293], [0, 1], 45.0, 45.0),
        exact_boundary([0.5 + 1.65 * np.tan(np.radians(16.5)), 0.5, 1.35], [0], 0.0, 16.5),
        exact_boundary([0.5 + 0.3 * np.cos(tilt), 0.5 + 0.3 * np.sin(tilt), 1.0], [0], 0.5),
        exact_boundary([0.5 + 0.3 * np.cos(tilt), 0.5 - 0.3 * np.sin(tilt), 1.0], [0], 359.5),
        exact_boundary([0.5 + diagonal * 0.3] * 2 + [1.0], [0, 1], 45.0),
        [0.5, 0.5, 0.0],
        [0.5, 0.5, 2.4],
        [0.8, 0.5 - 1e-12, 1.0],
        [0.8, 0.5 + 1e-12, 1.0],
        [0.2, 0.5 - 1e-12, 2.0],
        [1.0, 0.6, 2.999],
    ])


def batch(rx: ReceiverState, n: int) -> ReceiverState:
    """n copies of one receiver, as a peak-only pass takes them."""
    return ReceiverState(np.tile(rx.position, (n, 1)), np.tile(rx.normal, (n, 1)), rx.fov_deg)


def row_uniforms(seed: int, n: int) -> np.ndarray:
    prefix = np.column_stack([np.arange(n), np.zeros(n, dtype=int), np.zeros(n, dtype=int)])
    return uniforms(seed, prefix, PEAK_UNIFORMS)


def brute_force_best_shift(samples, pilot):
    # oracle: score every cyclic shift with an explicit dot product
    n = len(samples)
    k = len(pilot)
    best, best_val = 0, -np.inf
    for s in range(n):
        window = samples[np.arange(s, s + k) % n]
        val = float(np.dot(window, pilot))
        if val > best_val + 0.0:  # strict improvement keeps smallest shift on ties
            best, best_val = s, val
    return best


def rolled_copies_realign(x, pilot):
    # reference: the argmax of the per-tap accumulation over np.roll copies,
    # every shift scored, same tap order; argmax takes the first maximum (or NaN)
    corr = np.zeros(len(x))
    for i in range(len(pilot)):
        if pilot[i] != 0.0:
            corr += pilot[i] * np.roll(x, -i)
    return int(np.argmax(corr))


def row_major_peak_pass(grid, cells, power, sigma_w, u):
    # reference: the peak-only pass receiver-major, one (N, 5) row of
    # candidates per receiver, reduced by max and by min over axis 1
    n, n_az = grid.size, grid.n_azimuth
    lit = cells < n
    ring = cells == 0
    size = np.where(ring, n_az, lit)
    k = n - size.sum(axis=1)
    values = np.where(lit, power[:, None], -np.inf)
    slots = cells.copy()
    noise = np.where(k > 0, 0.0, -np.inf)
    r = np.zeros(len(k), dtype=int)
    if sigma_w > 0.0:
        values += sigma_w * scan._box_muller(u[:, 0:4])
        rows = ring[:, 0]
        values[rows, 0] = power[rows] + noise_max(sigma_w, n_az, u[rows, 6])
        slots[rows, 0] = uniform_index(u[rows, 7], n_az)
        has = k > 0
        noise[has] = noise_max(sigma_w, k[has], u[has, 4])
        r[has] = uniform_index(u[has, 5], k[has])
    ahead = np.cumsum(size, axis=1) - size
    before = (size * (cells - ahead <= r[:, None])).sum(axis=1)
    values = np.column_stack([values, noise])
    slots = np.column_stack([slots, r + before])
    peak = values.max(axis=1)
    return peak, np.where(values == peak[:, None], slots, n).min(axis=1)


class TestRunScan:
    def test_nadir_receiver_hits_whole_nadir_ring(self, grid):
        # oracle: on-axis power at 1.5 m evaluated from the closed form
        spread = P.wavelength_m * 1.5 / (np.pi * P.waist_m**2)
        expected = 2 * P.p_opt_w * P.pd_area_m2 / (np.pi * P.waist_m**2 * (1 + spread**2))
        rx = ReceiverState([0.5, 0.5, 1.5], [0, 0, 1])
        trace = dense_trace(grid, *support(grid, ROOM, rx, P), 0.0, None)
        nadir = trace[: grid.n_azimuth]
        np.testing.assert_allclose(nadir, expected, rtol=1e-12)
        assert np.all(trace[grid.n_azimuth :] == 0.0)

    def test_receiver_facing_away_sees_nothing(self, grid):
        rx = ReceiverState([0.2, 0.7, 1.0], [0, 0, -1])
        trace = dense_trace(grid, *support(grid, ROOM, rx, P), 0.0, None)
        assert np.all(trace == 0.0)

    def test_trace_length_with_pilot(self, grid):
        pilot = make_pilot(P.p_opt_w, 64)
        rx = ReceiverState([0.5, 0.5, 1.5])
        trace = dense_trace(grid, *support(grid, ROOM, rx, P), 0.0, None, pilot)
        assert len(trace) == 64 + 32400

    def test_off_centre_receiver_hits_single_cell(self, grid):
        # direction to (0.8, 0.5, 1.0): az = 0, el = atan(0.3/2.0)
        rx = ReceiverState([0.8, 0.5, 1.0])
        trace = dense_trace(grid, *support(grid, ROOM, rx, P), 0.0, None)
        el = np.degrees(np.arctan2(0.3, 2.0))
        expected_beam = int(round(el)) * grid.n_azimuth + 0
        hits = np.nonzero(trace)[0]
        assert list(hits) == [expected_beam]

    def test_noise_reaches_every_slot(self, grid):
        rx = ReceiverState([0.5, 0.5, 1.5])
        trace = dense_trace(grid, *support(grid, ROOM, rx, P), 1e-9, scan.SyncDraws(3, np.zeros((1, 3), dtype=int)))
        assert np.count_nonzero(trace) == len(trace)

    def test_outside_room_rejected(self, grid):
        rx = ReceiverState([1.5, 0.5, 1.0])
        with pytest.raises(ValueError):
            support(grid, ROOM, rx, P)

    def test_receiver_at_ceiling_rejected(self, grid):
        rx = ReceiverState([0.2, 0.2, 3.0])
        with pytest.raises(ValueError):
            support(grid, ROOM, rx, P)


class TestSupport:
    @pytest.mark.parametrize("pos", [[0.5, 0.5, 1.5], [0.8, 0.5, 1.0], [0.03, 0.91, 0.2], [0.5, 0.5 + 1e-3, 2.4]])
    def test_matches_noiseless_dense_trace(self, grid, pos):
        rx = ReceiverState(pos)
        cells, power = support(grid, ROOM, rx, P)
        trace = dense_trace(grid, *support(grid, ROOM, rx, P), 0.0, None)
        slots = support_slots(grid, cells)
        np.testing.assert_array_equal(slots, np.nonzero(trace)[0])
        assert np.all(trace[slots] == power)
        # a batch gives every receiver the cells and power it gets alone
        many, powers = support(grid, ROOM, batch(rx, 3), P)
        np.testing.assert_array_equal(many, np.tile(cells, (3, 1)))
        np.testing.assert_array_equal(powers, np.full(3, power))

    def test_out_of_view_is_empty(self, grid):
        cells, power = support(grid, ROOM, ReceiverState([0.2, 0.7, 1.0], [0, 0, -1]), P)
        assert np.all(cells == grid.size) and power == 0.0

    @pytest.mark.parametrize(
        "steps, most",
        [((1.0, 1.0), 2), ((2.0, 3.0), 4), ((90.0, 45.0), 2), ((90.0, 30.0), 4), ((360.0, 45.0), 1)],
        ids=["1x1", "2x3", "90x45", "90x30", "360x45"],
    )
    def test_matches_cell_enumeration(self, boundary_receivers, steps, most):
        # steps (azimuth, elevation); most is the largest cell count among the
        # boundary receivers, so the test sees them land on the boundaries
        g = build_beam_grid(*steps)
        rng = np.random.default_rng(26)
        b = len(boundary_receivers)
        positions = np.vstack([boundary_receivers, rng.uniform([0.0, 0.0, 0.0], [1.0, 1.0, 2.9], (500, 3))])
        normals = np.tile([0.0, 0.0, 1.0], (len(positions), 1))
        normals[:b] = ROOM.emitter_pos - positions[:b]  # in view
        normals[b::2] = rng.normal(size=(250, 3))  # tilted, some facing away
        cells, power = support(g, ROOM, ReceiverState(positions, normals), P)
        want_cells, want_power = enumerated_support(g, ROOM, positions, normals, P)
        np.testing.assert_array_equal(cells, want_cells)
        np.testing.assert_array_equal(power.view(np.int64), want_power.view(np.int64))
        assert (cells[:b] < g.size).sum(axis=1).max() == most
        assert 0 < np.count_nonzero(power == 0.0) < len(power)

    @pytest.mark.parametrize("fov", [60.0, 120.0, 180.0])
    @pytest.mark.parametrize("step", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("mode", ["random-euler", "random-spherical"])
    def test_per_point_cells_masked_per_row_match_support(self, mode, step, fov):
        # a grid run finds each point's cells and distance once (beam_cells)
        # and each row only whether its pose sees them (in_view, from the
        # row's own incidence cosine): the bits of support() row by row.
        # Points on the four walls up to the ceiling (grazing arrivals), on
        # the floor and under the emitter (the nadir ring), 12 poses a point
        g = build_beam_grid(step, step)
        rng = np.random.default_rng(41)
        side = rng.uniform([0.0, 0.0, 0.0], [1.0, 1.0, 2.999], (40, 3))
        side[:10, 0], side[10:20, 0], side[20:30, 1], side[30:, 1] = 0.0, 1.0, 0.0, 1.0
        floor = np.column_stack([rng.uniform(0.0, 1.0, (20, 2)), np.zeros(20)])
        under = np.column_stack([np.full((8, 2), 0.5), np.linspace(0.0, 2.9, 8)])
        under[4:, 0] += 1e-3  # beside the nadir: in the nadir ring's half step, or out of it near the ceiling
        points = np.vstack([side, floor, under, rng.uniform([0.0, 0.0, 0.0], [1.0, 1.0, 2.999], (40, 3))])
        at = np.repeat(np.arange(len(points)), 12)
        # random-spherical's stock spread is zero (upright): tilt it
        orientation = OrientationConfig(mode=mode, azimuth=LaplaceParams(0.0, 90.0),
                                        elevation=LaplaceParams(60.0, 20.0))
        normals = receiver_normals(orientation, rng.uniform(size=(len(at), 3)) - 0.5)
        rx = ReceiverState(points[at], normals, fov)
        reach = beam_cells(g, ROOM, points)
        cells, power = in_view(g, *(a[at] for a in reach), incidence_cosine(ROOM.emitter_pos, rx), fov, P)
        want_cells, want_power = support(g, ROOM, rx, P)
        np.testing.assert_array_equal(cells, want_cells)
        np.testing.assert_array_equal(power.view(np.int64), want_power.view(np.int64))
        # the field of view cuts some rows of a point and not others, and the
        # nadir ring is among the cells seen
        seen = (power > 0.0).reshape(len(points), -1)
        assert (seen.any(axis=1) & ~seen.all(axis=1)).any()
        assert (cells[power > 0.0, 0] == 0).any()
        # an upright receiver too, as a fixed pass gathers it per point
        upright = ReceiverState(points, UP, fov)
        got = in_view(g, *reach, incidence_cosine(ROOM.emitter_pos, upright), fov, P)
        for a, b in zip(got, support(g, ROOM, upright, P)):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


class TestPeakOnlyScan:
    def test_support_then_one_noise_slot(self, grid):
        # off the nadir the peak is a support cell or the one noise-only maximum
        rx = ReceiverState([0.8, 0.5, 1.0])
        cells, power = support(grid, ROOM, rx, P)
        slots = support_slots(grid, cells)
        n = 2000
        trace = run_scan(grid, *support(grid, ROOM, batch(rx, n), P), sigma_w=0.3 * power,
                         draws=row_uniforms(4, n))
        # the traced benchmark hook counts len(samples): one peak per receiver
        assert len(trace.samples) == len(trace.beams) == n
        on = np.isin(trace.beams, slots)
        assert 0 < on.sum() < n
        assert np.all((trace.beams >= 0) & (trace.beams < grid.size))

    def test_draw_order(self, grid):
        # column map: Box-Muller pairs (0, 1), (2, 3) for the cells in
        # ascending slot order, then U and the slot of the noise-only maximum
        rx = ReceiverState([0.8, 0.5, 1.0])
        cells, power = support(grid, ROOM, rx, P)
        assert np.count_nonzero(cells < grid.size) == 1  # one cell, off the nadir ring
        sigma = 1e-6
        u = row_uniforms(8, 50)
        trace = run_scan(grid, *support(grid, ROOM, batch(rx, 50), P), sigma_w=sigma,
                         draws=u)
        z = np.sqrt(-2.0 * np.log(u[:, 0])) * np.cos(2.0 * np.pi * u[:, 1])
        k = grid.size - 1
        noise = noise_max(sigma, k, u[:, 4])
        r = uniform_index(u[:, 5], k)
        noise_slot = r + (r >= cells[0])  # the one support slot shifts the noise-only slots after it
        cell_wins = power + sigma * z > noise
        np.testing.assert_array_equal(trace.samples, np.where(cell_wins, power + sigma * z, noise))
        np.testing.assert_array_equal(trace.beams, np.where(cell_wins, cells[0], noise_slot))

    def test_noiseless_peak_is_zero_at_lowest_noise_slot(self, grid):
        # nadir: the ring cell wins at its lowest slot, the noise-only maximum
        # (0 at slot 360, the lowest noise-only slot) loses
        rx = ReceiverState([0.5, 0.5, 1.5])
        _, power = support(grid, ROOM, rx, P)
        trace = run_scan(grid, *support(grid, ROOM, batch(rx, 2), P), sigma_w=0.0,
                         draws=row_uniforms(0, 2))
        np.testing.assert_array_equal(trace.beams, [0, 0])
        np.testing.assert_array_equal(trace.samples, [power, power])
        # out of view only the noise-only maximum is left: 0 at slot 0
        away = ReceiverState([0.2, 0.7, 1.0], [0, 0, -1])
        out = run_scan(grid, *support(grid, ROOM, batch(away, 2), P), sigma_w=0.0,
                       draws=row_uniforms(0, 2))
        np.testing.assert_array_equal(out.beams, [0, 0])
        np.testing.assert_array_equal(out.samples, [0.0, 0.0])

    def test_k_zero_draws_no_extreme(self):
        # a 1-beam grid with the receiver at nadir: every slot carries signal,
        # so the peak is the ring cell's own maximum (of one sample: a normal)
        one = build_beam_grid(360.0, 90.0)
        assert one.size == 1
        rx = ReceiverState([0.5, 0.5, 1.5])
        _, power = support(one, ROOM, rx, P)
        u = row_uniforms(21, 40)
        trace = run_scan(one, *support(one, ROOM, batch(rx, 40), P), sigma_w=1e-6, draws=u)
        np.testing.assert_array_equal(trace.beams, np.zeros(40))
        np.testing.assert_array_equal(trace.samples, power + noise_max(1e-6, 1, u[:, 6]))

    @pytest.mark.parametrize(
        "steps", [(1.0, 1.0), (2.0, 3.0), (90.0, 30.0), (360.0, 90.0)], ids=["1x1", "2x3", "90x30", "1-beam"]
    )
    def test_matches_row_major_reference(self, boundary_receivers, steps):
        # on the 12-slot 90x30 grid the noise-only slot often sits right at a
        # support cell, where counting the cells before it is off by one
        g = build_beam_grid(*steps)
        rng = np.random.default_rng(29)
        b = len(boundary_receivers)
        positions = np.vstack([
            boundary_receivers,  # on half-step boundaries: cells of equal power, tied when noiseless
            rng.uniform([0.0, 0.0, 0.0], [1.0, 1.0, 2.9], (600, 3)),
            np.column_stack([0.5 + rng.uniform(-0.02, 0.02, (100, 2)), rng.uniform(0.0, 2.5, 100)]),  # the nadir ring
        ])
        normals = np.tile([0.0, 0.0, 1.0], (len(positions), 1))
        normals[:b] = ROOM.emitter_pos - positions[:b]
        normals[b::3] = rng.normal(size=normals[b::3].shape)  # tilted, some facing away: out of view
        cells, power = support(g, ROOM, ReceiverState(positions, normals), P)
        # nadir ring rows (with no noise-only slot on the 1-beam grid), rows out
        # of view and, on every grid but the 1-beam one, rows of several cells
        assert (cells[:, 0] == 0).any() and (power == 0.0).any()
        assert (cells[:, 1] < g.size).any() == (g.size > 1)
        for seed, sigma in [(0, 0.0), (1, 1e-8), (2, 1e-6), (3, 1e-4)]:
            trace = run_scan(g, cells, power, sigma, row_uniforms(seed, len(cells)))
            peaks, beams = row_major_peak_pass(g, cells, power, sigma, row_uniforms(seed, len(cells)))
            np.testing.assert_array_equal(trace.samples.view(np.int64), peaks.view(np.int64), err_msg=f"sigma {sigma}")
            np.testing.assert_array_equal(trace.beams.view(np.int64), beams.view(np.int64), err_msg=f"sigma {sigma}")


class TestNoiseMaxSampler:
    @pytest.mark.parametrize("k", [1, 7, 32_400])
    def test_max_follows_order_statistic_law(self, k):
        # oracle: the max of k iid N(0, sigma^2) has CDF Phi(x / sigma)^k
        sigma = 2.5e-6
        draws = noise_max(sigma, k, row_uniforms(1000 + k, 5000)[:, 4])
        p = stats.kstest(draws, lambda x: np.exp(k * special.log_ndtr(x / sigma))).pvalue
        assert p > 0.01

    def test_quantile_matches_scipy(self):
        # oracle: the max is sigma * Phi^-1(U^(1/k)); scipy's ndtri_exp takes
        # log(U^(1/k)) directly, so it keeps p near 1 exact on its own
        sigma = 2.5e-6
        u = np.concatenate([
            np.logspace(-300, np.log10(0.5), 1200),
            1.0 - np.logspace(-12, np.log10(0.5), 1200),
        ])
        for k in (1, 7, 32_400):
            want = sigma * special.ndtri_exp(np.log(u) / k)
            np.testing.assert_allclose(noise_max(sigma, k, u), want, rtol=1e-12, atol=0.0, err_msg=f"k = {k}")
            # per-row k, as a pass draws it
            np.testing.assert_array_equal(noise_max(sigma, np.full(len(u), k), u), noise_max(sigma, k, u))

    def test_quantile_is_inv_cdf_bit_for_bit(self):
        # _normal_quantile maps statistics._normal_dist_inv_cdf, the private
        # routine NormalDist().inv_cdf calls: a Python that changes it fails
        # here, not silently in the outputs (one that drops it: the next test)
        half = [np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0)]
        p = np.concatenate([
            np.geomspace(1e-300, 0.5, 4000),
            1.0 - np.geomspace(2.0**-53, 0.5, 4000),
            np.random.default_rng(29).uniform(size=2001),
            half,
        ])
        want = np.array([NormalDist().inv_cdf(x) for x in p.tolist()])
        got = scan._normal_quantile(p.reshape(2, -1))
        assert got.shape == (2, len(p) // 2)
        np.testing.assert_array_equal(got.ravel().view(np.int64), want.view(np.int64))
        assert np.isnan(scan._normal_quantile([0.25, np.nan])[1])
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                scan._normal_quantile([0.25, bad])

    def test_quantile_falls_back_to_inv_cdf_without_the_private_name(self):
        # a fresh interpreter imports scan with the name gone from statistics,
        # then checks the fallback against the routine, bit for bit
        code = textwrap.dedent("""
            import importlib, statistics
            import numpy as np
            routine = statistics._normal_dist_inv_cdf
            del statistics._normal_dist_inv_cdf
            from vlp_sim import scan
            statistics._normal_dist_inv_cdf = routine  # NormalDist().inv_cdf calls it by this name

            def results():
                p = np.concatenate([np.geomspace(1e-300, 0.5, 500), 1.0 - np.geomspace(2.0**-53, 0.5, 500), [np.nan]])
                u = np.linspace(0.0, 1.0, 1001)[1:-1]
                return [scan._normal_quantile(p), *(scan.noise_max(2.5e-6, k, u) for k in (1, 7, 32_400))]

            assert scan._normal_dist_inv_cdf is not routine
            fallback = results()
            for bad in (0.0, 1.0):
                try:
                    scan._normal_quantile([bad])
                except ValueError:
                    pass
                else:
                    raise AssertionError(bad)
            importlib.reload(scan)
            assert scan._normal_dist_inv_cdf is routine
            for a, b in zip(fallback, results()):
                np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
            print("ok")
        """)
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                             capture_output=True, text=True)
        assert (out.returncode, out.stdout) == (0, "ok\n"), out.stderr

    def test_empty_set_has_no_max(self):
        with pytest.raises(ValueError):
            noise_max(1.0, 0, np.array([0.5]))


class TestSyncOffsets:
    def test_offset_bound_is_one_period(self):
        # a sync run takes offsets up to one trace period either way, a whole
        # period being no offset, and rejects the next one out
        grid = build_beam_grid(2.0, 2.0)
        n = 64 + grid.size
        assert n == 8_164
        rx = ReceiverState([0.5, 0.5, 1.5])
        cells, power = support(grid, ROOM, batch(rx, 1), P)
        draws = scan.SyncDraws(3, np.zeros((1, 3), dtype=int))

        def run(offset):
            return run_scan(grid, cells, power, 1e-6, draws, pilot_w=make_pilot(P.p_opt_w, 64),
                            offset_steps=np.array([offset]))

        synced = run(0)
        for offset in (n, -n):
            trace = run(offset)
            np.testing.assert_array_equal(trace.peaks, synced.peaks)
            np.testing.assert_array_equal(trace.beams, synced.beams)
        for offset in (n + 1, -(n + 1)):
            with pytest.raises(ValueError, match="one full trace period"):
                run(offset)


class TestRealignWithPilot:
    def test_no_offset_strips_pilot(self, grid):
        pilot = make_pilot(P.p_opt_w, 64)
        rx = ReceiverState([0.5, 0.5, 1.5])
        trace = dense_trace(grid, *support(grid, ROOM, rx, P), 0.0, None, pilot)
        shift = realign_with_pilot(trace, pilot)
        assert type(shift) is int and shift == 0

    @pytest.mark.parametrize("offset", [-5000, -1, 1, 7, 4321, 16000])
    def test_offset_then_realign_restores_exactly(self, grid, offset):
        pilot = make_pilot(P.p_opt_w, 64)
        rx = ReceiverState([0.31, 0.62, 0.9])
        trace = dense_trace(grid, *support(grid, ROOM, rx, P), 0.0, None, pilot)
        shifted = np.roll(trace, offset)
        shift = realign_with_pilot(shifted, pilot)
        assert shift == offset % len(trace)
        np.testing.assert_array_equal(np.roll(shifted, -shift), trace)

    def test_every_shift_matches_brute_force_small(self):
        # exhaustive oracle on a small synthetic trace
        rng = np.random.default_rng(10)
        pilot = make_pilot(1.0, 8)
        base = np.abs(rng.normal(0.0, 1e-6, size=40))
        base[:8] += pilot
        for offset in range(-20, 21):
            shifted = np.roll(base, offset)
            assert realign_with_pilot(shifted, pilot) == brute_force_best_shift(shifted, pilot)

    def test_trace_shorter_than_pilot_rejected(self):
        with pytest.raises(ValueError):
            realign_with_pilot(np.ones(3), np.ones(4))

    def test_tie_break_smallest_nonnegative_shift(self):
        # constant trace ties every shift; both routes must pick shift 0
        pilot = np.ones(4)
        trace = np.ones(12)
        assert brute_force_best_shift(trace, pilot) == 0
        assert realign_with_pilot(trace, pilot) == 0
        # a pilot with no on-bit ties every shift of any trace at 0.0
        dark, ramp = np.zeros(4), np.arange(12.0)
        assert brute_force_best_shift(ramp, dark) == 0
        assert realign_with_pilot(ramp, dark) == 0

    def test_noisy_recovery_rate(self):
        # pilot at 20 dB above the noise floor: recovery is essentially certain
        rng = np.random.default_rng(123)
        pilot = make_pilot(1e-3, 64)
        sigma = 1e-3 / 10.0
        n, ok = 200, 0
        for _ in range(n):
            base = rng.normal(0.0, sigma, size=2000)
            base[:64] += pilot
            offset = int(rng.integers(-1000, 1001))
            shifted = np.roll(base, offset)
            ok += realign_with_pilot(shifted, pilot) == offset % len(base)
        assert ok / n >= 0.99

    def test_bit_identical_to_rolled_copies(self):
        # reference: the per-tap accumulation over np.roll copies, same tap order
        rng = np.random.default_rng(77)
        pilot = make_pilot(1e-3, 64)
        for _ in range(20):
            x = rng.normal(0.0, 1e-4, size=3000)
            x[:64] += pilot
            x = np.roll(x, int(rng.integers(-1500, 1501)))
            assert realign_with_pilot(x, pilot) == rolled_copies_realign(x, pilot)

    @pytest.mark.parametrize("snr_db", [np.inf, 40.0, 20.0, 10.0, 0.0, -10.0])
    @pytest.mark.parametrize("levels", ["single", "multi"])
    def test_pruned_search_matches_dense_scoring(self, grid, snr_db, levels):
        # the every-shift argmax equals rolled_copies_realign's, on short
        # and full-grid traces, with the pilot straddling the wrap
        rng = np.random.default_rng(int(snr_db) + 1000 if np.isfinite(snr_db) else 7)
        on = 1e-3
        sigma = 0.0 if np.isinf(snr_db) else on / 10.0 ** (snr_db / 20.0)
        for k in (8, 64):
            pilot = make_pilot(on, k)
            if levels == "multi":
                pilot = pilot * rng.choice([0.25, 1.0, 3.0], size=k)
            for n in sorted({k, k + 1, 40, 1000, 64 + grid.size}):
                if n < k:
                    continue
                base = rng.normal(0.0, sigma, size=n)
                base[:k] += pilot
                if n > k + 1:
                    base[k + int(rng.integers(0, n - k))] += 0.05 * on  # a beam's signal
                for offset in sorted({0, 1, -1, k // 2, -(k // 2), 1 - k, n // 2, int(rng.integers(0, n))}):
                    x = np.roll(base, offset)
                    got = realign_with_pilot(x, pilot)
                    assert got == rolled_copies_realign(x, pilot), f"{k=} {n=} {offset=}"

    @pytest.mark.parametrize(
        "case",
        ["constant", "zeros", "all-negative", "subnormal", "nan", "+inf", "-inf", "+-inf", "twin-pilots-across-wrap",
         "twin-pilots-apart", "first-tap-only", "last-tap-only"],
    )
    def test_pruned_search_matches_dense_scoring_on_edge_traces(self, case):
        # the every-shift argmax equals rolled_copies_realign's on traces
        # with ties, NaN, infinities and subnormals
        rng = np.random.default_rng(31)
        pilot = make_pilot(1.0, 16)
        if case.endswith("tap-only"):
            # one on-tap at either end of the pilot: the winning window holds
            # the strongest sample first or last
            pilot = np.zeros(16)
            pilot[0 if case == "first-tap-only" else -1] = 1.0
        n = 1000
        x = rng.normal(0.0, 0.01, size=n)
        x[:16] += pilot
        x = np.roll(x, 5)
        if case == "constant":
            x = np.full(n, 0.3)  # every shift ties: shift 0
        elif case == "zeros":
            x = np.zeros(n)
        elif case == "all-negative":
            x -= 5.0
        elif case == "subnormal":
            x *= 1e-318  # products round to absolute, not relative, steps
        elif case == "nan":
            x[500] = np.nan
        elif case in ("+inf", "-inf"):
            x[500] = float(case[0] + "inf")
        elif case == "+-inf":
            x[[300, 310]] = np.inf, -np.inf  # windows holding both score NaN
        elif case == "twin-pilots-across-wrap":
            # the same pilot at shifts 990 and 3, windows across the wrap:
            # an exact tie; the smaller shift wins
            x = np.zeros(n)
            x[(990 + np.arange(16)) % n] += pilot
            x[3:19] += pilot
        elif case == "twin-pilots-apart":
            # the same pilot at shifts 990 and 400: an exact tie; the
            # smaller shift wins
            x = np.zeros(n)
            x[(990 + np.arange(16)) % n] += pilot
            x[400:416] += pilot
        with np.errstate(invalid="ignore"):
            want = rolled_copies_realign(x, pilot)
            got = realign_with_pilot(x, pilot)
        assert got == want
        if case == "twin-pilots-across-wrap":
            assert got == 3
        if case == "twin-pilots-apart":
            assert got == 400

    def test_window_runs_match_brute_force_union(self):
        # the runs, taken mod n, are exactly the shifts whose k-slot window
        # holds a hot slot, for each row of a batch keyed row * (n + k) + slot,
        # as the sparse sync pass keys its trials
        rng = np.random.default_rng(41)
        for case in range(300):
            count, n, k = int(rng.integers(1, 30)), int(rng.integers(40, 3001)), int(rng.integers(1, 17))
            hot = []
            for size in rng.integers(0, 13, count).tolist():
                h = set(rng.choice(n, size, replace=False).tolist())
                if size and case % 3 == 0:
                    h |= {0, n - 1}  # the ends of the trace
                if size and case % 3 == 1:
                    a = int(rng.integers(0, n - 2 * k))
                    h |= {a, a + k - 1, a + 2 * k - 1}  # neighbours k - 1 and k apart
                hot.append(sorted(h))
            start, size = scan._window_runs(np.array([r * (n + k) + s for r, h in enumerate(hot) for s in h], int), k)
            assert (size >= k).all()
            rows, start = np.divmod(start + k - 1, n + k)
            start -= k - 1
            for r, h in enumerate(hot):
                got = {(a + i) % n for a, c in zip(start[rows == r].tolist(), size[rows == r].tolist()) for i in range(c)}
                assert got == {(s - i) % n for s in h for i in range(k)}, (case, r)

    def test_best_shifts_match_brute_force_argmax(self):
        # _best_shifts, which settles the sparse sync pass's runs, against the
        # argmax over each row's real shifts, each scored in tap order as
        # _scores adds.  Row 0: runs of 20 and 30 shifts in one size group,
        # whose padding cells would win if scored.  Row 1: the same pilot at
        # shifts n - 3 and 2, an exact tie inside a run that crosses shift
        # n - 1.  Row 2: the same pilot at shifts 40 and 10, an exact tie
        # across two runs, the later shift's run listed first.  Row 3: the
        # same pilot at shifts n - 6 and 0, an exact tie inside a run that
        # crosses shift n - 1, shift 0 at the crossing's first column.
        n, k = 200, 4
        pilot = np.array([1.0, 0.0, 0.5, 2.0])  # the last tap on: a padded window reaches past the run
        taps = np.flatnonzero(pilot)
        traces = np.random.default_rng(52).normal(0.0, 0.01, size=(4, n))
        traces[0, 70:74] += pilot
        traces[1:] = 0.0
        for row, at in ((1, n - 3), (1, 2), (2, 40), (2, 10), (3, n - 6), (3, 0)):
            traces[row, (at + np.arange(k)) % n] = pilot
        rows = np.array([0, 0, 1, 2, 2, 3])
        first = np.array([100, 60, n - 5, 35, 0, n - 8])
        count = np.array([20, 30, 12, 9, 40, 12])

        def segments(g, width):  # past a run's own samples, cells that win if scored
            cols = np.arange(width)
            seg = np.full((len(g), width), 1e3)
            own = cols < (count[g] + k - 1)[:, None]
            at = (first[g, None] + cols) % n
            seg[own] = traces[np.broadcast_to(rows[g, None], own.shape)[own], at[own]]
            return seg

        def score(x, s):
            total = None
            for i in taps.tolist():
                term = pilot[i] * x[(s + i) % n]
                total = term if total is None else total + term
            return total

        want = {}
        for r, a, c in zip(rows.tolist(), first.tolist(), count.tolist()):
            for s in ((a + np.arange(c)) % n).tolist():
                best = want.get(r)
                value = score(traces[r], s)
                if best is None or value > best[0] or (value == best[0] and s < best[1]):
                    want[r] = (value, s)
        assert score(traces[1], n - 3) == score(traces[1], 2) == want[1][0]
        assert score(traces[2], 40) == score(traces[2], 10) == want[2][0]
        assert score(traces[3], n - 6) == score(traces[3], 0) == want[3][0]
        got_rows, got = scan._best_shifts(rows, first, count, n, k, taps, pilot[taps], segments)
        assert got_rows.tolist() == [0, 1, 2, 3]
        assert got.tolist() == [want[r][1] for r in range(4)] == [70, 2, 10, 0]

    def test_negative_pilot_level_rejected(self, grid):
        # wherever a pilot enters: the correlator, the sync run and the dense trace
        rx = ReceiverState([0.8, 0.5, 1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            realign_with_pilot(np.ones(10), np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError, match="nonnegative"):
            run_scan(grid, *support(grid, ROOM, batch(rx, 2), P), 0.0, None, pilot_w=[1, -1, 1])
        with pytest.raises(ValueError, match="nonnegative"):
            dense_trace(grid, *support(grid, ROOM, rx, P), 0.0, None, pilot_w=[1, -1, 1])

    def test_empty_pilot_rejected(self):
        with pytest.raises(ValueError):
            realign_with_pilot(np.ones(10), np.array([]))


class TestSyncPilot:
    def test_head_pad_rule(self):
        # the pilot gets k - 1 slots either side while n >= 3k - 2, so the two
        # pads do not meet; no pilot, no pad
        grid = build_beam_grid(10.0, 10.0)
        assert grid.size == 324
        for k, pad in ((163, 162), (164, 0), (1, 0), (2, 1)):
            p = scan._SyncPilot(grid, np.ones(k))
            assert (p.n, p.pad) == (k + 324, pad), k
            np.testing.assert_array_equal(p.head_slots, np.arange(-pad, k + pad) % p.n)
        empty = scan._SyncPilot(grid, np.zeros(0))
        assert (empty.pad, empty.first, len(empty.head_slots)) == (0, 0, 0)


class TestNoiseRobustSelection:
    def test_small_noise_never_flips_argmax(self, grid):
        # noise at 1% of the peak cannot displace a clean peak: 10,000 noisy
        # sweeps of one receiver, as one peak-only pass (the dense law, see
        # TestPeakOnlyEquivalence)
        rx = ReceiverState([0.62, 0.41, 1.2])
        clean = dense_trace(grid, *support(grid, ROOM, rx, P), 0.0, None)
        peak = float(clean.max())
        k_clean = int(np.argmax(clean))
        n = 10_000
        noisy = run_scan(grid, *support(grid, ROOM, batch(rx, n), P), sigma_w=0.01 * peak,
                         draws=row_uniforms(99, n))
        flips = int(np.count_nonzero(noisy.beams != k_clean))
        assert flips == 0


class TestMakePilot:
    def test_table_is_the_generator_prefix(self):
        # the bit table is the first MAX_PILOT_LEN integers(0, 2) of
        # Generator(PCG64(0x5CA17B0)), and a shorter draw is its prefix; the
        # stock 64-bit pilot is unchanged
        want = np.random.Generator(np.random.PCG64(0x5CA17B0)).integers(0, 2, size=MAX_PILOT_LEN)
        np.testing.assert_array_equal(make_pilot(1.0, MAX_PILOT_LEN), want)
        for length in (3, 8, 64, 100, 1000):
            bits = np.random.Generator(np.random.PCG64(0x5CA17B0)).integers(0, 2, size=length)
            np.testing.assert_array_equal(make_pilot(1.0, length), bits)
        assert "".join(str(int(b)) for b in make_pilot(1.0, 64)) == (
            "0011010000110001101001010010001111010001100010010100110001100010")
        # a draw with no on-bit cannot correlate: its first bit is set
        np.testing.assert_array_equal(make_pilot(1.0, 2), [1.0, 0.0])
        np.testing.assert_array_equal(make_pilot(2.5, 1), [2.5])

    def test_length_beyond_the_table_rejected(self):
        with pytest.raises(ValueError):
            make_pilot(1.0, MAX_PILOT_LEN + 1)
        with pytest.raises(ValueError):
            make_pilot(1.0, 0)

    def test_levels_and_length(self):
        pilot = make_pilot(2e-3, 64)
        assert len(pilot) == 64
        assert set(np.unique(pilot)) <= {0.0, 2e-3}
        assert pilot.max() == 2e-3
        with pytest.raises(ValueError):
            make_pilot(0.0, 8)

    def test_sharp_cyclic_autocorrelation(self):
        pilot = make_pilot(1.0, 64)
        peak = float(np.dot(pilot, pilot))
        worst = max(
            float(np.dot(pilot, np.roll(pilot, s))) for s in range(1, 64)
        )
        assert worst <= 0.75 * peak
