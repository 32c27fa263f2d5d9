import numpy as np
import pytest

from vlp_sim.channel import ChannelParams
from vlp_sim.geometry import ReceiverState, Room, build_beam_grid
from vlp_sim.scan import (
    MeasurementTrace,
    ScanPlan,
    apply_timing_offset,
    make_pilot,
    realign_with_pilot,
    run_scan,
)

P = ChannelParams()
ROOM = Room()


@pytest.fixture(scope="module")
def grid():
    return build_beam_grid(1.0, 1.0)


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


class TestRunScan:
    def test_nadir_receiver_hits_whole_nadir_ring(self, grid):
        # oracle: on-axis power at 1.5 m evaluated from the closed form
        spread = P.wavelength_m * 1.5 / (np.pi * P.waist_m**2)
        expected = 2 * P.p_opt_w * P.pd_area_m2 / (np.pi * P.waist_m**2 * (1 + spread**2))
        rx = ReceiverState([0.5, 0.5, 1.5], [0, 0, 1])
        trace = run_scan(ScanPlan(grid), ROOM, rx, P, 0.0, np.random.default_rng(0))
        nadir = trace.samples[: grid.n_azimuth]
        np.testing.assert_allclose(nadir, expected, rtol=1e-12)
        assert np.all(trace.samples[grid.n_azimuth :] == 0.0)

    def test_receiver_facing_away_sees_nothing(self, grid):
        rx = ReceiverState([0.2, 0.7, 1.0], [0, 0, -1])
        trace = run_scan(ScanPlan(grid), ROOM, rx, P, 0.0, np.random.default_rng(0))
        assert np.all(trace.samples == 0.0)

    def test_trace_length_with_pilot(self, grid):
        pilot = make_pilot(P.p_opt_w, 64)
        rx = ReceiverState([0.5, 0.5, 1.5])
        trace = run_scan(ScanPlan(grid, pilot_w=pilot), ROOM, rx, P, 0.0, np.random.default_rng(0))
        assert len(trace) == 64 + 32400

    def test_off_centre_receiver_hits_single_cell(self, grid):
        # direction to (0.8, 0.5, 1.0): az = 0, el = atan(0.3/2.0)
        rx = ReceiverState([0.8, 0.5, 1.0])
        trace = run_scan(ScanPlan(grid), ROOM, rx, P, 0.0, np.random.default_rng(0))
        el = np.degrees(np.arctan2(0.3, 2.0))
        expected_beam = int(round(el)) * grid.n_azimuth + 0
        hits = np.nonzero(trace.samples)[0]
        assert list(hits) == [expected_beam]

    def test_noise_reaches_every_slot(self, grid):
        rx = ReceiverState([0.5, 0.5, 1.5])
        trace = run_scan(ScanPlan(grid), ROOM, rx, P, 1e-9, np.random.default_rng(3))
        assert np.count_nonzero(trace.samples) == len(trace.samples)

    def test_outside_room_rejected(self, grid):
        rx = ReceiverState([1.5, 0.5, 1.0])
        with pytest.raises(ValueError):
            run_scan(ScanPlan(grid), ROOM, rx, P, 0.0, np.random.default_rng(0))

    def test_receiver_at_ceiling_rejected(self, grid):
        rx = ReceiverState([0.2, 0.2, 3.0])
        with pytest.raises(ValueError):
            run_scan(ScanPlan(grid), ROOM, rx, P, 0.0, np.random.default_rng(0))


class TestApplyTimingOffset:
    def test_zero_offset_identity(self):
        trace = MeasurementTrace(np.arange(10.0))
        np.testing.assert_array_equal(apply_timing_offset(trace, 0).samples, trace.samples)

    def test_full_period_identity(self):
        trace = MeasurementTrace(np.arange(10.0))
        np.testing.assert_array_equal(apply_timing_offset(trace, 10).samples, trace.samples)

    def test_beyond_period_rejected(self):
        trace = MeasurementTrace(np.arange(10.0))
        with pytest.raises(ValueError):
            apply_timing_offset(trace, 11)


class TestRealignWithPilot:
    def test_no_offset_strips_pilot(self, grid):
        pilot = make_pilot(P.p_opt_w, 64)
        rx = ReceiverState([0.5, 0.5, 1.5])
        trace = run_scan(ScanPlan(grid, pilot_w=pilot), ROOM, rx, P, 0.0, np.random.default_rng(1))
        realigned = realign_with_pilot(trace, pilot)
        np.testing.assert_array_equal(realigned.samples, trace.samples[64:])

    @pytest.mark.parametrize("offset", [-5000, -1, 1, 7, 4321, 16000])
    def test_offset_then_realign_restores_exactly(self, grid, offset):
        pilot = make_pilot(P.p_opt_w, 64)
        rx = ReceiverState([0.31, 0.62, 0.9])
        trace = run_scan(ScanPlan(grid, pilot_w=pilot), ROOM, rx, P, 0.0, np.random.default_rng(2))
        realigned = realign_with_pilot(apply_timing_offset(trace, offset), pilot)
        np.testing.assert_array_equal(realigned.samples, trace.samples[64:])

    def test_every_shift_matches_brute_force_small(self):
        # exhaustive oracle on a small synthetic trace
        rng = np.random.default_rng(10)
        pilot = make_pilot(1.0, 8)
        base = np.abs(rng.normal(0.0, 1e-6, size=40))
        base[:8] += pilot
        for offset in range(-20, 21):
            shifted = np.roll(base, offset)
            oracle_shift = brute_force_best_shift(shifted, pilot)
            realigned = realign_with_pilot(MeasurementTrace(shifted), pilot)
            np.testing.assert_array_equal(
                realigned.samples, np.roll(shifted, -oracle_shift)[8:]
            )

    def test_tie_break_smallest_nonnegative_shift(self):
        # constant trace ties every shift; both routes must pick shift 0
        pilot = np.ones(4)
        trace = MeasurementTrace(np.ones(12))
        assert brute_force_best_shift(trace.samples, pilot) == 0
        realigned = realign_with_pilot(trace, pilot)
        np.testing.assert_array_equal(realigned.samples, np.ones(8))

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
            realigned = realign_with_pilot(MeasurementTrace(shifted), pilot)
            ok += np.array_equal(realigned.samples, base[64:])
        assert ok / n >= 0.99

    def test_empty_pilot_rejected(self):
        with pytest.raises(ValueError):
            realign_with_pilot(MeasurementTrace(np.ones(10)), np.array([]))


class TestNoiseRobustSelection:
    def test_small_noise_never_flips_argmax(self, grid):
        # noise at 1% of the peak cannot displace a clean peak
        rx = ReceiverState([0.62, 0.41, 1.2])
        plan = ScanPlan(grid)
        clean = run_scan(plan, ROOM, rx, P, 0.0, np.random.default_rng(0))
        peak = float(clean.samples.max())
        k_clean = int(np.argmax(clean.samples))
        rng = np.random.default_rng(99)
        flips = 0
        for _ in range(10_000):
            noisy = clean.samples + rng.normal(0.0, 0.01 * peak, size=len(clean.samples))
            flips += int(np.argmax(noisy)) != k_clean
        assert flips == 0


class TestMakePilot:
    def test_levels_and_length(self):
        pilot = make_pilot(2e-3, 64)
        assert len(pilot) == 64
        assert set(np.unique(pilot)) <= {0.0, 2e-3}
        assert pilot.max() == 2e-3

    def test_sharp_cyclic_autocorrelation(self):
        pilot = make_pilot(1.0, 64)
        peak = float(np.dot(pilot, pilot))
        worst = max(
            float(np.dot(pilot, np.roll(pilot, s))) for s in range(1, 64)
        )
        assert worst <= 0.75 * peak
