import numpy as np
import pytest

from vlp_sim.channel import ChannelParams, received_power_on_axis
from vlp_sim.estimator import (
    STATUS_CLAMPED,
    STATUS_LOW_SIGNAL,
    STATUS_OK,
    locate,
    peak,
    position_error,
)
from vlp_sim.geometry import ReceiverState, Room, build_beam_grid
from vlp_sim.scan import dense_trace, support

P = ChannelParams()
NADIR = 0  # beam 0 points straight down: assumed incidence cosine 1
Y0 = 2 * P.pd_area_m2 * P.p_opt_w / (np.pi * P.waist_m**2)  # zero-distance on-axis power


@pytest.fixture(scope="module")
def grid():
    return build_beam_grid(1.0, 1.0)


class TestSelectBeam:
    """peak: the strongest sample and its slot."""

    def test_simple_max(self):
        assert peak([1.0, 3.0, 2.0]) == (3.0, 1)

    def test_tie_takes_lowest_index(self):
        assert peak([5.0, 5.0, 1.0]) == (5.0, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            peak([])

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            y = rng.normal(size=500)
            _, k = peak(y)
            assert peak(3.0 * y + 1.0)[1] == k
            assert peak(np.exp(y))[1] == k


def _distance(position, emitter=np.zeros(3)):
    return np.linalg.norm(position - emitter, axis=-1)


class TestInvertDistance:
    """locate's range inversion, read through the nadir beam."""

    def test_round_trip(self, grid):
        y = received_power_on_axis(1.5, 1.0, P)
        position, status = locate(np.zeros(3), y, NADIR, grid, P, 0.0)
        assert status == STATUS_OK
        assert abs(_distance(position) - 1.5) / 1.5 < 1e-9

    def test_zero_distance_power_maps_to_zero(self, grid):
        position, status = locate(np.zeros(3), Y0, NADIR, grid, P, 0.0)
        assert status == STATUS_OK
        assert _distance(position) == pytest.approx(0.0, abs=1e-9)

    def test_power_above_maximum_clamps(self, grid):
        position, status = locate(np.zeros(3), 1.01 * Y0, NADIR, grid, P, 0.0)
        assert status == STATUS_CLAMPED
        assert _distance(position) == 0.0

    def test_monotone_decreasing_in_power(self, grid):
        powers = np.linspace(1e-4 * Y0, Y0, 100)
        position, _ = locate(np.zeros(3), powers, np.full(100, NADIR), grid, P, 0.0)
        assert np.all(np.diff(_distance(position)) < 0)


class TestEstimatePosition:
    """peak + locate on whole traces."""

    def test_exact_recovery_on_grid_direction(self, grid):
        room = Room(6.0, 6.0, 3.0)
        u = grid.direction(40 * 360 + 30)  # az 30, el 40
        p_true = room.emitter_pos + 2.0 * u
        rx = ReceiverState(p_true, [0, 0, 1])
        trace = dense_trace(grid, *support(grid, room, rx, P), 0.0, None)
        position, status = locate(room.emitter_pos, *peak(trace), grid, P, 0.0)
        assert status == STATUS_OK
        assert position_error(p_true, position).total_m < 1e-9

    def test_quantization_bound_with_brute_force_selection(self, grid):
        # the picked beam must be the angular argmin over the whole grid, and
        # the residual error stays inside the half-cell geometric bound
        room = Room()
        rng = np.random.default_rng(17)
        directions = grid.direction(np.arange(grid.size))
        for _ in range(100):
            p_true = np.array([rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 2.5)])
            rx = ReceiverState(p_true, [0, 0, 1])
            trace = dense_trace(grid, *support(grid, room, rx, P), 0.0, None)
            y, beam = peak(trace)
            position, _ = locate(room.emitter_pos, y, beam, grid, P, 0.0)
            to_rx = p_true - room.emitter_pos
            d = float(np.linalg.norm(to_rx))
            cosines = directions @ (to_rx / d)
            assert cosines[beam] >= cosines.max() - 1e-12
            assert position_error(p_true, position).total_m <= d * np.tan(np.radians(0.71)) + 0.02

    def test_distance_error_bounded_by_two_centimetres(self, grid):
        room = Room()
        rng = np.random.default_rng(31)
        for _ in range(200):
            p_true = np.array([rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 2.5)])
            rx = ReceiverState(p_true, [0, 0, 1])
            trace = dense_trace(grid, *support(grid, room, rx, P), 0.0, None)
            position, _ = locate(room.emitter_pos, *peak(trace), grid, P, 0.0)
            d = float(np.linalg.norm(p_true - room.emitter_pos))
            assert abs(_distance(position, room.emitter_pos) - d) <= 0.02

    def test_never_above_ceiling(self, grid):
        room = Room()
        rng = np.random.default_rng(8)
        for _ in range(50):
            y = np.abs(rng.normal(1e-7, 5e-8, size=grid.size))
            position, _ = locate(room.emitter_pos, *peak(y), grid, P, 0.0)
            assert position[2] <= room.emitter_pos[2] + 1e-12

    def test_low_signal_flag(self, grid):
        room = Room()
        y = np.full(grid.size, 1e-9)
        y[100] = 2e-9  # max well below 5 sigma
        y_peak, beam = peak(y)
        _, status = locate(room.emitter_pos, y_peak, beam, grid, P, noise_sigma_w=1e-9)
        assert status == STATUS_LOW_SIGNAL
        assert beam == 100

    def test_strong_signal_not_flagged(self, grid):
        room = Room()
        y = np.zeros(grid.size)
        y[100] = received_power_on_axis(1.5, 1.0, P)
        _, status = locate(room.emitter_pos, *peak(y), grid, P, noise_sigma_w=1e-9)
        assert status == STATUS_OK

    def test_all_zero_trace_flagged_without_sigma(self, grid):
        room = Room()
        position, status = locate(room.emitter_pos, *peak(np.zeros(grid.size)), grid, P, 0.0)
        assert status == STATUS_LOW_SIGNAL
        assert _distance(position, room.emitter_pos) == 0.0
        np.testing.assert_array_equal(position, room.emitter_pos)

    def test_assumed_cosine_uses_selected_beam(self, grid):
        # the position lies along the picked beam, at the range whose power
        # under the el-30 beam's assumed cosine, cos 30 deg, is the peak
        room = Room()
        y = np.zeros(grid.size)
        j = 30 * 360 + 45  # el 30 ring
        y[j] = received_power_on_axis(2.0, 1.0, P)
        position, _ = locate(room.emitter_pos, *peak(y), grid, P, 0.0)
        d = _distance(position, room.emitter_pos)
        assert received_power_on_axis(d, np.cos(np.radians(30.0)), P) == pytest.approx(y[j], rel=1e-9)
        np.testing.assert_allclose(position, room.emitter_pos + d * grid.direction(j), rtol=0, atol=1e-12)


class TestPositionError:
    def test_identical_points(self):
        assert position_error([1, 2, 3], [1, 2, 3]).total_m == 0.0

    def test_one_two_two_triple(self):
        assert position_error([0, 0, 0], [1, 2, 2]).total_m == pytest.approx(3.0)

    def test_pythagorean_axes(self):
        err = position_error([0, 0, 0], [3, -4, 0])
        assert err.total_m == pytest.approx(5.0)
        assert (err.x_m, err.y_m, err.z_m) == (3.0, 4.0, 0.0)
