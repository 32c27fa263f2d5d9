import numpy as np
import pytest

from vlp_sim.geometry import (
    ReceiverState,
    Room,
    build_beam_grid,
    in_fov,
    incidence_cosine,
    spherical_from_direction,
    unit,
)

SQ2 = np.sqrt(2.0) / 2.0


def direction_from_angles(azimuth_deg: float, elevation_deg: float) -> np.ndarray:
    """Reference: the unit vector of one beam, angle by angle, in the geometry
    module's convention: (az=0, el=0) -> (0, 0, -1); (az=0, el=90) -> (1, 0, 0)."""
    a = np.radians(azimuth_deg)
    e = np.radians(elevation_deg)
    return np.array([np.sin(e) * np.cos(a), np.sin(e) * np.sin(a), -np.cos(e)])


class TestDirectionFromAngles:
    def test_nadir(self):
        np.testing.assert_allclose(direction_from_angles(0, 0), [0, 0, -1], atol=1e-12)

    def test_horizontal_plus_x(self):
        np.testing.assert_allclose(direction_from_angles(0, 90), [1, 0, 0], atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(direction_from_angles(90, 45), [0, SQ2, -SQ2], atol=1e-12)

    def test_round_trip_with_spherical(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            az = rng.uniform(0, 360)
            el = rng.uniform(0.01, 90)
            az2, el2 = spherical_from_direction(direction_from_angles(az, el))
            assert abs(el2 - el) < 1e-9
            assert min(abs(az2 - az), 360 - abs(az2 - az)) < 1e-9


class TestBeamGrid:
    def test_default_grid_size(self):
        grid = build_beam_grid(1.0, 1.0)
        assert grid.size == 32400
        assert grid.n_azimuth == 360
        assert grid.n_elevation == 90

    def test_first_column_is_nadir(self):
        grid = build_beam_grid(1.0, 1.0)
        np.testing.assert_allclose(grid.direction(0), [0, 0, -1], atol=1e-12)

    def test_coarse_grid_against_enumeration(self):
        # oracle: enumerate the 8 directions one at a time
        grid = build_beam_grid(90.0, 45.0)
        assert grid.size == 8
        j = 0
        for el in (0.0, 45.0):
            for az in (0.0, 90.0, 180.0, 270.0):
                np.testing.assert_allclose(
                    grid.direction(j), direction_from_angles(az, el), atol=1e-12
                )
                j += 1

    def test_unit_norm_and_downward(self):
        grid = build_beam_grid(1.0, 1.0)
        directions = grid.direction(np.arange(grid.size))
        norms = np.linalg.norm(directions, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12
        assert np.all(directions[:, 2] <= 0.0)

    def test_injective_except_nadir_ring(self):
        grid = build_beam_grid(1.0, 1.0)
        uniq = np.unique(np.round(grid.direction(np.arange(grid.size)), 12), axis=0)
        assert len(uniq) == grid.size - (grid.n_azimuth - 1)

    @pytest.mark.parametrize("steps", [(1.0, 1.0), (2.0, 3.0), (0.5, 0.25), (3.0, 2.5), (45.0, 30.0), (360.0, 90.0)])
    def test_direction_is_the_table_bit_for_bit(self, steps):
        # oracle: the whole direction table, built ring by ring as an outer product
        grid = build_beam_grid(*steps)
        az = np.radians(np.arange(grid.n_azimuth) * grid.azimuth_step_deg)
        el = np.radians(np.arange(grid.n_elevation) * grid.elevation_step_deg)
        table = np.empty((grid.size, 3))
        table[:, 0] = (np.sin(el)[:, None] * np.cos(az)[None, :]).ravel()
        table[:, 1] = (np.sin(el)[:, None] * np.sin(az)[None, :]).ravel()
        table[:, 2] = np.repeat(-np.cos(el), grid.n_azimuth)
        rng = np.random.default_rng(27)
        every = np.arange(grid.size)
        for beams in (every, rng.integers(0, grid.size, 50), rng.integers(0, grid.size, (2, 7)),
                      np.array(grid.size - 1), grid.size // 2, every[::3]):
            got = grid.direction(beams)
            assert got.shape == np.shape(beams) + (3,)
            np.testing.assert_array_equal(got.view(np.int64), table[beams].view(np.int64))

    def test_angles_of(self):
        grid = build_beam_grid(1.0, 1.0)
        assert grid.angles_of(0) == (0.0, 0.0)
        assert grid.angles_of(360) == (0.0, 1.0)
        assert grid.angles_of(360 * 89 + 359) == (359.0, 89.0)

    # a step beyond its span rounds to zero beams: it divides nothing
    @pytest.mark.parametrize("az_step,el_step", [(7.0, 1.0), (1.0, 7.0), (0.0, 1.0), (np.inf, 1.0), (1.0, np.inf),
                                                 (1e12, 1.0), (1.0, 1e12)])
    def test_bad_steps_rejected(self, az_step, el_step):
        with pytest.raises(ValueError):
            build_beam_grid(az_step, el_step)


class TestRoom:
    def test_emitter_at_ceiling_centre(self):
        room = Room(1.0, 1.0, 3.0)
        np.testing.assert_allclose(room.emitter_pos, [0.5, 0.5, 3.0])
        assert room.emitter_pos[2] == room.height_m

    def test_contains(self):
        room = Room()
        assert room.contains([0.0, 0.0, 0.0])
        assert room.contains([1.0, 1.0, 3.0])
        assert not room.contains([1.1, 0.5, 1.0])

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            Room(0.0, 1.0, 3.0)


class TestIncidenceCosine:
    def test_directly_below_upright(self):
        rx = ReceiverState([0.5, 0.5, 1.0], [0, 0, 1])
        assert incidence_cosine([0.5, 0.5, 3.0], rx) == pytest.approx(1.0)

    def test_orthogonal_normal(self):
        rx = ReceiverState([0.5, 0.5, 1.0], [1, 0, 0])
        assert incidence_cosine([0.5, 0.5, 3.0], rx) == pytest.approx(0.0, abs=1e-12)

    def test_offset_receiver_hand_calculation(self):
        # oracle: d = (0, -0.5, 1.5), cos = 1.5/sqrt(1.5^2 + 0.5^2)
        expected = 1.5 / np.sqrt(1.5**2 + 0.5**2)
        rx = ReceiverState([0.5, 1.0, 1.5], [0, 0, 1])
        assert incidence_cosine([0.5, 0.5, 3.0], rx) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.9487, abs=5e-5)

    def test_coincident_positions_raise(self):
        rx = ReceiverState([0.5, 0.5, 3.0], [0, 0, 1])
        with pytest.raises(ValueError):
            incidence_cosine([0.5, 0.5, 3.0], rx)

    def test_translation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            tx = rng.uniform(-2, 2, 3)
            pos = rng.uniform(-2, 2, 3)
            n = unit(rng.normal(size=3))
            shift = rng.uniform(-5, 5, 3)
            a = incidence_cosine(tx, ReceiverState(pos, n))
            b = incidence_cosine(tx + shift, ReceiverState(pos + shift, n))
            assert a == pytest.approx(b, abs=1e-9)

    def test_sign_convention_flips_with_displacement(self):
        # reversing the displacement convention negates the cosine
        rng = np.random.default_rng(12)
        for _ in range(50):
            tx = rng.uniform(0, 3, 3)
            pos = rng.uniform(0, 3, 3)
            if np.allclose(tx, pos):
                continue
            n = unit(rng.normal(size=3))
            got = incidence_cosine(tx, ReceiverState(pos, n))
            d_rev = pos - tx
            reversed_cos = np.dot(d_rev, n) / np.linalg.norm(d_rev)
            assert got == pytest.approx(-reversed_cos, abs=1e-12)


class TestInFov:
    def test_head_on(self):
        assert in_fov(1.0, 120.0)

    def test_ninety_degrees_out(self):
        assert not in_fov(0.0, 120.0)

    def test_boundary_inclusive(self):
        assert in_fov(0.5, 120.0)

    def test_bad_fov(self):
        with pytest.raises(ValueError):
            in_fov(1.0, 0.0)


class TestReceiverState:
    def test_normal_is_normalized(self):
        rx = ReceiverState([0, 0, 0], [0, 0, 2])
        np.testing.assert_allclose(rx.normal, [0, 0, 1])

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            ReceiverState([0, 0, 0], [0, 0, 0])
