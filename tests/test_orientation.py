import numpy as np
import pytest
from scipy import stats

from vlp_sim.orientation import (
    LaplaceParams,
    OrientationConfig,
    laplace_quantile,
    normal_from_euler,
    normal_from_spherical,
    receiver_normals,
)

LN_HALF = float(np.log(0.5))


class TestLaplaceParams:
    def test_scale_relation(self):
        p = LaplaceParams(0.0, 10.0)
        assert abs(p.scale_deg - 10.0 / np.sqrt(2.0)) < 1e-12

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            LaplaceParams(0.0, -1.0)

    def test_infinite_sigma_rejected(self):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            LaplaceParams(0.0, float("inf"))


class TestLaplaceSample:
    """laplace_quantile, and the range check receiver_normals puts before it."""

    def test_median_at_zero(self):
        assert laplace_quantile(LaplaceParams(3.0, 10.0), 0.0) == 3.0

    def test_quarter_draws(self):
        # unit scale needs sigma = sqrt(2); hand evaluation gives ln(0.5)
        p = LaplaceParams(0.0, float(np.sqrt(2.0)))
        np.testing.assert_allclose(laplace_quantile(p, np.array([-0.25, 0.25])), [LN_HALF, -LN_HALF], rtol=1e-12)
        assert LN_HALF == pytest.approx(-0.6931, abs=5e-5)

    @pytest.mark.parametrize("u", [0.5, -0.5, 0.7])
    def test_domain_error(self, u):
        with pytest.raises(ValueError):
            receiver_normals(OrientationConfig(mode="random-euler"), [[0.0, u, 0.0]])

    def test_monotone_in_u(self):
        p = LaplaceParams(-2.0, 7.0)
        vals = laplace_quantile(p, np.linspace(-0.49, 0.49, 99))
        assert np.all(np.diff(vals) > 0)

    def test_distribution_matches_analytic_cdf(self):
        # oracle: closed-form Laplace CDF via scipy, fresh uniforms from a pinned stream
        p = LaplaceParams(0.0, 10.0)
        rng = np.random.default_rng(2024)
        n = 200_000
        u = rng.uniform(-0.5, 0.5, size=n)
        u = u[np.abs(u) < 0.5]
        samples = laplace_quantile(p, u)
        ks = stats.kstest(samples, "laplace", args=(0.0, p.scale_deg)).statistic
        assert ks < 0.004  # ~1.6/sqrt(n)
        assert abs(samples.var() / 100.0 - 1.0) < 0.02
        assert abs(np.median(samples)) < 0.1


class TestSphericalReceiverNormals:
    def test_degenerate_scale_returns_means(self):
        cfg = OrientationConfig(
            mode="random-spherical",
            azimuth=LaplaceParams(12.0, 0.0),
            elevation=LaplaceParams(80.0, 0.0),
        )
        v = np.random.default_rng(1).uniform(-0.49, 0.49, size=(10, 2))
        np.testing.assert_array_equal(receiver_normals(cfg, v), np.tile(normal_from_spherical(12.0, 80.0), (10, 1)))

    def test_variance(self):
        # elevation mean 0 keeps the normal off the pole, so both angles read back
        cfg = OrientationConfig(
            mode="random-spherical",
            azimuth=LaplaceParams(0.0, 10.0),
            elevation=LaplaceParams(0.0, 10.0),
        )
        v = np.random.default_rng(77).uniform(-0.49999, 0.49999, size=(100_000, 2))
        x, y, z = receiver_normals(cfg, v).T
        phis = np.degrees(np.arctan2(y, x))
        thetas = np.degrees(np.arctan2(z, np.hypot(x, y)))
        assert abs(phis.var() / 100.0 - 1.0) < 0.02
        assert abs(thetas.var() / 100.0 - 1.0) < 0.02


class TestNormalFromSpherical:
    def test_pole_faces_up(self):
        for phi in (0.0, 45.0, 200.0):
            np.testing.assert_allclose(normal_from_spherical(phi, 90.0), [0, 0, 1], atol=1e-12)

    def test_zero_angles(self):
        np.testing.assert_allclose(normal_from_spherical(0.0, 0.0), [1, 0, 0], atol=1e-12)

    def test_diagonal(self):
        s = np.sqrt(2.0) / 2.0
        np.testing.assert_allclose(normal_from_spherical(90.0, 45.0), [0, s, s], atol=1e-12)

    def test_unit_norm_everywhere(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = normal_from_spherical(rng.uniform(-360, 360), rng.uniform(-180, 180))
            assert abs(np.linalg.norm(n) - 1.0) <= 1e-12


class TestNormalFromEuler:
    def test_zero_angles_face_up(self):
        np.testing.assert_allclose(normal_from_euler(0.0, 0.0, 0.0), [0, 0, 1], atol=1e-12)

    def test_pure_yaw_ninety(self):
        # substituting (0, 0, 90) into the rotation gives +x
        np.testing.assert_allclose(normal_from_euler(0.0, 0.0, 90.0), [1, 0, 0], atol=1e-12)

    def test_unit_norm_numeric_sweep(self):
        # 100,000 angle triples, the rows of one draw
        angles = np.random.default_rng(9).uniform(-180, 180, size=(100_000, 3))
        n = normal_from_euler(*angles.T)
        worst = float(np.abs(np.linalg.norm(n, axis=-1) - 1.0).max())
        assert worst <= 1e-12


class TestSampleReceiverNormal:
    """One receiver's normal from receiver_normals, as a dense trial maps its row."""

    def test_fixed_mode_upright(self):
        v = np.random.default_rng(0).uniform(-0.5, 0.5, 3)
        np.testing.assert_array_equal(receiver_normals(OrientationConfig(mode="fixed"), v), [0, 0, 1])

    def test_euler_mode_zero_spread_upright(self):
        cfg = OrientationConfig(
            mode="random-euler",
            roll=LaplaceParams(0.0, 0.0),
            pitch=LaplaceParams(0.0, 0.0),
            yaw=LaplaceParams(0.0, 0.0),
        )
        n = receiver_normals(cfg, np.random.default_rng(4).uniform(-0.5, 0.5, 3))
        np.testing.assert_allclose(n, [0, 0, 1], atol=1e-12)

    def test_spherical_mode_zero_spread_upright(self):
        cfg = OrientationConfig(mode="random-spherical")  # defaults: mu_theta 90, zero sigmas
        n = receiver_normals(cfg, np.random.default_rng(4).uniform(-0.5, 0.5, 2))
        np.testing.assert_allclose(n, [0, 0, 1], atol=1e-12)

    def test_table_defaults(self):
        cfg = OrientationConfig()
        assert (cfg.roll.mu_deg, cfg.roll.sigma_deg) == (0.0, 10.0)
        assert (cfg.pitch.mu_deg, cfg.pitch.sigma_deg) == (0.0, 30.0)
        assert (cfg.yaw.mu_deg, cfg.yaw.sigma_deg) == (0.0, 10.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            OrientationConfig(mode="wobble")

    def test_euler_draws_are_unit_norm(self):
        # 500 receivers, one row of three draws each
        cfg = OrientationConfig(mode="random-euler")
        n = receiver_normals(cfg, np.random.default_rng(8).uniform(-0.5, 0.5, (500, 3)))
        assert n.shape == (500, 3)
        assert np.abs(np.linalg.norm(n, axis=-1) - 1.0).max() <= 1e-12
