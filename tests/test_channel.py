import numpy as np
import pytest

from vlp_sim.channel import (
    ChannelParams,
    beam_radius,
    intensity,
    noise_sigma_for_snr,
    received_power_on_axis,
)
from vlp_sim.estimator import invert_distance

P = ChannelParams()


def far_field_radius(d, p=P):
    # oracle: w0 drops out once the spread term dominates
    return p.wavelength_m * d / (np.pi * p.waist_m)


class TestChannelParams:
    def test_defaults(self):
        assert P.p_opt_w == 1e-3
        assert P.wavelength_m == 950e-9
        assert P.waist_m == 5.9e-6
        assert P.pd_area_m2 == 1e-4

    def test_positive_required(self):
        with pytest.raises(ValueError):
            ChannelParams(p_opt_w=0.0)
        with pytest.raises(ValueError):
            ChannelParams(waist_m=-1e-6)


class TestBeamRadius:
    def test_waist_at_zero_distance(self):
        assert beam_radius(0.0, 0.0, P) == P.waist_m

    def test_three_metres_matches_far_field(self):
        w = beam_radius(3.0, 0.0, P)
        assert w == pytest.approx(far_field_radius(3.0), rel=1e-6)
        assert w == pytest.approx(0.153760, abs=1e-6)

    def test_perpendicular_angle_keeps_waist(self):
        for d in (0.5, 3.0, 100.0):
            assert beam_radius(d, np.pi / 2, P) == pytest.approx(P.waist_m, rel=1e-9)

    def test_monotone_in_distance(self):
        d = np.linspace(0, 5, 200)
        w = np.array([beam_radius(x, 0.3, P) for x in d])
        assert np.all(np.diff(w) >= 0)

    def test_far_field_limit_everywhere(self):
        for d in np.linspace(0.1, 5.0, 50):
            w = beam_radius(d, 0.0, P)
            assert abs(w - far_field_radius(d)) / w < 1e-6

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            beam_radius(-0.1, 0.0, P)


class TestIntensity:
    def test_on_axis_formula(self):
        for d in (0.5, 1.5, 3.0):
            w = beam_radius(d, 0.0, P)
            assert intensity(d, 0.0, P) == pytest.approx(2 * P.p_opt_w / (np.pi * w * w), rel=1e-12)

    def test_three_metres_value(self):
        # oracle: axial intensity with the far-field radius
        expected = 2 * P.p_opt_w / (np.pi * far_field_radius(3.0) ** 2)
        assert intensity(3.0, 0.0, P) == pytest.approx(expected, rel=1e-5)
        assert expected == pytest.approx(2.6927e-2, rel=1e-4)

    def test_decreasing_in_angle(self):
        # strictly decreasing until the off-axis exponential underflows to 0
        phis = np.linspace(0.0, 0.2, 50)
        vals = [intensity(2.0, phi, P) for phi in phis]
        assert np.all(np.diff(vals) < 0)
        wide = [intensity(2.0, phi, P) for phi in np.linspace(0.0, np.pi / 2 - 0.01, 50)]
        assert np.all(np.diff(wide) <= 0)

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            intensity(0.0, 0.0, P)


class TestReceivedPowerOnAxis:
    def test_grazing_incidence_is_zero(self):
        assert received_power_on_axis(2.0, 0.0, P) == 0.0

    def test_three_metres_equals_intensity_times_area(self):
        # consistency between the general and the simplified path
        for d in np.linspace(0.2, 5.0, 40):
            general = intensity(d, 0.0, P) * P.pd_area_m2 * 0.8
            assert received_power_on_axis(d, 0.8, P) == pytest.approx(general, rel=1e-12)

    def test_three_metres_value(self):
        expected = 2 * P.p_opt_w * P.pd_area_m2 / (np.pi * far_field_radius(3.0) ** 2)
        assert received_power_on_axis(3.0, 1.0, P) == pytest.approx(expected, rel=1e-5)
        assert expected == pytest.approx(2.6927e-6, rel=1e-4)

    def test_zero_distance_maximum(self):
        assert received_power_on_axis(0.0, 1.0, P) == pytest.approx(
            2 * P.p_opt_w * P.pd_area_m2 / (np.pi * P.waist_m**2), rel=1e-12
        )

    def test_strictly_decreasing_in_distance(self):
        d = np.linspace(0.0, 5.0, 300)
        vals = [received_power_on_axis(x, 1.0, P) for x in d]
        assert np.all(np.diff(vals) < 0)

    def test_bad_cosine_rejected(self):
        with pytest.raises(ValueError):
            received_power_on_axis(1.0, -0.2, P)
        with pytest.raises(ValueError):
            received_power_on_axis(1.0, 1.2, P)


class TestNoiseSigmaForSnr:
    def test_zero_db(self):
        assert noise_sigma_for_snr(1e-6, 0.0) == pytest.approx(1e-6)

    def test_forty_db(self):
        assert noise_sigma_for_snr(1e-6, 40.0) == pytest.approx(1e-8)

    def test_twenty_db(self):
        assert noise_sigma_for_snr(1e-6, 20.0) == pytest.approx(1e-7)

    def test_infinite_snr_means_noiseless(self):
        assert noise_sigma_for_snr(1e-6, float("inf")) == 0.0

    def test_nonpositive_signal_rejected(self):
        with pytest.raises(ValueError):
            noise_sigma_for_snr(0.0, 10.0)


class TestRoundTrip:
    def test_invert_recovers_distance(self):
        # forward power then inversion must agree to 1e-9 relative
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = rng.uniform(0.01, 5.0)
            c = rng.uniform(0.05, 1.0)
            y = received_power_on_axis(d, c, P)
            d_hat, status = invert_distance(y, c, P)
            assert status == "ok"
            assert abs(d_hat - d) / d < 1e-9
