"""Gaussian-beam link budget: beam spread, received power, SNR-anchored noise."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelParams:
    """Optical link parameters in SI units.

    Defaults model a 1 mW, 950 nm VCSEL with a 5.9 um waist and a 1 cm^2
    photodetector.
    """

    p_opt_w: float = 1e-3
    wavelength_m: float = 950e-9
    waist_m: float = 5.9e-6
    pd_area_m2: float = 1e-4

    def __post_init__(self):
        for name in ("p_opt_w", "wavelength_m", "waist_m", "pd_area_m2"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")


def beam_radius(distance_m: float, radiance_angle_rad: float, p: ChannelParams) -> float:
    """Beam radius after propagating distance_m at radiance_angle_rad off axis.

    Equals the waist at zero distance and grows linearly in the far field.
    """
    if distance_m < 0.0:
        raise ValueError("distance must be nonnegative")
    spread = (
        p.wavelength_m
        * distance_m
        * np.cos(radiance_angle_rad)
        / (np.pi * p.waist_m**2)
    )
    return float(p.waist_m * np.sqrt(1.0 + spread * spread))


def intensity(distance_m: float, radiance_angle_rad: float, p: ChannelParams) -> float:
    """On- and off-axis Gaussian intensity [W/m^2] at the given range."""
    if distance_m <= 0.0:
        raise ValueError("intensity is defined for distance > 0")
    w = beam_radius(distance_m, radiance_angle_rad, p)
    off_axis = np.exp(-2.0 * distance_m**2 * np.sin(radiance_angle_rad) ** 2 / (w * w))
    return float(2.0 * p.p_opt_w / (np.pi * w * w) * off_axis)


def received_power_on_axis(distance_m, cos_psi, p: ChannelParams):
    """Detected power [W] when the beam points straight at the receiver.

    Zero radiance angle collapses the intensity profile to its axial value;
    the detector scales it by its area and the incidence cosine.  Takes and
    returns arrays element by element.
    """
    distance_m = np.asarray(distance_m, dtype=float)
    cos_psi = np.asarray(cos_psi, dtype=float)
    if (distance_m < 0.0).any():
        raise ValueError("distance must be nonnegative")
    if not ((0.0 <= cos_psi) & (cos_psi <= 1.0)).all():
        raise ValueError("cos_psi must be in [0, 1]; gate out-of-view receivers upstream")
    spread = p.wavelength_m * distance_m / (np.pi * p.waist_m**2)
    return (
        2.0
        * p.p_opt_w
        * p.pd_area_m2
        * cos_psi
        / (np.pi * p.waist_m**2 * (1.0 + spread * spread))
    )


def noise_sigma_for_snr(signal_w: float, snr_db: float) -> float:
    """Noise standard deviation giving 20*log10(signal/sigma) == snr_db.

    snr_db = inf maps to sigma = 0 (noiseless).  A finite snr_db whose sigma
    is not a positive finite float (10^(snr_db / 20) or the quotient out of
    the float range) raises ValueError.
    """
    if not signal_w > 0.0:
        raise ValueError("signal must be positive")
    try:
        sigma = signal_w / 10.0 ** (snr_db / 20.0)
    except (OverflowError, ZeroDivisionError):  # 10^(snr_db / 20) overflows, or underflows to 0
        sigma = np.nan
    if snr_db != np.inf and not 0.0 < sigma < np.inf:
        raise ValueError(
            f"snr {snr_db:g} dB gives no positive finite noise sigma against a reference of {signal_w:.6g} W"
        )
    return sigma
