"""Receiver orientation models.

Device tilt angles are Laplace-distributed; the facing normal comes from
either a roll/pitch/yaw rotation or an azimuth/elevation pair.  Angles are
degrees at every interface and become radians only inside trig calls.
Every trial's angles come from its Philox row (see experiments), each
uniform u in (0, 1) through the inverse Laplace CDF of u - 1/2; Philox
uniforms never reach 0 or 1, so u - 1/2 never hits the singularity at
+-1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SQRT2 = float(np.sqrt(2.0))

ORIENTATION_MODES = ("fixed", "random-euler", "random-spherical")


@dataclass(frozen=True)
class LaplaceParams:
    """Location and spread of one orientation angle, degrees.

    The Laplace scale is tied to the standard deviation: scale = sigma/sqrt(2).
    """

    mu_deg: float = 0.0
    sigma_deg: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.mu_deg):
            raise ValueError("mu_deg must be finite")
        if not 0.0 <= self.sigma_deg < np.inf:
            raise ValueError("sigma_deg must be nonnegative and finite")

    @property
    def scale_deg(self) -> float:
        return self.sigma_deg / SQRT2


@dataclass(frozen=True)
class OrientationConfig:
    """How receiver normals are generated per trial.

    fixed            -> always upright (0, 0, 1)
    random-euler     -> roll/pitch/yaw draws through the rotation formula
    random-spherical -> azimuth/elevation draws; the default elevation mean
                        of 90 degrees keeps the zero-spread case upright
    """

    mode: str = "fixed"
    roll: LaplaceParams = LaplaceParams(0.0, 10.0)
    pitch: LaplaceParams = LaplaceParams(0.0, 30.0)
    yaw: LaplaceParams = LaplaceParams(0.0, 10.0)
    azimuth: LaplaceParams = LaplaceParams(0.0, 0.0)
    elevation: LaplaceParams = LaplaceParams(90.0, 0.0)

    def __post_init__(self):
        if self.mode not in ORIENTATION_MODES:
            raise ValueError(f"mode must be one of {ORIENTATION_MODES}, got {self.mode!r}")


def laplace_quantile(p: LaplaceParams, u):
    """Inverse Laplace CDF of uniform draws u in the open interval (-0.5, 0.5),
    elementwise; u = 0 lands exactly on the median.  u is not range-checked
    here (receiver_normals checks its draws)."""
    return p.mu_deg - p.scale_deg * np.sign(u) * np.log1p(-2.0 * abs(u))


def normal_from_spherical(azimuth_deg, elevation_deg) -> np.ndarray:
    """Facing normal from azimuth/elevation; elevation 90 faces straight up.

    Array angles give one normal per element, along a new last axis.
    """
    p = np.radians(azimuth_deg)
    t = np.radians(elevation_deg)
    return np.stack([np.cos(t) * np.cos(p), np.cos(t) * np.sin(p), np.sin(t)], axis=-1)


def normal_from_euler(roll_deg, pitch_deg, yaw_deg) -> np.ndarray:
    """Facing normal of a device rotated by roll/pitch/yaw; zero angles face up.

    The combination is exactly unit norm for every angle triple (the cross
    terms cancel), so no renormalization is applied.  Array angles give one
    normal per element, along a new last axis.
    """
    a = np.radians(roll_deg)
    b = np.radians(pitch_deg)
    g = np.radians(yaw_deg)
    return np.stack(
        [
            np.cos(g) * np.sin(a) * np.sin(b) + np.cos(a) * np.sin(g),
            np.sin(a) * np.sin(g) - np.cos(a) * np.cos(g) * np.sin(b),
            np.cos(g) * np.cos(b),
        ],
        axis=-1,
    )


def receiver_normals(cfg: OrientationConfig, v) -> np.ndarray:
    """Facing normals from uniforms v in (-0.5, 0.5), one row per receiver.

    The last axis of v holds one draw per angle, in order: roll, pitch, yaw
    (random-euler) or azimuth, elevation (random-spherical), each mapped
    through laplace_quantile; fixed mode reads none and gives the upright
    normal.
    """
    v = np.asarray(v, dtype=float)
    if not (np.abs(v) < 0.5).all():
        raise ValueError("v must lie strictly inside (-0.5, 0.5)")
    if cfg.mode == "fixed":
        up = np.zeros(v.shape[:-1] + (3,))
        up[..., 2] = 1.0
        return up
    if cfg.mode == "random-euler":
        angles = (cfg.roll, cfg.pitch, cfg.yaw)
        return normal_from_euler(*(laplace_quantile(p, v[..., i]) for i, p in enumerate(angles)))
    return normal_from_spherical(laplace_quantile(cfg.azimuth, v[..., 0]), laplace_quantile(cfg.elevation, v[..., 1]))

