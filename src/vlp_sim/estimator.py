"""Position reconstruction from a synchronized sweep trace.

Pipeline: pick the strongest slot, take its beam direction, invert the
on-axis power law for range under an assumed upright receiver, and walk
that distance from the emitter along the beam.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelParams
from .geometry import BeamGrid, norm

STATUS_OK = "ok"
STATUS_CLAMPED = "clamped-radicand"
STATUS_LOW_SIGNAL = "out-of-fov-suspected"

_STATUSES = np.array([STATUS_OK, STATUS_CLAMPED, STATUS_LOW_SIGNAL])  # by status code

# a trace whose strongest sample stays under this many noise sigmas is
# treated as carrying no signal (receiver probably outside the view cone)
LOW_SIGNAL_SIGMAS = 5.0


@dataclass(frozen=True)
class PositionEstimate:
    """One estimate, or a batch of them with every field an array (see locate)."""

    beam_index: int
    distance_m: float
    position: np.ndarray
    status: str
    assumed_cos_psi: float


class PositionError(NamedTuple):
    total_m: float
    x_m: float
    y_m: float
    z_m: float


def select_beam(powers) -> int:
    """Index of the strongest sample; ties go to the lowest index."""
    y = np.asarray(powers)
    if y.size == 0:
        raise ValueError("empty measurement vector")
    return int(y.argmax())


def invert_distance(power_w, cos_psi_hat, params: ChannelParams):
    """Distance at which the on-axis model would yield power_w, and its status.

    When the sample exceeds the zero-distance maximum (noise pushed it past
    anything the model can produce) the result clamps to 0 with a status
    flag instead of taking a negative square root.  Elementwise: returns
    arrays (0-d for scalar inputs) of distances and statuses.
    """
    power_w = np.asarray(power_w, dtype=float)
    cos_psi_hat = np.asarray(cos_psi_hat, dtype=float)
    if (power_w <= 0.0).any():
        raise ValueError("no invertible signal: power must be positive")
    if not ((0.0 < cos_psi_hat) & (cos_psi_hat <= 1.0)).all():
        raise ValueError("cos_psi_hat must be in (0, 1]")
    distance, clamped = _invert(power_w, cos_psi_hat, params)
    return distance, _STATUSES[clamped.astype(int)]


def _invert(power_w, cos_psi_hat, params: ChannelParams):
    # distance and clamped flag, without the input checks: for inputs valid by construction
    w0_sq = params.waist_m**2
    radicand = (np.pi * w0_sq / (power_w * params.wavelength_m**2)) * (
        2.0 * params.pd_area_m2 * params.p_opt_w * cos_psi_hat - power_w * np.pi * w0_sq
    )
    return np.sqrt(np.maximum(radicand, 0.0)), radicand < 0.0


def locate(emitter_pos, peak_w, beam, grid: BeamGrid, params: ChannelParams, noise_sigma_w: float | None = None) -> PositionEstimate:
    """Position estimate from the peak power of a sweep and the beam it came from.

    Takes one peak or arrays of peaks and beams; every field of the estimate
    is an array (0-d for one peak).  The estimator cannot observe the true
    device orientation, so the incidence cosine always assumes an upright
    receiver (normal UP); a randomly tilted receiver therefore degrades
    accuracy even on noiseless traces.  With noise_sigma_w given, a peak
    below LOW_SIGNAL_SIGMAS * sigma is flagged as suspected out-of-view; the
    estimate is still produced but callers should treat it as meaningless.
    A peak <= 0 carries no signal: distance 0, flagged the same way.
    """
    peak = np.asarray(peak_w, dtype=float)
    u = grid.directions[beam]
    cos_hat = np.minimum(-u[..., 2], 1.0)  # -u . UP
    lit = peak > 0.0
    distance, clamped = _invert(np.where(lit, peak, 1.0), cos_hat, params)  # 1 W: a stand-in
    distance = distance * lit
    low = ~lit if noise_sigma_w is None else ~lit | (peak < LOW_SIGNAL_SIGMAS * noise_sigma_w)
    position = np.asarray(emitter_pos, dtype=float) + distance[..., None] * u
    status = _STATUSES[np.where(low, 2, clamped.astype(int))]
    return PositionEstimate(np.asarray(beam), distance, position, status, cos_hat)


def estimate_position(
    emitter_pos,
    powers,
    grid: BeamGrid,
    params: ChannelParams,
    noise_sigma_w: float | None = None,
) -> PositionEstimate:
    """Locate the receiver from the peak slot of a synchronized dense trace
    (sample i is beam i); see locate for the rest."""
    y = np.asarray(powers, dtype=float)
    i = select_beam(y)
    est = locate(emitter_pos, y[i], i, grid, params, noise_sigma_w)
    return PositionEstimate(i, est.distance_m.item(), est.position, est.status.item(), est.assumed_cos_psi.item())


def position_error(true_pos, est_pos) -> PositionError:
    """Euclidean error plus per-axis absolute errors, metres (per row of
    (N, 3) inputs)."""
    d = np.asarray(est_pos, dtype=float) - np.asarray(true_pos, dtype=float)
    return PositionError(norm(d), abs(d[..., 0]), abs(d[..., 1]), abs(d[..., 2]))
