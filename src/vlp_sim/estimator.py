"""Position reconstruction from a synchronized sweep trace.

Two steps: peak picks the strongest slot of a trace; locate takes that
slot's beam direction, inverts the on-axis power law for range under an
assumed upright receiver, and walks that distance from the emitter along
the beam.  locate takes one peak or a batch of them.
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
    """Estimates as arrays, one element per peak (0-d for one peak); position
    has a trailing axis of 3 and status holds STATUS_* strings."""

    beam_index: np.ndarray
    distance_m: np.ndarray
    position: np.ndarray
    status: np.ndarray
    assumed_cos_psi: np.ndarray


class PositionError(NamedTuple):
    total_m: float
    x_m: float
    y_m: float
    z_m: float


def peak(samples) -> tuple[float, int]:
    """The strongest sample and its slot; ties go to the lowest slot."""
    y = np.asarray(samples)
    if y.size == 0:
        raise ValueError("empty measurement vector")
    i = int(y.argmax())
    return y[i], i


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
    power = np.asarray(peak_w, dtype=float)
    u = grid.directions[beam]
    cos_hat = np.minimum(-u[..., 2], 1.0)  # -u . UP
    lit = power > 0.0
    distance, clamped = _invert(np.where(lit, power, 1.0), cos_hat, params)  # 1 W: a stand-in
    distance = distance * lit
    low = ~lit if noise_sigma_w is None else ~lit | (power < LOW_SIGNAL_SIGMAS * noise_sigma_w)
    position = np.asarray(emitter_pos, dtype=float) + distance[..., None] * u
    status = _STATUSES[np.where(low, 2, clamped.astype(int))]
    return PositionEstimate(np.asarray(beam), distance, position, status, cos_hat)


def position_error(true_pos, est_pos) -> PositionError:
    """Euclidean error plus per-axis absolute errors, metres (per row of
    (N, 3) inputs)."""
    d = np.asarray(est_pos, dtype=float) - np.asarray(true_pos, dtype=float)
    return PositionError(norm(d), abs(d[..., 0]), abs(d[..., 1]), abs(d[..., 2]))
