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
from .geometry import BeamGrid, UP

STATUS_OK = "ok"
STATUS_CLAMPED = "clamped-radicand"
STATUS_LOW_SIGNAL = "out-of-fov-suspected"

# a trace whose strongest sample stays under this many noise sigmas is
# treated as carrying no signal (receiver probably outside the view cone)
LOW_SIGNAL_SIGMAS = 5.0


@dataclass(frozen=True)
class PositionEstimate:
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
    return int(np.argmax(y))


def invert_distance(power_w: float, cos_psi_hat: float, params: ChannelParams) -> tuple[float, str]:
    """Distance at which the on-axis model would yield power_w.

    When the sample exceeds the zero-distance maximum (noise pushed it past
    anything the model can produce) the result clamps to 0 with a status
    flag instead of taking a negative square root.
    """
    if power_w <= 0.0:
        raise ValueError("no invertible signal: power must be positive")
    if not 0.0 < cos_psi_hat <= 1.0:
        raise ValueError("cos_psi_hat must be in (0, 1]")
    w0_sq = params.waist_m**2
    radicand = (np.pi * w0_sq / (power_w * params.wavelength_m**2)) * (
        2.0 * params.pd_area_m2 * params.p_opt_w * cos_psi_hat - power_w * np.pi * w0_sq
    )
    if radicand < 0.0:
        return 0.0, STATUS_CLAMPED
    return float(np.sqrt(radicand)), STATUS_OK


def estimate_position(
    emitter_pos,
    powers,
    grid: BeamGrid,
    params: ChannelParams,
    noise_sigma_w: float | None = None,
    slots=None,
) -> PositionEstimate:
    """Locate the receiver from the peak slot of a synchronized trace.

    The estimator cannot observe the true device orientation, so the
    incidence cosine always assumes an upright receiver (normal UP); a
    randomly tilted receiver therefore degrades accuracy even on noiseless
    traces.  With noise_sigma_w given, a trace whose maximum stays below
    LOW_SIGNAL_SIGMAS * sigma is flagged as suspected out-of-view; the
    estimate is still produced but callers should treat it as meaningless.
    slots, when given, names the beam of each sample (a peak-only trace);
    otherwise sample i is beam i.
    """
    emitter_pos = np.asarray(emitter_pos, dtype=float)
    y = np.asarray(powers, dtype=float)
    i = select_beam(y)
    k = i if slots is None else int(slots[i])
    u = grid.directions[k]
    cos_hat = min(float(np.dot(-u, UP)), 1.0)
    peak = float(y[i])
    suspected = noise_sigma_w is not None and peak < LOW_SIGNAL_SIGMAS * noise_sigma_w

    if peak <= 0.0:
        # nothing to invert: no signal reached the detector at all
        distance, status = 0.0, STATUS_LOW_SIGNAL
    else:
        distance, status = invert_distance(peak, cos_hat, params)
        if suspected:
            status = STATUS_LOW_SIGNAL
    return PositionEstimate(k, distance, emitter_pos + distance * u, status, cos_hat)


def position_error(true_pos, est_pos) -> PositionError:
    """Euclidean error plus per-axis absolute errors, metres."""
    d = np.asarray(est_pos, dtype=float) - np.asarray(true_pos, dtype=float)
    return PositionError(
        float(np.linalg.norm(d)), abs(float(d[0])), abs(float(d[1])), abs(float(d[2]))
    )
