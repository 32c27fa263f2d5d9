"""Position reconstruction from a synchronized sweep trace.

Two steps: peak picks the strongest slot of a trace; locate takes that
slot's beam direction, inverts the on-axis power law for range under an
assumed upright receiver, and walks that distance from the emitter along
the beam.  locate takes one peak or a batch of them and returns positions
and int8 status codes (STATUS_*; STATUS_NAMES spells them out).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channel import ChannelParams
from .geometry import BeamGrid, norm

STATUS_OK, STATUS_CLAMPED, STATUS_LOW_SIGNAL = range(3)
STATUS_NAMES = ("ok", "clamped-radicand", "out-of-fov-suspected")  # by status code

# a trace whose strongest sample stays under this many noise sigmas is
# treated as carrying no signal (receiver probably outside the view cone)
LOW_SIGNAL_SIGMAS = 5.0


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


def locate(emitter_pos, peak_w, beam, grid: BeamGrid, params: ChannelParams, noise_sigma_w: float):
    """(position, status) from the peak power of a sweep and the beam it came from.

    Takes one peak or arrays of peaks and beams; position has a trailing axis
    of 3 and status holds one int8 STATUS_* code per peak (0-d for one peak).
    The estimator cannot observe the true device orientation, so the
    incidence cosine always assumes an upright receiver (normal UP); a
    randomly tilted receiver therefore degrades accuracy even on noiseless
    traces.  A peak below LOW_SIGNAL_SIGMAS * noise_sigma_w is flagged as
    suspected out-of-view; the position is still produced but callers should
    treat it as meaningless.  A peak <= 0 carries no signal: the emitter's
    position, flagged the same way.
    """
    power = np.asarray(peak_w, dtype=float)
    u = grid.direction(beam)
    cos_hat = np.minimum(-u[..., 2], 1.0)  # -u . UP
    lit = power > 0.0
    distance, clamped = _invert(np.where(lit, power, 1.0), cos_hat, params)  # 1 W: a stand-in
    position = np.asarray(emitter_pos, dtype=float) + (distance * lit)[..., None] * u
    low = ~lit | (power < LOW_SIGNAL_SIGMAS * noise_sigma_w)
    return position, np.where(low, STATUS_LOW_SIGNAL, clamped).astype(np.int8)


def position_error(true_pos, est_pos) -> PositionError:
    """Euclidean error plus per-axis absolute errors, metres (per row of
    (N, 3) inputs)."""
    d = np.asarray(est_pos, dtype=float) - np.asarray(true_pos, dtype=float)
    return PositionError(norm(d), abs(d[..., 0]), abs(d[..., 1]), abs(d[..., 2]))
