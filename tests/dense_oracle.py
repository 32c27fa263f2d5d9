"""The PCG64 dense trace: an independent reference for the law tests.

vlp_sim draws every sample from Philox row counters; this trace draws its
noise from a numpy Generator instead, one standard normal per slot in slot
order, so a test that compares a run against it compares two samplers that
share no code past the signal.
"""

import numpy as np

from vlp_sim import scan


def pcg64_trace(grid, cells, power, sigma_w, rng, pilot_w=()):
    """scan.dense_trace's sweep with its noise from rng, a numpy Generator:
    sigma_w times rng.standard_normal(n), pilot slots first (rng unread when
    sigma_w is 0), plus the pilot and the receiver's on-axis power on its
    support slots."""
    pilot = np.asarray(pilot_w, dtype=float)
    k = len(pilot)
    if sigma_w > 0.0:
        samples = rng.standard_normal(k + grid.size)
        samples *= sigma_w  # bit for bit rng.normal(0.0, sigma_w, n), by the faster fill loop
    else:
        samples = np.zeros(k + grid.size)
    samples[:k] += pilot
    samples[scan._support_slots(grid, cells[None], k)[1]] += power
    return samples
