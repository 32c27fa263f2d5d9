"""Exact relations as oracles: the noiseless fix commutes with the square
room's symmetries, the noisy fix with its mirror where the support cell
wins, and the outputs are homogeneous in emitter power and detector area.
No statistics and no pinned numbers: a change that breaks support's
bracketing, the azimuth wrap, BeamGrid.direction, the range inversion or
the SNR anchoring fails here at once."""

import dataclasses
import json

import numpy as np
import pytest

from vlp_sim.channel import ChannelParams, noise_sigma_for_snr
from vlp_sim.cli import main
from vlp_sim.estimator import locate
from vlp_sim.experiments import ExperimentConfig, reference_peak_power, sample_positions
from vlp_sim.geometry import ReceiverState, Room, build_beam_grid
from vlp_sim.io import CONFIG_DEFAULTS
from vlp_sim.orientation import OrientationConfig, receiver_normals
from vlp_sim.scan import PEAK_UNIFORMS, run_scan, support

ROOM = Room()  # square: every map below takes it onto itself
P = ChannelParams()
N = 5000

# the maps of the floor plane about the emitter's vertical axis, as 3 x 3 matrices
MAPS = {
    "mirror-x": np.diag([-1.0, 1.0, 1.0]),
    "mirror-y": np.diag([1.0, -1.0, 1.0]),
    "swap-xy": np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    "turn-90": np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
}


def _receivers(seed):
    """N positions in the room, clear of the walls and below the sampled
    heights' cap, and N uniforms for a peak-only pass."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform([0.01, 0.01, 0.0], [0.99, 0.99, 2.5], size=(N, 3))
    return positions, rng.uniform(size=(N, PEAK_UNIFORMS))


def _noiseless_fix(grid, positions, normals, draws):
    """Each receiver's noiseless fix, and whether it is in view."""
    cells, power = support(grid, ROOM, ReceiverState(positions, normals), P)
    trace = run_scan(grid, cells, power, 0.0, draws)
    estimate, _ = locate(ROOM.emitter_pos, trace.samples, trace.beams, grid, P, 0.0)
    return estimate, power > 0.0


def _mapped(matrix, points):
    return ROOM.emitter_pos + (points - ROOM.emitter_pos) @ matrix.T


@pytest.mark.parametrize("tilted", [False, True], ids=["upright", "random-euler"])
@pytest.mark.parametrize("step", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("name", MAPS)
def test_noiseless_fix_commutes_with_the_room_symmetries(name, step, tilted):
    # a tilted normal is mapped with its position, so the incidence is the same
    grid = build_beam_grid(step, step)
    positions, draws = _receivers(23)
    normals = np.tile([0.0, 0.0, 1.0], (N, 1))
    if tilted:
        euler = dataclasses.replace(OrientationConfig(), mode="random-euler")
        normals = receiver_normals(euler, np.random.default_rng(31).uniform(size=(N, 3)) - 0.5)
    m = MAPS[name]
    estimate, seen = _noiseless_fix(grid, positions, normals, draws)
    mapped, mapped_seen = _noiseless_fix(grid, _mapped(m, positions), normals @ m.T, draws)
    np.testing.assert_array_equal(mapped_seen, seen)
    # upright, the 1 m room is in view from everywhere; tilted, not
    assert seen.all() != tilted and seen.any()
    np.testing.assert_allclose(mapped[seen], _mapped(m, estimate[seen]), rtol=0.0, atol=1e-12)


# a default run's noise sigma at 40 dB
SIGMA_40DB = noise_sigma_for_snr(reference_peak_power(ExperimentConfig(), sample_positions(ExperimentConfig())), 40.0)


def _noisy_fix(grid, positions, normals, draws, sigma):
    """Each receiver's fix from a peak-only pass at sigma, whether its support
    cell won (the nadir ring cell at any of its slots), and whether that
    cell is the nadir ring."""
    cells, power = support(grid, ROOM, ReceiverState(positions, normals), P)
    trace = run_scan(grid, cells, power, sigma, draws)
    estimate, _ = locate(ROOM.emitter_pos, trace.samples, trace.beams, grid, P, sigma)
    ring = cells[:, 0] == 0
    won = (trace.beams[:, None] == cells).any(axis=1) | (ring & (trace.beams < grid.n_azimuth))
    return estimate, won, ring


@pytest.mark.parametrize("tilted", [False, True], ids=["upright", "random-euler"])
@pytest.mark.parametrize("step", [0.5, 1.0, 2.0])
def test_noisy_fix_commutes_with_the_mirror_where_the_support_cell_wins(step, tilted):
    # each row's uniforms reused on the mirrored side: a receiver off the
    # half-step boundaries has one support cell, whose noise is its first
    # normal, or the nadir ring, whose maximum and ring slot come from the
    # same uniforms, so the fix mirrors wherever that cell wins on both
    # sides; where a noise-only slot wins, the two sides draw it elsewhere.
    # The first 16 receivers stand under the emitter, in the nadir ring
    grid = build_beam_grid(step, step)
    positions, draws = _receivers(29)
    positions[:16, :2] = ROOM.emitter_pos[:2] + np.random.default_rng(5).uniform(-1e-3, 1e-3, (16, 2))
    normals = np.tile([0.0, 0.0, 1.0], (N, 1))
    if tilted:
        euler = dataclasses.replace(OrientationConfig(), mode="random-euler")
        normals = receiver_normals(euler, np.random.default_rng(37).uniform(size=(N, 3)) - 0.5)
    m = MAPS["mirror-x"]
    estimate, won, ring = _noisy_fix(grid, positions, normals, draws, SIGMA_40DB)
    mapped, mapped_won, mapped_ring = _noisy_fix(grid, _mapped(m, positions), normals @ m.T, draws, SIGMA_40DB)
    np.testing.assert_array_equal(mapped_ring, ring)
    both = won & mapped_won
    _, seen = _noiseless_fix(grid, positions, normals, draws)
    assert both.sum() >= 0.99 * seen.sum() and (both & ring).sum() >= 12
    np.testing.assert_allclose(mapped[both], _mapped(m, estimate[both]), rtol=0.0, atol=1e-12)


# (p_opt_watts, pd_area_cm2) factors: received power and the SNR reference
# scale together, and the range inversion is homogeneous in power and aperture
SCALINGS = [(2.0, 1.0), (1.0, 2.0), (4.0, 0.5)]
SCALED_RUNS = {
    "snr-sweep": (["--snr", "20,30,40,50", "--seed", "11"],
                  {"grid_spacing_m": 0.25, "trials_per_point": 1, "orientation_modes": ["fixed", "random-euler"]}),
    "cdf": (["--snr", "40", "--seed", "11"],
            {"grid_spacing_m": 0.25, "trials_per_point": 2, "orientation_mode": "random-euler"}),
}


def _csv_bytes(tmp_path, name, command, argv, config):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / name
    assert main([command, *argv, "--config", str(path), "--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("command", SCALED_RUNS)
def test_csvs_are_homogeneous_in_power_and_area(tmp_path, command):
    argv, config = SCALED_RUNS[command]
    base = _csv_bytes(tmp_path, "base", command, argv, config)
    assert base
    for power, area in SCALINGS:
        scaled = {**config, "p_opt_watts": CONFIG_DEFAULTS["p_opt_watts"] * power,
                  "pd_area_cm2": CONFIG_DEFAULTS["pd_area_cm2"] * area}
        assert _csv_bytes(tmp_path, f"x{power:g}-{area:g}", command, argv, scaled) == base, (power, area)
