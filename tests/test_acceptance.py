"""Acceptance suite: one test per shipped accuracy/behaviour criterion.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them
all).  The heavy simulation runs are shared through session fixtures.
"""

import dataclasses
import json
import time

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import stats

from vlp_sim.channel import ChannelParams
from vlp_sim.cli import main as cli_main
from vlp_sim.estimator import locate, peak, position_error
from vlp_sim.experiments import (
    ExperimentConfig,
    run_cdf_experiment,
    run_snr_sweep,
    run_sync_test,
)
from vlp_sim.geometry import ReceiverState, Room, build_beam_grid
from vlp_sim.orientation import LaplaceParams, laplace_quantile
from vlp_sim.scan import dense_trace, make_pilot, realign_with_pilot, support

from dense_oracle import pcg64_trace

P = ChannelParams()


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="session")
def full_grid():
    return build_beam_grid(1.0, 1.0)


@pytest.fixture(scope="session")
def fixed_cdf():
    cfg = ExperimentConfig(mode="cdf", snr_list_db=(40.0,), master_seed=7)
    t0 = time.perf_counter()
    result = run_cdf_experiment(cfg)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def random_cdf():
    ori = dataclasses.replace(ExperimentConfig().orientation, mode="random-euler")
    cfg = ExperimentConfig(mode="cdf", snr_list_db=(40.0,), master_seed=7, orientation=ori)
    return run_cdf_experiment(cfg)


@pytest.fixture(scope="session")
def fixed_sweep():
    cfg = ExperimentConfig(
        mode="snr-sweep",
        snr_list_db=(20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0),
        trials_per_point=5,
        master_seed=11,
    )
    rows = run_snr_sweep(cfg).aggregates["rows"]
    return {r["snr_db"]: r["mean_error_m"] for r in rows}


@pytest.fixture(scope="session")
def random_sweep():
    ori = dataclasses.replace(ExperimentConfig().orientation, mode="random-euler")
    cfg = ExperimentConfig(
        mode="snr-sweep",
        snr_list_db=(35.0, 40.0, 45.0, 50.0),
        trials_per_point=5,
        master_seed=11,
        orientation=ori,
    )
    rows = run_snr_sweep(cfg).aggregates["rows"]
    return {r["snr_db"]: r["mean_error_m"] for r in rows}


def test_criterion_1_exact_recovery_on_grid_directions(full_grid):
    # receiver placed exactly along 500 random grid directions, noiseless,
    # upright, synchronized: the forward model must invert exactly
    room = Room(6.0, 6.0, 3.0)
    rng = np.random.default_rng(123)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        ring = int(rng.integers(0, 59))  # keep arrivals inside the 60-degree half cone
        az = int(rng.integers(0, 360))
        u = full_grid.direction(ring * 360 + az)
        d = float(rng.uniform(0.5, 2.5))
        p_true = room.emitter_pos + d * u
        rx = ReceiverState(p_true, [0, 0, 1])
        trace = dense_trace(full_grid, *support(full_grid, room, rx, P), 0.0, None)
        position, _ = locate(room.emitter_pos, *peak(trace), full_grid, P, 0.0)
        worst = max(worst, position_error(p_true, position).total_m)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    report(1, ok, f"exact recovery: worst error {worst:.3e} m (< 1e-9), {elapsed:.1f}s (< 10s)")


def test_criterion_2_quantization_bound(full_grid):
    # random in-room positions: error within the half-cell geometric bound,
    # with beam selection cross-checked against a brute-force angular argmin
    room = Room()
    rng = np.random.default_rng(456)
    directions = full_grid.direction(np.arange(full_grid.size))
    t0 = time.perf_counter()
    worst_margin = -np.inf
    for _ in range(1000):
        p_true = np.array([rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 2.5)])
        rx = ReceiverState(p_true, [0, 0, 1])
        trace = dense_trace(full_grid, *support(full_grid, room, rx, P), 0.0, None)
        y, beam = peak(trace)
        position, _ = locate(room.emitter_pos, y, beam, full_grid, P, 0.0)
        to_rx = p_true - room.emitter_pos
        d = float(np.linalg.norm(to_rx))
        cosines = directions @ (to_rx / d)
        assert cosines[beam] >= cosines.max() - 1e-12
        err = position_error(p_true, position).total_m
        bound = d * np.tan(np.radians(0.71)) + 0.02
        worst_margin = max(worst_margin, err - bound)
    elapsed = time.perf_counter() - t0
    ok = worst_margin <= 0.0 and elapsed < 60.0
    report(2, ok, f"quantization bound: worst margin {worst_margin:.4f} m (<= 0), {elapsed:.1f}s (< 60s)")


def test_criterion_3_fixed_orientation_cdf(fixed_cdf):
    result, _ = fixed_cdf
    p95 = result.aggregates["p95_3d_m"]
    sub_x = result.aggregates["subcm_frac_x"]
    sub_y = result.aggregates["subcm_frac_y"]
    ok = p95 <= 0.10 and sub_x >= 0.75 and sub_y >= 0.75
    report(3, ok, f"fixed CDF @40dB: P95(3D)={p95:.4f} m (<= 0.10), sub-cm X={sub_x:.3f}, Y={sub_y:.3f} (>= 0.75)")


def test_criterion_4_snr_sweep_shape(fixed_sweep):
    low = [20.0, 25.0, 30.0, 35.0, 40.0]
    means = [fixed_sweep[s] for s in low]
    rho = stats.spearmanr(low, means).statistic
    ratio = fixed_sweep[20.0] / fixed_sweep[40.0]
    plateau = [fixed_sweep[45.0], fixed_sweep[50.0]]
    ok = rho <= -0.9 and ratio >= 10.0 and all(0.01 <= m <= 0.05 for m in plateau)
    report(
        4,
        ok,
        f"fixed sweep: spearman={rho:.2f} (<= -0.9), err(20)/err(40)={ratio:.1f} (>= 10), "
        f"plateau 45/50dB={plateau[0]:.4f}/{plateau[1]:.4f} m (in [0.01, 0.05])",
    )


def test_criterion_5_random_orientation_outage(random_cdf):
    outage = random_cdf.aggregates["outage_frac"]
    ok = 0.04 <= outage <= 0.12
    report(5, ok, f"random orientation outage fraction {outage:.4f} (in [0.04, 0.12])")


def test_criterion_6_orientation_error_floor(fixed_sweep, random_sweep):
    ratios = {s: random_sweep[s] / fixed_sweep[s] for s in (35.0, 40.0, 45.0, 50.0)}
    ok = all(r >= 3.0 for r in ratios.values())
    pretty = ", ".join(f"{s:.0f}dB:{r:.1f}x" for s, r in ratios.items())
    report(6, ok, f"random/fixed error floor ratios {pretty} (all >= 3x)")


def test_criterion_7_synchronization(full_grid):
    # noiseless: realignment must be perfect; with a 20 dB pilot the
    # mismatch stays under 1%; brute-force correlation is the oracle
    cfg = ExperimentConfig(
        mode="sync-test",
        snr_list_db=(float("inf"), 20.0),
        trials_per_point=1000,
        master_seed=20259,
    )
    rows = run_sync_test(cfg).aggregates["rows"]
    noiseless, noisy = rows[0], rows[1]

    # oracle spot-check at full trace size
    pilot = make_pilot(P.p_opt_w, 64)
    room = Room()
    rng = np.random.default_rng(5150)
    n = 64 + full_grid.size
    for _ in range(10):
        rx = ReceiverState(
            [rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 2.5)], [0, 0, 1]
        )
        trace = pcg64_trace(full_grid, *support(full_grid, room, rx, P), 1e-4, rng, pilot)
        offset = int(rng.integers(-(n // 2), n // 2 + 1))
        shifted = np.roll(trace, offset)
        # brute force over every cyclic shift: each 64-sample window of the
        # wrapped trace, scored with a direct dot product against the pilot
        s = shifted
        scores = sliding_window_view(np.concatenate((s, s[:63])), 64) @ pilot
        assert realign_with_pilot(shifted, pilot) == int(np.argmax(scores))

    ok = noiseless["mismatch_rate"] == 0.0 and noisy["mismatch_rate"] <= 0.01
    report(
        7,
        ok,
        f"sync: noiseless mismatch {noiseless['mismatch_rate']:.4f} (= 0), "
        f"20dB pilot mismatch {noisy['mismatch_rate']:.4f} (<= 0.01), oracle agreed on 10 spot checks",
    )


def test_criterion_8_laplace_sampler():
    p = LaplaceParams(0.0, 10.0)
    rng = np.random.default_rng(2024)
    u = rng.uniform(-0.5, 0.5, size=1_000_000)
    u = u[np.abs(u) < 0.5]
    samples = laplace_quantile(p, u)
    ks = stats.kstest(samples, "laplace", args=(0.0, p.scale_deg)).statistic
    var_err = abs(samples.var() / p.sigma_deg**2 - 1.0)
    ok = ks < 0.002 and var_err < 0.02
    report(8, ok, f"laplace sampler: KS={ks:.5f} (< 0.002), variance error {var_err:.4f} (< 0.02)")


def test_criterion_9_cli_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid_spacing_m": 0.5, "trials_per_point": 1, "snr_db": [40.0]}))
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        code = cli_main(["cdf", "--config", str(config), "--seed", "5", "--out", str(out)])
        assert code == 0
    same_csv = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("cdf_3d.csv", "cdf_x.csv", "cdf_y.csv", "cdf_z.csv")
    )
    metas = [json.loads((out / "meta.json").read_text()) for out in outs]
    for m in metas:
        m.pop("wall_time_s")  # execution time is the one legitimately varying field
    ok = same_csv and metas[0] == metas[1]
    report(9, ok, "repeated CLI run with the same seed: CSV outputs byte-identical")


def test_criterion_10_desk_scale_runtime(fixed_cdf):
    result, elapsed = fixed_cdf
    n = result.aggregates["n_samples"]
    ok = elapsed < 600.0 and n == 11 * 11 * 26 * 5
    report(10, ok, f"full fixed CDF run: {n} scans of 32400 beams in {elapsed:.1f}s (< 600s)")
