import dataclasses
import hashlib
import importlib.util
import inspect
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from vlp_sim import cli, experiments, scan
from vlp_sim.estimator import STATUS_LOW_SIGNAL, locate, peak, position_error
from vlp_sim.experiments import (
    ExperimentConfig,
    compute_cdf,
    percentile,
    reference_peak_power,
    run_cdf_experiment,
    run_snr_sweep,
    run_sync_test,
    sample_positions,
)
from vlp_sim.channel import ChannelParams, noise_sigma_for_snr
from vlp_sim.geometry import ReceiverState, Room, build_beam_grid, incidence_cosine
from vlp_sim.orientation import LaplaceParams, receiver_normals
from vlp_sim.scan import (
    PEAK_UNIFORMS,
    dense_trace,
    make_pilot,
    realign_with_pilot,
    run_scan,
    support,
)
from vlp_sim.streams import uniform_index, uniforms

from dense_oracle import pcg64_trace

ROOT = Path(__file__).resolve().parent.parent

# coarse setup keeps module tests fast; acceptance runs the full defaults
SMALL = dict(grid_spacing_m=0.5, trials_per_point=2)
TINY = dict(grid_spacing_m=0.5, trials_per_point=1)
FULL_N = 64 + 32_400  # slots of a default sweep: pilot, then one per beam


class TestConfigValidation:
    def test_defaults_build(self):
        cfg = ExperimentConfig()
        assert cfg.trials == 5
        assert ExperimentConfig(mode="snr-sweep", snr_list_db=(20,)).trials == 20
        assert ExperimentConfig(mode="sync-test").trials == 1000
        assert ExperimentConfig(mode="scan-demo").trials == 1

    def test_scan_demo_takes_no_trials_per_point(self):
        # its one trial is row 0: a trial count would move no output byte
        with pytest.raises(ValueError, match="trials_per_point"):
            ExperimentConfig(mode="scan-demo", trials_per_point=1)

    def test_bad_height_band(self):
        with pytest.raises(ValueError):
            ExperimentConfig(h_min_m=2.0, h_max_m=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(h_max_m=3.5)

    def test_spacing_must_divide_room(self):
        with pytest.raises(ValueError):
            ExperimentConfig(grid_spacing_m=0.3)

    def test_empty_orientation_modes_rejected(self):
        # an empty tuple must not fall back to orientation.mode
        with pytest.raises(ValueError, match="orientation_modes"):
            ExperimentConfig(mode="snr-sweep", orientation_modes=(), grid_spacing_m=0.5, trials_per_point=1)

    @pytest.mark.parametrize("build", [
        lambda: ChannelParams(p_opt_w=np.nan),
        lambda: ChannelParams(p_opt_w=np.inf),
        lambda: Room(1.0, np.nan, 3.0),
        lambda: Room(1.0, 1.0, np.nan),
        lambda: LaplaceParams(0.0, np.nan),
        lambda: LaplaceParams(np.nan, 10.0),
        lambda: ExperimentConfig(snr_list_db=(np.nan,)),
        lambda: ExperimentConfig(mode="snr-sweep", snr_list_db=(np.nan, 40.0)),
        lambda: ExperimentConfig(mode="snr-sweep", snr_list_db=(-np.inf, 40.0)),
        lambda: dense_trace(build_beam_grid(2.0, 2.0), np.array([0]), 1e-5, np.nan, None),
        lambda: Room(np.inf, 1.0, 3.0),
        lambda: ExperimentConfig(grid_spacing_m=np.inf),
        lambda: ExperimentConfig(azimuth_step_deg=np.inf),
        lambda: ExperimentConfig(elevation_step_deg=np.inf),
    ], ids=["p_opt_w", "p_opt_w_inf", "room_depth", "room_height", "laplace_sigma", "laplace_mu", "cdf_snr",
            "sweep_snr", "sweep_snr_-inf", "scan_sigma", "room_width_inf", "grid_spacing_inf", "azimuth_step_inf",
            "elevation_step_inf"])
    def test_non_finite_values_rejected(self, build):
        # a NaN compares false both ways, so each check is written to fail on it
        with pytest.raises(ValueError):
            build()

    def test_empty_snr_list(self):
        with pytest.raises(ValueError):
            ExperimentConfig(snr_list_db=())

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="warp")

    def test_stream_counter_limits(self):
        # the seed is the 64-bit Philox key; a pass index packs mode and snr into 16 bits each
        ExperimentConfig(master_seed=2**64 - 1, mode="snr-sweep", snr_list_db=range(2**16))
        with pytest.raises(ValueError):
            ExperimentConfig(master_seed=2**64)
        with pytest.raises(ValueError):
            ExperimentConfig(mode="snr-sweep", snr_list_db=range(2**16 + 1))

    @pytest.mark.parametrize("name", ["trials_per_point", "pilot_len", "master_seed"])
    def test_non_integral_counts_rejected(self, name):
        # the CLI rejects these too; through the API they used to fail mid-run
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**{name: 2.5})


class TestSamplePositions:
    def test_default_grid_shape(self):
        pts = sample_positions(ExperimentConfig())
        assert len(pts) == 11 * 11 * 26  # 0..1 x 0..1 at 0.1, heights 0..2.5
        assert pts[:, 2].max() == pytest.approx(2.5)
        assert pts[:, 2].min() == 0.0

    def test_height_cap_keeps_clearance(self):
        cfg = ExperimentConfig(room=dataclasses.replace(ExperimentConfig().room, height_m=2.8),
                               h_max_m=2.7)
        pts = sample_positions(cfg)
        assert pts[:, 2].max() <= 2.8 - 0.5 + 1e-9

    def test_deterministic_order(self):
        a = sample_positions(ExperimentConfig(**SMALL))
        b = sample_positions(ExperimentConfig(**SMALL))
        np.testing.assert_array_equal(a, b)

    def test_pinned_order_and_values(self):
        # the row index seeds every trial stream, so order is part of the contract
        pts = sample_positions(ExperimentConfig(grid_spacing_m=0.5, h_min_m=1.0, h_max_m=1.5))
        expected = [
            (x, y, z) for z in (1.0, 1.5) for y in (0.0, 0.5, 1.0) for x in (0.0, 0.5, 1.0)
        ]
        np.testing.assert_array_equal(pts, expected)

    def test_default_grid_matches_loop_reference(self):
        cfg = ExperimentConfig()
        xs = np.arange(11) * 0.1
        zs = np.arange(26) * 0.1
        expected = [(x, y, z) for z, y, x in itertools.product(zs, xs, xs)]
        np.testing.assert_array_equal(sample_positions(cfg), expected)


class TestComputeCdf:
    def test_midpoint_percentile(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)

    def test_all_equal_step(self):
        values, cdf = compute_cdf([2.0, 2.0, 2.0])
        np.testing.assert_array_equal(values, [2.0, 2.0, 2.0])
        assert cdf[-1] == 1.0

    def test_nondecreasing_and_terminal_one(self):
        rng = np.random.default_rng(0)
        values, cdf = compute_cdf(rng.exponential(size=1000))
        assert np.all(np.diff(values) >= 0)
        assert np.all(np.diff(cdf) > 0)
        assert cdf[-1] == 1.0

    def test_exponential_quantile_oracle(self):
        # analytic P95 of Exp(scale): -scale * ln(0.05)
        rng = np.random.default_rng(314)
        scale = 2.0
        draws = rng.exponential(scale, size=100_000)
        analytic = -scale * np.log(0.05)
        assert percentile(draws, 95.0) == pytest.approx(analytic, rel=0.01)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_cdf([])
        with pytest.raises(ValueError):
            percentile([], 50.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 1375])
    def test_percentile_bit_identical_to_numpy(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(0.0, 2.0, n).round(1)  # negatives; ties at n = 1,375
        x[n // 2 :: 3] = x[0]  # ties at every size
        for q in [0, 25, 50, 90, 95, 100, *rng.uniform(0.0, 100.0, 200).tolist()]:
            assert percentile(x, q) == np.percentile(x, q), q

    @pytest.mark.parametrize("x, q", [([-1.303, 0.33], 50), ([0.33, 1.0, -1.303], 25)])
    def test_percentile_midpoint_takes_upper_lerp(self, x, q):
        # t == 0.5 exactly: numpy lerps down from the upper neighbour, which
        # here differs in the last bit from lerping up from the lower one
        lo, hi = sorted(x)[:2]
        assert percentile(x, q) == np.percentile(x, q) == hi - (hi - lo) * 0.5 != lo + (hi - lo) * 0.5

    def test_percentile_nan_gives_nan(self):
        x = [0.5, np.nan, -2.0]
        assert np.isnan(np.percentile(x, 50.0))
        assert all(np.isnan(percentile(x, q)) for q in (0, 50, 100))


class TestNoiseSigma:
    """Each runner turns its SNR into sigma against the power it records."""

    def test_snr_anchored_to_grid_average_power(self):
        cfg = ExperimentConfig(mode="cdf", snr_list_db=(40.0,), **SMALL)
        res = run_cdf_experiment(cfg)
        p_ref = res.metadata["reference_power_w"]
        assert p_ref == reference_peak_power(cfg, sample_positions(cfg))
        assert res.aggregates["sigma_w"] == p_ref / 100.0

    def test_sweep_rows_anchored_to_grid_average_power(self):
        cfg = ExperimentConfig(mode="snr-sweep", snr_list_db=(20.0, 35.0, 50.0), trials_per_point=1,
                               orientation_modes=("fixed", "random-euler"), grid_spacing_m=0.5)
        res = run_snr_sweep(cfg)
        p_ref = res.metadata["reference_power_w"]
        assert p_ref == reference_peak_power(cfg, sample_positions(cfg))
        assert len(res.aggregates["rows"]) == 6
        for row in res.aggregates["rows"]:
            assert row["sigma_w"] == p_ref / 10.0 ** (row["snr_db"] / 20.0)

    def test_sync_anchored_to_pilot_on_level(self):
        cfg = ExperimentConfig(mode="sync-test", snr_list_db=(20.0,), trials_per_point=2)
        res = run_sync_test(cfg)
        assert res.metadata["reference_power_w"] == 1e-3
        assert res.aggregates["rows"][0]["sigma_w"] == 1e-3 / 10.0

    def test_infinite_snr_noiseless(self):
        inf = (float("inf"),)
        cdf = run_cdf_experiment(ExperimentConfig(mode="cdf", snr_list_db=inf, **SMALL))
        sweep = run_snr_sweep(ExperimentConfig(mode="snr-sweep", snr_list_db=inf, **SMALL))
        sync = run_sync_test(ExperimentConfig(mode="sync-test", snr_list_db=inf, trials_per_point=2))
        assert cdf.aggregates["sigma_w"] == 0.0
        assert [r["sigma_w"] for r in sweep.aggregates["rows"] + sync.aggregates["rows"]] == [0.0, 0.0]


def _out_of_view_share(cfg):
    """Share of the grid points whose arrival at an upright receiver lies
    outside its view cone."""
    d = cfg.room.emitter_pos - sample_positions(cfg)
    zenith = np.degrees(np.arccos(d[:, 2] / np.linalg.norm(d, axis=1)))
    return float((zenith > cfg.fov_deg / 2).mean())


class TestRunCdfExperiment:
    def test_determinism(self):
        cfg = ExperimentConfig(mode="cdf", master_seed=5, snr_list_db=(40.0,), **SMALL)
        a = run_cdf_experiment(cfg)
        b = run_cdf_experiment(cfg)
        for key in ("cdf_3d", "cdf_x", "cdf_y", "cdf_z"):
            np.testing.assert_array_equal(a.aggregates[key], b.aggregates[key])

    def test_fixed_orientation_has_zero_outage(self):
        cfg = ExperimentConfig(mode="cdf", master_seed=1, snr_list_db=(40.0,), **SMALL)
        res = run_cdf_experiment(cfg)
        assert res.aggregates["outage_frac"] == 0.0
        assert res.aggregates["n_valid"] == res.aggregates["n_samples"]

    def test_upright_receiver_always_in_view_brute_force(self):
        # geometry check over the whole default grid: incidence < 60 degrees
        cfg = ExperimentConfig()
        emitter = cfg.room.emitter_pos
        worst = min(
            incidence_cosine(emitter, ReceiverState(p, [0, 0, 1]))
            for p in sample_positions(cfg)
        )
        assert worst > np.cos(np.radians(60.0))

    def test_cdf_arrays_well_formed(self):
        cfg = ExperimentConfig(mode="cdf", master_seed=2, snr_list_db=(40.0,), **SMALL)
        res = run_cdf_experiment(cfg)
        for key in ("cdf_3d", "cdf_x", "cdf_y", "cdf_z"):
            values, cdf = res.aggregates[key]
            assert np.all(np.diff(values) >= 0)
            assert cdf[-1] == 1.0

    def test_random_orientation_reports_outage(self):
        ori = dataclasses.replace(ExperimentConfig().orientation, mode="random-euler")
        cfg = ExperimentConfig(mode="cdf", master_seed=3, snr_list_db=(40.0,),
                               orientation=ori, grid_spacing_m=0.25, trials_per_point=3)
        res = run_cdf_experiment(cfg)
        assert 0.0 < res.aggregates["outage_frac"] < 0.3
        assert res.aggregates["n_valid"] < res.aggregates["n_samples"]

    def test_wrong_mode_rejected(self):
        with pytest.raises(ValueError):
            run_cdf_experiment(ExperimentConfig(mode="snr-sweep", snr_list_db=(40.0,)))

    def test_fixed_outage_is_the_points_out_of_view(self):
        # a 3 x 3 m room puts 12.7 % of the grid outside an upright receiver's
        # cone: those points are outage, not fixes from a noise peak (which
        # gave a P95 of 7.4 m)
        cfg = ExperimentConfig(mode="cdf", room=Room(3.0, 3.0, 3.0), grid_spacing_m=0.25, trials_per_point=1,
                               snr_list_db=(40.0,), master_seed=1)
        agg = run_cdf_experiment(cfg).aggregates
        assert agg["outage_frac"] == _out_of_view_share(cfg) > 0.1
        assert agg["p95_3d_m"] < 0.1

    def test_noiseless_errors_are_pure_quantization(self):
        cfg = ExperimentConfig(mode="cdf", master_seed=4, snr_list_db=(float("inf"),), **SMALL)
        _, [(_, rec, _)] = experiments._grid_passes(cfg, (cfg.orientation.mode,), cfg.snr_list_db)
        # rows run in point order, then trial order
        true_pos = np.repeat(sample_positions(cfg), cfg.trials, axis=0)
        d = np.linalg.norm(true_pos - cfg.room.emitter_pos, axis=1)
        bound = d * np.tan(np.radians(0.71)) + 0.02
        assert np.all(rec["err_3d"] <= bound)


class TestRunSnrSweep:
    def test_mean_error_decreases_with_snr(self):
        cfg = ExperimentConfig(mode="snr-sweep", master_seed=6, snr_list_db=(20.0, 30.0, 40.0),
                               grid_spacing_m=0.25, trials_per_point=3)
        rows = run_snr_sweep(cfg).aggregates["rows"]
        means = [r["mean_error_m"] for r in rows]
        assert means[0] > means[1] > means[2]

    def test_two_orientation_modes_reported(self):
        cfg = ExperimentConfig(mode="snr-sweep", master_seed=6, snr_list_db=(35.0,),
                               orientation_modes=("fixed", "random-euler"), **SMALL)
        rows = run_snr_sweep(cfg).aggregates["rows"]
        assert [r["orientation_mode"] for r in rows] == ["fixed", "random-euler"]
        assert rows[1]["mean_error_m"] > rows[0]["mean_error_m"]

    def test_fixed_outage_is_the_points_out_of_view(self):
        cfg = ExperimentConfig(mode="snr-sweep", room=Room(3.0, 3.0, 3.0), grid_spacing_m=0.25, trials_per_point=1,
                               snr_list_db=(20.0, 40.0), orientation_modes=("fixed",), master_seed=1)
        rows = run_snr_sweep(cfg).aggregates["rows"]
        share = _out_of_view_share(cfg)
        assert [r["outage_frac"] for r in rows] == [share, share]
        assert rows[1]["mean_error_m"] < 0.1  # 0.87 m with the out-of-view points' fixes

    def test_needs_snr_list(self):
        with pytest.raises(ValueError):
            run_snr_sweep(ExperimentConfig(mode="snr-sweep", snr_list_db=None))


class TestRunSyncTest:
    def test_noiseless_never_mismatches(self):
        cfg = ExperimentConfig(mode="sync-test", master_seed=9, trials_per_point=60,
                               snr_list_db=(float("inf"),))
        rows = run_sync_test(cfg).aggregates["rows"]
        assert rows[0]["mismatch_rate"] == 0.0
        assert rows[0]["mean_error_realigned_m"] == rows[0]["mean_error_synced_m"]

    def test_naive_decoding_is_far_worse(self):
        cfg = ExperimentConfig(mode="sync-test", master_seed=9, trials_per_point=60,
                               snr_list_db=(float("inf"),))
        row = run_sync_test(cfg).aggregates["rows"][0]
        assert row["mean_error_naive_m"] > 10.0 * row["mean_error_synced_m"]

    def test_requires_pilot(self):
        with pytest.raises(ValueError):
            run_sync_test(ExperimentConfig(mode="sync-test", pilot_len=0))

    @pytest.mark.parametrize("mode", ["fixed", "random-euler"])
    def test_matches_per_trial_oracle(self, monkeypatch, mode):
        # noiseless rows equal the dense per-trial oracle's bit for bit; noisy
        # rows draw other samples from the same law (TestSyncTrialLaw).  A
        # noiseless trial whose receiver sees no beam has no positive sample
        # past its pilot window: its peaks are not found on what the sparse
        # pass drew, and it completes its trace (random-euler only)
        cfg = ExperimentConfig(mode="sync-test", azimuth_step_deg=2.0, elevation_step_deg=2.0, trials_per_point=100,
                               master_seed=11, snr_list_db=(float("inf"),),
                               orientation=dataclasses.replace(ExperimentConfig().orientation, mode=mode))
        full_draws = _count_full_draws(monkeypatch)
        rows = run_sync_test(cfg).aggregates["rows"]
        assert bool(full_draws) == (mode == "random-euler")
        monkeypatch.undo()
        assert rows == _sync_oracle_rows(cfg)

    @pytest.mark.parametrize("position, normal", [
        ([0.8, 0.5, 1.0], [0, 0, 1]),  # one support cell
        ([0.5, 0.5, 1.5], [0, 0, 1]),  # the nadir ring: 360 slots of equal power
        ([0.2, 0.7, 1.0], [0, 0, -1]),  # out of view: every beam slot 0, the peak at the lowest
    ])
    @pytest.mark.parametrize("offset", [0, 1, -1, 9_001, FULL_N // 2, -(FULL_N // 2), FULL_N])
    @pytest.mark.parametrize("pilot_w", [1e-3, 1e-6])  # the stock pilot, and one weaker than the signal
    def test_noiseless_trial_matches_dense(self, position, normal, offset, pilot_w):
        grid = build_beam_grid()
        pilot = make_pilot(pilot_w, 64)
        cells, power = support(grid, Room(), ReceiverState(position, normal), ChannelParams())
        trace = run_scan(grid, cells[None], np.array([power]), sigma_w=0.0, draws=None, pilot_w=pilot,
                         offset_steps=np.array([offset]))
        peaks, beams, _ = _dense_sync(dense_trace(grid, cells, power, 0.0, None, pilot), pilot, offset)
        np.testing.assert_array_equal(trace.beams[:, 0], beams)
        np.testing.assert_array_equal(trace.peaks[:, 0], peaks)
        # it holds the pilot with the 63 slots either side, and the support
        # slots, the nadir ring cell standing for 360; nothing else is drawn
        slots = cells[cells < grid.size]
        if len(slots) and slots[0] == 0:
            slots = np.concatenate([np.arange(grid.n_azimuth), slots[1:]])
        assert len(trace.samples) == len(set(range(-63, 127)) | set(64 + slots))

    def test_full_draw_is_rare_at_20_db(self, monkeypatch):
        # criterion 7's trials: at most 1 % of the 20 dB ones fall back to the
        # dense path, counting the noiseless ones' fallbacks against them too.
        # At 12.75 and 12 dB a few dozen noise samples are hot, and their
        # windows, not one run covering them all, are scored: at most 2 of
        # 1,000 trials complete
        noisy = _count_full_draws(monkeypatch)
        for snrs, most in (((float("inf"), 20.0), 10), ((12.75,), 2), ((12.0,), 2)):
            noisy.clear()
            run_sync_test(ExperimentConfig(mode="sync-test", snr_list_db=snrs, trials_per_point=1000,
                                           master_seed=20259))
            assert len(noisy) <= most, snrs


class TestSyncTrialLaw:
    """The sparse sync trial is sampled from the dense trial's law: per-trial
    errors, peak values and beam slots (two-sample KS) and the rates of beam
    mismatch and of a recovered shift equal to the offset (two-proportion),
    against the dense oracle on independent seeds (sparse 1001, dense 2002),
    1,000 trials each."""

    @pytest.mark.parametrize("snr", [20.0, 13.0, 10.0, 0.0])
    def test_matches_dense_oracle(self, monkeypatch, snr):
        dense = _sync_trial_records(2002, snr, dense=True)
        full_draws = _count_full_draws(monkeypatch)
        shifts = _record_shifts(monkeypatch)
        sparse = _sync_trial_records(1001, snr, dense=False, shifts=shifts)
        n = len(dense["synced"])
        for key in ("synced", "realigned", "naive"):
            assert stats.ks_2samp(dense[key], sparse[key]).pvalue > 0.01, key
        # the peaks and beams behind the errors, which a wrong exceedance law
        # moves first: six more tests, at 0.01 / 6 each
        for key in ("peaks", "beams"):
            for i in range(3):
                assert stats.ks_2samp(dense[key][i], sparse[key][i]).pvalue > 0.01 / 6, (key, i)
        for key in ("mismatch", "hit"):
            counts = [int(rec[key].sum()) for rec in (dense, sparse)]
            rate = sum(counts) / (2 * n)
            assert abs(counts[0] - counts[1]) <= 4.0 * np.sqrt(2 * n * rate * (1.0 - rate)), key
        if snr == 0.0:  # no pruning: every trial draws in full, and the mismatches are real
            assert len(full_draws) == n
            assert sparse["mismatch"].any() and not sparse["hit"].all()


class TestSyncTrialCompletion:
    """Every slot's noise is a pure function of its trial's Philox row and the
    slot, so a sparse sync trial returns what the dense path returns on the
    trace it leaves implicit: completed from the same counters, the trace
    gives the same shift, peaks and beams, bit for bit."""

    @pytest.mark.parametrize("snr", [float("inf"), 40.0, 20.0, 13.0, 10.0, 0.0])
    def test_dense_path_on_completed_trace_agrees(self, monkeypatch, snr):
        cfg = ExperimentConfig(mode="sync-test", azimuth_step_deg=2.0, elevation_step_deg=2.0, trials_per_point=300,
                               master_seed=7, snr_list_db=(snr,))
        grid, pilot, sigma, _, cells, power, offsets, draws = _sync_inputs(cfg)
        p = scan._SyncPilot(grid, pilot)
        full_draws = _count_full_draws(monkeypatch)
        shifts = _record_shifts(monkeypatch)
        trace = run_scan(grid, cells, power, sigma, draws, pilot_w=pilot, offset_steps=offsets)
        assert len(full_draws) <= cfg.trials
        monkeypatch.undo()
        for t, offset in enumerate(offsets.tolist()):
            completed = scan._philox_trace(p, cells[t], power[t], sigma, draws, t)
            peaks, beams, shift = _dense_sync(completed, pilot, offset)
            assert shift == shifts[-1][t], t
            np.testing.assert_array_equal(trace.peaks[:, t], peaks, err_msg=str(t))
            np.testing.assert_array_equal(trace.beams[:, t], beams, err_msg=str(t))

    @pytest.mark.parametrize("snr", [float("inf"), 20.0])
    def test_pilot_too_long_to_prune_completes_every_trial(self, monkeypatch, snr):
        # a 1,024-slot pilot on a 10 degree grid: n = 1,348 < 2k - 2, so runs
        # of windows would overlap and the sparse pass settles no trial; each
        # one completes its own trace from its own counters
        cfg = ExperimentConfig(mode="sync-test", azimuth_step_deg=10.0, elevation_step_deg=10.0, pilot_len=1024,
                               trials_per_point=50, master_seed=7, snr_list_db=(snr,))
        grid, pilot, sigma, _, cells, power, offsets, draws = _sync_inputs(cfg)
        p = scan._SyncPilot(grid, pilot)
        assert p.n < 2 * cfg.pilot_len - 2
        full_draws = _count_full_draws(monkeypatch)
        shifts = _record_shifts(monkeypatch)
        trace = run_scan(grid, cells, power, sigma, draws, pilot_w=pilot, offset_steps=offsets)
        assert full_draws == offsets.tolist()  # every trial, in order
        monkeypatch.undo()
        for t, offset in enumerate(offsets.tolist()):
            completed = scan._philox_trace(p, cells[t], power[t], sigma, draws, t)
            peaks, beams, shift = _dense_sync(completed, pilot, offset)
            assert shift == shifts[-1][t], t
            np.testing.assert_array_equal(trace.peaks[:, t], peaks, err_msg=str(t))
            np.testing.assert_array_equal(trace.beams[:, t], beams, err_msg=str(t))

    @pytest.mark.parametrize("tap", [0, 63])
    def test_one_tap_pilot_agrees(self, monkeypatch, tap):
        # with one on-tap, the first or the last, the winning shift is the
        # last or the first of its run: a run one shift short would miss it
        cfg = ExperimentConfig(mode="sync-test", azimuth_step_deg=2.0, elevation_step_deg=2.0, trials_per_point=100,
                               master_seed=7, snr_list_db=(20.0,))
        grid, pilot, sigma, _, cells, power, offsets, draws = _sync_inputs(cfg)
        one = np.zeros_like(pilot)
        one[tap] = pilot.max()
        p = scan._SyncPilot(grid, one)
        full_draws = _count_full_draws(monkeypatch)
        shifts = _record_shifts(monkeypatch)
        trace = run_scan(grid, cells, power, sigma, draws, pilot_w=one, offset_steps=offsets)
        assert not full_draws  # every trial pruned
        monkeypatch.undo()
        for t, offset in enumerate(offsets.tolist()):
            completed = scan._philox_trace(p, cells[t], power[t], sigma, draws, t)
            peaks, beams, shift = _dense_sync(completed, one, offset)
            assert shift == shifts[-1][t], t
            np.testing.assert_array_equal(trace.peaks[:, t], peaks, err_msg=str(t))
            np.testing.assert_array_equal(trace.beams[:, t], beams, err_msg=str(t))

    @pytest.mark.parametrize("snr", [float("inf"), 20.0, 13.0])
    def test_lazy_reads_are_the_completed_trace(self, snr):
        # every slot the sparse pass reads, drawn up front or lazily, holds the
        # sample of the trace its counters complete, bit for bit; and every
        # completed sample above cut is one the pass drew up front
        cfg = ExperimentConfig(mode="sync-test", azimuth_step_deg=2.0, elevation_step_deg=2.0, trials_per_point=40,
                               master_seed=5, snr_list_db=(snr,))
        grid, pilot, sigma, _, cells, power, _, draws = _sync_inputs(cfg)
        p = scan._SyncPilot(grid, pilot)
        x = scan._SparseTraces(p, cells, power, sigma, draws)
        for t in range(cfg.trials):
            completed = scan._philox_trace(p, cells[t], power[t], sigma, draws, t)
            slots = np.random.default_rng(t).permutation(p.n)  # reads in any order
            np.testing.assert_array_equal(x.read(np.full(p.n, t), slots), completed[slots], err_msg=str(t))
            strong = x.slots[(x.rows == t) & (x.values > x.cut)]
            np.testing.assert_array_equal(np.sort(strong), np.flatnonzero(completed > x.cut), err_msg=str(t))

    def test_exceedance_on_a_signal_slot_keeps_the_signal(self):
        # a signal slot is drawn exactly, whatever the exceedance process puts
        # there: the trials where the two meet read their completed traces
        cfg = ExperimentConfig(mode="sync-test", azimuth_step_deg=2.0, elevation_step_deg=2.0, trials_per_point=1000,
                               master_seed=5, snr_list_db=(20.0,))
        grid, pilot, sigma, _, cells, power, _, draws = _sync_inputs(cfg)
        p = scan._SyncPilot(grid, pilot)
        i, hot, _ = scan._exceedances(p, draws, np.arange(cfg.trials))
        hot = set(zip(i.tolist(), hot.tolist()))
        rows, slots = scan._support_slots(grid, cells, p.k)
        met = sorted({t for t, s in zip(rows.tolist(), slots.tolist()) if (t, s) in hot})
        assert met  # about 4 of the 1,000 trials
        x = scan._SparseTraces(p, cells, power, sigma, draws)
        for t in met:
            completed = scan._philox_trace(p, cells[t], power[t], sigma, draws, t)
            np.testing.assert_array_equal(x.read(np.full(p.n, t), np.arange(p.n)), completed, err_msg=str(t))

    def test_exceedance_on_a_signal_slot_leaves_one_key(self):
        # the trials of the test above, where about 4 exceedances land on
        # support slots: each is dropped, not kept beside the support sample,
        # so the store's keys strictly increase
        cfg = ExperimentConfig(mode="sync-test", azimuth_step_deg=2.0, elevation_step_deg=2.0, trials_per_point=1000,
                               master_seed=5, snr_list_db=(20.0,))
        grid, pilot, sigma, _, cells, power, _, draws = _sync_inputs(cfg)
        x = scan._SparseTraces(scan._SyncPilot(grid, pilot), cells, power, sigma, draws)
        assert (np.diff(x.keys) > 0).all()

    def test_support_samples_under_cut_are_no_peaks(self, monkeypatch):
        # with almost no exceedances, tau is far up and the support samples the
        # store holds sit under cut, where a slot not drawn can beat them: the
        # peaks and beams are still the dense path's on the completed trace
        monkeypatch.setattr(scan, "_HOT_PER_TRACE", 1e-3)
        cfg = ExperimentConfig(mode="sync-test", azimuth_step_deg=2.0, elevation_step_deg=2.0, trials_per_point=40,
                               master_seed=5, snr_list_db=(20.0,))
        grid, pilot, sigma, _, cells, power, offsets, draws = _sync_inputs(cfg)
        p = scan._SyncPilot(grid, pilot)
        trace = run_scan(grid, cells, power, sigma, draws, pilot_w=pilot, offset_steps=offsets)
        for t, offset in enumerate(offsets.tolist()):
            _, peaks, beams = scan._full_draw(scan._philox_trace(p, cells[t], power[t], sigma, draws, t), p, offset)
            np.testing.assert_array_equal(trace.peaks[:, t], peaks, err_msg=str(t))
            np.testing.assert_array_equal(trace.beams[:, t], beams, err_msg=str(t))

    @pytest.mark.parametrize("snr", [float("inf"), 20.0, 13.0, 10.0])
    def test_trials_independent_of_batch_size(self, snr):
        # the first 50 trials of a 100-trial run give the peaks and beams of a
        # 50-trial run: each reads its own Philox row, whatever the batch pads to
        cfg = ExperimentConfig(mode="sync-test", azimuth_step_deg=2.0, elevation_step_deg=2.0, trials_per_point=100,
                               master_seed=12, snr_list_db=(snr,))
        grid, pilot, sigma, _, cells, power, offsets, draws = _sync_inputs(cfg)
        whole = run_scan(grid, cells, power, sigma, draws, pilot_w=pilot, offset_steps=offsets)
        head = run_scan(grid, cells[:50], power[:50], sigma, draws._replace(prefix=draws.prefix[:50]), pilot_w=pilot,
                        offset_steps=offsets[:50])
        np.testing.assert_array_equal(head.peaks, whole.peaks[:, :50])
        np.testing.assert_array_equal(head.beams, whole.beams[:, :50])


class TestScanDemo:
    """scan-demo's one dense trace is the trace that a sync trial of row 0
    completes from its Philox counters (prefix (0, 0, 0), blocks 6 on),
    pilot first, and its noise-only slots are N(0, sigma^2)."""

    POINT = np.array([0.3, 0.4, 1.2])

    def _demo(self, seed, pilot_len):
        """(the RunResult's trace powers, sigma, its noise-only slots, the
        trace _philox_trace completes for row 0)."""
        cfg = ExperimentConfig(mode="scan-demo", snr_list_db=(40.0,), master_seed=seed, pilot_len=pilot_len)
        _, _, trace = experiments.run_scan_demo(cfg, self.POINT).aggregates["trace"]
        grid = build_beam_grid()
        sigma = noise_sigma_for_snr(reference_peak_power(cfg, sample_positions(cfg)), 40.0)
        draws = scan.SyncDraws(seed, np.zeros((1, 3), dtype=int))
        normal = receiver_normals(cfg.orientation, uniforms(seed, draws.prefix, 3)[0] - 0.5)
        cells, power = support(grid, cfg.room, ReceiverState(self.POINT, normal, cfg.fov_deg), cfg.channel)
        pilot = make_pilot(cfg.channel.p_opt_w, pilot_len) if pilot_len else np.zeros(0)
        completed = scan._philox_trace(scan._SyncPilot(grid, pilot), cells, power, sigma, draws, 0)
        lit = np.zeros(len(trace), dtype=bool)
        lit[:pilot_len] = lit[scan._support_slots(grid, cells[None], pilot_len)[1]] = True
        return trace, sigma, np.flatnonzero(~lit), completed

    @pytest.mark.parametrize("pilot_len", [64, 0])
    def test_trace_is_the_row_0_completion(self, pilot_len):
        trace, _, noise, completed = self._demo(3, pilot_len)
        assert len(trace) == pilot_len + 32_400 and len(noise) < len(trace)
        np.testing.assert_array_equal(trace.view(np.int64), completed.view(np.int64))

    @pytest.mark.parametrize("pilot_len", [64, 0])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_noise_is_normal(self, seed, pilot_len):
        # the noise-only slots, the pilot's neighbours among them: one-sample
        # KS against N(0, sigma^2), over about 32,000 samples
        trace, sigma, noise, _ = self._demo(seed, pilot_len)
        assert stats.kstest(trace[noise] / sigma, "norm").pvalue > 0.01


def _count_full_draws(monkeypatch):
    """Record the offset of every sync trial that takes the dense path."""
    calls = []
    full_draw = scan._full_draw

    def counting(samples, p, offset):
        calls.append(offset)
        return full_draw(samples, p, offset)

    monkeypatch.setattr(scan, "_full_draw", counting)
    return calls


def _record_shifts(monkeypatch):
    """Record the shifts (T,) that each sync run_scan recovers, one array per call."""
    shifts = []
    sync_trials = scan._sync_trials

    def recording(*args):
        out = sync_trials(*args)
        shifts.append(out[1])
        return out

    monkeypatch.setattr(scan, "_sync_trials", recording)
    return shifts


def _dense_sync(trace, pilot, offset):
    """(peaks, beams, shift) of the synced, realigned and naive traces of one
    dense synced trace, as sync-test computed them before its sparse trial."""
    shifted = np.roll(trace, offset)
    shift = realign_with_pilot(shifted, pilot)
    realigned = np.roll(shifted, -shift)
    found = [peak(tr[len(pilot) :]) for tr in (trace, realigned, shifted)]
    return np.array([f[0] for f in found]), np.array([f[1] for f in found]), shift


def _counters(point, trial, mode_index=0, snr_index=0):
    """Philox counter prefixes (N, 3) of rows (point, trial) of pass
    (mode_index, snr_index), by the documented map: (point, trial,
    mode_index * 2^16 + snr_index)."""
    point, trial = np.broadcast_arrays(np.atleast_1d(point), trial)
    return np.column_stack([point, trial, np.full(point.shape, mode_index * 2**16 + snr_index)])


def _row_uniforms(cfg, prefix):
    """The ROW_UNIFORMS uniforms of counter prefixes (N, 3)."""
    return uniforms(cfg.master_seed, prefix, experiments.ROW_UNIFORMS)


def _sync_inputs(cfg, snr_index=0):
    """(grid, pilot, sigma, points, cells, power, offsets, draws) of one
    sync-test snr, as run_sync_test builds them."""
    grid = build_beam_grid(cfg.azimuth_step_deg, cfg.elevation_step_deg)
    pilot = make_pilot(cfg.channel.p_opt_w, cfg.pilot_len)
    n = cfg.pilot_len + grid.size
    sigma = noise_sigma_for_snr(float(pilot.max()), cfg.snr_list_db[snr_index])
    prefix = _counters(0, np.arange(cfg.trials), snr_index=snr_index)  # trial t is point 0's trial t
    u = _row_uniforms(cfg, prefix)
    lo = np.array([0.0, 0.0, cfg.h_min_m])
    hi = np.array([cfg.room.width_m, cfg.room.depth_m, experiments._height_cap(cfg)])
    points = lo + (hi - lo) * u[:, 3:6]
    offsets = uniform_index(u[:, 6], 2 * (n // 2) + 1) - n // 2
    rx = ReceiverState(points, receiver_normals(cfg.orientation, u[:, :3] - 0.5), cfg.fov_deg)
    cells, power = support(grid, cfg.room, rx, cfg.channel)
    draws = scan.SyncDraws(cfg.master_seed, prefix)
    return grid, pilot, sigma, points, cells, power, offsets, draws


def _sync_trial_records(seed, snr, dense, shifts=None):
    """Per-trial errors (synced, realigned, naive), peaks and beams (3, trials),
    beam mismatch, and whether the recovered shift equals the offset, for
    1,000 sync-test trials on a 2 degree grid: its poses, offsets and draws,
    through one sync run_scan (shifts records its shifts) or the dense
    oracle, one PCG64 stream per trial."""
    cfg = ExperimentConfig(mode="sync-test", azimuth_step_deg=2.0, elevation_step_deg=2.0, trials_per_point=1000,
                           master_seed=seed, snr_list_db=(snr,))
    grid, pilot, sigma, points, cells, power, offsets, draws = _sync_inputs(cfg)
    n = len(pilot) + grid.size
    if dense:
        peaks, beams = np.empty((3, cfg.trials)), np.empty((3, cfg.trials), dtype=int)
        run_shifts = np.empty(cfg.trials, dtype=int)
        for t in range(cfg.trials):
            rng = np.random.default_rng((seed, 0, 0, 0, t))
            trace = pcg64_trace(grid, cells[t], power[t], sigma, rng, pilot)
            peaks[:, t], beams[:, t], run_shifts[t] = _dense_sync(trace, pilot, int(offsets[t]))
    else:
        trace = run_scan(grid, cells, power, sigma, draws, pilot_w=pilot, offset_steps=offsets)
        peaks, beams, run_shifts = trace.peaks, trace.beams, shifts[-1]
    estimates, _ = locate(cfg.room.emitter_pos, peaks.ravel(), beams.ravel(), grid, cfg.channel, sigma)
    errs = position_error(np.tile(points, (3, 1)), estimates).total_m.reshape(3, -1)
    return {**dict(zip(("synced", "realigned", "naive"), errs)), "peaks": peaks, "beams": beams,
            "mismatch": beams[1] != beams[0], "hit": run_shifts == offsets % n}


def _sync_oracle_rows(cfg):
    """sync-test rows from one dense trial at a time: its Philox row gives the
    orientation (columns 0-2), the position (3-5) and the offset (6), and
    its own stream the noise."""
    grid = build_beam_grid(cfg.azimuth_step_deg, cfg.elevation_step_deg)
    pilot = make_pilot(cfg.channel.p_opt_w, cfg.pilot_len)
    emitter = cfg.room.emitter_pos
    half = (cfg.pilot_len + grid.size) // 2
    lo = np.array([0.0, 0.0, cfg.h_min_m])
    hi = np.array([cfg.room.width_m, cfg.room.depth_m, experiments._height_cap(cfg)])
    rows = []
    for snr_idx, snr in enumerate(cfg.snr_list_db):
        sigma = noise_sigma_for_snr(float(pilot.max()), snr)
        mismatches = 0
        errs = {"synced": [], "realigned": [], "naive": []}
        for trial in range(cfg.trials):
            u = _row_uniforms(cfg, _counters(0, trial, snr_index=snr_idx))[0]
            point = lo + (hi - lo) * u[3:6]
            offset = int(uniform_index(u[6], 2 * half + 1)) - half
            rx = ReceiverState(point, receiver_normals(cfg.orientation, u[:3] - 0.5), cfg.fov_deg)
            rng = np.random.default_rng((cfg.master_seed, 0, snr_idx, 0, trial))
            cells, power = support(grid, cfg.room, rx, cfg.channel)
            peaks, beams, _ = _dense_sync(pcg64_trace(grid, cells, power, sigma, rng, pilot), pilot, offset)
            mismatches += int(beams[1] != beams[0])
            for key, y, beam in zip(("synced", "realigned", "naive"), peaks, beams):
                errs[key].append(position_error(point, locate(emitter, y, beam, grid, cfg.channel, 0.0)[0]).total_m)
        rows.append({
            "snr_db": snr,
            "mismatch_rate": mismatches / cfg.trials,
            **{f"mean_error_{key}_m": float(np.mean(e)) for key, e in errs.items()},
            "sigma_w": sigma,
        })
    return rows


def _grid_setup(seed, snr, mode, trials):
    cfg = ExperimentConfig(mode="cdf", grid_spacing_m=0.25, trials_per_point=trials, master_seed=seed)
    sigma = noise_sigma_for_snr(reference_peak_power(cfg, sample_positions(cfg)), snr)
    return cfg, sigma, dataclasses.replace(cfg.orientation, mode=mode)


def _dense_grid_trials(seed, snr, mode, trials):
    """err_3d and statuses of a whole 0.25 m grid through the dense oracle,
    one default_rng((seed, point, trial)) stream per trial: the orientation's
    uniforms, then the noise."""
    cfg, sigma, ori = _grid_setup(seed, snr, mode, trials)
    grid = build_beam_grid()
    m = {"fixed": 0, "random-euler": 3}[mode]  # angles the mode reads
    errs, status = [], []
    for i, point in enumerate(sample_positions(cfg)):
        for trial in range(trials):
            rng = np.random.default_rng((seed, i, trial))
            rx = ReceiverState(point, receiver_normals(ori, rng.uniform(-0.5, 0.5, m)), cfg.fov_deg)
            cells, power = support(grid, cfg.room, rx, cfg.channel)
            trace = pcg64_trace(grid, cells, power, sigma, rng)
            est, code = locate(cfg.room.emitter_pos, *peak(trace), grid, cfg.channel, sigma)
            errs.append(position_error(point, est).total_m)
            status.append(code)
    return {"err_3d": np.array(errs), "status": np.array(status)}


def _peak_grid_trials(seed, snr, mode, trials):
    """The same grid as one peak-only pass."""
    cfg, _, _ = _grid_setup(seed, snr, mode, trials)
    _, [(_, rec, _)] = experiments._grid_passes(cfg, (mode,), (snr,))
    return rec


def _one_pass_oracle(cfg, mode_idx, mode, snr_idx, snr):
    """Pass (mode_idx, snr_idx) of a grid run swept on its own: its rows'
    uniforms and normals, one support, one run_scan and one locate."""
    grid = build_beam_grid(cfg.azimuth_step_deg, cfg.elevation_step_deg)
    positions = np.repeat(sample_positions(cfg), cfg.trials, axis=0)
    point, trial = np.divmod(np.arange(len(positions)), cfg.trials)
    u = _row_uniforms(cfg, _counters(point, trial, mode_idx, snr_idx))
    normals = receiver_normals(dataclasses.replace(cfg.orientation, mode=mode), u[:, :3] - 0.5)
    cells, power = support(grid, cfg.room, ReceiverState(positions, normals, cfg.fov_deg), cfg.channel)
    sigma = noise_sigma_for_snr(reference_peak_power(cfg, sample_positions(cfg)), snr)
    trace = run_scan(grid, cells, power, sigma_w=sigma, draws=u[:, 3 : 3 + PEAK_UNIFORMS])
    estimate, status = locate(cfg.room.emitter_pos, trace.samples, trace.beams, grid, cfg.channel, sigma)
    errors = position_error(positions, estimate)
    return {
        "status": status,
        **dict(zip(("err_3d", "err_x", "err_y", "err_z"), errors)),
        "excluded": power == 0.0 if mode == "fixed" else status == STATUS_LOW_SIGNAL,
    }


class TestPeakOnlyEquivalence:
    """The peak-only pass is sampled from the same law as the dense oracle."""

    @pytest.mark.parametrize("mode", ["fixed", "random-euler"])
    def test_noiseless_estimates_identical(self, mode):
        # the pass's own normals feed both paths, one dense sweep per point
        cfg = ExperimentConfig(grid_spacing_m=0.25, trials_per_point=1)
        grid = build_beam_grid()
        ori = dataclasses.replace(cfg.orientation, mode=mode)
        points = sample_positions(cfg)
        u = _row_uniforms(cfg, _counters(np.arange(len(points)), 0))
        normals = receiver_normals(ori, u[:, :3] - 0.5)
        rx = ReceiverState(points, normals, cfg.fov_deg)
        trace = run_scan(grid, *support(grid, cfg.room, rx, cfg.channel), sigma_w=0.0,
                         draws=u[:, 3 : 3 + PEAK_UNIFORMS])
        batch, batch_status = locate(cfg.room.emitter_pos, trace.samples, trace.beams, grid, cfg.channel, 0.0)
        for i, (point, normal) in enumerate(zip(points, normals)):
            one = ReceiverState(point, normal, cfg.fov_deg)
            dense = dense_trace(grid, *support(grid, cfg.room, one, cfg.channel), 0.0, None)
            y, beam = peak(dense)
            est, status = locate(cfg.room.emitter_pos, y, beam, grid, cfg.channel, 0.0)
            np.testing.assert_array_equal(est, batch[i])
            assert (beam, y, status) == (trace.beams[i], trace.samples[i], batch_status[i])

    @pytest.mark.parametrize("mode", ["fixed", "random-euler"])
    @pytest.mark.parametrize("snr", [20.0, 30.0, 40.0])
    def test_error_law_matches_dense(self, snr, mode):
        # independent streams: dense seed 1001, peak-only seed 2002; n = 1,100 each
        dense = _dense_grid_trials(1001, snr, mode, trials=4)
        peak_only = _peak_grid_trials(2002, snr, mode, trials=4)
        n = len(dense["err_3d"])
        assert n == len(peak_only["err_3d"]) >= 1000
        assert stats.ks_2samp(dense["err_3d"], peak_only["err_3d"]).pvalue > 0.01
        low = [int((rec["status"] == STATUS_LOW_SIGNAL).sum()) for rec in (dense, peak_only)]
        rate = sum(low) / (2 * n)
        assert abs(low[0] - low[1]) <= 4.0 * np.sqrt(2 * n * rate * (1.0 - rate))


class TestGridPassStreams:
    """Each row's draws are a pure function of its indices (Philox counters)."""

    @pytest.mark.parametrize("mode", ["fixed", "random-euler"])
    def test_rows_independent_of_pass_size(self, mode):
        # a 3-trial pass gives every point's first 3 trials of a 5-trial pass
        short, long = (_peak_grid_trials(17, 30.0, mode, trials=t) for t in (3, 5))
        for key in ("status", "err_3d", "err_x", "err_y", "err_z"):
            np.testing.assert_array_equal(short[key], long[key].reshape(-1, 5)[:, :3].ravel(), err_msg=key)

    def test_blocks_do_not_change_results(self, monkeypatch):
        # 275 points x 2 trials in blocks of 64 rows, the last one short
        whole = _peak_grid_trials(17, 30.0, "random-euler", trials=2)
        monkeypatch.setattr(experiments, "GRID_BLOCK_ROWS", 64)
        blocked = _peak_grid_trials(17, 30.0, "random-euler", trials=2)
        for key in whole:
            np.testing.assert_array_equal(blocked[key], whole[key], err_msg=key)

    def test_batched_passes_match_one_pass_at_a_time(self, monkeypatch):
        # 3 modes x 3 snr values, noiseless included, 300 rows a pass on a
        # 2 x 2 m room that puts some points out of view: blocks of 64 rows
        # straddle pass and mode boundaries, blocks of 61 start inside a
        # point, and a default block holds rows of one mode from two snrs
        cfg = ExperimentConfig(mode="snr-sweep", room=Room(2.0, 2.0, 3.0), grid_spacing_m=0.5, trials_per_point=2,
                               master_seed=5, snr_list_db=(float("inf"), 20.0, 40.0),
                               orientation_modes=("fixed", "random-euler", "random-spherical"))
        pairs = itertools.product(enumerate(cfg.orientation_modes), enumerate(cfg.snr_list_db))
        oracles = [(mode, snr, _one_pass_oracle(cfg, m, mode, s, snr)) for (m, mode), (s, snr) in pairs]
        assert oracles[0][2]["excluded"].any()
        for rows in (experiments.GRID_BLOCK_ROWS, 64, 61):
            monkeypatch.setattr(experiments, "GRID_BLOCK_ROWS", rows)
            _, passes = experiments._grid_passes(cfg, cfg.orientation_modes, cfg.snr_list_db)
            for (mode, snr, oracle), (got_mode, rec, _) in zip(oracles, passes, strict=True):
                assert got_mode == mode
                assert rec.keys() == oracle.keys()
                for key in oracle:
                    np.testing.assert_array_equal(rec[key], oracle[key], err_msg=f"{rows} {mode} {snr} {key}")

    def test_upright_support_once_per_point(self, monkeypatch):
        # a fixed pass gathers its rows from one support over the points; the
        # random-euler rows of a two-mode sweep get one support a block
        sizes = []

        def counted(grid, room, rx, params):
            sizes.append(len(rx.position))
            return support(grid, room, rx, params)

        monkeypatch.setattr(experiments, "support", counted)
        monkeypatch.setattr(experiments, "GRID_BLOCK_ROWS", 64)
        cfg = ExperimentConfig(mode="cdf", **SMALL)
        n_points = len(sample_positions(cfg))
        run_cdf_experiment(cfg)
        assert sizes == [n_points]
        sizes.clear()
        cfg = ExperimentConfig(mode="snr-sweep", snr_list_db=(20.0, 40.0), orientation_modes=("fixed", "random-euler"),
                               **SMALL)
        run_snr_sweep(cfg)
        rows = np.arange(n_points * cfg.trials * 4)
        random_rows = experiments.row_prefix(cfg, rows, n_points, 2)[:, 2] >> 16 == 1
        per_block = [int(n) for n in np.add.reduceat(random_rows, np.arange(0, len(rows), 64)) if n]
        assert sizes == [n_points] + per_block
        assert len(per_block) > 1 and sum(per_block) == len(rows) // 2

    def test_row_map_is_the_documented_one(self):
        # 4 points x 2 trials a pass, 2 modes x 2 snrs: passes run SNR-major,
        # then point by point, then trial by trial; a sync trial t at snr
        # index s is row s * trials + t of one point, scan-demo row 0
        cfg = ExperimentConfig(grid_spacing_m=0.5, trials_per_point=2, master_seed=3)
        point, trial = np.divmod(np.arange(8), 2)
        expected = np.concatenate([_counters(point, trial, m, s) for s in range(2) for m in range(2)])
        np.testing.assert_array_equal(experiments.row_prefix(cfg, np.arange(32), 4, 2), expected)
        np.testing.assert_array_equal(experiments.row_prefix(cfg, 2 * 3 + np.arange(2)), _counters(0, [0, 1], 0, 3))
        np.testing.assert_array_equal(experiments.row_prefix(cfg, [0]), [[0, 0, 0]])

    def test_passes_get_their_own_streams(self):
        cfg = ExperimentConfig(grid_spacing_m=0.5, trials_per_point=2, master_seed=3)
        point, trial = np.divmod(np.arange(8), 2)
        draws = [_row_uniforms(cfg, _counters(point, trial, *index)) for index in ((0, 0), (0, 1), (1, 0))]
        assert draws[0].shape == (8, experiments.ROW_UNIFORMS)
        assert not np.any(draws[0] == draws[1]) and not np.any(draws[0] == draws[2])
        other_seed = dataclasses.replace(cfg, master_seed=2**64 - 1)
        assert not np.any(_row_uniforms(other_seed, _counters(point, trial)) == draws[0])

    def test_row_uniforms_end_before_the_slot_blocks(self):
        # a grid row reads columns 3 on for its peaks, and a sync trial's
        # slot blocks start past its row's blocks 0-5 (two uniforms a block)
        assert 3 + PEAK_UNIFORMS <= experiments.ROW_UNIFORMS <= 2 * scan._SLOT_BLOCK


class TestBenchmarkContract:
    """The benchmark's setup probe replaces experiments.run_scan to stop at the
    first scan, and its traced hook reads run_scan's sigma_w argument."""

    class Reached(Exception):
        pass

    @pytest.mark.parametrize("mode, run, peak_only", [
        ("cdf", run_cdf_experiment, True),
        ("snr-sweep", run_snr_sweep, True),
        ("sync-test", run_sync_test, False),
    ])
    def test_every_scan_goes_through_run_scan(self, monkeypatch, mode, run, peak_only):
        def sentinel(grid, *args, pilot_w=None, **kwargs):
            assert (pilot_w is None) == peak_only
            raise self.Reached

        monkeypatch.setattr(experiments, "run_scan", sentinel)
        with pytest.raises(self.Reached):
            run(ExperimentConfig(mode=mode, snr_list_db=(30.0,), **SMALL))

    def test_sync_test_scans_each_trial_once(self, monkeypatch):
        # one sync run_scan per snr, on the support of every trial's receiver;
        # the traced hook counts the samples the result holds
        calls = []

        def counting(grid, cells, power, sigma_w, draws, pilot_w, offset_steps):
            trace = run_scan(grid, cells, power, sigma_w, draws, pilot_w, offset_steps)
            calls.append((pilot_w is not None, np.shape(cells), np.shape(power), sigma_w, isinstance(trace.samples, np.ndarray)))
            return trace

        monkeypatch.setattr(experiments, "run_scan", counting)
        cfg = ExperimentConfig(mode="sync-test", azimuth_step_deg=2.0, elevation_step_deg=2.0, trials_per_point=5,
                               snr_list_db=(float("inf"), 30.0))
        sigmas = [row["sigma_w"] for row in run_sync_test(cfg).aggregates["rows"]]
        assert calls == [(True, (5, 4), (5,), sigma, True) for sigma in sigmas]

    def test_run_scan_takes_sigma_w(self):
        assert "sigma_w" in inspect.signature(experiments.run_scan).parameters

    # SHA-256 of every file a benchmark workload's CLI run writes at CLI seed
    # 3, meta.json without wall_time_s; a change that moves a byte on purpose
    # updates these and says so.  They hold under numpy's AVX-512, AVX2 and
    # baseline kernels alike: CSVs and meta.json's run and summary print nine
    # significant digits, which hide the kernels' last-bit differences
    OUTPUT_SHA256 = {
        "cdf-fixed/cdf_3d.csv": "4f72dfd327e9a11be3cd263672febf3f75ec5cb23376c244225040e441a8a9d9",
        "cdf-fixed/cdf_x.csv": "8a8913d4996f3af9fae96fb695dc9c8c2feb75d7a99deb06adaaab96f3679d08",
        "cdf-fixed/cdf_y.csv": "6e3e7d9ba5e1f77af162b836d1749550beb58860fc5fa994233faca281fb4fb2",
        "cdf-fixed/cdf_z.csv": "d732658b36801816cc692d33b8b36fe7cf77a130dfbeea5ad4b6b785a7cf67f8",
        "cdf-fixed/meta.json": "f5a509ae91c7dbdf244ddcef7e8537dfc423d97fc51ffcb5eb03b6b638dba5c1",
        "sweep-random/mean_error_vs_snr.csv": "b6e392eee7772a11b7d357e2ff509c239bf809abca2d8f67b221345eedc68cb3",
        "sweep-random/meta.json": "c4289eebbc254aae14504edc705b86bff448afe0be0f5f821a231409b37ac5e3",
        "sync-pilot/meta.json": "17ed4ae9455323ba10ca6d36aebecb4555057df2c7550284d7b25263e10138d8",
        "sync-pilot/sync_test.csv": "787e3f302307171393c65c94da42552db12d2b822ddeb727aa789b052977741f",
    }

    @staticmethod
    def _workload_argvs(tmp_path, monkeypatch, **override):
        """Each benchmark workload's CLI argv at CLI seed 3, as perfbench/run.py
        builds it, on its config with override's keys replaced."""
        # perfbench/run.py puts its own directory on sys.path when loaded
        monkeypatch.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        argvs = {}
        for name, workload in bench.WORKLOADS.items():
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({**workload["config"], **override}))
            argvs[name] = bench.cli_args(workload, config, 3, tmp_path / name)
        return argvs

    def test_benchmark_command_lines_run(self, tmp_path, monkeypatch):
        for name, argv in self._workload_argvs(tmp_path, monkeypatch, **TINY).items():
            assert cli.main(argv) == 0, name

    def test_benchmark_outputs_unchanged(self, tmp_path, monkeypatch):
        # the benchmark's own command lines, at full size
        digests = {}
        for name, argv in self._workload_argvs(tmp_path, monkeypatch).items():
            assert cli.main(argv) == 0, name
            for path in sorted((tmp_path / name).iterdir()):
                data = path.read_bytes()
                if path.name == "meta.json":
                    meta = json.loads(data)
                    del meta["wall_time_s"]
                    data = json.dumps(meta, indent=2, sort_keys=True).encode()
                digests[f"{name}/{path.name}"] = hashlib.sha256(data).hexdigest()
        assert digests == self.OUTPUT_SHA256

    def test_child_shim_runs_each_workload(self, tmp_path, monkeypatch):
        # setup_s and every per-layer metric come from perfbench/child.py,
        # which reaches into experiments and scan from a child process
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

        def child(*args):
            return subprocess.run([sys.executable, "perfbench/child.py", *args], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=60)

        for name, argv in self._workload_argvs(tmp_path, monkeypatch, **TINY).items():
            setup = child("setup", *argv)
            assert setup.returncode == 0, (name, setup.stderr)
            [line] = setup.stdout.splitlines()
            assert float(line) > 0.0  # a CLOCK_MONOTONIC reading
            spans = tmp_path / f"{name}.spans.json"
            traced = child("trace", str(spans), name, *argv)
            assert traced.returncode == 0, (name, traced.stderr)
            dump = json.loads(spans.read_text())
            assert dump["exit_code"] == 0, name
            assert dump["counters"]["scan.slots_noised"] > 0, name
