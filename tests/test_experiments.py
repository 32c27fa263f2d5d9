import dataclasses
import importlib.util
import inspect
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from vlp_sim import cli, experiments
from vlp_sim.estimator import STATUS_LOW_SIGNAL
from vlp_sim.experiments import (
    ExperimentConfig,
    compute_cdf,
    percentile,
    reference_peak_power,
    run_cdf_experiment,
    run_snr_sweep,
    run_sync_test,
    sample_positions,
    scan_trial,
)
from vlp_sim.channel import noise_sigma_for_snr
from vlp_sim.geometry import ReceiverState, build_beam_grid, incidence_cosine
from vlp_sim.io import build_experiment, load_config
from vlp_sim.scan import ScanPlan

# coarse setup keeps module tests fast; acceptance runs the full defaults
SMALL = dict(grid_spacing_m=0.5, trials_per_point=2)


class TestConfigValidation:
    def test_defaults_build(self):
        cfg = ExperimentConfig()
        assert cfg.trials == 5
        assert ExperimentConfig(mode="snr-sweep", snr_list_db=(20,)).trials == 20
        assert ExperimentConfig(mode="sync-test").trials == 1000

    def test_bad_height_band(self):
        with pytest.raises(ValueError):
            ExperimentConfig(h_min_m=2.0, h_max_m=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(h_max_m=3.5)

    def test_spacing_must_divide_room(self):
        with pytest.raises(ValueError):
            ExperimentConfig(grid_spacing_m=0.3)

    def test_empty_snr_list(self):
        with pytest.raises(ValueError):
            ExperimentConfig(snr_list_db=())

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="warp")


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


class TestNoiseSigma:
    """Each runner turns its SNR into sigma against the power it records."""

    def test_snr_anchored_to_grid_average_power(self):
        cfg = ExperimentConfig(mode="cdf", snr_list_db=(40.0,), **SMALL)
        res = run_cdf_experiment(cfg)
        p_ref = res.metadata["reference_power_w"]
        assert p_ref == reference_peak_power(cfg)
        assert res.aggregates["sigma_w"] == p_ref / 100.0

    def test_sweep_rows_anchored_to_grid_average_power(self):
        cfg = ExperimentConfig(mode="snr-sweep", snr_list_db=(20.0, 35.0, 50.0), trials_per_point=1,
                               orientation_modes=("fixed", "random-euler"), grid_spacing_m=0.5)
        res = run_snr_sweep(cfg)
        p_ref = res.metadata["reference_power_w"]
        assert p_ref == reference_peak_power(cfg)
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


class TestRunCdfExperiment:
    def test_determinism(self):
        cfg = ExperimentConfig(mode="cdf", master_seed=5, snr_list_db=(40.0,), **SMALL)
        a = run_cdf_experiment(cfg)
        b = run_cdf_experiment(cfg)
        for key in ("cdf_3d", "cdf_x", "cdf_y", "cdf_z"):
            np.testing.assert_array_equal(a.aggregates[key], b.aggregates[key])

    def test_threads_do_not_change_results(self):
        # the threads key is still accepted for replay; runs are sequential
        base = dict(mode="cdf", seed=5, snr_db=[40.0], **SMALL)
        cfg1, cfg4 = (build_experiment(load_config(overrides={**base, "threads": n})[0]) for n in (1, 4))
        np.testing.assert_array_equal(
            run_cdf_experiment(cfg1).aggregates["cdf_3d"],
            run_cdf_experiment(cfg4).aggregates["cdf_3d"],
        )

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

    def test_noiseless_errors_are_pure_quantization(self):
        cfg = ExperimentConfig(mode="cdf", master_seed=4, snr_list_db=(float("inf"),), **SMALL)
        plan = ScanPlan(build_beam_grid(), peak_only=True)
        rec = experiments._run_grid(cfg, plan, sample_positions(cfg), cfg.orientation, 0.0, seed_ctx=(0, 0))
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


def _grid_trials(plan, seed, snr, mode, trials):
    """err_3d and statuses of a whole 0.25 m grid pass under the given plan."""
    cfg = ExperimentConfig(mode="cdf", grid_spacing_m=0.25, trials_per_point=trials, master_seed=seed)
    sigma = noise_sigma_for_snr(reference_peak_power(cfg), snr)
    ori = dataclasses.replace(cfg.orientation, mode=mode)
    return experiments._run_grid(cfg, plan, sample_positions(cfg), ori, sigma, seed_ctx=(0, 0))


class TestPeakOnlyEquivalence:
    """The peak-only trace is sampled from the same law as the dense oracle."""

    @pytest.mark.parametrize("mode", ["fixed", "random-euler"])
    def test_noiseless_estimates_identical(self, mode):
        cfg = ExperimentConfig(grid_spacing_m=0.25)
        grid = build_beam_grid()
        ori = dataclasses.replace(cfg.orientation, mode=mode)
        for i, point in enumerate(sample_positions(cfg)):
            dense, peak = (
                scan_trial(cfg, plan, ori, point, 0.0, experiments._trial_rng(3, i))[1]
                for plan in (ScanPlan(grid), ScanPlan(grid, peak_only=True))
            )
            np.testing.assert_array_equal(dense.position, peak.position)
            assert (dense.beam_index, dense.distance_m, dense.status, dense.assumed_cos_psi) == (
                peak.beam_index, peak.distance_m, peak.status, peak.assumed_cos_psi)

    @pytest.mark.parametrize("mode", ["fixed", "random-euler"])
    @pytest.mark.parametrize("snr", [20.0, 30.0, 40.0])
    def test_error_law_matches_dense(self, snr, mode):
        # independent streams: dense seed 1001, peak-only seed 2002; n = 1,100 each
        grid = build_beam_grid()
        dense = _grid_trials(ScanPlan(grid), 1001, snr, mode, trials=4)
        peak = _grid_trials(ScanPlan(grid, peak_only=True), 2002, snr, mode, trials=4)
        n = len(dense["err_3d"])
        assert n == len(peak["err_3d"]) >= 1000
        assert stats.ks_2samp(dense["err_3d"], peak["err_3d"]).pvalue > 0.01
        low = [int((rec["status"] == STATUS_LOW_SIGNAL).sum()) for rec in (dense, peak)]
        rate = sum(low) / (2 * n)
        assert abs(low[0] - low[1]) <= 4.0 * np.sqrt(2 * n * rate * (1.0 - rate))


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
        def sentinel(plan, *args, **kwargs):
            assert plan.peak_only is peak_only
            raise self.Reached

        monkeypatch.setattr(experiments, "run_scan", sentinel)
        with pytest.raises(self.Reached):
            run(ExperimentConfig(mode=mode, snr_list_db=(30.0,), **SMALL))

    def test_run_scan_takes_sigma_w(self):
        assert "sigma_w" in inspect.signature(experiments.run_scan).parameters

    def test_benchmark_command_lines_run(self, tmp_path, monkeypatch):
        # perfbench/run.py puts its own directory on sys.path when loaded
        monkeypatch.setattr(sys, "path", list(sys.path))
        path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
        spec = importlib.util.spec_from_file_location("perfbench_run", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        for name, workload in bench.WORKLOADS.items():
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({**workload["config"], "grid_spacing_m": 0.5, "trials_per_point": 1}))
            argv = bench.cli_args(workload, config, 3, tmp_path / name)
            assert cli.main(argv) == 0, name
