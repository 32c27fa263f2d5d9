import itertools
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vlp_sim.cli import main
from vlp_sim.estimator import STATUS_NAMES
from vlp_sim.experiments import ExperimentConfig, run_cdf_experiment, run_scan_demo
from vlp_sim.io import CONFIG_DEFAULTS, ConfigError, build_experiment, load_config, write_results
from vlp_sim.scan import MAX_PILOT_LEN

# small, fast run shapes shared by the CLI tests
TINY = {"grid_spacing_m": 0.5, "trials_per_point": 1, "snr_db": [40.0]}

# a grid run whose blocks hold passes of both modes and several snr values
TWO_MODES = {"orientation_modes": ["fixed", "random-euler"]}

CDF_FILES = ("cdf_3d.csv", "cdf_x.csv", "cdf_y.csv", "cdf_z.csv")

TRACE_HEADER = "index,beam_azimuth_deg,beam_elevation_deg,power_watts"

# keys that drove no output, with their last defaults: four retired in 0.4,
# mode (the subcommand names the run) in 0.6
RETIRED_KEYS = {"threads": 1, "dwell_time_s": 3e-5, "bandwidth_ghz": 2.0, "noise_variance_w_hz": 5e-14, "mode": "cdf"}

# a valid value per config key, other than its default and TINY's; numeric
# keys not listed get default + 1
OTHER_VALUES = {
    "orientation_mode": "random-euler", "orientation_modes": TWO_MODES["orientation_modes"],
    "snr_db": [30.0], "trials_per_point": 3, "room_height_m": 4.0, "azimuth_step_deg": 2.0,
    "elevation_step_deg": 2.0, "grid_spacing_m": 0.25, "h_max_m": 2.0, "fov_deg": 90.0,
}

# the subcommand, and the config beside TINY, in which a key acts; every
# other key acts in a plain cdf run
_EULER = ("cdf", {"orientation_mode": "random-euler"})
# at the default elevation, straight up with no spread, the azimuth moves nothing
_SPHERICAL = ("cdf", {"orientation_mode": "random-spherical", "mu_theta_deg": 60.0, "sigma_theta_deg": 10.0})
KEY_CONTEXTS = {
    "orientation_modes": ("snr-sweep", {}),
    "pilot_length": ("sync-test", {}),
    **{f"{p}_{angle}_deg": _EULER for p in ("mu", "sigma") for angle in ("alpha", "beta", "gamma")},
    **{f"{p}_{angle}_deg": _SPHERICAL for p in ("mu", "sigma") for angle in ("phi", "theta")},
}


def other_value(key):
    return OTHER_VALUES[key] if key in OTHER_VALUES else CONFIG_DEFAULTS[key] + 1


def write_tiny_config(tmp_path, extra=None, command="cdf"):
    payload = dict(TINY)
    if command == "scan-demo":  # one trial, which takes no trials_per_point
        del payload["trials_per_point"]
    payload.update(extra or {})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def demo_result(pilot_length=3):
    """A scan-demo run on a 90 x 45 degree beam grid: its pilot, then 8
    beams; with its resolved config and applied defaults."""
    resolved, applied = load_config(None, {"azimuth_step_deg": 90.0, "elevation_step_deg": 45.0,
                                           "pilot_length": pilot_length})
    return run_scan_demo(build_experiment(resolved, "scan-demo")), resolved, applied


class TestLoadConfig:
    def test_defaults_when_no_file(self):
        resolved, applied = load_config(None, {})
        assert resolved["p_opt_watts"] == 1e-3
        assert resolved["wavelength_nm"] == 950.0
        assert applied == sorted(CONFIG_DEFAULTS)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"wavelenght_nm": 950}')
        with pytest.raises(ConfigError, match="wavelenght_nm"):
            load_config(str(path), {})

    def test_file_values_not_counted_as_defaults(self, tmp_path):
        path = write_tiny_config(tmp_path)
        resolved, applied = load_config(path, {})
        assert resolved["grid_spacing_m"] == 0.5
        assert "grid_spacing_m" not in applied
        assert "room_width_m" in applied

    def test_overrides_win(self, tmp_path):
        path = write_tiny_config(tmp_path)
        resolved, _ = load_config(path, {"seed": 99, "snr_db": [20.0, 30.0]})
        assert resolved["seed"] == 99
        assert resolved["snr_db"] == [20.0, 30.0]

    def test_orientation_alias(self):
        resolved, _ = load_config(None, {"orientation_mode": "random"})
        assert resolved["orientation_mode"] == "random-euler"

    def test_scalar_snr_normalized(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"snr_db": 25}')
        resolved, _ = load_config(str(path), {})
        assert resolved["snr_db"] == [25.0]

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"room_width_m": "wide"}')
        with pytest.raises(ConfigError):
            load_config(str(path), {})

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json", {})


class TestBuildExperiment:
    def test_unit_conversions(self):
        resolved, _ = load_config(None, {})
        cfg = build_experiment(resolved, "cdf")
        assert cfg.channel.wavelength_m == pytest.approx(950e-9)
        assert cfg.channel.waist_m == pytest.approx(5.9e-6)
        assert cfg.channel.pd_area_m2 == pytest.approx(1e-4)
        assert cfg.room.height_m == 3.0

    def test_every_key_changes_the_run(self, tmp_path):
        # a key that moves no output byte is a knob that does nothing: each
        # key's other value makes a tiny CLI run in the subcommand and context
        # where it acts, with no --seed flag, which would hide the seed key
        runs = itertools.count()

        def outputs(command, config):
            path, out = tmp_path / "config.json", tmp_path / f"out{next(runs)}"
            path.write_text(json.dumps({**TINY, **config}))
            assert main([command, "--config", str(path), "--out", str(out)]) == 0, (command, config)
            meta = json.loads((out / "meta.json").read_text())
            for echo in ("wall_time_s", "config", "applied_defaults"):
                del meta[echo]
            return meta, {p.name: p.read_bytes() for p in out.glob("*.csv")}

        base, unchanged = {}, set()
        for key in CONFIG_DEFAULTS:
            command, context = KEY_CONTEXTS.get(key, ("cdf", {}))
            assert other_value(key) != {**CONFIG_DEFAULTS, **TINY, **context}[key], key
            name = json.dumps([command, context])
            if name not in base:
                base[name] = outputs(command, context)
            if outputs(command, {**context, key: other_value(key)}) == base[name]:
                unchanged.add(key)
        assert unchanged == set()

    def test_cli_defaults_are_the_experiment_defaults(self):
        # the acceptance suite builds ExperimentConfig(); the CLI builds from CONFIG_DEFAULTS
        assert build_experiment(load_config(None, {})[0], "cdf") == ExperimentConfig()

    def test_invalid_combination_becomes_config_error(self):
        resolved, _ = load_config(None, {"grid_spacing_m": 0.3})
        with pytest.raises(ConfigError):
            build_experiment(resolved, "cdf")

    def test_meta_round_trip_rebuilds_identical_config(self, tmp_path):
        resolved, applied = load_config(None, dict(TINY, seed=3))
        cfg = build_experiment(resolved, "cdf")
        result = run_cdf_experiment(cfg)
        write_results(result, tmp_path, resolved, applied, wall_time_s=1.23)
        meta = json.loads((tmp_path / "meta.json").read_text())
        rebuilt = build_experiment(meta["config"], meta["mode"])
        assert rebuilt == cfg


class TestWriteResults:
    def _result(self):
        resolved, applied = load_config(None, dict(TINY, seed=8))
        cfg = build_experiment(resolved, "cdf")
        return run_cdf_experiment(cfg), resolved, applied

    def test_cdf_file_set_and_format(self, tmp_path):
        result, resolved, applied = self._result()
        files = write_results(result, tmp_path, resolved, applied, wall_time_s=0.5)
        names = sorted(f.name for f in files)
        assert names == ["cdf_3d.csv", "cdf_x.csv", "cdf_y.csv", "cdf_z.csv", "meta.json"]
        lines = (tmp_path / "cdf_3d.csv").read_text().splitlines()
        assert lines[0] == "error_m,cdf"
        assert lines[-1].endswith(",1")
        assert len(lines) == 1 + result.aggregates["n_valid"]

    def test_nine_significant_digits(self, tmp_path):
        result, resolved, applied = self._result()
        write_results(result, tmp_path, resolved, applied)
        first_value = (tmp_path / "cdf_3d.csv").read_text().splitlines()[1].split(",")[0]
        assert float(first_value) == pytest.approx(
            float(result.aggregates["cdf_3d"][0][0]), rel=1e-8
        )

    def test_empty_valid_set_writes_nothing(self, tmp_path):
        result, resolved, applied = self._result()
        result.aggregates["n_valid"] = 0
        out = tmp_path / "empty"
        with pytest.raises(ValueError):
            write_results(result, out, resolved, applied)
        assert not out.exists()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_files_honour_the_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            for name, (result, resolved, applied) in (("cdf", self._result()), ("demo", demo_result())):
                write_results(result, tmp_path / name, resolved, applied)
        finally:
            os.umask(old)
        modes = {str(f.relative_to(tmp_path)): stat.S_IMODE(f.stat().st_mode) for f in tmp_path.glob("*/*")}
        names = [*(f"cdf/{name}" for name in CDF_FILES), "cdf/meta.json", "demo/scan_trace.csv", "demo/meta.json"]
        assert modes == dict.fromkeys(names, mode)

    def test_meta_records_defaults_and_version(self, tmp_path):
        result, resolved, applied = self._result()
        write_results(result, tmp_path, resolved, applied, wall_time_s=2.0)
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["applied_defaults"] == applied
        assert meta["config"]["grid_spacing_m"] == 0.5
        assert meta["code_version"]
        assert "snr_db = 20*log10" in meta["snr_definition"]
        assert meta["wall_time_s"] == 2.0

    def test_cdf_summary_key_set(self, tmp_path):
        result, resolved, applied = self._result()
        write_results(result, tmp_path, resolved, applied)
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert set(meta["summary"]) == {
            "n_samples", "n_valid", "outage_frac", "clamp_frac", "low_signal_frac", "sigma_w",
            "snr_db", "p50_3d_m", "p90_3d_m", "p95_3d_m",
            "subcm_frac_3d", "subcm_frac_x", "subcm_frac_y", "subcm_frac_z",
        }


class TestWriteTrace:
    def test_pilot_rows_have_empty_angles(self, tmp_path):
        result, resolved, applied = demo_result()
        files = write_results(result, tmp_path, resolved, applied)
        assert sorted(f.name for f in files) == ["meta.json", "scan_trace.csv"]
        lines = (tmp_path / "scan_trace.csv").read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == [str(i) for i in range(11)]
        assert lines[1].split(",")[1:3] == ["", ""]
        assert lines[4].split(",")[1:3] == ["0", "0"]
        assert lines[-1].split(",")[1:3] == ["270", "45"]
        _, _, power = result.aggregates["trace"]
        assert [float(line.split(",")[3]) for line in lines[1:]] == pytest.approx(power, rel=1e-8)

    def test_summary_holds_the_fix_not_the_trace(self, tmp_path):
        result, resolved, applied = demo_result()
        write_results(result, tmp_path, resolved, applied)
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert set(meta["summary"]) == {"receiver_m", "estimate_m", "status", "error_m", "sigma_w"}
        assert meta["summary"]["status"] in STATUS_NAMES
        assert meta["mode"] == "scan-demo" and meta["run"]["trials"] == 1


class TestCli:
    def test_cdf_writes_expected_files(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["cdf", "--config", write_tiny_config(tmp_path), "--seed", "7",
                     "--orientation", "fixed", "--snr", "40", "--out", str(out)])
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "cdf_3d.csv", "cdf_x.csv", "cdf_y.csv", "cdf_z.csv", "meta.json",
        ]
        captured = capsys.readouterr()
        assert captured.out == ""  # data only to files, diagnostics to stderr
        assert "wrote" in captured.err

    def test_snr_sweep_row_per_snr(self, tmp_path):
        out = tmp_path / "out"
        code = main(["snr-sweep", "--config", write_tiny_config(tmp_path),
                     "--snr", "20,30,40", "--seed", "1", "--out", str(out)])
        assert code == 0
        lines = (out / "mean_error_vs_snr.csv").read_text().splitlines()
        assert lines[0] == "snr_db,mean_error_m,outage_frac,clamp_frac,orientation_mode"
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "20"
        assert lines[1].split(",")[-1] == "fixed"

    def test_sync_test_output(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_tiny_config(tmp_path, {"trials_per_point": 25})
        code = main(["sync-test", "--config", cfg, "--snr", "inf", "--seed", "2",
                     "--out", str(out)])
        assert code == 0
        lines = (out / "sync_test.csv").read_text().splitlines()
        assert lines[0] == (
            "snr_db,mismatch_rate,mean_error_synced_m,mean_error_realigned_m,mean_error_naive_m"
        )
        assert lines[1].split(",")[1] == "0"
        # the sync SNR is anchored to the pilot on-level, the 1 mW default p_opt
        meta = json.loads((out / "meta.json").read_text())
        assert meta["run"]["reference_power_w"] == 1e-3

    def test_scan_demo_trace(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["scan-demo", "--config", write_tiny_config(tmp_path, command="scan-demo"),
                     "--rx", "0.3,0.4,1.2", "--seed", "3", "--out", str(out)])
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["meta.json", "scan_trace.csv"]
        err = capsys.readouterr().err
        assert f"wrote {out / 'scan_trace.csv'}" in err and "scan-demo finished in" in err
        summary = json.loads((out / "meta.json").read_text())["summary"]
        assert summary["receiver_m"] == [0.3, 0.4, 1.2]
        lines = (out / "scan_trace.csv").read_text().splitlines()
        assert len(lines) == 1 + 64 + 32400
        assert lines[1].split(",")[1] == ""  # pilot row
        assert lines[65].split(",")[1:3] == ["0", "0"]

    def test_scan_demo_without_a_pilot(self, tmp_path):
        out = tmp_path / "out"
        code = main(["scan-demo", "--config", write_tiny_config(tmp_path, {"pilot_length": 0}, "scan-demo"),
                     "--rx", "0.3,0.4,1.2", "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = (out / "scan_trace.csv").read_text().splitlines()
        assert len(lines) == 1 + 32400
        assert lines[1].split(",")[:3] == ["0", "0", "0"]  # the first beam's row, no pilot row

    def test_scan_demo_default_receiver_is_in_the_sampled_band(self, tmp_path):
        # the grid samples heights up to half a metre under the 3 m ceiling,
        # not h_max: the default receiver sits halfway up 2.4 to 2.5 m
        out = tmp_path / "out"
        config = write_tiny_config(tmp_path, {"h_min_m": 2.4, "h_max_m": 3.0}, "scan-demo")
        assert main(["scan-demo", "--config", config, "--out", str(out)]) == 0
        assert json.loads((out / "meta.json").read_text())["summary"]["receiver_m"] == [0.5, 0.5, 2.45]

    def test_scan_demo_with_trials_per_point_exits_one_before_work(self, tmp_path, capsys):
        # its one trial is row 0: a trial count would be ignored
        out = tmp_path / "out"
        assert main(["scan-demo", "--config", write_tiny_config(tmp_path), "--out", str(out)]) == 1
        assert "error: scan-demo runs one trial" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        for command, flags in (("cdf", []), ("scan-demo", ["--snr", "30", "--orientation", "random"])):
            cfg = write_tiny_config(tmp_path, command=command)
            out_a, out_b = tmp_path / command / "a", tmp_path / command / "b"
            for out in (out_a, out_b):
                assert main([command, "--config", cfg, "--seed", "11", *flags, "--out", str(out)]) == 0
            for path in out_a.glob("*.csv"):
                assert (out_b / path.name).read_bytes() == path.read_bytes(), path.name
            meta_a = json.loads((out_a / "meta.json").read_text())
            meta_b = json.loads((out_b / "meta.json").read_text())
            meta_a.pop("wall_time_s"), meta_b.pop("wall_time_s")
            assert meta_a == meta_b

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["cdf", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exits_one(self, capsys):
        assert main(["warp"]) == 1

    def test_bad_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        out = tmp_path / "out"
        for text, message in [
            ('{"no_such_key": 1}', "no_such_key"),
            ("seed = 3", "is not valid JSON"),
            ('[{"seed": 3}]', "must hold a JSON object"),
        ]:
            path.write_text(text)
            assert main(["cdf", "--config", str(path), "--out", str(out)]) == 1
            assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra",
        [
            {"snr_db": [float("nan")]},
            {"snr_db": [float("-inf")]},
            {"snr_db": "40"},
            {"snr_db": [True]},
            {"room_width_m": float("inf")},
            {"mu_alpha_deg": float("nan")},
            {"seed": 5.5},
            {"threads": 2.5},
            {"threads": 0},
            {"threads": -1},
            {"trials_per_point": 1.7},
            {"pilot_length": 3.9},
            {"pilot_length": -1},
            {"dwell_time_s": -1},
            {"dwell_time_s": 0},
            {"snr_db": None},
            {"fov_deg": 0},
            {"fov_deg": 200},
            {"azimuth_step_deg": 7},
            {"elevation_step_deg": 0},
            {"grid_spacing_m": 0},
            {"grid_spacing_m": -0.5},
            {"grid_spacing_m": 1e12},
            {"azimuth_step_deg": 1e12},
            {"elevation_step_deg": 1e12},
            {"bandwidth_ghz": 0},
            {"noise_variance_w_hz": -1},
            {"h_min_m": 2.6, "h_max_m": 2.8},
            {"snr_db": [20, 30]},
            {"seed": 2**64},
            {"orientation_modes": ["random-euler"]},
            {"trials_per_point": 0},
        ],
    )
    def test_malformed_number_exits_one_before_work(self, tmp_path, capsys, extra):
        out = tmp_path / "out"
        for command in ("cdf", "scan-demo"):
            assert main([command, "--config", write_tiny_config(tmp_path, extra, command), "--out", str(out)]) == 1
            assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_unparsable_snr_exits_one_before_work(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["cdf", "--config", write_tiny_config(tmp_path), "--snr", "20,abc", "--out", str(out)]) == 1
        assert "bad --snr value '20,abc'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, commands",
        [
            ({"orientation_mode": "sideways"}, ["cdf", "snr-sweep", "sync-test", "scan-demo"]),
            ({"orientation_modes": ["sideways"]}, ["snr-sweep", "scan-demo"]),
        ],
        ids=["orientation-mode", "orientation-modes"],
    )
    def test_unknown_mode_exits_one_before_work(self, tmp_path, capsys, extra, commands):
        # the run's dataclasses reject the value, and name it
        out = tmp_path / "out"
        for command in commands:
            config = write_tiny_config(tmp_path, extra, command)
            assert main([command, "--config", config, "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and repr("sideways") in err
        assert not out.exists()

    @pytest.mark.parametrize("snr", ["-7000", "-6300", "7000"])
    def test_snr_without_a_finite_sigma_exits_one_before_work(self, tmp_path, capsys, snr):
        # 10^(snr / 20) underflows to 0 or overflows, or the reference power
        # over it does: no noise sigma to draw with, in any command
        out = tmp_path / "out"
        for command in ("cdf", "snr-sweep", "sync-test", "scan-demo"):
            config = write_tiny_config(tmp_path, {} if command == "scan-demo" else {"trials_per_point": 2}, command)
            assert main([command, "--config", config, f"--snr={snr}", "--out", str(out)]) == 1
            assert "no positive finite noise sigma" in capsys.readouterr().err
        assert not out.exists()

    def test_snr_whose_noise_overflows_exits_one_before_work(self, tmp_path, capsys):
        # at -6240 dB the grid-average power (about 1.4e-5 W) gives a finite
        # sigma of about 1.4e307 W, whose peaks overflow the range inversion;
        # the sync test's 1 mW reference gives no finite sigma at all
        out = tmp_path / "out"
        for command in ("cdf", "snr-sweep", "sync-test", "scan-demo"):
            config = write_tiny_config(tmp_path, {} if command == "scan-demo" else {"trials_per_point": 2}, command)
            assert main([command, "--config", config, "--snr=-6240", "--out", str(out)]) == 1
            assert "error: snr -6240 dB gives" in capsys.readouterr().err
        assert not out.exists()

    def test_snr_is_checked_against_the_runs_own_reference(self, tmp_path, capsys):
        # at -6200 dB the grid-average power (about 1.4e-5 W) gives a sigma
        # a run admits, the 1 mW pilot on-level of a sync test does not; the
        # grid runs raise no warning, which the suite makes an error
        out = tmp_path / "out"
        config = write_tiny_config(tmp_path, {"trials_per_point": 2})
        assert main(["sync-test", "--config", config, "--snr=-6200", "--out", str(out)]) == 1
        assert "above the largest a run admits" in capsys.readouterr().err
        assert not out.exists()
        for command in ("cdf", "snr-sweep"):
            assert main([command, "--config", config, "--snr=-6200", "--out", str(out)]) == 0

    @pytest.mark.parametrize("p_opt", [1e154, 1e300])
    def test_pilot_whose_scores_overflow_exits_one_before_work(self, tmp_path, capsys, p_opt):
        # the pilot sits at p_opt_watts: from about 1e154 W the correlator's
        # level x sample products pass float max, even noiseless
        out = tmp_path / "out"
        config = write_tiny_config(tmp_path, {"p_opt_watts": p_opt, "trials_per_point": 20})
        assert main(["sync-test", "--config", config, "--snr", "inf,20", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "correlator scores" in err and "p_opt_watts" in err
        assert not out.exists()

    def test_strong_pilot_under_the_bound_still_syncs(self, tmp_path):
        out = tmp_path / "out"
        config = write_tiny_config(tmp_path, {"p_opt_watts": 1e150, "trials_per_point": 20})
        assert main(["sync-test", "--config", config, "--snr", "inf", "--out", str(out)]) == 0
        [row] = (out / "sync_test.csv").read_text().splitlines()[1:]
        assert row.split(",")[:2] == ["inf", "0"]

    @pytest.mark.parametrize("rx", ["5,0.4,1.2", "0.3,0.4,nan", "0.3,0.4,3", "0.5,0.5"])
    def test_scan_demo_rx_outside_exits_one_before_work(self, tmp_path, capsys, rx):
        out = tmp_path / "out"
        code = main(["scan-demo", "--config", write_tiny_config(tmp_path, command="scan-demo"), "--rx", rx,
                     "--out", str(out)])
        assert code == 1
        assert "bad --rx value" in capsys.readouterr().err
        assert not out.exists()

    def test_scan_demo_with_several_snrs_exits_one_before_work(self, tmp_path, capsys):
        # a sweep's snr list must not run at its first value
        out = tmp_path / "out"
        config = write_tiny_config(tmp_path, command="scan-demo")
        assert main(["scan-demo", "--config", config, "--snr", "20,30", "--out", str(out)]) == 1
        assert "exactly one snr" in capsys.readouterr().err
        assert not out.exists()

    def test_orientation_modes_outside_sweep_exits_one_before_work(self, tmp_path, capsys):
        out = tmp_path / "out"
        for command in ("cdf", "sync-test", "scan-demo"):
            config = write_tiny_config(tmp_path, {"orientation_modes": ["random-euler"]}, command)
            assert main([command, "--config", config, "--out", str(out)]) == 1
            assert "orientation_modes" in capsys.readouterr().err
        assert not out.exists()
        config = write_tiny_config(tmp_path, {"orientation_modes": ["random-euler"]})
        assert main(["snr-sweep", "--config", config, "--out", str(out)]) == 0

    def test_orientation_flag_wins_over_orientation_modes(self, tmp_path):
        # snr-sweep runs the flag's mode, not the file's, and meta.json echoes
        # the modes it ran; the alias resolves as orientation_mode's does
        config = write_tiny_config(tmp_path, {"orientation_modes": ["fixed"]})
        for flag, mode in (("random-euler", "random-euler"), ("random", "random-euler"), ("fixed", "fixed")):
            out = tmp_path / flag
            assert main(["snr-sweep", "--config", config, "--orientation", flag, "--out", str(out)]) == 0
            [row] = (out / "mean_error_vs_snr.csv").read_text().splitlines()[1:]
            assert row.split(",")[-1] == mode, flag
            meta = json.loads((out / "meta.json").read_text())
            assert meta["config"]["orientation_mode"] == mode
            assert meta["config"]["orientation_modes"] == [mode]

    @pytest.mark.parametrize(
        "extra",
        [
            {"orientation_modes": []},
            {"orientation_modes": 3},
            {"orientation_modes": "fixed"},
            {"orientation_modes": [["fixed"]]},
            {"orientation_mode": ["fixed"]},
        ],
        ids=["modes-empty", "modes-number", "modes-string", "modes-nested", "mode-list"],
    )
    def test_malformed_orientation_modes_exit_one_before_work(self, tmp_path, capsys, extra):
        # neither a silent fallback to orientation_mode nor a Python traceback
        out = tmp_path / "out"
        assert main(["snr-sweep", "--config", write_tiny_config(tmp_path, extra), "--out", str(out)]) == 1
        assert "error: orientation_mode" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _loaded_after_run(tmp_path, argv, extra, modules):
        """Which of `modules` a fresh interpreter holds after running `argv`
        through cli.main on the tiny config."""
        src = Path(__file__).resolve().parent.parent / "src"
        argv = argv + ["--config", write_tiny_config(tmp_path, extra, argv[0]), "--out", str(tmp_path / "out")]
        code = (f"import sys, vlp_sim.cli; assert vlp_sim.cli.main({argv!r}) == 0; "
                f"print([m for m in {modules!r} if m in sys.modules])")
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_import_loads_no_scipy_or_thread_pool(self):
        # scipy is a test-only extra; neither belongs in the CLI's start-up cost
        src = Path(__file__).resolve().parent.parent / "src"
        code = "import sys, vlp_sim.cli; print(sorted({'scipy', 'concurrent.futures'} & set(sys.modules)))"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2
                        or "openblas" not in np.__config__.CONFIG["Build Dependencies"]["blas"]["name"],
                        reason="reads /proc; only OpenBLAS with 2 CPUs or more starts a worker thread")
    def test_import_starts_no_blas_worker(self):
        # no run makes a BLAS call, so OpenBLAS's worker thread only costs
        # start-up CPU; a caller's OPENBLAS_NUM_THREADS stands
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import re, vlp_sim.cli; "
                "print(re.search(r'^Threads:\\s*(\\d+)', open('/proc/self/status').read(), re.M)[1])")
        blas = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas} | {"PYTHONPATH": str(src)}
        for extra, threads in (({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")):
            out = subprocess.run([sys.executable, "-c", code], env=env | extra, capture_output=True, text=True,
                                 check=True)
            assert out.stdout.strip() == threads, extra

    @pytest.mark.parametrize("argv, extra", [
        (["cdf"], None),
        (["snr-sweep"], None),
        (["snr-sweep", "--snr", "inf,20,40"], TWO_MODES),
        # 200 sync trials: a batch large enough for numpy's set operations to sort
        (["sync-test"], {"trials_per_point": 200}),
        (["scan-demo", "--rx", "0.3,0.4,1.2"], None),
    ], ids=["cdf", "snr-sweep", "snr-sweep-two-modes", "sync-test", "scan-demo"])
    def test_run_loads_no_numpy_ma(self, tmp_path, argv, extra):
        # numpy >= 2 imports numpy.ma on a process's first np.unique,
        # np.percentile or np.quantile call: about 20 ms inside the timed run
        assert self._loaded_after_run(tmp_path, argv, extra, ["numpy.ma"]) == "[]"

    @pytest.mark.parametrize("argv, extra", [
        (["cdf"], None),
        (["snr-sweep"], None),
        (["snr-sweep", "--snr", "inf,20,40"], TWO_MODES),
        (["sync-test", "--snr", "inf,20"], {"trials_per_point": 200}),
        # under 12 dB many trials complete their traces, from their Philox rows too
        (["sync-test", "--snr", "10"], {"trials_per_point": 200}),
        # its one trace is a row's completed trace, noisy at the config's 40 dB
        (["scan-demo", "--rx", "0.3,0.4,1.2"], None),
    ], ids=["cdf", "snr-sweep", "snr-sweep-two-modes", "sync-test-sparse", "sync-test-low-snr", "scan-demo"])
    def test_run_loads_no_numpy_random(self, tmp_path, argv, extra):
        # numpy imports numpy.random on first use: about 20 ms inside the
        # timed run, and src/ builds no generator; runs are single-threaded
        # and scipy is a test-only extra
        heavy = ["numpy.random", "scipy", "concurrent.futures"]
        assert self._loaded_after_run(tmp_path, argv, extra, heavy) == "[]"

    def test_pilot_longer_than_its_table_exits_one_before_work(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_tiny_config(tmp_path, {"pilot_length": MAX_PILOT_LEN + 1})
        assert main(["sync-test", "--config", config, "--out", str(out)]) == 1
        assert "pilot" in capsys.readouterr().err
        assert not out.exists()
        config = write_tiny_config(tmp_path, {"pilot_length": MAX_PILOT_LEN, "snr_db": [float("inf")]})
        assert main(["sync-test", "--config", config, "--out", str(out)]) == 0

    def test_sync_test_without_pilot_exits_one_before_work(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_tiny_config(tmp_path, {"pilot_length": 0})
        assert main(["sync-test", "--config", config, "--out", str(out)]) == 1
        assert "pilot" in capsys.readouterr().err
        assert not out.exists()

    def test_noiseless_snr_and_integral_floats_accepted(self, tmp_path):
        out = tmp_path / "out"
        extra = {"snr_db": [float("inf")], "seed": 5.0, "room_height_m": 4.0}
        assert main(["cdf", "--config", write_tiny_config(tmp_path, extra), "--out", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["run"]["master_seed"] == 5
        assert meta["config"]["room_height_m"] == 4.0

    def test_run_with_no_valid_sample_exits_two_and_writes_nothing(self, tmp_path, capsys):
        # a 0.001 degree field of view sees the emitter from no grid point
        out = tmp_path / "onv" / "sub"
        extra = {"grid_spacing_m": 1 / 3, "fov_deg": 0.001}
        assert main(["cdf", "--config", write_tiny_config(tmp_path, extra), "--out", str(out)]) == 2
        assert "no non-outage samples" in capsys.readouterr().err
        assert not (tmp_path / "onv").exists()

    def test_runtime_error_exits_two(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code = main(["cdf", "--config", write_tiny_config(tmp_path), "--out",
                     str(blocker / "sub")])
        assert code == 2
        assert "runtime error" in capsys.readouterr().err

    def test_threads_flag_is_ignored(self, tmp_path):
        # --threads is still accepted, but no config key takes it and no output shows it
        config = write_tiny_config(tmp_path)
        outs = {}
        for name, flags in (("base", []), ("flag", ["--threads", "3"])):
            outs[name] = tmp_path / name
            assert main(["cdf", "--config", config, *flags, "--out", str(outs[name])]) == 0
        for name in CDF_FILES:
            assert (outs["flag"] / name).read_bytes() == (outs["base"] / name).read_bytes(), name
        meta = (outs["flag"] / "meta.json").read_text()
        assert "threads" not in meta

    @pytest.mark.parametrize("key", sorted(RETIRED_KEYS))
    def test_retired_key_exits_one_before_work(self, tmp_path, capsys, key):
        # even at its old default: the key drove nothing, so a config holding it is stale
        out = tmp_path / "out"
        config = write_tiny_config(tmp_path, {key: RETIRED_KEYS[key], "trials_per_point": 2})
        for command in ("cdf", "snr-sweep", "sync-test", "scan-demo"):
            assert main([command, "--config", config, "--out", str(out)]) == 1
            assert f"error: unknown config keys: {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, extra", [
        (["cdf", "--seed", "4"], None),
        (["snr-sweep", "--snr", "inf,20,40", "--seed", "5"], TWO_MODES),
        (["sync-test", "--snr", "inf,20", "--seed", "6"], {"trials_per_point": 50}),
        (["scan-demo", "--snr", "40", "--seed", "7"], None),
    ], ids=["cdf", "snr-sweep-two-modes", "sync-test", "scan-demo"])
    def test_meta_config_replays_every_output(self, tmp_path, argv, extra):
        # a run's meta.json config, given back as --config, reruns it byte for byte
        first, again = tmp_path / "first", tmp_path / "again"
        assert main([*argv, "--config", write_tiny_config(tmp_path, extra, argv[0]), "--out", str(first)]) == 0
        meta = json.loads((first / "meta.json").read_text())
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps(meta["config"]))
        assert main([argv[0], "--config", str(replay), "--out", str(again)]) == 0
        assert sorted(p.name for p in again.iterdir()) == sorted(p.name for p in first.iterdir())
        for path in first.glob("*.csv"):
            assert (again / path.name).read_bytes() == path.read_bytes(), path.name
        replayed = json.loads((again / "meta.json").read_text())
        # the replay file gives every key, so none falls back to its default
        assert replayed.pop("applied_defaults") == []
        for m in (meta, replayed):
            m.pop("wall_time_s")
        meta.pop("applied_defaults")
        assert replayed == meta
