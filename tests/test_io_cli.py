import json

import numpy as np
import pytest

from vlp_sim.cli import main
from vlp_sim.experiments import run_cdf_experiment
from vlp_sim.geometry import build_beam_grid
from vlp_sim.io import (
    CONFIG_DEFAULTS,
    ConfigError,
    build_experiment,
    load_config,
    write_results,
    write_trace_csv,
)
from vlp_sim.scan import MeasurementTrace

# small, fast run shapes shared by the CLI tests
TINY = {"grid_spacing_m": 0.5, "trials_per_point": 1, "snr_db": [40.0]}

CDF_FILES = ("cdf_3d.csv", "cdf_x.csv", "cdf_y.csv", "cdf_z.csv")

# accepted so older configs replay; no output depends on them
REPLAY_ONLY_KEYS = {"threads", "dwell_time_s", "noise_variance_w_hz", "bandwidth_ghz"}

# a valid non-default value per config key; numeric keys not listed get default + 1
OTHER_VALUES = {
    "mode": "snr-sweep", "orientation_mode": "random-euler", "orientation_modes": ["fixed"],
    "snr_db": [30.0], "trials_per_point": 3, "room_height_m": 4.0, "azimuth_step_deg": 2.0,
    "elevation_step_deg": 2.0, "grid_spacing_m": 0.5, "h_max_m": 2.0, "fov_deg": 90.0,
}


def other_value(key):
    return OTHER_VALUES[key] if key in OTHER_VALUES else CONFIG_DEFAULTS[key] + 1


def write_tiny_config(tmp_path, extra=None):
    payload = dict(TINY)
    payload.update(extra or {})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


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
        cfg = build_experiment(resolved)
        assert cfg.channel.wavelength_m == pytest.approx(950e-9)
        assert cfg.channel.waist_m == pytest.approx(5.9e-6)
        assert cfg.channel.pd_area_m2 == pytest.approx(1e-4)
        assert cfg.room.height_m == 3.0

    def test_only_replay_keys_leave_the_run_unchanged(self):
        base = build_experiment(load_config(None, {})[0])
        unchanged = {
            key for key in CONFIG_DEFAULTS
            if build_experiment(load_config(None, {key: other_value(key)})[0]) == base
        }
        assert unchanged == REPLAY_ONLY_KEYS

    def test_invalid_combination_becomes_config_error(self):
        resolved, _ = load_config(None, {"grid_spacing_m": 0.3})
        with pytest.raises(ConfigError):
            build_experiment(resolved)

    def test_meta_round_trip_rebuilds_identical_config(self, tmp_path):
        resolved, applied = load_config(None, dict(TINY, seed=3))
        cfg = build_experiment(resolved)
        result = run_cdf_experiment(cfg)
        write_results(result, tmp_path, resolved, applied, wall_time_s=1.23)
        meta = json.loads((tmp_path / "meta.json").read_text())
        rebuilt = build_experiment(meta["config"])
        assert rebuilt == cfg


class TestWriteResults:
    def _result(self):
        resolved, applied = load_config(None, dict(TINY, seed=8))
        cfg = build_experiment(resolved)
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
        assert not any(out.iterdir())

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
            "snr_db", "p50_3d_m", "p90_3d_m", "p95_3d_m", "subcm_frac_x", "subcm_frac_y",
        }


class TestWriteTrace:
    def test_pilot_rows_have_empty_angles(self, tmp_path):
        grid = build_beam_grid(90.0, 45.0)
        trace = MeasurementTrace(np.arange(11.0) * 1e-6)
        path = write_trace_csv(trace, grid, 3, tmp_path / "trace.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "index,beam_azimuth_deg,beam_elevation_deg,power_watts"
        assert len(lines) == 12
        assert lines[1].split(",")[1:3] == ["", ""]
        assert lines[4].split(",")[1:3] == ["0", "0"]
        assert lines[-1].split(",")[1:3] == ["270", "45"]


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

    def test_scan_demo_trace(self, tmp_path):
        out = tmp_path / "out"
        code = main(["scan-demo", "--config", write_tiny_config(tmp_path),
                     "--rx", "0.3,0.4,1.2", "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = (out / "scan_trace.csv").read_text().splitlines()
        assert len(lines) == 1 + 64 + 32400
        assert lines[1].split(",")[1] == ""  # pilot row
        assert lines[65].split(",")[1:3] == ["0", "0"]

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["cdf", "--config", cfg, "--seed", "11", "--out", str(out)]) == 0
        for name in CDF_FILES:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
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
        path.write_text('{"no_such_key": 1}')
        assert main(["cdf", "--config", str(path)]) == 1
        assert "no_such_key" in capsys.readouterr().err

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
            {"bandwidth_ghz": 0},
            {"noise_variance_w_hz": -1},
            {"h_min_m": 2.6, "h_max_m": 2.8},
        ],
    )
    def test_malformed_number_exits_one_before_work(self, tmp_path, capsys, extra):
        out = tmp_path / "out"
        for command in ("cdf", "scan-demo"):
            assert main([command, "--config", write_tiny_config(tmp_path, extra), "--out", str(out)]) == 1
            assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_sync_test_without_pilot_exits_one_before_work(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_tiny_config(tmp_path, {"pilot_length": 0})
        assert main(["sync-test", "--config", config, "--out", str(out)]) == 1
        assert "pilot" in capsys.readouterr().err
        assert not out.exists()

    def test_noiseless_snr_and_integral_floats_accepted(self, tmp_path):
        out = tmp_path / "out"
        extra = {"snr_db": [float("inf")], "seed": 5.0, "dwell_time_s": 1.0}
        assert main(["cdf", "--config", write_tiny_config(tmp_path, extra), "--out", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["run"]["master_seed"] == 5

    def test_runtime_error_exits_two(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code = main(["cdf", "--config", write_tiny_config(tmp_path), "--out",
                     str(blocker / "sub")])
        assert code == 2
        assert "runtime error" in capsys.readouterr().err

    def test_threads_flag_echoed_in_meta(self, tmp_path):
        # replay-only keys and --threads: echoed in meta.json, no effect on the results
        def run(name, extra, *flags):
            out = tmp_path / name
            assert main(["cdf", "--config", write_tiny_config(tmp_path, extra), *flags, "--out", str(out)]) == 0
            return out

        base = run("base", {})
        outs = {key: run(key, {key: other_value(key)}) for key in sorted(REPLAY_ONLY_KEYS)}
        outs["--threads"] = run("flag", {}, "--threads", "3")
        meta = json.loads((outs["--threads"] / "meta.json").read_text())
        assert meta["config"]["threads"] == 3
        for key, out in outs.items():
            for name in CDF_FILES:
                assert (out / name).read_bytes() == (base / name).read_bytes(), (key, name)
