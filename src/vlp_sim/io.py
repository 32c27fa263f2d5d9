"""Config files, metadata echo, and result emission.

Config files are flat JSON with units spelled out in the key names
(wavelength_nm, pd_area_cm2, ...), matching the units people quote for this
kind of hardware; everything converts to SI at parse time.  Unknown keys are
rejected rather than silently ignored, and every key that fell back to its
default is echoed in the output metadata.  Every key moves some output of
the subcommand it acts in, so the keys that drove nothing are unknown keys:
the pre-0.4 threads, dwell_time_s, bandwidth_ghz and noise_variance_w_hz,
and from 0.6 mode.  The subcommand alone names the experiment that runs.

write_results writes any RunResult one way: each table a CSV file (strings
as they are, numbers at nine significant digits), the aggregates meta.json's
summary.  The runners in experiments name each subcommand's files and columns.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from . import __version__
from .channel import ChannelParams
from .experiments import ConfigError, ExperimentConfig, RunResult
from .geometry import Room
from .orientation import LaplaceParams, OrientationConfig
from .scan import DEFAULT_PILOT_LEN


CONFIG_DEFAULTS: dict = {
    "seed": 0,
    "room_width_m": 1.0,
    "room_depth_m": 1.0,
    "room_height_m": 3.0,
    "p_opt_watts": 1e-3,
    "wavelength_nm": 950.0,
    "beam_waist_um": 5.9,
    "pd_area_cm2": 1.0,
    "fov_deg": 120.0,
    "azimuth_step_deg": 1.0,
    "elevation_step_deg": 1.0,
    "pilot_length": DEFAULT_PILOT_LEN,
    "grid_spacing_m": 0.1,
    "h_min_m": 0.0,
    "h_max_m": 2.5,
    "snr_db": [40.0],
    "trials_per_point": None,
    "orientation_mode": "fixed",
    "orientation_modes": None,
    "mu_alpha_deg": 0.0,
    "sigma_alpha_deg": 10.0,
    "mu_beta_deg": 0.0,
    "sigma_beta_deg": 30.0,
    "mu_gamma_deg": 0.0,
    "sigma_gamma_deg": 10.0,
    "mu_phi_deg": 0.0,
    "sigma_phi_deg": 0.0,
    "mu_theta_deg": 90.0,
    "sigma_theta_deg": 0.0,
}

_ORIENTATION_ALIASES = {"random": "random-euler"}

# counts and seeds: a fractional value is a mistake, never a request to truncate
_INTEGER_KEYS = ("seed", "trials_per_point", "pilot_length")


def load_config(path=None, overrides: dict | None = None) -> tuple[dict, list[str]]:
    """Resolve file values + CLI overrides against the defaults.

    Returns (resolved config dict, sorted list of keys that used defaults).
    """
    raw: dict = {}
    if path is not None:
        try:
            with open(path) as f:
                raw = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config file {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
    unknown = sorted(set(raw) - set(CONFIG_DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    unknown = sorted(set(overrides) - set(CONFIG_DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown override keys: {', '.join(unknown)}")

    resolved = dict(CONFIG_DEFAULTS)
    resolved.update(raw)
    resolved.update(overrides)
    resolved = _normalize(resolved)
    applied_defaults = sorted(k for k in CONFIG_DEFAULTS if k not in raw and k not in overrides)
    return resolved, applied_defaults


def _normalize(cfg: dict) -> dict:
    cfg = dict(cfg)
    mode, modes = cfg["orientation_mode"], cfg["orientation_modes"]
    if not isinstance(mode, str):
        raise ConfigError(f"orientation_mode must be a string, got {mode!r}")
    cfg["orientation_mode"] = _ORIENTATION_ALIASES.get(mode, mode)
    if modes is not None:
        if not (isinstance(modes, list) and modes and all(isinstance(m, str) for m in modes)):
            raise ConfigError(f"orientation_modes must be a nonempty list of strings, got {modes!r}")
        cfg["orientation_modes"] = [_ORIENTATION_ALIASES.get(m, m) for m in modes]
    snr = cfg["snr_db"]
    if snr is None:
        raise ConfigError("snr_db must be set; use Infinity for a noiseless run")
    values = snr if isinstance(snr, list) else [snr]
    if not all(isinstance(s, (int, float)) and not isinstance(s, bool) for s in values):
        raise ConfigError(f"snr_db must be a number or list of numbers, got {snr!r}")
    cfg["snr_db"] = [float(s) for s in values]
    for key, value in cfg.items():
        if key in ("orientation_mode", "orientation_modes", "snr_db"):
            continue
        if value is None and key == "trials_per_point":
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"config key {key} must be finite, got {value!r}")
        if key in _INTEGER_KEYS and value != int(value):
            raise ConfigError(f"config key {key} must be an integer, got {value!r}")
    return cfg


def build_experiment(cfg: dict, command: str) -> ExperimentConfig:
    """Turn a resolved config dict (file units) into the command's run objects (SI units)."""
    try:
        room = Room(cfg["room_width_m"], cfg["room_depth_m"], cfg["room_height_m"])
        channel = ChannelParams(
            p_opt_w=cfg["p_opt_watts"],
            wavelength_m=cfg["wavelength_nm"] * 1e-9,
            waist_m=cfg["beam_waist_um"] * 1e-6,
            pd_area_m2=cfg["pd_area_cm2"] * 1e-4,
        )
        orientation = OrientationConfig(
            mode=cfg["orientation_mode"],
            roll=LaplaceParams(cfg["mu_alpha_deg"], cfg["sigma_alpha_deg"]),
            pitch=LaplaceParams(cfg["mu_beta_deg"], cfg["sigma_beta_deg"]),
            yaw=LaplaceParams(cfg["mu_gamma_deg"], cfg["sigma_gamma_deg"]),
            azimuth=LaplaceParams(cfg["mu_phi_deg"], cfg["sigma_phi_deg"]),
            elevation=LaplaceParams(cfg["mu_theta_deg"], cfg["sigma_theta_deg"]),
        )
        return ExperimentConfig(
            room=room,
            channel=channel,
            orientation=orientation,
            fov_deg=cfg["fov_deg"],
            azimuth_step_deg=cfg["azimuth_step_deg"],
            elevation_step_deg=cfg["elevation_step_deg"],
            pilot_len=int(cfg["pilot_length"]),
            grid_spacing_m=cfg["grid_spacing_m"],
            h_min_m=cfg["h_min_m"],
            h_max_m=cfg["h_max_m"],
            snr_list_db=cfg["snr_db"],
            trials_per_point=None if cfg["trials_per_point"] is None else int(cfg["trials_per_point"]),
            master_seed=int(cfg["seed"]),
            mode=command,
            orientation_modes=cfg["orientation_modes"],
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _fmt(x) -> str:
    return f"{float(x):.9g}"


def _rounded(value):
    """value with every float in it at the CSVs' nine significant digits,
    which hide the last-bit differences between numpy's SIMD kernels."""
    return json.loads(json.dumps(value), parse_float=lambda text: float(_fmt(text)))


def _atomic_write(path: Path, text: str) -> None:
    # open(..., "x") creates with mode 0o666 & ~umask (mkstemp would force 0o600)
    tmp = path.with_name(f"{path.name}.{os.urandom(4).hex()}.tmp")
    f = open(tmp, "x")
    try:
        with f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fields(column) -> list[str]:
    """A column's CSV fields: strings as they are, numbers as _fmt writes
    them (an array's through .tolist(), the fast way to the same string)."""
    if isinstance(column, np.ndarray):
        return [f"{v:.9g}" for v in column.tolist()]
    return [v if isinstance(v, str) else _fmt(v) for v in column]


def write_results(result: RunResult, out_dir, config_echo: dict, applied_defaults: list[str], wall_time_s: float | None = None) -> list[Path]:
    """Write a run's tables, one CSV file each, plus meta.json, atomically.

    Every file's text is built before the directory or any file is
    created, so a failed run leaves no partial output behind.
    """
    out = Path(out_dir)
    files: list[tuple[Path, str]] = []
    for name, (columns, values) in result.tables.items():
        lines = map(",".join, zip(*map(_fields, values)))
        files.append((out / name, "\n".join([",".join(columns), *lines]) + "\n"))
    meta = {
        "config": config_echo,
        "applied_defaults": applied_defaults,
        "seed": config_echo.get("seed"),
        "mode": result.mode,
        "code_version": __version__,
        "snr_definition": result.metadata.get("snr_definition"),
        "run": _rounded(result.metadata),
        "summary": _rounded(result.aggregates),
        "wall_time_s": wall_time_s,
    }
    files.append((out / "meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n"))

    out.mkdir(parents=True, exist_ok=True)
    written = []
    for path, text in files:
        _atomic_write(path, text)
        written.append(path)
    return written
