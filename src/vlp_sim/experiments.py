"""Monte Carlo harness: error CDFs over a position grid, SNR sweeps, sync tests.

Reproducibility contract: every trial gets its own random stream seeded by
SeedSequence((master_seed, mode_index, snr_index, point_index, trial_index)),
so results are bit-identical regardless of execution order or thread count.
Within a trial the orientation draws come first, then the sweep's noise.
cdf and snr-sweep sweep peak-only (see scan.run_scan): the support-slot
normals in ascending slot order, then the uniform U that sets the maximum of
the noise-only slots, then that maximum's slot index.  sync-test and
scan-demo sweep densely: one normal per slot, pilot first.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, noise_power, noise_sigma_for_snr, received_power_on_axis
from .estimator import (
    STATUS_CLAMPED,
    STATUS_LOW_SIGNAL,
    PositionEstimate,
    estimate_position,
    position_error,
)
from .geometry import ReceiverState, Room, build_beam_grid
from .orientation import ORIENTATION_MODES, OrientationConfig, sample_receiver_normal
from .scan import DEFAULT_PILOT_LEN, MeasurementTrace, ScanPlan, apply_timing_offset, make_pilot, realign_with_pilot, run_scan

EXPERIMENT_MODES = ("cdf", "snr-sweep", "sync-test")

# sweep noise is pinned to the average signal strength over the coverage
# volume: one sigma per run, independent of receiver position
SNR_DEFINITION = (
    "snr_db = 20*log10(P_ref / sigma_noise); P_ref is the noiseless on-axis "
    "received power for an upright receiver, averaged over the sampled "
    "position grid; a single sigma_noise applies to the whole run and every "
    "sample gets an independent N(0, sigma_noise^2) draw. For sync tests the "
    "reference is the pilot on-level instead. snr_db = null uses the absolute "
    "receiver noise level (noise variance / bandwidth)."
)

# default trials per grid point (cdf, snr-sweep) or total trials (sync-test)
DEFAULT_TRIALS = {"cdf": 5, "snr-sweep": 20, "sync-test": 1000}

# stay half a metre clear of the emitter: directly underneath, the angular
# cell degenerates and the inversion is numerically useless
NEAR_FIELD_CLEARANCE_M = 0.5


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs; defaults reproduce the stock desk-scale setup."""

    room: Room = Room()
    channel: ChannelParams = ChannelParams()
    orientation: OrientationConfig = OrientationConfig()
    fov_deg: float = 120.0
    azimuth_step_deg: float = 1.0
    elevation_step_deg: float = 1.0
    pilot_len: int = DEFAULT_PILOT_LEN
    grid_spacing_m: float = 0.1
    h_min_m: float = 0.0
    h_max_m: float = 2.5
    snr_list_db: tuple | None = (40.0,)
    trials_per_point: int | None = None
    master_seed: int = 0
    mode: str = "cdf"
    threads: int = 1
    orientation_modes: tuple | None = None  # snr-sweep only; None -> (orientation.mode,)

    def __post_init__(self):
        if self.mode not in EXPERIMENT_MODES:
            raise ValueError(f"mode must be one of {EXPERIMENT_MODES}, got {self.mode!r}")
        if not 0.0 <= self.h_min_m < self.h_max_m <= self.room.height_m:
            raise ValueError("need 0 <= h_min < h_max <= room height")
        for span in (self.room.width_m, self.room.depth_m):
            ratio = span / self.grid_spacing_m
            if abs(ratio - round(ratio)) > 1e-9:
                raise ValueError("grid_spacing_m must divide the room width and depth")
        if self.snr_list_db is not None:
            object.__setattr__(self, "snr_list_db", tuple(float(s) for s in self.snr_list_db))
            if len(self.snr_list_db) == 0:
                raise ValueError("snr_list_db must be nonempty (or None for absolute noise)")
        if self.pilot_len < 0:
            raise ValueError("pilot_len must be >= 0")
        if self.trials_per_point is not None and self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.orientation_modes is not None:
            object.__setattr__(self, "orientation_modes", tuple(self.orientation_modes))
            for m in self.orientation_modes:
                if m not in ORIENTATION_MODES:
                    raise ValueError(f"unknown orientation mode {m!r}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be a nonnegative integer")

    @property
    def trials(self) -> int:
        return self.trials_per_point if self.trials_per_point is not None else DEFAULT_TRIALS[self.mode]


@dataclass
class RunResult:
    """Per-sample records plus mode-specific aggregates and run metadata."""

    mode: str
    records: dict = field(default_factory=dict)
    aggregates: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)


def sample_positions(cfg: ExperimentConfig) -> np.ndarray:
    """Receiver grid: xy at the configured spacing, heights likewise.

    Heights run from h_min up to min(h_max, ceiling - clearance).
    """
    s = cfg.grid_spacing_m
    nx = int(round(cfg.room.width_m / s)) + 1
    ny = int(round(cfg.room.depth_m / s)) + 1
    z_hi = min(cfg.h_max_m, cfg.room.height_m - NEAR_FIELD_CLEARANCE_M)
    nz = int(np.floor((z_hi - cfg.h_min_m) / s + 1e-9)) + 1
    zs, ys, xs = np.meshgrid(
        cfg.h_min_m + np.arange(nz) * s, np.arange(ny) * s, np.arange(nx) * s, indexing="ij"
    )
    # x varies fastest, then y, then z: the row index seeds each point's trials
    return np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])


def reference_peak_power(cfg: ExperimentConfig) -> float:
    """SNR anchor: grid-average noiseless on-axis power for an upright receiver."""
    dists = np.linalg.norm(sample_positions(cfg) - cfg.room.emitter_pos, axis=1)
    return float(np.mean([received_power_on_axis(d, 1.0, cfg.channel) for d in dists]))


def noise_sigma(cfg: ExperimentConfig, snr_db: float | None, p_ref: float) -> float:
    """Per-run noise std: anchored to p_ref (see reference_peak_power) in sweep
    style, absolute when snr is None."""
    if snr_db is None:
        return noise_power(cfg.channel)
    return noise_sigma_for_snr(p_ref, snr_db)


def _trial_rng(master_seed: int, *indices: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, *indices))))


def compute_cdf(samples) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: sorted values with cumulative fractions ending at 1."""
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise ValueError("empty sample set")
    return x, np.arange(1, x.size + 1) / x.size


def percentile(samples, q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100])."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample set")
    return float(np.percentile(x, q))


def scan_trial(
    cfg: ExperimentConfig, plan: ScanPlan, orientation: OrientationConfig, point, sigma: float, rng: np.random.Generator
) -> tuple[np.ndarray, MeasurementTrace, PositionEstimate]:
    """One fix: draw the receiver normal, sweep once, pick the peak.

    The orientation draw precedes the sweep's noise draws in rng.  The
    estimate reads the slots after the pilot and flags peaks under the
    low-signal threshold for this sigma.
    """
    normal = sample_receiver_normal(orientation, rng)
    rx = ReceiverState(point, normal, cfg.fov_deg)
    trace = run_scan(plan, cfg.room, rx, cfg.channel, sigma, rng)
    est = estimate_position(
        cfg.room.emitter_pos, trace.samples[plan.pilot_len :], plan.grid, cfg.channel, None, sigma, trace.slots
    )
    return normal, trace, est


def _run_point(cfg, plan, orientation, sigma, seed_ctx, point_idx, point):
    """All trials for one grid point; returns plain per-trial rows."""
    rows = []
    for trial in range(cfg.trials):
        rng = _trial_rng(cfg.master_seed, *seed_ctx, point_idx, trial)
        normal, _, est = scan_trial(cfg, plan, orientation, point, sigma, rng)
        rows.append((point_idx, trial, normal, est, position_error(point, est.position)))
    return rows


def _run_grid(cfg, plan, points, orientation, snr_db, sigma, seed_ctx):
    """One pass over the whole position grid at a single noise level."""

    def work(i):
        return _run_point(cfg, plan, orientation, sigma, seed_ctx, i, points[i])

    # threads beyond the cores or the points only add contention
    workers = min(cfg.threads, len(points), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_point = list(pool.map(work, range(len(points))))
    else:
        per_point = [work(i) for i in range(len(points))]

    rows = [r for chunk in per_point for r in chunk]  # point order, then trial order
    n = len(rows)
    rec = {
        "point_index": np.array([r[0] for r in rows], dtype=int),
        "trial": np.array([r[1] for r in rows], dtype=int),
        "true_pos": np.array([points[r[0]] for r in rows]),
        "true_normal": np.array([r[2] for r in rows]),
        "beam_index": np.array([r[3].beam_index for r in rows], dtype=int),
        "est_distance_m": np.array([r[3].distance_m for r in rows]),
        "est_pos": np.array([r[3].position for r in rows]),
        "status": np.array([r[3].status for r in rows]),
        "err_3d": np.array([r[4].total_m for r in rows]),
        "err_x": np.array([r[4].x_m for r in rows]),
        "err_y": np.array([r[4].y_m for r in rows]),
        "err_z": np.array([r[4].z_m for r in rows]),
        "snr_db": np.full(n, np.nan if snr_db is None else snr_db),
        "orientation_mode": np.array([orientation.mode] * n),
    }
    return rec


def _excluded_mask(records: dict, orientation_mode: str) -> np.ndarray:
    """Outage mask: low-signal flags count as out-of-view only when the
    orientation model can actually miss the view cone.  With a fixed upright
    receiver the geometry guarantees in-view arrival, so nothing is dropped
    and the flag stays a diagnostic."""
    flagged = records["status"] == STATUS_LOW_SIGNAL
    if orientation_mode == "fixed":
        return np.zeros_like(flagged, dtype=bool)
    return flagged


def _base_metadata(cfg: ExperimentConfig, p_ref: float) -> dict:
    return {
        "mode": cfg.mode,
        "master_seed": cfg.master_seed,
        "snr_definition": SNR_DEFINITION,
        "reference_power_w": p_ref,
        "trials": cfg.trials,
        "threads": cfg.threads,
    }


def run_cdf_experiment(cfg: ExperimentConfig) -> RunResult:
    """Full-grid error statistics at one noise level: per-axis and 3D CDFs."""
    if cfg.mode != "cdf":
        raise ValueError("config mode must be 'cdf'")
    if cfg.snr_list_db is not None and len(cfg.snr_list_db) != 1:
        raise ValueError("cdf mode takes exactly one snr value (or None)")
    snr = None if cfg.snr_list_db is None else cfg.snr_list_db[0]
    p_ref = reference_peak_power(cfg)
    sigma = noise_sigma(cfg, snr, p_ref)
    plan = ScanPlan(build_beam_grid(cfg.azimuth_step_deg, cfg.elevation_step_deg), peak_only=True)
    rec = _run_grid(cfg, plan, sample_positions(cfg), cfg.orientation, snr, sigma, seed_ctx=(0, 0))

    excluded = _excluded_mask(rec, cfg.orientation.mode)
    valid = ~excluded
    n = len(rec["err_3d"])
    agg = {
        "n_samples": n,
        "n_valid": int(valid.sum()),
        "outage_frac": float(excluded.mean()),
        "clamp_frac": float((rec["status"] == STATUS_CLAMPED).mean()),
        "low_signal_frac": float((rec["status"] == STATUS_LOW_SIGNAL).mean()),
        "sigma_w": sigma,
        "snr_db": snr,
    }
    if valid.any():
        for key, errs in (
            ("cdf_3d", rec["err_3d"]),
            ("cdf_x", rec["err_x"]),
            ("cdf_y", rec["err_y"]),
            ("cdf_z", rec["err_z"]),
        ):
            agg[key] = compute_cdf(errs[valid])
        agg["p50_3d_m"] = percentile(rec["err_3d"][valid], 50.0)
        agg["p90_3d_m"] = percentile(rec["err_3d"][valid], 90.0)
        agg["p95_3d_m"] = percentile(rec["err_3d"][valid], 95.0)
        agg["subcm_frac_x"] = float((rec["err_x"][valid] < 0.01).mean())
        agg["subcm_frac_y"] = float((rec["err_y"][valid] < 0.01).mean())
    rec["excluded"] = excluded
    return RunResult("cdf", rec, agg, _base_metadata(cfg, p_ref))


def run_snr_sweep(cfg: ExperimentConfig) -> RunResult:
    """Mean 3D error versus SNR, optionally for several orientation modes.

    Means are taken over non-outage samples; clamped estimates stay in.
    """
    if cfg.mode != "snr-sweep":
        raise ValueError("config mode must be 'snr-sweep'")
    if cfg.snr_list_db is None:
        raise ValueError("snr-sweep needs an explicit snr list")
    modes = cfg.orientation_modes or (cfg.orientation.mode,)
    p_ref = reference_peak_power(cfg)
    plan = ScanPlan(build_beam_grid(cfg.azimuth_step_deg, cfg.elevation_step_deg), peak_only=True)
    points = sample_positions(cfg)

    rows = []
    all_rec: dict[str, list] = {}
    for mode_idx, mode in enumerate(modes):
        orientation = dataclasses.replace(cfg.orientation, mode=mode)
        for snr_idx, snr in enumerate(cfg.snr_list_db):
            sigma = noise_sigma(cfg, snr, p_ref)
            rec = _run_grid(cfg, plan, points, orientation, snr, sigma, seed_ctx=(mode_idx, snr_idx))
            excluded = _excluded_mask(rec, mode)
            valid = ~excluded
            rows.append(
                {
                    "snr_db": snr,
                    "orientation_mode": mode,
                    "mean_error_m": float(rec["err_3d"][valid].mean()) if valid.any() else float("nan"),
                    "outage_frac": float(excluded.mean()),
                    "clamp_frac": float((rec["status"] == STATUS_CLAMPED).mean()),
                    "n_valid": int(valid.sum()),
                    "sigma_w": sigma,
                }
            )
            rec["excluded"] = excluded
            for key, arr in rec.items():
                all_rec.setdefault(key, []).append(arr)

    records = {k: np.concatenate(v) for k, v in all_rec.items()}
    return RunResult("snr-sweep", records, {"rows": rows}, _base_metadata(cfg, p_ref))


def run_sync_test(cfg: ExperimentConfig) -> RunResult:
    """End-to-end sync validation: estimates from synchronized traces versus
    offset-then-realigned traces, plus the naive no-realignment baseline.

    snr values set the pilot SNR (sigma = pilot on-level / 10^(snr/20));
    snr = inf runs noiseless.  trials_per_point is the total trial count.
    """
    if cfg.mode != "sync-test":
        raise ValueError("config mode must be 'sync-test'")
    if cfg.pilot_len < 1:
        raise ValueError("sync-test needs a pilot (pilot_len >= 1)")
    snrs = cfg.snr_list_db if cfg.snr_list_db is not None else (float("inf"),)
    grid = build_beam_grid(cfg.azimuth_step_deg, cfg.elevation_step_deg)
    pilot = make_pilot(cfg.channel.p_opt_w, cfg.pilot_len)
    plan = ScanPlan(grid, pilot)
    emitter = cfg.room.emitter_pos
    z_hi = min(cfg.h_max_m, cfg.room.height_m - NEAR_FIELD_CLEARANCE_M)
    n_slots = cfg.pilot_len + grid.size

    rows = []
    rec_rows = {k: [] for k in ("snr_db", "offset_steps", "match", "err_synced", "err_realigned", "err_naive")}
    for snr_idx, snr in enumerate(snrs):
        sigma = 0.0 if np.isinf(snr) else noise_sigma_for_snr(float(np.max(pilot)), snr)
        mismatches = 0
        for trial in range(cfg.trials):
            rng = _trial_rng(cfg.master_seed, 0, snr_idx, 0, trial)
            point = np.array(
                [
                    rng.uniform(0.0, cfg.room.width_m),
                    rng.uniform(0.0, cfg.room.depth_m),
                    rng.uniform(cfg.h_min_m, z_hi),
                ]
            )
            offset = int(rng.integers(-(n_slots // 2), n_slots // 2 + 1))
            # sigma only sets est_sync's status flag, which is not recorded
            _, trace, est_sync = scan_trial(cfg, plan, cfg.orientation, point, sigma, rng)
            shifted = apply_timing_offset(trace, offset)
            realigned = realign_with_pilot(shifted, pilot)
            est_re = estimate_position(emitter, realigned.samples, grid, cfg.channel)
            est_naive = estimate_position(emitter, shifted.samples[cfg.pilot_len :], grid, cfg.channel)

            match = est_re.beam_index == est_sync.beam_index
            mismatches += not match
            rec_rows["snr_db"].append(snr)
            rec_rows["offset_steps"].append(offset)
            rec_rows["match"].append(match)
            rec_rows["err_synced"].append(position_error(point, est_sync.position).total_m)
            rec_rows["err_realigned"].append(position_error(point, est_re.position).total_m)
            rec_rows["err_naive"].append(position_error(point, est_naive.position).total_m)
        sl = slice(-cfg.trials, None)
        rows.append(
            {
                "snr_db": snr,
                "mismatch_rate": mismatches / cfg.trials,
                "mean_error_synced_m": float(np.mean(rec_rows["err_synced"][sl])),
                "mean_error_realigned_m": float(np.mean(rec_rows["err_realigned"][sl])),
                "mean_error_naive_m": float(np.mean(rec_rows["err_naive"][sl])),
                "sigma_w": sigma,
            }
        )
    records = {k: np.asarray(v) for k, v in rec_rows.items()}
    return RunResult("sync-test", records, {"rows": rows}, _base_metadata(cfg, reference_peak_power(cfg)))


def run_scan_demo(cfg: ExperimentConfig, point) -> tuple[ScanPlan, MeasurementTrace, PositionEstimate]:
    """One trial at a given receiver position, seeded by the master seed alone.

    Uses the first snr value (None -> absolute noise) and the configured pilot.
    Returns (plan, trace, estimate).
    """
    snr = None if cfg.snr_list_db is None else cfg.snr_list_db[0]
    sigma = noise_sigma(cfg, snr, reference_peak_power(cfg))
    grid = build_beam_grid(cfg.azimuth_step_deg, cfg.elevation_step_deg)
    plan = ScanPlan(grid, make_pilot(cfg.channel.p_opt_w, cfg.pilot_len) if cfg.pilot_len else None)
    _, trace, est = scan_trial(cfg, plan, cfg.orientation, point, sigma, _trial_rng(cfg.master_seed))
    return plan, trace, est
