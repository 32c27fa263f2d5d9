"""Monte Carlo harness: the shared scan trial and grid-pass loop; cdf /
snr-sweep / sync-test / scan-demo.  A grid pass runs every trial at every
grid point for one (orientation mode, SNR): cdf is the single pass (0, 0),
snr-sweep one pass per pair.  A pass runs sequentially, point by point,
then trial by trial.

Reproducibility contract: every trial gets its own random stream, so
results are bit-identical across reruns.  The SeedSequence entropy is
(master_seed, mode_index, snr_index, point_index, trial_index) for cdf and
snr-sweep, (master_seed, 0, snr_index, 0, trial_index) for sync-test and
(master_seed,) for scan-demo.  A sync-test trial first draws its receiver
position (x, y, z) and timing offset.  Then the orientation draws come,
then the sweep's noise.  cdf and snr-sweep sweep peak-only (see
scan.run_scan): the support-slot normals in ascending slot order, then the
uniform U that sets the maximum of the noise-only slots, then that
maximum's slot index.  sync-test and scan-demo sweep densely: one normal
per slot, pilot first.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, noise_sigma_for_snr, received_power_on_axis
from .estimator import (
    STATUS_CLAMPED,
    STATUS_LOW_SIGNAL,
    PositionEstimate,
    estimate_position,
    position_error,
)
from .geometry import ReceiverState, Room, build_beam_grid, check_beam_steps, check_fov
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
    "reference is the pilot on-level instead."
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
    snr_list_db: tuple = (40.0,)
    trials_per_point: int | None = None
    master_seed: int = 0
    mode: str = "cdf"
    orientation_modes: tuple | None = None  # snr-sweep only; None -> (orientation.mode,)

    def __post_init__(self):
        if self.mode not in EXPERIMENT_MODES:
            raise ValueError(f"mode must be one of {EXPERIMENT_MODES}, got {self.mode!r}")
        if not 0.0 <= self.h_min_m < self.h_max_m <= self.room.height_m:
            raise ValueError("need 0 <= h_min < h_max <= room height")
        if self.h_min_m > _height_cap(self):
            raise ValueError(f"h_min must stay {NEAR_FIELD_CLEARANCE_M} m below the ceiling")
        if self.grid_spacing_m <= 0.0:
            raise ValueError("grid_spacing_m must be positive")
        for span in (self.room.width_m, self.room.depth_m):
            ratio = span / self.grid_spacing_m
            if abs(ratio - round(ratio)) > 1e-9:
                raise ValueError("grid_spacing_m must divide the room width and depth")
        check_fov(self.fov_deg)
        check_beam_steps(self.azimuth_step_deg, self.elevation_step_deg)
        object.__setattr__(self, "snr_list_db", tuple(float(s) for s in self.snr_list_db or ()))
        if len(self.snr_list_db) == 0:
            raise ValueError("snr_list_db must be nonempty")
        if self.pilot_len < 0:
            raise ValueError("pilot_len must be >= 0")
        if self.mode == "sync-test" and self.pilot_len < 1:
            raise ValueError("sync-test needs a pilot (pilot_len >= 1)")
        if self.trials_per_point is not None and self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
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
    """Mode-specific aggregates (what the output files hold) and run metadata."""

    mode: str
    aggregates: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)


def _height_cap(cfg: ExperimentConfig) -> float:
    """Highest receiver height sampled: h_max, but clear of the emitter."""
    return min(cfg.h_max_m, cfg.room.height_m - NEAR_FIELD_CLEARANCE_M)


def sample_positions(cfg: ExperimentConfig) -> np.ndarray:
    """Receiver grid: xy at the configured spacing, heights likewise.

    Heights run from h_min up to min(h_max, ceiling - clearance).
    """
    s = cfg.grid_spacing_m
    nx = int(round(cfg.room.width_m / s)) + 1
    ny = int(round(cfg.room.depth_m / s)) + 1
    nz = int(np.floor((_height_cap(cfg) - cfg.h_min_m) / s + 1e-9)) + 1
    zs, ys, xs = np.meshgrid(
        cfg.h_min_m + np.arange(nz) * s, np.arange(ny) * s, np.arange(nx) * s, indexing="ij"
    )
    # x varies fastest, then y, then z: the row index seeds each point's trials
    return np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])


def reference_peak_power(cfg: ExperimentConfig) -> float:
    """SNR anchor: grid-average noiseless on-axis power for an upright receiver."""
    dists = np.linalg.norm(sample_positions(cfg) - cfg.room.emitter_pos, axis=1)
    return float(np.mean([received_power_on_axis(d, 1.0, cfg.channel) for d in dists]))


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
) -> tuple[MeasurementTrace, PositionEstimate]:
    """One fix: draw the receiver normal, sweep once, pick the peak.

    The orientation draw precedes the sweep's noise draws in rng.  The
    estimate reads the slots after the pilot and flags peaks under the
    low-signal threshold for this sigma.
    """
    normal = sample_receiver_normal(orientation, rng)
    rx = ReceiverState(point, normal, cfg.fov_deg)
    trace = run_scan(plan, cfg.room, rx, cfg.channel, sigma, rng)
    est = estimate_position(
        cfg.room.emitter_pos, trace.samples[plan.pilot_len :], plan.grid, cfg.channel, sigma, trace.slots
    )
    return trace, est


def _run_grid(cfg, plan, points, orientation, sigma, seed_ctx):
    """One pass over the whole position grid at a single noise level.

    Returns per-sample arrays in point order, then trial order: status, the
    3D and per-axis errors, and the outage mask.  Low-signal flags count as
    out-of-view only when the orientation model can miss the view cone; a
    fixed upright receiver is in view by geometry, so there the flag stays
    a diagnostic.
    """
    rows = []
    for i, point in enumerate(points):
        for trial in range(cfg.trials):
            rng = _trial_rng(cfg.master_seed, *seed_ctx, i, trial)
            _, est = scan_trial(cfg, plan, orientation, point, sigma, rng)
            rows.append((est.status, position_error(point, est.position)))
    status = np.array([r[0] for r in rows])
    flagged = status == STATUS_LOW_SIGNAL
    errs = np.array([r[1] for r in rows]).T  # PositionError order: total, x, y, z
    return {
        "status": status,
        **dict(zip(("err_3d", "err_x", "err_y", "err_z"), errs)),
        "excluded": np.zeros_like(flagged) if orientation.mode == "fixed" else flagged,
    }


def _grid_passes(cfg: ExperimentConfig, modes, snrs) -> tuple[float, list]:
    """One peak-only grid pass per (orientation mode, snr), seeded by their indices.

    Returns (p_ref, passes); each pass is (mode, per-sample arrays from
    _run_grid, stats), the stats holding snr_db, outage_frac, clamp_frac,
    n_valid and sigma_w.
    """
    p_ref = reference_peak_power(cfg)
    plan = ScanPlan(build_beam_grid(cfg.azimuth_step_deg, cfg.elevation_step_deg), peak_only=True)
    points = sample_positions(cfg)
    passes = []
    for mode_idx, mode in enumerate(modes):
        orientation = dataclasses.replace(cfg.orientation, mode=mode)
        for snr_idx, snr in enumerate(snrs):
            sigma = noise_sigma_for_snr(p_ref, snr)
            rec = _run_grid(cfg, plan, points, orientation, sigma, seed_ctx=(mode_idx, snr_idx))
            stats = {
                "snr_db": snr,
                "outage_frac": float(rec["excluded"].mean()),
                "clamp_frac": float((rec["status"] == STATUS_CLAMPED).mean()),
                "n_valid": int((~rec["excluded"]).sum()),
                "sigma_w": sigma,
            }
            passes.append((mode, rec, stats))
    return p_ref, passes


def _base_metadata(cfg: ExperimentConfig, p_ref: float) -> dict:
    return {
        "mode": cfg.mode,
        "master_seed": cfg.master_seed,
        "snr_definition": SNR_DEFINITION,
        "reference_power_w": p_ref,
        "trials": cfg.trials,
    }


def run_cdf_experiment(cfg: ExperimentConfig) -> RunResult:
    """Full-grid error statistics at one noise level: per-axis and 3D CDFs."""
    if cfg.mode != "cdf":
        raise ValueError("config mode must be 'cdf'")
    if len(cfg.snr_list_db) != 1:
        raise ValueError("cdf mode takes exactly one snr value")
    p_ref, [(_, rec, stats)] = _grid_passes(cfg, (cfg.orientation.mode,), cfg.snr_list_db)

    valid = ~rec["excluded"]
    agg = {
        **stats,
        "n_samples": len(rec["err_3d"]),
        "low_signal_frac": float((rec["status"] == STATUS_LOW_SIGNAL).mean()),
    }
    if valid.any():
        errs = {axis: rec[f"err_{axis}"][valid] for axis in ("3d", "x", "y", "z")}
        agg.update({f"cdf_{axis}": compute_cdf(e) for axis, e in errs.items()})
        agg.update({f"p{q}_3d_m": percentile(errs["3d"], q) for q in (50, 90, 95)})
        agg.update({f"subcm_frac_{axis}": float((errs[axis] < 0.01).mean()) for axis in ("x", "y")})
    return RunResult("cdf", agg, _base_metadata(cfg, p_ref))


def run_snr_sweep(cfg: ExperimentConfig) -> RunResult:
    """Mean 3D error versus SNR, optionally for several orientation modes.

    Means are taken over non-outage samples; clamped estimates stay in.
    """
    if cfg.mode != "snr-sweep":
        raise ValueError("config mode must be 'snr-sweep'")
    p_ref, passes = _grid_passes(cfg, cfg.orientation_modes or (cfg.orientation.mode,), cfg.snr_list_db)
    rows = []
    for mode, rec, stats in passes:
        valid = ~rec["excluded"]
        mean_error = float(rec["err_3d"][valid].mean()) if valid.any() else float("nan")
        rows.append({**stats, "orientation_mode": mode, "mean_error_m": mean_error})
    return RunResult("snr-sweep", {"rows": rows}, _base_metadata(cfg, p_ref))


def run_sync_test(cfg: ExperimentConfig) -> RunResult:
    """End-to-end sync validation: estimates from synchronized traces versus
    offset-then-realigned traces, plus the naive no-realignment baseline.

    snr values set the pilot SNR (sigma = pilot on-level / 10^(snr/20)), and
    the metadata records that on-level as reference_power_w; snr = inf runs
    noiseless.  trials_per_point is the total trial count.
    """
    if cfg.mode != "sync-test":
        raise ValueError("config mode must be 'sync-test'")
    grid = build_beam_grid(cfg.azimuth_step_deg, cfg.elevation_step_deg)
    pilot = make_pilot(cfg.channel.p_opt_w, cfg.pilot_len)
    plan = ScanPlan(grid, pilot)
    emitter = cfg.room.emitter_pos
    n_slots = cfg.pilot_len + grid.size
    p_pilot = float(np.max(pilot))

    rows = []
    for snr_idx, snr in enumerate(cfg.snr_list_db):
        sigma = noise_sigma_for_snr(p_pilot, snr)
        mismatches = 0
        errs = {"synced": [], "realigned": [], "naive": []}
        for trial in range(cfg.trials):
            rng = _trial_rng(cfg.master_seed, 0, snr_idx, 0, trial)
            point = np.array(
                [
                    rng.uniform(0.0, cfg.room.width_m),
                    rng.uniform(0.0, cfg.room.depth_m),
                    rng.uniform(cfg.h_min_m, _height_cap(cfg)),
                ]
            )
            offset = int(rng.integers(-(n_slots // 2), n_slots // 2 + 1))
            # sigma only sets est_sync's status flag, which is not recorded
            trace, est_sync = scan_trial(cfg, plan, cfg.orientation, point, sigma, rng)
            shifted = apply_timing_offset(trace, offset)
            realigned = realign_with_pilot(shifted, pilot)
            est_re = estimate_position(emitter, realigned.samples, grid, cfg.channel)
            est_naive = estimate_position(emitter, shifted.samples[cfg.pilot_len :], grid, cfg.channel)

            mismatches += int(est_re.beam_index != est_sync.beam_index)
            for key, est in (("synced", est_sync), ("realigned", est_re), ("naive", est_naive)):
                errs[key].append(position_error(point, est.position).total_m)
        rows.append(
            {
                "snr_db": snr,
                "mismatch_rate": mismatches / cfg.trials,
                **{f"mean_error_{key}_m": float(np.mean(e)) for key, e in errs.items()},
                "sigma_w": sigma,
            }
        )
    return RunResult("sync-test", {"rows": rows}, _base_metadata(cfg, p_pilot))


def run_scan_demo(cfg: ExperimentConfig, point) -> tuple[ScanPlan, MeasurementTrace, PositionEstimate]:
    """One trial at a given receiver position, seeded by the master seed alone.

    Uses the first snr value, anchored like a grid pass, and the configured
    pilot.  Returns (plan, trace, estimate).
    """
    sigma = noise_sigma_for_snr(reference_peak_power(cfg), cfg.snr_list_db[0])
    grid = build_beam_grid(cfg.azimuth_step_deg, cfg.elevation_step_deg)
    plan = ScanPlan(grid, make_pilot(cfg.channel.p_opt_w, cfg.pilot_len) if cfg.pilot_len else None)
    trace, est = scan_trial(cfg, plan, cfg.orientation, point, sigma, _trial_rng(cfg.master_seed))
    return plan, trace, est
