"""Monte Carlo harness: the grid run, the sync run and the scan-demo
trial; cdf / snr-sweep / sync-test / scan-demo.  A grid pass runs every
trial at every grid point for one (orientation mode, SNR); cdf is the
single pass (0, 0), snr-sweep one pass per pair.  A grid run sweeps all its
passes' rows as one array pass, GRID_BLOCK_ROWS rows at a time.  A sync
run sweeps every trial of one SNR in one run_scan call.  Every caller
composes the geometry, a sweep and estimator.locate (the fix).  A grid run
finds each grid point's beam cells once (scan.beam_cells) and each row's
view of them (scan.in_view); a sync run and the scan-demo trial take
scan.support, which does both for each receiver.  A grid pass sweeps with
scan.run_scan on the beam grid alone, a sync run with its pilot too, and
either yields its peaks directly; the scan-demo trial records its trace
with scan.dense_trace, as a sync trial completes its trace, and takes its
peak with estimator.peak.  ExperimentConfig.mode
is the subcommand, which alone picks a config's rules: one snr value for
cdf and scan-demo, no trials_per_point in scan-demo (row 0 is its one
trial), a pilot for sync-test, orientation_modes in snr-sweep.  A
runner's RunResult names its CSV files and their columns (tables) and holds
its meta.json summary (aggregates).

Reproducibility contract: results are bit-identical across reruns, and
every draw is a pure function of the master seed and its indices.

* Every pose, and a grid pass's peak draws, come from Philox4x32-10 (see
  streams), keyed by the master seed.  row_prefix is the row map: row i of
  a run belongs to pass i // (points * trials), pass p is orientation mode
  p % n_modes at SNR index p // n_modes (SNR-major), and inside a pass rows
  run point by point, then trial by trial.  Row (point, trial) of pass
  (mode_index, snr_index) reads counters (point, trial, mode_index * 2^16 +
  snr_index, block), blocks 0-5: ROW_UNIFORMS uniforms in (0, 1).  A grid
  run's rows are its passes'; a sync run is one point per SNR, its trial t
  at SNR index s row s * trials + t; scan-demo is row 0.  Columns:
    0-2   every row: orientation.receiver_normals of u - 1/2 (roll, pitch,
          yaw, or azimuth, elevation; fixed reads none)
    3-10  grid rows (cdf, snr-sweep): scan.run_scan's PEAK_UNIFORMS
    3-5   sync-test: position in the sampled box, lo + (hi - lo) * u
    6     sync-test: offset uniform_index(u, 2h + 1) - h, h = n_slots // 2
    11    unused
  scan-demo reads columns 0-2.
* A sync-test trial's sweep noise comes from the same Philox row, blocks 6
  on, every slot's a pure function of the row and the slot (scan's
  _SLOT_BLOCK map: slot s's normal, the uniform that conditions it below
  tau, and the exceedance process over the noise-only slots), so its
  sparse pass reads any slot in any order and a trial completed in full
  reads the same numbers, at every pilot SNR.  A noiseless sync-test trial
  draws nothing.
* scan-demo's sweep noise comes from row 0, blocks 6 on, as a sync trial's:
  its one trace, pilot first, is the trace a sync trial of that row
  completes (with no pilot, the same map with k = 0).
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, noise_sigma_for_snr, received_power_on_axis
from .estimator import STATUS_CLAMPED, STATUS_LOW_SIGNAL, STATUS_NAMES, locate, peak, position_error
from .geometry import ReceiverState, Room, build_beam_grid, check_beam_steps, check_fov, incidence_cosine, norm
from .orientation import ORIENTATION_MODES, OrientationConfig, receiver_normals
from .scan import (
    DEFAULT_PILOT_LEN,
    MAX_PILOT_LEN,
    PEAK_UNIFORMS,
    SyncDraws,
    beam_cells,
    dense_trace,
    in_view,
    make_pilot,
    run_scan,
    support,
)
from .streams import uniform_index, uniforms

EXPERIMENT_MODES = ("cdf", "snr-sweep", "sync-test", "scan-demo")

# sweep noise is pinned to the average signal strength over the coverage
# volume: one sigma per run, independent of receiver position
SNR_DEFINITION = (
    "snr_db = 20*log10(P_ref / sigma_noise); P_ref is the noiseless on-axis "
    "received power for an upright receiver, averaged over the sampled "
    "position grid; a single sigma_noise applies to the whole run and every "
    "sample gets an independent N(0, sigma_noise^2) draw. For sync tests the "
    "reference is the pilot on-level instead."
)

# default trials per grid point (cdf, snr-sweep) or total trials (sync-test,
# scan-demo)
DEFAULT_TRIALS = {"cdf": 5, "snr-sweep": 20, "sync-test": 1000, "scan-demo": 1}

# uniforms per row: 3 orientation angles, the scan's or the sync pose's, one spare
ROW_UNIFORMS = 12

# rows a grid run sweeps at once; rows draw from their own Philox counters,
# so the block size bounds the run's memory without changing a result.  A
# block pays one uniforms, one receiver_normals per mode and one locate, and
# an snr whose rows straddle two blocks pays two run_scans: 4,096 rows pay
# them half as often as 2,048 did (default cdf 8 blocks -> 4, snr-sweep's
# benchmark run of 3,850 rows 2 -> 1).  One full block's temporaries peak
# at about 2.1 MB (tracemalloc; 1.1 MB at 2,048 rows, 4.1 MB at 8,192, which
# gained a default two-mode snr-sweep a few per cent more)
GRID_BLOCK_ROWS = 4096

# stay half a metre clear of the emitter: directly underneath, the angular
# cell degenerates and the inversion is numerically useless
NEAR_FIELD_CLEARANCE_M = 0.5


class ConfigError(ValueError):
    """Bad configuration input; maps to CLI exit code 1."""


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
    mode: str = "cdf"  # the subcommand that runs, one of EXPERIMENT_MODES
    orientation_modes: tuple | None = None  # snr-sweep only; None -> (orientation.mode,)

    def __post_init__(self):
        if self.mode not in EXPERIMENT_MODES:
            raise ValueError(f"mode must be one of {EXPERIMENT_MODES}, got {self.mode!r}")
        for name in ("pilot_len", "trials_per_point", "master_seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, None if value is None else operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if not 0.0 <= self.h_min_m < self.h_max_m <= self.room.height_m:
            raise ValueError("need 0 <= h_min < h_max <= room height")
        if self.h_min_m > _height_cap(self):
            raise ValueError(f"h_min must stay {NEAR_FIELD_CLEARANCE_M} m below the ceiling")
        if not self.grid_spacing_m > 0.0:
            raise ValueError("grid_spacing_m must be positive")
        for span in (self.room.width_m, self.room.depth_m):
            ratio = span / self.grid_spacing_m
            if round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9:
                raise ValueError("grid_spacing_m must divide the room width and depth")
        check_fov(self.fov_deg)
        check_beam_steps(self.azimuth_step_deg, self.elevation_step_deg)
        object.__setattr__(self, "snr_list_db", tuple(float(s) for s in self.snr_list_db or ()))
        if len(self.snr_list_db) == 0:
            raise ValueError("snr_list_db must be nonempty")
        if not all(s > -np.inf for s in self.snr_list_db):  # +inf is noiseless; NaN and -inf give no sigma
            raise ValueError("snr_list_db values must be finite or +inf")
        if self.mode in ("cdf", "scan-demo") and len(self.snr_list_db) != 1:
            raise ValueError(f"{self.mode} takes exactly one snr value")
        if not 0 <= self.pilot_len <= MAX_PILOT_LEN:
            raise ValueError(f"pilot_len must be in [0, {MAX_PILOT_LEN}]: the pilot's bits are a fixed table")
        if self.mode == "sync-test" and self.pilot_len < 1:
            raise ValueError("sync-test needs a pilot (pilot_len >= 1)")
        if self.trials_per_point is not None and self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        if self.mode == "scan-demo" and self.trials_per_point is not None:
            raise ValueError("scan-demo runs one trial: trials_per_point applies to cdf, snr-sweep and sync-test")
        if self.orientation_modes is not None:
            object.__setattr__(self, "orientation_modes", tuple(self.orientation_modes))
            if not self.orientation_modes:
                raise ValueError("orientation_modes must be nonempty (None runs orientation.mode)")
            for m in self.orientation_modes:
                if m not in ORIENTATION_MODES:
                    raise ValueError(f"unknown orientation mode {m!r}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be an integer in [0, 2^64): it is the 64-bit stream key")
        if self.mode != "snr-sweep" and self.orientation_modes is not None:
            raise ValueError("orientation_modes applies to snr-sweep only; set orientation_mode")
        if max(len(self.snr_list_db), len(self.orientation_modes or ())) > 2**16:
            raise ValueError("at most 65,536 snr values and orientation modes: each needs its own stream")

    @property
    def trials(self) -> int:
        return self.trials_per_point if self.trials_per_point is not None else DEFAULT_TRIALS[self.mode]


@dataclass
class RunResult:
    """A run's CSV files (tables: name -> (column names, columns)) and its meta.json summary."""

    mode: str
    tables: dict = field(default_factory=dict)
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


def reference_peak_power(cfg: ExperimentConfig, points) -> float:
    """SNR anchor: the average noiseless on-axis power for an upright receiver
    over points, the run's sample_positions."""
    dists = norm(points - cfg.room.emitter_pos)
    return float(np.mean(received_power_on_axis(dists, 1.0, cfg.channel)))


# the largest noise sigma a run admits.  Every normal a run draws is below 10
# in magnitude (Box-Muller on uniforms >= 2^-53 at most 8.57, noise_max over
# up to 2^20 slots under 10, an exceedance under 8.4), and locate multiplies a
# peak by pi: under this sigma no sample or product overflows
_SIGMA_MAX_W = np.finfo(float).max / 64


def _noise_sigmas(reference_w: float, snrs) -> list[float]:
    """Each snr's noise sigma against the run's reference power, taken before
    any sweep: a finite snr that gives no positive finite sigma, or one above
    _SIGMA_MAX_W, is a ConfigError."""
    try:
        sigmas = [noise_sigma_for_snr(reference_w, snr) for snr in snrs]
    except ValueError as e:
        raise ConfigError(str(e)) from e
    for snr, sigma in zip(snrs, sigmas):
        if sigma > _SIGMA_MAX_W:
            raise ConfigError(f"snr {snr:g} dB gives a noise sigma of {sigma:.6g} W against a reference of "
                              f"{reference_w:.6g} W, above the largest a run admits ({_SIGMA_MAX_W:.6g} W)")
    return sigmas


def compute_cdf(samples) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: sorted values with cumulative fractions ending at 1."""
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise ValueError("empty sample set")
    return x, np.arange(1, x.size + 1) / x.size


def percentile(samples, q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]); any NaN gives NaN.

    numpy's default method, Hyndman & Fan's definition 7, written out with
    numpy's operations, so the result is np.percentile's bit for bit: index
    v = (n - 1) q / 100 into the sorted values, then its lerp, which takes
    the upper neighbour's side from t = 0.5 on.  np.percentile itself
    imports numpy.ma on a process's first call (about 20 ms).
    """
    x, _ = compute_cdf(samples)
    p = q / 100
    if not 0.0 <= p <= 1.0:
        raise ValueError("q must be in [0, 100]")
    if np.isnan(x[-1]):  # NaNs sort last
        return float("nan")
    v = (x.size - 1) * p
    i = int(v)  # floor: v >= 0
    j = min(i + 1, x.size - 1)
    t = v - i
    d = x[j] - x[i]
    return float(x[j] - d * (1 - t) if t >= 0.5 else x[i] + d * t)


def row_prefix(cfg: ExperimentConfig, rows, n_points: int = 1, n_modes: int = 1) -> np.ndarray:
    """The (len(rows), 3) Philox counter prefixes of a run's rows, n_points
    points of cfg.trials trials a pass and n_modes orientation modes (the
    row map of the module docstring)."""
    pass_index, row = np.divmod(np.asarray(rows), n_points * cfg.trials)
    snr_index, mode_index = np.divmod(pass_index, n_modes)
    return np.column_stack([*np.divmod(row, cfg.trials), (mode_index << 16) | snr_index])


def _grid_passes(cfg: ExperimentConfig, modes, snrs) -> tuple[float, list]:
    """Every peak-only grid pass of a run, one per (orientation mode, snr),
    swept as one array pass over all their rows, GRID_BLOCK_ROWS at a time.

    Returns (p_ref, passes), the passes in mode, then snr order; each is
    (mode, per-sample arrays in point, then trial order: status code, the
    3D and per-axis errors and the outage mask, stats), the stats holding
    snr_db, outage_frac, clamp_frac, n_valid and sigma_w.

    A grid point's beam cells and distance hold for every pose at it, so
    scan.beam_cells runs once over the points and every row gathers its
    point's; only whether the row sees them is the row's own.  An upright
    (fixed) receiver's view depends on its point alone too, so with a fixed
    mode among the passes, that runs once over the points as well.
    """
    points = sample_positions(cfg)
    p_ref = reference_peak_power(cfg, points)
    grid = build_beam_grid(cfg.azimuth_step_deg, cfg.elevation_step_deg)
    orientations = [dataclasses.replace(cfg.orientation, mode=mode) for mode in modes]
    sigmas = _noise_sigmas(p_ref, snrs)
    reach = beam_cells(grid, cfg.room, points)
    upright = None
    if "fixed" in modes:
        cos_psi = incidence_cosine(cfg.room.emitter_pos, ReceiverState(points, fov_deg=cfg.fov_deg))
        upright = in_view(grid, *reach, cos_psi, cfg.fov_deg, cfg.channel)
    n = len(points) * cfg.trials
    total = n * len(modes) * len(snrs)
    rec = {}
    for lo in range(0, total, GRID_BLOCK_ROWS):
        hi = min(lo + GRID_BLOCK_ROWS, total)
        block = _grid_block(cfg, grid, points, reach, upright, orientations, sigmas, lo, hi)
        rec = rec or {key: np.empty(total, values.dtype) for key, values in block.items()}
        for key, values in block.items():
            rec[key][lo:hi] = values
    passes = []
    for mode_idx, mode in enumerate(modes):
        for snr_idx, (snr, sigma) in enumerate(zip(snrs, sigmas)):
            p = snr_idx * len(modes) + mode_idx
            one = {key: values[p * n : (p + 1) * n] for key, values in rec.items()}
            stats = {
                "snr_db": snr,
                "outage_frac": float(one["excluded"].mean()),
                "clamp_frac": float((one["status"] == STATUS_CLAMPED).mean()),
                "n_valid": int((~one["excluded"]).sum()),
                "sigma_w": sigma,
            }
            passes.append((mode, one, stats))
    return p_ref, passes


def _grid_block(cfg, grid, points, reach, upright, orientations, sigmas, lo, hi):
    """Rows lo to hi of a grid run: one uniforms, one locate, a run_scan per
    snr among the rows, and their geometry from their points' rows: a fixed
    row gathers upright's, in_view() of every point under an upright
    receiver, and the other rows take a receiver_normals per mode, then one
    in_view() of reach's, beam_cells() of every point, by their own
    incidence cosines.

    The outage mask holds the receivers out of view: by geometry (no
    support) under a fixed upright receiver, whose low-signal flag stays a
    diagnostic, and by the low-signal flag under a random orientation.
    """
    prefix = row_prefix(cfg, np.arange(lo, hi), len(points), len(orientations))
    u = uniforms(cfg.master_seed, prefix, ROW_UNIFORMS)
    point = prefix[:, 0]
    positions = points[point]
    mode_of, snr_of = prefix[:, 2] >> 16, prefix[:, 2] & 0xFFFF  # snr_of nondecreasing: SNR-major
    # the modes among the rows; np.unique would import numpy.ma (about 20 ms)
    by_mode = {m: mode_of == m for m in np.flatnonzero(np.bincount(mode_of))}
    fixed, normals = np.zeros(hi - lo, dtype=bool), np.empty((hi - lo, 3))
    for m, rows in by_mode.items():
        if orientations[m].mode == "fixed":
            fixed |= rows
        else:
            normals[rows] = receiver_normals(orientations[m], u[rows, :3] - 0.5)
    cells, power = np.empty((hi - lo, 4), dtype=int), np.empty(hi - lo)
    if fixed.any():
        cells[fixed], power[fixed] = (a[point[fixed]] for a in upright)
    if not fixed.all():
        tilted = ~fixed
        at = point[tilted]
        cos_psi = incidence_cosine(cfg.room.emitter_pos, ReceiverState(positions[tilted], normals[tilted], cfg.fov_deg))
        cells[tilted], power[tilted] = in_view(grid, *(a[at] for a in reach), cos_psi, cfg.fov_deg, cfg.channel)
    peaks, beams, sigma = np.empty(hi - lo), np.empty(hi - lo, dtype=int), np.empty(hi - lo)
    for s in range(snr_of[0], snr_of[-1] + 1):
        rows = slice(*np.searchsorted(snr_of, (s, s + 1)))
        trace = run_scan(grid, cells[rows], power[rows], sigma_w=sigmas[s], draws=u[rows, 3 : 3 + PEAK_UNIFORMS])
        peaks[rows], beams[rows], sigma[rows] = trace.samples, trace.beams, sigmas[s]
    estimate, status = locate(cfg.room.emitter_pos, peaks, beams, grid, cfg.channel, sigma)
    excluded = np.where(fixed, power == 0.0, status == STATUS_LOW_SIGNAL)
    return {
        "status": status,
        **dict(zip(("err_3d", "err_x", "err_y", "err_z"), position_error(positions, estimate))),
        "excluded": excluded,
    }


def _row_table(rows, columns) -> tuple:
    """A table of one CSV line per row, columns read from each row by name."""
    return columns, [[r[c] for r in rows] for c in columns]


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
    p_ref, [(_, rec, stats)] = _grid_passes(cfg, (cfg.orientation.mode,), cfg.snr_list_db)

    valid = ~rec["excluded"]
    if not valid.any():
        raise ValueError("no non-outage samples: nothing to write")
    errs = {axis: rec[f"err_{axis}"][valid] for axis in ("3d", "x", "y", "z")}
    cdfs = {axis: compute_cdf(e) for axis, e in errs.items()}
    agg = {
        **stats,
        "n_samples": len(rec["err_3d"]),
        "low_signal_frac": float((rec["status"] == STATUS_LOW_SIGNAL).mean()),
        **{f"p{q}_3d_m": percentile(cdfs["3d"][0], q) for q in (50, 90, 95)},
        **{f"subcm_frac_{axis}": float((e < 0.01).mean()) for axis, e in errs.items()},
    }
    tables = {f"cdf_{axis}.csv": (("error_m", "cdf"), cdf) for axis, cdf in cdfs.items()}
    return RunResult("cdf", tables, agg, _base_metadata(cfg, p_ref))


def run_snr_sweep(cfg: ExperimentConfig) -> RunResult:
    """Mean 3D error versus SNR, optionally for several orientation modes.

    Means are taken over non-outage samples; clamped estimates stay in.
    """
    if cfg.mode != "snr-sweep":
        raise ValueError("config mode must be 'snr-sweep'")
    modes = cfg.orientation_modes if cfg.orientation_modes is not None else (cfg.orientation.mode,)
    p_ref, passes = _grid_passes(cfg, modes, cfg.snr_list_db)
    rows = []
    for mode, rec, stats in passes:
        valid = ~rec["excluded"]
        mean_error = float(rec["err_3d"][valid].mean()) if valid.any() else float("nan")
        rows.append({**stats, "orientation_mode": mode, "mean_error_m": mean_error})
    columns = ("snr_db", "mean_error_m", "outage_frac", "clamp_frac", "orientation_mode")
    tables = {"mean_error_vs_snr.csv": _row_table(rows, columns)}
    return RunResult("snr-sweep", tables, {"rows": rows}, _base_metadata(cfg, p_ref))


def run_sync_test(cfg: ExperimentConfig) -> RunResult:
    """End-to-end sync validation: estimates from synchronized traces versus
    offset-then-realigned traces, plus the naive no-realignment baseline.

    snr values set the pilot SNR (sigma = pilot on-level / 10^(snr/20)), and
    the metadata records that on-level as reference_power_w; snr = inf runs
    noiseless.  trials_per_point is the total trial count.  Each snr is one
    sync run_scan over every trial: the three peaks of each trial, from one
    array pass that draws only the samples they need, or from the trial's
    whole trace where that pass cannot settle it, both from its Philox row.
    A pilot whose correlator scores could pass float max is a ConfigError,
    raised before any sweep.
    """
    if cfg.mode != "sync-test":
        raise ValueError("config mode must be 'sync-test'")
    grid = build_beam_grid(cfg.azimuth_step_deg, cfg.elevation_step_deg)
    pilot = make_pilot(cfg.channel.p_opt_w, cfg.pilot_len)
    half = (cfg.pilot_len + grid.size) // 2
    p_pilot = float(np.max(pilot))
    lo = np.array([0.0, 0.0, cfg.h_min_m])
    hi = np.array([cfg.room.width_m, cfg.room.depth_m, _height_cap(cfg)])

    sigmas = _noise_sigmas(p_pilot, cfg.snr_list_db)
    # a correlator score sums at most pilot_len products of the on-level and a
    # sample, each sample under the on-level, plus the on-axis power at the
    # clearance, plus 10 sigma (see _SIGMA_MAX_W): no score may pass float max
    nearest_w = float(received_power_on_axis(NEAR_FIELD_CLEARANCE_M, 1.0, cfg.channel))
    score = cfg.pilot_len * p_pilot * (p_pilot + nearest_w + 10.0 * max(sigmas))
    if not score <= np.finfo(float).max:
        raise ConfigError(f"a {p_pilot:.6g} W pilot of {cfg.pilot_len} slots can give correlator scores past the "
                          f"largest float; lower p_opt_watts or pilot_length")
    rows = []
    for snr_idx, (snr, sigma) in enumerate(zip(cfg.snr_list_db, sigmas)):
        # every trial's pose from its Philox row (see the column map)
        prefix = row_prefix(cfg, snr_idx * cfg.trials + np.arange(cfg.trials))
        u = uniforms(cfg.master_seed, prefix, ROW_UNIFORMS)
        points = lo + (hi - lo) * u[:, 3:6]
        offsets = uniform_index(u[:, 6], 2 * half + 1) - half
        rx = ReceiverState(points, receiver_normals(cfg.orientation, u[:, :3] - 0.5), cfg.fov_deg)
        cells, power = support(grid, cfg.room, rx, cfg.channel)
        # then one sync sweep of every trial: the peaks of its synced, its
        # offset-then-realigned and its naive (offset) trace
        draws = SyncDraws(cfg.master_seed, prefix)
        trace = run_scan(grid, cells, power, sigma_w=sigma, draws=draws, pilot_w=pilot, offset_steps=offsets)
        beams = trace.beams
        estimates, _ = locate(cfg.room.emitter_pos, trace.peaks.ravel(), beams.ravel(), grid, cfg.channel, sigma)
        errs = position_error(np.tile(points, (3, 1)), estimates).total_m.reshape(3, -1)
        rows.append(
            {
                "snr_db": snr,
                "mismatch_rate": int((beams[1] != beams[0]).sum()) / cfg.trials,
                **{f"mean_error_{key}_m": float(np.mean(e))
                   for key, e in zip(("synced", "realigned", "naive"), errs)},
                "sigma_w": sigma,
            }
        )
    columns = ("snr_db", "mismatch_rate", "mean_error_synced_m", "mean_error_realigned_m", "mean_error_naive_m")
    tables = {"sync_test.csv": _row_table(rows, columns)}
    return RunResult("sync-test", tables, {"rows": rows}, _base_metadata(cfg, p_pilot))


def run_scan_demo(cfg: ExperimentConfig, point=None) -> RunResult:
    """One dense trial at a receiver position (default: the room's centre,
    halfway up the sampled heights), seeded by the master seed alone: the
    orientation and the noise from row 0.

    Uses the config's one snr value, anchored like a grid pass, and the
    configured pilot.  The trace table holds every slot's beam azimuth,
    beam elevation and power, pilot first with empty angles; the
    peak is taken over the slots after the pilot, and locate flags it when
    it falls under the low-signal threshold for this sigma.
    """
    if cfg.mode != "scan-demo":
        raise ValueError("config mode must be 'scan-demo'")
    if point is None:
        point = np.array([cfg.room.width_m / 2, cfg.room.depth_m / 2, (cfg.h_min_m + _height_cap(cfg)) / 2])
    p_ref = reference_peak_power(cfg, sample_positions(cfg))
    [sigma] = _noise_sigmas(p_ref, cfg.snr_list_db)
    grid = build_beam_grid(cfg.azimuth_step_deg, cfg.elevation_step_deg)
    pilot = make_pilot(cfg.channel.p_opt_w, cfg.pilot_len) if cfg.pilot_len else None
    draws = SyncDraws(cfg.master_seed, row_prefix(cfg, [0]))
    normal = receiver_normals(cfg.orientation, uniforms(draws.seed, draws.prefix, 3)[0] - 0.5)
    cells, power = support(grid, cfg.room, ReceiverState(point, normal, cfg.fov_deg), cfg.channel)
    trace = dense_trace(grid, cells, power, sigma, draws, pilot)
    estimate, status = locate(cfg.room.emitter_pos, *peak(trace[cfg.pilot_len :]), grid, cfg.channel, sigma)
    # a pilot slot has no beam: its angle fields are empty
    angles = [[""] * cfg.pilot_len + a.tolist() for a in grid.angles_of(np.arange(grid.size))]
    columns = ("index", "beam_azimuth_deg", "beam_elevation_deg", "power_watts")
    tables = {"scan_trace.csv": (columns, [np.arange(len(trace)), *angles, trace])}
    agg = {
        "receiver_m": np.asarray(point, dtype=float).tolist(),
        "estimate_m": estimate.tolist(),
        "status": STATUS_NAMES[status],
        "error_m": float(position_error(point, estimate).total_m),
        "sigma_w": sigma,
    }
    return RunResult("scan-demo", tables, agg, _base_metadata(cfg, p_ref))
