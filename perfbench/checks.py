"""Per-run output checks for the benchmark.

Each check reads the files one CLI run wrote and returns a list of problems
(empty when the run is correct) plus the facts the metrics need.  The CSV
headers are the schemas the README documents.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

SCHEMAS = {
    "cdf": {name: "error_m,cdf" for name in ("cdf_3d.csv", "cdf_x.csv", "cdf_y.csv", "cdf_z.csv")},
    "snr-sweep": {"mean_error_vs_snr.csv": "snr_db,mean_error_m,outage_frac,clamp_frac,orientation_mode"},
    "sync-test": {
        "sync_test.csv": "snr_db,mismatch_rate,mean_error_synced_m,mean_error_realigned_m,mean_error_naive_m"
    },
}


def _read_csv(path: Path, header: str, problems: list[str]) -> list[dict]:
    try:
        text = path.read_text()
    except OSError as e:
        problems.append(f"{path.name}: cannot read ({e})")
        return []
    lines = text.splitlines()
    if not lines or lines[0] != header:
        problems.append(f"{path.name}: header {lines[:1]} != {header!r}")
        return []
    return list(csv.DictReader(lines))


def _finite(rows: list[dict], columns, name: str, problems: list[str]) -> None:
    for i, row in enumerate(rows):
        for col in columns:
            try:
                ok = math.isfinite(float(row[col]))
            except (TypeError, ValueError):
                ok = False
            if not ok:
                problems.append(f"{name} row {i + 1}: {col}={row[col]!r} is not a finite number")
                return


def _check_cdf(out: Path, spec: dict, meta: dict, problems: list[str]) -> float:
    summary = meta.get("summary", {})
    if summary.get("n_samples") != spec["scans"]:
        problems.append(f"meta.json n_samples {summary.get('n_samples')} != expected {spec['scans']}")
    err_mean = math.nan
    for name, header in SCHEMAS["cdf"].items():
        rows = _read_csv(out / name, header, problems)
        _finite(rows, ("error_m", "cdf"), name, problems)
        if len(rows) != summary.get("n_valid"):
            problems.append(f"{name}: {len(rows)} rows != n_valid {summary.get('n_valid')}")
            continue
        try:
            errs = [float(r["error_m"]) for r in rows]
            fracs = [float(r["cdf"]) for r in rows]
        except ValueError:
            continue  # already reported as non-finite
        if any(e < 0.0 for e in errs) or errs != sorted(errs):
            problems.append(f"{name}: errors are not nonnegative and ascending")
        if fracs and (fracs[-1] != 1.0 or fracs != sorted(fracs)):
            problems.append(f"{name}: cdf column does not rise to 1")
        if name == "cdf_3d.csv" and errs:
            err_mean = sum(errs) / len(errs)
    return err_mean


def _check_sweep(out: Path, spec: dict, meta: dict, problems: list[str]) -> float:
    (name, header), = SCHEMAS["snr-sweep"].items()
    rows = _read_csv(out / name, header, problems)
    _finite(rows, ("snr_db", "mean_error_m", "outage_frac", "clamp_frac"), name, problems)
    expected = [(mode, snr) for mode in spec["config"]["orientation_modes"] for snr in spec["snr"]]
    got = []
    for r in rows:
        try:
            got.append((r["orientation_mode"], float(r["snr_db"])))
        except ValueError:
            got.append((r["orientation_mode"], r["snr_db"]))
    if got != expected:
        problems.append(f"{name}: (mode, snr) rows {got} != expected {expected}")
        return math.nan
    summary_rows = meta.get("summary", {}).get("rows", [])
    if len(summary_rows) != len(rows):
        problems.append("meta.json summary rows do not match the CSV rows")
        return math.nan
    # non-outage mean over the whole sweep: per-row means weighted by valid counts
    n_valid = [r["n_valid"] for r in summary_rows]
    if sum(n_valid) == 0:
        problems.append("sweep has no non-outage samples")
        return math.nan
    try:
        return sum(float(r["mean_error_m"]) * n for r, n in zip(rows, n_valid) if n) / sum(n_valid)
    except ValueError:
        return math.nan


def _check_sync(out: Path, spec: dict, meta: dict, problems: list[str]) -> float:
    (name, header), = SCHEMAS["sync-test"].items()
    rows = _read_csv(out / name, header, problems)
    errs = ("mean_error_synced_m", "mean_error_realigned_m", "mean_error_naive_m")
    _finite(rows, ("mismatch_rate", *errs), name, problems)
    try:
        snrs = [float(r["snr_db"]) for r in rows]
    except ValueError:
        snrs = []
    if snrs != spec["snr"]:
        problems.append(f"{name}: snr rows {snrs} != expected {spec['snr']}")
        return math.nan
    for snr, r in zip(snrs, rows):
        if math.isinf(snr) and float(r["mismatch_rate"]) != 0.0:
            problems.append(f"{name}: noiseless mismatch_rate {r['mismatch_rate']} != 0")
    try:
        # every snr row holds the same number of trials, so the plain mean is the trial mean
        return sum(float(r["mean_error_realigned_m"]) for r in rows) / len(rows)
    except ValueError:
        return math.nan


_CHECKS = {"cdf": _check_cdf, "snr-sweep": _check_sweep, "sync-test": _check_sync}


def check_run(out: Path, spec: dict, cli_seed: int) -> tuple[list[str], dict]:
    """Validate one finished run's files; returns (problems, facts)."""
    problems: list[str] = []
    try:
        meta = json.loads((out / "meta.json").read_text())
    except (OSError, ValueError) as e:
        return [f"meta.json: cannot load ({e})"], {}
    if meta.get("mode") != spec["command"] or meta.get("seed") != cli_seed:
        problems.append(f"meta.json mode/seed {meta.get('mode')}/{meta.get('seed')} do not match the run")
    compute_s = meta.get("wall_time_s")
    if not isinstance(compute_s, (int, float)) or not compute_s > 0.0:
        problems.append(f"meta.json wall_time_s {compute_s!r} is not a positive number")
        compute_s = math.nan
    err_mean = _CHECKS[spec["command"]](out, spec, meta, problems)
    if not math.isfinite(err_mean) and not problems:
        problems.append("mean error is not finite")
    return problems, {"compute_s": compute_s, "err_mean_m": err_mean}


def payload(out: Path) -> dict:
    """The run's reproducible outputs: every file's bytes, with meta.json's
    wall_time_s (the only field allowed to differ between reruns) removed."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.name == "meta.json":
            meta = json.loads(path.read_text())
            meta.pop("wall_time_s", None)
            files[path.name] = json.dumps(meta, sort_keys=True).encode()
        elif path.suffix == ".csv":
            files[path.name] = path.read_bytes()
    return files


def compare_payloads(reference: dict, other: dict, what: str) -> list[str]:
    if reference.keys() != other.keys():
        return [f"{what}: file set {sorted(other)} != {sorted(reference)}"]
    return [f"{what}: {name} differs" for name in reference if reference[name] != other[name]]
