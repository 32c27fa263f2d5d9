"""vlp-sim benchmark: drives the shipped CLI as a batch job and checks its outputs.

    python3 perfbench/run.py --workload cdf-fixed --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is taken from src/).
One caller, closed loop: each CLI run starts after the previous one ended.
The seed picks the CLI seeds of the run; the same seed gives the same inputs.

--trace 0 measures end to end with tracing off and prints the end-to-end
metrics.  --trace 1 alternates untraced runs with traced runs of the same
inputs and prints the per-layer table and the per-layer metrics.  Either way
the last line of stdout is one JSON object: correct, attempted, failed and
metrics.  See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = "perfbench/child.py"

SEEDS_PER_RUN = 3  # CLI seeds cycled within one run; each is rerun at least once
HARD_LIMIT_S = 170.0  # one invocation must end well inside 180 s

# Each workload is one CLI invocation at a pinned size; see README.md for why.
WORKLOADS = {
    "cdf-fixed": {
        "command": "cdf",
        "flags": ["--orientation", "fixed"],
        "snr": [40.0],
        "threads": 1,
        "config": {"grid_spacing_m": 0.25, "trials_per_point": 5},
    },
    "sweep-random": {
        "command": "snr-sweep",
        "flags": [],
        "snr": [20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0],
        "threads": 1,
        "config": {"grid_spacing_m": 0.25, "trials_per_point": 1, "orientation_modes": ["fixed", "random-euler"]},
    },
    "sync-pilot": {
        "command": "sync-test",
        "flags": [],
        "snr": [math.inf, 20.0],
        "threads": 1,
        "config": {"trials_per_point": 200},
    },
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "scans_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "err_mean_m": "m",
}


def grid_points(config: dict) -> int:
    """Receiver grid size of the stock 1 x 1 x 3 m room: xy at the spacing,
    heights from 0 up to 2.5 m (the ceiling minus the 0.5 m clearance)."""
    s = config["grid_spacing_m"]
    nxy = int(round(1.0 / s)) + 1
    nz = int(math.floor(2.5 / s + 1e-9)) + 1
    return nxy * nxy * nz


def scans_per_cli_run(spec: dict) -> int:
    """Scans one CLI run performs; a sync trial counts as one scan."""
    cfg = spec["config"]
    trials = cfg["trials_per_point"]
    if spec["command"] == "sync-test":
        return trials * len(spec["snr"])
    modes = len(cfg.get("orientation_modes", [None]))
    return grid_points(cfg) * trials * len(spec["snr"]) * modes


def machine_facts() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "vlp_sim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "loadavg_at_start": list(os.getloadavg()),
    }


class Child(NamedTuple):
    """Outcome of one child process."""

    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    t_spawn: float  # CLOCK_MONOTONIC just before the spawn


def spawn(argv: list[str], log_dir: Path, deadline: float) -> Child:
    """Run `python <argv>` from the checkout root and wait for it, killing it
    at the deadline.  Peak RSS comes from the child's own rusage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("VLP_SIM_THREADS", None)
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout.log", "wb") as out, open(log_dir / "stderr.log", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = (log_dir / "stdout.log").read_text(errors="replace")
    return Child(proc.returncode, t1 - t0, usage.ru_maxrss / 1024.0, stdout, t0)


def cli_args(spec: dict, config_path: Path, cli_seed: int, out_dir: Path) -> list[str]:
    snr = ",".join("inf" if math.isinf(s) else repr(s) for s in spec["snr"])
    return [
        spec["command"], *spec["flags"],
        "--config", str(config_path), "--snr", snr, "--threads", str(spec["threads"]),
        "--seed", str(cli_seed), "--out", str(out_dir),
    ]  # fmt: skip


class Bench:
    """One benchmark invocation: its work directory, deadline and tallies."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.spec = dict(WORKLOADS[name], scans=scans_per_cli_run(WORKLOADS[name]))
        self.cli_seeds = [seed * SEEDS_PER_RUN + j for j in range(SEEDS_PER_RUN)]
        self.work = OUT / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.spec["config"], indent=2) + "\n")
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.references: dict[int, dict] = {}  # cli seed -> reproducible payload
        self.err_by_seed: dict[int, float] = {}
        self.runs = 0

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        for p in problems:
            print(f"FAIL {what}: {p}", file=sys.stderr)

    def setup_probe(self, i: int) -> float | None:
        log = self.work / "setup"
        args = cli_args(self.spec, self.config_path, self.cli_seeds[0], log / "out")
        self.attempted += 1
        child = spawn([CHILD, "setup", *args], log, self.deadline)
        try:
            value = float(child.stdout.strip().splitlines()[-1]) - child.t_spawn
        except (ValueError, IndexError):
            value = None
        if child.code != 0 or value is None or not value > 0.0:
            self.fail(f"setup probe {i}", [f"exit code {child.code}, stdout {child.stdout[-200:]!r}"])
            return None
        return value

    def cli_run(self, cli_seed: int, trace_path: Path | None = None) -> tuple[Child, dict] | None:
        """One CLI run plus its output checks; None when it failed."""
        self.runs += 1
        run_dir = self.work / "runs" / f"{self.runs:03d}"
        out_dir = run_dir / "out"
        args = cli_args(self.spec, self.config_path, cli_seed, out_dir)
        if trace_path is None:
            argv, what = ["-m", "vlp_sim.cli", *args], f"run {self.runs} (seed {cli_seed})"
        else:
            run_id = f"{self.name}-{cli_seed}-{self.runs}"
            argv, what = [CHILD, "trace", str(trace_path), run_id, *args], f"traced run {self.runs} (seed {cli_seed})"
        self.attempted += 1
        child = spawn(argv, run_dir, self.deadline)
        if child.code != 0:
            tail = (run_dir / "stderr.log").read_text(errors="replace")[-400:]
            self.fail(what, [f"exit code {child.code}: {tail!r}"])
            return None
        problems, facts = checks.check_run(out_dir, self.spec, cli_seed)
        if not problems:
            got = checks.payload(out_dir)
            ref = self.references.setdefault(cli_seed, got)
            kind = "untraced" if trace_path is None else "traced"
            problems = checks.compare_payloads(ref, got, f"{kind} output vs first run at seed {cli_seed}")
        if problems:
            self.fail(what, problems)
            return None
        self.err_by_seed.setdefault(cli_seed, facts["err_mean_m"])
        if ref is not got:  # keep the first run of each seed as the reference, drop the rest
            shutil.rmtree(out_dir, ignore_errors=True)
        return child, facts

    def keep_going(self, done: int, min_runs: int, t_start: float, seconds: float, last_s: float) -> bool:
        """Run at least min_runs, then until --seconds have passed; never
        start a run that might not finish before the hard limit."""
        if self.deadline - time.monotonic() < 2.0 * last_s + 5.0:
            return False
        return done < min_runs or time.monotonic() - t_start < seconds


def median(values):
    return statistics.median(values) if values else math.nan


def highest_percentile_note(n: int) -> str:
    # the highest percentile with at least ten samples beyond it
    if n < 20:
        return f"median of {n} runs; no higher percentile has 10 runs beyond it below 20 runs"
    return f"median of {n} runs; p{math.floor(100.0 * (1.0 - 10.0 / n))} is the highest with 10 runs beyond it"


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    bench.setup_probe(0)  # warm-up: the first start in a fresh checkout also compiles bytecode
    probes, walls, rates, rss = [], [], [], []
    t_start = time.monotonic()
    i = 0
    last = 0.0
    while bench.keep_going(i, 2 * SEEDS_PER_RUN, t_start, seconds, last):
        # one set-up probe per CLI run, so both sample the same stretch of machine time
        pair_start = time.monotonic()
        probes.append(bench.setup_probe(i + 1))
        result = bench.cli_run(bench.cli_seeds[i % SEEDS_PER_RUN])
        i += 1
        last = time.monotonic() - pair_start
        if result is None:
            continue
        child, facts = result
        walls.append(child.wall_s)
        rates.append(bench.spec["scans"] / facts["compute_s"])
        rss.append(child.rss_mb)
    ok_probes = [p for p in probes if p is not None]
    metrics = {
        "wall_s": median(walls),
        "scans_per_s": median(rates),
        "setup_s": median(ok_probes),
        "peak_rss_mb": median(rss),
        "ok_frac": 1.0 - bench.failed / bench.attempted,
        "err_mean_m": statistics.fmean(bench.err_by_seed.values()) if bench.err_by_seed else math.nan,
    }
    sorted_walls = sorted(walls)
    notes = {
        "wall_s": highest_percentile_note(len(walls)) + (
            f" (min {sorted_walls[0]:.4f}, max {sorted_walls[-1]:.4f})" if walls else ""
        ),
        "scans_per_s": f"{bench.spec['scans']} scans per run / meta.json wall_time_s, median of {len(rates)}",
        "setup_s": f"median of {len(ok_probes)} probes: start to first scan",
        "peak_rss_mb": f"median of {len(rss)} runs (ru_maxrss)",
        "ok_frac": f"failed_frac = {bench.failed}/{bench.attempted} = {bench.failed / bench.attempted:.4f}",
        "err_mean_m": f"mean over CLI seeds {sorted(bench.err_by_seed)} of the non-outage mean 3D error",
    }
    lines = [f"{'metric':<14}{'value':>14}  {'unit':<6}note"]
    for name, unit in END_TO_END_UNITS.items():
        lines.append(f"{name:<14}{metrics[name]:>14.6g}  {unit:<6}{notes[name]}")
    return metrics, lines


def traced(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    plain_walls, traced_walls, per_run, last_table = [], [], [], []
    t_start = time.monotonic()
    i = 0
    last = 0.0
    while bench.keep_going(i, SEEDS_PER_RUN, t_start, seconds, last):
        cli_seed = bench.cli_seeds[i % SEEDS_PER_RUN]
        pair_start = time.monotonic()
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            trace_path = bench.work / f"spans-{bench.runs + 1:03d}.json" if with_trace else None
            result = bench.cli_run(cli_seed, trace_path)
            if result is None:
                continue
            child, _ = result
            if not with_trace:
                plain_walls.append(child.wall_s)
                continue
            traced_walls.append(child.wall_s)
            trace = json.loads(trace_path.read_text())
            analysis = spans.analyse(trace)
            per_run.append(spans.layer_metrics(trace, analysis, bench.spec["threads"]))
            last_table = [f"trace {trace['run_id']} ({len(trace['spans'])} spans, {trace_path.name})"]
            last_table += spans.table(analysis)
        i += 1
        last = time.monotonic() - pair_start
    metrics = {name: median([m[name] for m in per_run]) for name in spans.PER_LAYER_UNITS if name != "trace_overhead_frac"}
    metrics["trace_overhead_frac"] = median(traced_walls) / median(plain_walls) - 1.0
    lines = last_table + ["", f"{'metric':<44}{'value':>14}  unit"]
    for name, unit in spans.PER_LAYER_UNITS.items():
        label = " (computed)" if name in spans.COMPUTED else ""
        lines.append(f"{name:<44}{metrics[name]:>14.6g}  {unit}{label}")
    lines.append(
        f"medians over {len(per_run)} traced runs; trace_overhead_frac = median traced wall "
        f"{median(traced_walls):.4f} s / median untraced wall {median(plain_walls):.4f} s - 1"
    )
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "vlp_sim" / "cli.py").is_file():
        print(f"error: no vlp_sim sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2

    machine = machine_facts()
    bench = Bench(args.workload, args.seed)
    mode = "traced" if args.trace else "end-to-end, tracing off"
    print(f"== perfbench {args.workload}: {mode}; seed {args.seed} -> CLI seeds {bench.cli_seeds}; "
          f"{args.seconds:g} s; one caller, closed loop")  # fmt: skip
    print("machine " + json.dumps(machine, sort_keys=True))
    metrics, lines = (traced if args.trace else end_to_end)(bench, args.seconds)
    for line in lines:
        print(line)

    units = spans.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if any(not math.isfinite(v) for v in metrics.values()):
        print("error: no successful run to measure", file=sys.stderr)
        return 1
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (bench.work / "result.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine, **result}, indent=2)
        + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
