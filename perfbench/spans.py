"""Per-layer numbers from one traced run's spans.

A layer is a vlp_sim module; a span's layer is the part of its name before
the first dot.  A span's self time is its duration minus the part of that
interval its child spans cover, so for each span self + covered = duration.
Child spans from the worker threads of one experiment may overlap; the
overlap is reported so the table still reconciles to the run span:

    sum(self) = run span duration + overlap of parallel children
"""

from __future__ import annotations

from collections import defaultdict

NS = 1e-9

# per-layer metrics: name -> unit; BENCHMARK.json lists the same names
PER_LAYER_UNITS = {
    "scan.run_scan.calls": "count",
    "scan.run_scan.s": "s",
    "scan.slots_noised": "count",
    "scan.realign_with_pilot.calls": "count",
    "scan.realign_with_pilot.s": "s",
    "scan.realign.tap_mults": "count",
    "scan.apply_timing_offset.s": "s",
    "orientation.sample_receiver_normal.calls": "count",
    "orientation.sample_receiver_normal.s": "s",
    "estimator.estimate_position.calls": "count",
    "estimator.estimate_position.s": "s",
    "estimator.position_error.s": "s",
    "estimator.ok_frac": "frac",
    "estimator.low_signal.count": "count",
    "estimator.clamped.count": "count",
    "experiments.self_s": "s",
    "experiments.reference_peak_power.calls": "count",
    "experiments.worker_util": "frac",
    "geometry.build_beam_grid.s": "s",
    "io.load_config.s": "s",
    "io.build_experiment.s": "s",
    "cli.import_s": "s",
    "io.write_results.s": "s",
    "io.bytes_written": "bytes",
    "trace_overhead_frac": "frac",
}

# work counts derived from call arguments and results rather than observed
COMPUTED = ("scan.slots_noised", "scan.realign.tap_mults", "io.bytes_written")


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def analyse(trace: dict) -> dict:
    """Self/child times per span name and per layer, plus the reconciliation."""
    spans = trace["spans"]
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    by_name = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "child_ns": 0})
    overlap_ns = 0
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        kids = children.get(s["id"], [])
        covered = _covered([(k["start_ns"], k["end_ns"]) for k in kids], s["start_ns"], s["end_ns"])
        overlap_ns += sum(k["end_ns"] - k["start_ns"] for k in kids) - covered
        row = by_name[s["name"]]
        row["calls"] += 1
        row["total_ns"] += dur
        row["self_ns"] += dur - covered
        row["child_ns"] += covered
    by_layer = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "child_ns": 0})
    for name, row in by_name.items():
        layer = by_layer[name.split(".", 1)[0]]
        for key, value in row.items():
            layer[key] += value
    roots = [s for s in spans if s["parent"] is None]
    root_ns = sum(s["end_ns"] - s["start_ns"] for s in roots)
    return {
        "by_name": dict(by_name),
        "by_layer": dict(by_layer),
        "root_ns": root_ns,
        "self_sum_ns": sum(r["self_ns"] for r in by_name.values()),
        "overlap_ns": overlap_ns,
    }


def layer_metrics(trace: dict, analysis: dict, threads: int) -> dict:
    """The per-layer metrics of one traced run; a name never called reads 0."""
    by_name = analysis["by_name"]
    counters = trace["counters"]

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def seconds(name):
        return by_name.get(name, {}).get("total_ns", 0) * NS

    runs = {s["id"]: s for s in trace["spans"] if s["name"].startswith("experiments.run_")}
    run_ns = sum(s["end_ns"] - s["start_ns"] for s in runs.values())
    busy_ns = sum(s["end_ns"] - s["start_ns"] for s in trace["spans"] if s["parent"] in runs)
    estimates = sum(v for k, v in counters.items() if k.startswith("estimator.status."))
    return {
        "scan.run_scan.calls": calls("scan.run_scan"),
        "scan.run_scan.s": seconds("scan.run_scan"),
        "scan.slots_noised": counters.get("scan.slots_noised", 0),
        "scan.realign_with_pilot.calls": calls("scan.realign_with_pilot"),
        "scan.realign_with_pilot.s": seconds("scan.realign_with_pilot"),
        "scan.realign.tap_mults": counters.get("scan.realign.tap_mults", 0),
        "scan.apply_timing_offset.s": seconds("scan.apply_timing_offset"),
        "orientation.sample_receiver_normal.calls": calls("orientation.sample_receiver_normal"),
        "orientation.sample_receiver_normal.s": seconds("orientation.sample_receiver_normal"),
        "estimator.estimate_position.calls": calls("estimator.estimate_position"),
        "estimator.estimate_position.s": seconds("estimator.estimate_position"),
        "estimator.position_error.s": seconds("estimator.position_error"),
        "estimator.ok_frac": counters.get("estimator.status.ok", 0) / estimates if estimates else 0.0,
        "estimator.low_signal.count": counters.get("estimator.status.low_signal", 0),
        "estimator.clamped.count": counters.get("estimator.status.clamped", 0),
        "experiments.self_s": analysis["by_layer"].get("experiments", {}).get("self_ns", 0) * NS,
        "experiments.reference_peak_power.calls": calls("experiments.reference_peak_power"),
        "experiments.worker_util": busy_ns / (threads * run_ns) if run_ns else 0.0,
        "geometry.build_beam_grid.s": seconds("geometry.build_beam_grid"),
        "io.load_config.s": seconds("io.load_config"),
        "io.build_experiment.s": seconds("io.build_experiment"),
        "cli.import_s": trace["import_s"],
        "io.write_results.s": seconds("io.write_results"),
        "io.bytes_written": counters.get("io.bytes_written", 0),
    }


def table(analysis: dict) -> list[str]:
    """Human-readable per-layer and per-span table with the reconciliation line."""
    lines = [f"{'layer / span':<44}{'calls':>8}{'total_s':>11}{'self_s':>11}{'child_s':>11}"]
    by_name = analysis["by_name"]
    for layer, row in sorted(analysis["by_layer"].items(), key=lambda kv: -kv[1]["self_ns"]):
        lines.append(
            f"{layer:<44}{row['calls']:>8}{row['total_ns'] * NS:>11.4f}"
            f"{row['self_ns'] * NS:>11.4f}{row['child_ns'] * NS:>11.4f}"
        )
        names = [n for n in by_name if n.split(".", 1)[0] == layer]
        for name in sorted(names, key=lambda n: -by_name[n]["self_ns"]):
            r = by_name[name]
            lines.append(
                f"  {name:<42}{r['calls']:>8}{r['total_ns'] * NS:>11.4f}"
                f"{r['self_ns'] * NS:>11.4f}{r['child_ns'] * NS:>11.4f}"
            )
    gap = analysis["root_ns"] + analysis["overlap_ns"] - analysis["self_sum_ns"]
    lines.append(
        f"reconcile: sum(self) {analysis['self_sum_ns'] * NS:.6f} s = run span "
        f"{analysis['root_ns'] * NS:.6f} s + parallel overlap {analysis['overlap_ns'] * NS:.6f} s "
        f"(gap {gap * NS:.2e} s)"
    )
    return lines
