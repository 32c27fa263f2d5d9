"""Command-line entry points.

Subcommands: cdf, snr-sweep, sync-test, scan-demo.  Each runs its runner
(scan-demo with its --rx receiver) and hands the RunResult to
io.write_results: data goes to files under --out, meta.json among them;
everything else (progress, errors, timing) goes to stderr.  Exit codes: 0
success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# no run makes a BLAS call, so numpy's OpenBLAS needs no worker thread; a
# caller's value stands.  Set before the first numpy import, which reads it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from .experiments import run_cdf_experiment, run_scan_demo, run_snr_sweep, run_sync_test  # noqa: E402
from .io import ConfigError, build_experiment, load_config, write_results  # noqa: E402


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the CLI contract wants 1
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--seed", type=int, metavar="U64", help="master seed")
    common.add_argument("--out", default=".", metavar="DIR", help="output directory (default: .)")
    common.add_argument(
        "--orientation",
        choices=["fixed", "random", "random-euler", "random-spherical"],
        help="receiver orientation model; snr-sweep runs this mode alone, over a config's orientation_modes",
    )
    common.add_argument(
        "--snr",
        metavar="DB[,DB...]",
        help="SNR in dB, comma list for sweeps; 'inf' means noiseless",
    )
    common.add_argument(
        "--threads",
        type=int,
        metavar="N",
        help="ignored: runs are single-threaded",
    )

    parser = _Parser(prog="vlp-sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("cdf", parents=[common], help="error CDFs over the position grid")
    sub.add_parser("snr-sweep", parents=[common], help="mean error versus SNR")
    sub.add_parser("sync-test", parents=[common], help="pilot realignment validation")
    demo = sub.add_parser("scan-demo", parents=[common], help="dump one sweep trace as CSV")
    demo.add_argument("--rx", metavar="X,Y,Z", help="receiver position in metres (default: room centre)")
    return parser


def _parse_snr_list(text: str | None):
    if text is None:
        return None
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as e:
        raise ConfigError(f"bad --snr value {text!r}: {e}") from e


def _parse_rx(text: str | None, room):
    if text is None:
        return None
    try:
        point = np.array([float(v) for v in text.split(",")])
        if point.shape != (3,):
            raise ValueError("need exactly three coordinates")
        room.check_receiver(point)
    except ValueError as e:
        raise ConfigError(f"bad --rx value {text!r}: {e}") from e
    return point


_RUNNERS = {"cdf": run_cdf_experiment, "snr-sweep": run_snr_sweep, "sync-test": run_sync_test,
            "scan-demo": run_scan_demo}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1

    try:
        overrides = {
            "seed": args.seed,
            "orientation_mode": args.orientation,
            # the flag names the one mode snr-sweep runs, as --snr names its snr values
            "orientation_modes": [args.orientation] if args.orientation and args.command == "snr-sweep" else None,
            "snr_db": _parse_snr_list(args.snr),
        }
        resolved, applied_defaults = load_config(args.config, overrides)
        cfg = build_experiment(resolved, args.command)
        run_args = (_parse_rx(args.rx, cfg.room),) if args.command == "scan-demo" else ()
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    try:
        t0 = time.perf_counter()
        result = _RUNNERS[args.command](cfg, *run_args)
        wall = time.perf_counter() - t0
        files = write_results(result, args.out, resolved, applied_defaults, wall_time_s=wall)
        for f in files:
            print(f"wrote {f}", file=sys.stderr)
        print(f"{args.command} finished in {wall:.1f} s", file=sys.stderr)
        return 0
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - boundary: report and signal failure
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
