"""Child-process shim for the benchmark: runs the vlp-sim CLI in one of two modes.

    python perfbench/child.py setup <cli args...>
        Runs the CLI up to its first scan, prints the CLOCK_MONOTONIC time
        of that moment on stdout and exits 0 at once.  The parent subtracts
        its own clock reading taken just before spawning, which gives
        interpreter start + imports + config load/build + beam-grid build.

    python perfbench/child.py trace <spans.json> <run id> <cli args...>
        Runs the CLI to completion with a span recorded around every call
        that crosses a module boundary into experiments, io or cli, and
        writes the spans and work counters to <spans.json> at exit.  Exits
        with the CLI's own exit code.

Both modes need the package importable (the parent puts src/ on PYTHONPATH).
The end-to-end runs do not use this shim: they run `python -m vlp_sim.cli`.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import sys
import threading
import time

# modules whose imports from sibling modules are the layer boundaries
CONSUMERS = ("vlp_sim.experiments", "vlp_sim.io", "vlp_sim.cli")
# module-internal functions also wrapped, because a per-layer metric counts them
INTERNAL = {"vlp_sim.experiments": ("reference_peak_power",)}


def _setup_mode(argv: list[str]) -> int:
    import vlp_sim.cli as cli
    import vlp_sim.experiments as experiments

    def first_scan(*args, **kwargs):
        os.write(1, f"{time.monotonic()!r}\n".encode())
        os._exit(0)

    experiments.run_scan = first_scan
    cli.main(argv)
    print("error: the CLI finished without reaching a scan", file=sys.stderr)
    return 3


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        # a worker thread's outermost span belongs to whatever the main thread
        # is running when it starts (the experiment that owns the pool)
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident()))

    def wrap(self, name: str, fn, hook=None):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def dump(self, path: str, extra: dict) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "thread")
        payload = {
            "run_id": self.run_id,
            "spans": [{**dict(zip(keys, s)), "run_id": self.run_id} for s in self.spans],
            "counters": self.counters,
            **extra,
        }
        with open(path, "w") as f:
            json.dump(payload, f)


# Computed work counts: derived from call arguments and results, not timed.
def _hook_run_scan(tracer, args, trace):
    if args["sigma_w"] > 0.0:
        tracer.count("scan.slots_noised", len(trace.samples))


def _hook_realign(tracer, args, result):
    import numpy as np

    taps = int(np.count_nonzero(np.asarray(args["pilot_w"], dtype=float)))
    tracer.count("scan.realign.tap_mults", taps * len(args["trace"].samples))


def _hook_estimate(tracer, args, est):
    from vlp_sim import estimator

    label = {
        estimator.STATUS_OK: "ok",
        estimator.STATUS_CLAMPED: "clamped",
        estimator.STATUS_LOW_SIGNAL: "low_signal",
    }.get(est.status, "other")
    tracer.count(f"estimator.status.{label}", 1)


def _hook_write_results(tracer, args, paths):
    tracer.count("io.bytes_written", sum(os.path.getsize(p) for p in paths))


HOOKS = {
    "scan.run_scan": _hook_run_scan,
    "scan.realign_with_pilot": _hook_realign,
    "estimator.estimate_position": _hook_estimate,
    "io.write_results": _hook_write_results,
}


def _layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def install(tracer: Tracer) -> None:
    """Rebind, in each consumer module, every function it imported from a
    sibling module (plus the listed internal ones) to a traced wrapper."""
    wrapped: dict[int, object] = {}

    def wrapper_for(fn):
        if id(fn) not in wrapped:
            name = _layer_name(fn)
            wrapped[id(fn)] = tracer.wrap(name, fn, HOOKS.get(name))
        return wrapped[id(fn)]

    consumers = [sys.modules[m] for m in CONSUMERS if m in sys.modules]
    for module in consumers:
        mod_name = module.__name__
        internal = INTERNAL.get(mod_name, ())
        for attr, obj in list(vars(module).items()):
            if not inspect.isfunction(obj) or not obj.__module__.startswith("vlp_sim."):
                continue
            if obj.__module__ != mod_name or attr in internal:
                setattr(module, attr, wrapper_for(obj))
    # dispatch tables captured the originals at import time
    for module in consumers:
        for obj in vars(module).values():
            if isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and id(value) in wrapped:
                        obj[key] = wrapped[id(value)]


def _trace_mode(spans_path: str, run_id: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import vlp_sim.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer(run_id)
    install(tracer)
    code = None
    try:
        code = tracer.span("cli.main", cli.main, argv)
        return code
    finally:
        tracer.dump(spans_path, {"import_s": import_s, "exit_code": code})


def main(argv: list[str]) -> int:
    if len(argv) >= 1 and argv[0] == "setup":
        return _setup_mode(argv[1:])
    if len(argv) >= 3 and argv[0] == "trace":
        return _trace_mode(argv[1], argv[2], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
