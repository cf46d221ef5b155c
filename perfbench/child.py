"""One measured pass of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload W --seed N --trace 0|1 --workdir DIR

``run.py`` starts one of these per pass, with ``PYTHONPATH`` set to the
checkout's ``src`` and BLAS/OpenMP threads pinned to 1. The child imports
numpy and xxchain, builds the pass inputs from the seed, makes one
warm-up call on other inputs and prints ``ready``; ``run.py`` times set-up
up to that line. It then measures one pass, traced with ``--trace 1``,
checks its outputs against the correctness references and prints one
JSON object: ops, failed ops, time inside the library, its start and end
on the ``perf_counter`` clock, op latencies, the set-up parts, peak
memory and, when traced, the per-layer snapshot. ``run.py`` turns the
records of all its children into metrics. A pass in a fresh process
cannot reuse anything an earlier pass computed.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

import workloads as wl
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def timed(fn, *args, **kwargs):
    """Call ``fn``; return its result, or the exception it raised, and the nanoseconds it took."""
    start = time.perf_counter_ns()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:
        result = exc
    return result, time.perf_counter_ns() - start


class Figures:
    """All four figure presets through scan.write_scan; one op is one cell."""

    op = "cell"

    def __init__(self, api, seed, workdir):
        # The presets are fixed; the seed selects nothing here.
        self.api = api
        self.workdir = workdir
        self.specs = {preset: api.scan.figure_preset(preset) for preset in wl.PRESETS}

    def warm_up(self):
        scan = self.api.scan
        spec = scan.ScanSpec(
            "concurrence",
            {"J": 1.0, "B1": 0.0},
            (scan.Axis("kbT", 0.5, 1.0, 2), scan.Axis("B", -1.0, 1.0, 2)),
        )
        scan.write_scan((spec,), self.workdir / "warmup.csv")

    def load_gate(self):
        self.reference = wl.figure_reference()
        self.ops = sum(len(rows) for _, rows in self.reference.values())

    def run_pass(self):
        elapsed = 0
        failed = 0
        latencies = []
        for preset in wl.PRESETS:
            path = self.workdir / f"{preset}.csv"
            result, ns = timed(self.api.scan.write_scan, self.specs[preset], path, preset_id=preset)
            elapsed += ns
            reference = self.reference[preset]
            cells = len(reference[1])
            # Each cell of a preset is given the preset's time per cell.
            latencies.append((ns / cells, cells))
            if isinstance(result, Exception):
                failed += cells
            else:
                failed += wl.figure_failures(path.read_text(), reference)
        return self.ops, failed, elapsed, latencies


class Verify:
    """scan.verify_suite(seed, draws=120); one op is one draw."""

    op = "draw"
    ops = wl.VERIFY_DRAWS

    def __init__(self, api, seed, workdir):
        self.api = api
        self.seed = seed

    def warm_up(self):
        # One draw of the next seed: the pass's own draws stay unseen.
        self.api.scan.verify_suite(seed=self.seed + 1, draws=1)

    def load_gate(self):
        pass

    def run_pass(self):
        report, ns = timed(self.api.scan.verify_suite, seed=self.seed, draws=self.ops)
        failed = self.ops if isinstance(report, Exception) else wl.verify_failures(report)
        return self.ops, failed, ns, [(ns / self.ops, self.ops)]


class Pointwise:
    """A seeded pass of single-point requests; one op is one request."""

    op = "request"
    ops = wl.BLOCK

    def __init__(self, api, seed, workdir):
        self.api = api
        self.requests, self.entries = wl.make_pass(api, wl.load_pool(), seed)

    def warm_up(self):
        # A point that is in no pass.
        wl.execute(self.api, wl.make_request(self.api, "crossing", wl.WARMUP_POINT))

    def load_gate(self):
        pass

    def run_pass(self):
        latencies, results = [], []
        for request in self.requests:
            raw, ns = timed(wl.execute, self.api, request)
            latencies.append(ns)
            results.append(raw)
        failed = 0
        for request, entry, raw in zip(self.requests, self.entries, results):
            kind = request[0]
            try:
                ok = not isinstance(raw, Exception) and wl.request_ok(kind, wl.summarize(kind, raw), entry["out"])
            except (ValueError, KeyError, TypeError):
                ok = False
            failed += not ok
        return self.ops, failed, sum(latencies), [(ns, 1) for ns in latencies]


WORKLOADS = {"figures": Figures, "verify": Verify, "pointwise": Pointwise}


def run_pass(workload, tracer=None) -> dict:
    start = time.perf_counter()
    if tracer is None:
        ops, failed, ns, latencies = workload.run_pass()
        snapshot = None
    else:
        tracer.install()
        try:
            ops, failed, ns, latencies = workload.run_pass()
        finally:
            tracer.remove()
        snapshot = tracer.snapshot()
    return {
        "ops": ops,
        "failed": failed,
        "ns": ns,
        "start": start,
        "end": time.perf_counter(),
        # (nanoseconds per op, number of ops) pairs.
        "latencies_ns": latencies,
        "snapshot": snapshot,
    }


def run(args) -> int:
    begun = time.perf_counter()
    import numpy  # here, so that its import time is one of the set-up parts

    numpy_imported = time.perf_counter()
    api = wl.Api()
    imported = time.perf_counter()
    source = Path(api.package.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: xxchain was imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](api, args.seed, args.workdir)
    built = time.perf_counter()
    workload.warm_up()
    warm = time.perf_counter()
    print("ready", flush=True)

    setup = {
        "setup.import_numpy_s": numpy_imported - begun,
        "setup.import_xxchain_s": imported - numpy_imported,
        "setup.inputs_s": built - imported,
        "setup.warmup_s": warm - built,
    }
    workload.load_gate()
    record = run_pass(workload, Tracer() if args.trace else None)
    result = {
        "pass": record,
        "setup": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "facts": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "op": workload.op,
            "ops_per_pass": record["ops"],
        },
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
