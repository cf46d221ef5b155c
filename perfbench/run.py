"""Benchmark of the xxchain library: one workload, one seed, one run.

    python3 perfbench/run.py --workload figures|verify|pointwise --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
Each pass runs in a fresh child interpreter (``child.py``), one child at a
time, until ``--seconds`` have gone, so no pass can reuse what an earlier
one computed; every pass of a run has the same inputs. Each child's
set-up, from process start to its ``ready`` line (import, input generation
and one warm-up call), is one set-up sample. Meanwhile this process
samples the machine's speed (``speedprobe``) and scales every time by the
speed during exactly the stretch it covers. With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` untraced and traced
passes alternate and it reports the per-layer metrics. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. The line before it holds the run's facts: machine,
versions, seed, pass and sample counts, unscaled figures.

At most two processes exist at once, this one and one child, and both
run on one CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from speedprobe import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("figures", "verify", "pointwise")
# Fewest passes in a run, whatever --seconds says; medians need a few.
MIN_PASSES = 3
# Every child is killed once this much time has passed since start.
DEADLINE_S = 170.0
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class ChildFailed(RuntimeError):
    pass


def run_child(argv, env, deadline):
    """Run one child to completion.

    Returns the ``perf_counter`` readings at its start and at its ``ready``
    line, and the rest of its standard output.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_at = time.perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise ChildFailed(f"child {' '.join(argv[1:])} exited with code {code}")
    return start, ready_at, rest


def _throughput(passes, scaled=True):
    return statistics.median(p["ops"] / (p["ns"] * 1e-9 * (p["factor"] if scaled else 1.0)) for p in passes)


def op_latencies_us(passes):
    """Scaled latency of every op of a pass, each the median over the passes.

    A pass reports its latencies as (nanoseconds per op, ops) pairs, one per
    unit it can time: a pointwise request, a figure preset, a verify pass.
    All passes of a run have the same inputs, so the units line up; taking
    each unit's median over the passes keeps what repeats in every pass and
    drops the machine's random stalls.
    """
    latencies = []
    for unit in zip(*(p["latencies_ns"] for p in passes)):
        ops = unit[0][1]
        median_ns = statistics.median(ns * p["factor"] for (ns, _), p in zip(unit, passes))
        latencies += [median_ns * 1e-3] * ops
    return latencies


def end_to_end(records):
    """Scaled end-to-end metrics from untraced child records, and their facts."""
    passes = [r["pass"] for r in records]
    latencies_us = op_latencies_us(passes)
    percentiles = statistics.quantiles(latencies_us, n=100, method="inclusive")
    metrics = {
        "ops_per_s": (_throughput(passes), "1/s"),
        "op_latency_us.p50": (percentiles[49], "us"),
        "op_latency_us.p99": (percentiles[98], "us"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in records), "MB"),
        "setup_s": (statistics.median(r["setup_s"] for r in records), "s"),
    }
    facts = {
        "latency_samples": len(latencies_us),
        "latency_units": len(passes[0]["latencies_ns"]),
        "raw_ops_per_s": _throughput(passes, scaled=False),
    }
    return metrics, facts


def per_layer(records):
    """Per-layer metrics from alternating untraced and traced child records, and their facts."""
    untraced = [r["pass"] for r in records if r["pass"]["snapshot"] is None]
    traced = [r["pass"] for r in records if r["pass"]["snapshot"] is not None]
    metrics = {}
    for name, value in traced[0]["snapshot"].items():
        if name.endswith(".self_s"):
            metrics[name] = (statistics.median(p["snapshot"][name] * p["factor"] for p in traced), "s")
        else:
            metrics[name] = (value, "B" if name.endswith(".bytes") else "count")
    traced_rate, untraced_rate = _throughput(traced), _throughput(untraced)
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.ops_per_s_ratio"] = (traced_rate / untraced_rate, "ratio")
    for name in records[0]["setup"]:
        metrics[name] = (statistics.median(r["setup"][name] * r["setup_factor"] for r in records), "s")
    counts = [{k: v for k, v in p["snapshot"].items() if not k.endswith(".self_s")} for p in traced]
    return metrics, {"counts_repeat": all(c == counts[0] for c in counts)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "xxchain" / "__init__.py").is_file():
        print(f"error: no xxchain sources at {ROOT / 'src' / 'xxchain'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    # A fixed hash seed keeps dict and set layouts, and so their speed, the
    # same in every child.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", **PINNED_THREADS)
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    child = [
        sys.executable,
        str(HERE / "child.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--workdir={workdir}",
    ]
    # This process, its probe thread and every child (which inherits the
    # affinity) share one CPU, so that the probe times the CPU the work runs
    # on: on a shared VM each virtual CPU is slowed on its own.
    pinned_cpu = None
    if hasattr(os, "sched_setaffinity"):
        pinned_cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {pinned_cpu})
    probe = SpeedProbe()
    probe.start()
    records = []
    try:
        begun = time.perf_counter()
        # With --trace 1, even passes are untraced and odd ones traced, and
        # the run ends after a traced pass.
        while (
            len(records) < MIN_PASSES
            or time.perf_counter() - begun < args.seconds
            or (args.trace == 1 and len(records) % 2 == 1)
        ):
            traced = args.trace == 1 and len(records) % 2 == 1
            start, ready_at, output = run_child(child + [f"--trace={int(traced)}"], env, deadline)
            record = json.loads(output.strip().splitlines()[-1])
            record["setup_factor"] = probe.factor(start, ready_at)
            record["setup_s"] = (ready_at - start) * record["setup_factor"]
            record["raw_setup_s"] = ready_at - start
            record["pass"]["factor"] = probe.factor(record["pass"]["start"], record["pass"]["end"])
            records.append(record)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace == 0:
        metrics, facts = end_to_end(records)
    else:
        metrics, facts = per_layer(records)
    passes = [r["pass"] for r in records]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    facts.update(records[0]["facts"])
    facts.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        nproc=os.cpu_count(),
        cpu=cpu_model(),
        platform=platform.platform(),
        passes=len(passes),
        speed_factor=statistics.median(p["factor"] for p in passes),
        setup_samples=len(records),
        raw_setup_s=statistics.median(r["raw_setup_s"] for r in records),
        pinned_threads=PINNED_THREADS,
        pinned_cpu=pinned_cpu,
        failed_ops_frac=failed / attempted,
    )
    print(json.dumps({"facts": facts}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
