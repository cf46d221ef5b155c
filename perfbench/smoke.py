"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Run from the root of a checkout. Runs every workload of ``BENCHMARK.json``
for one second, which gives the fewest passes a run makes, untraced and
traced. It checks that the last output line has exactly the contract's
keys, that every metric named in ``BENCHMARK.json`` is emitted with its
unit and nothing else, that the correctness gates passed and that traced
counts repeated from one child process to the next. It then checks
that the benchmark refuses to run, without printing a result, in a
directory that holds only ``BENCHMARK.json`` and the benchmark's files.
Exits 1 on the first failed check. Takes about half a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}", file=sys.stderr)
        sys.exit(1)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = json.loads((cwd / "BENCHMARK.json").read_text())["command"]
    argv = [sys.executable if command[0] == "python3" else command[0], *command[1:]]
    argv += ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            done = run(ROOT, workload, trace)
            check(done.returncode == 0, f"{label}: exit code {done.returncode}\n{done.stderr}")
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            facts = json.loads(lines[-2])["facts"]
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0, f"{label}: {result['failed']} failed ops")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == expected[trace], f"{label}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(units) ^ set(expected[trace]))} {[n for n in units if units[n] != expected[trace].get(n)]}")
            values = [m["value"] for m in result["metrics"].values()]
            check(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values), f"{label}: non-finite value")
            if trace:
                check(facts["counts_repeat"], f"{label}: traced counts did not repeat")
            print(f"ok {label}: {result['attempted']} ops, {len(units)} metrics")

    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, spec["workloads"][0]["name"], 0)
        check(done.returncode != 0, "ran without the library's sources")
        check('"correct"' not in done.stdout, "printed a result without the library's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
