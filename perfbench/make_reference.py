"""Regenerate the stored references the benchmark's correctness gates compare to.

    python3 perfbench/make_reference.py

Run from the root of a checkout. It writes ``perfbench/data``: the four
figure preset tables exactly as ``scan.write_scan`` emits them (gzipped,
with their sidecars) and the pointwise request pool with the outputs of
every request. Regenerate only when a change to the library is meant to
change these outputs, and say so where the change is recorded.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402

# Each sub-pool holds twice the requests a pass takes of its kind, so that
# a pass draws half of it without replacement; POOL_SEED draws the points.
POOL_SIZES = {kind: 2 * count for kind, count in wl.PASS_KINDS.items()}
POOL_SEED = 20030520


def _domain_point(rng):
    # The verify domain: |J| >= 0.05 in [-3, 3], B in [-5, 5],
    # B1 in [-6, 6], kbT in [0.05, 10].
    while True:
        j = float(rng.uniform(-3.0, 3.0))
        if abs(j) >= 0.05:
            break
    return [j, float(rng.uniform(-5.0, 5.0)), float(rng.uniform(-6.0, 6.0)), float(rng.uniform(0.05, 10.0))]


def _drive_over_eta(api, point) -> float:
    """|B + B1/2| - eta, computed as the library computes both; < 0 means a crossing."""
    j, b, b1, _ = point
    return abs(b + 0.5 * b1) - api.model.ChainParams(j=j, b=b, b1=b1).eta


def _draw(api, rng, kind: str):
    """A verify-domain point for one request kind, rejected and redrawn until it fits the kind."""
    while True:
        point = _domain_point(rng)
        if kind == "crossing" and _drive_over_eta(api, point) >= 0.0:
            continue
        if kind == "nocross" and _drive_over_eta(api, point) < 0.0:
            continue
        if kind == "boundary":
            # Move B onto |B + B1/2| = eta. Rounding can leave the drive
            # one ulp below eta; such a point is not on the boundary.
            j, _, b1, _ = point
            point[1] = float(np.hypot(j, 0.5 * b1)) - 0.5 * b1
            if abs(point[1]) > 5.0 or _drive_over_eta(api, point) < 0.0:
                continue
        if kind == "ground":
            point[3] = 0.0
        return point


def make_pool(api):
    """Draw every sub-pool and record each request's outputs.

    Any exception, and any CLI exit code other than 0, stops the
    generation: a reference must not quietly leave out the points the
    library fails on.
    """
    rng = np.random.default_rng(POOL_SEED)
    kinds = {}
    for kind, size in POOL_SIZES.items():
        entries = []
        while len(entries) < size:
            point = _draw(api, rng, kind)
            request = wl.make_request(api, kind, point)
            out = wl.summarize(kind, wl.execute(api, request))
            if kind.startswith("cli_"):
                if out["exit"] != 0:
                    raise RuntimeError(f"{kind} {point}: exit code {out['exit']}")
            else:
                params, temp = request[1]
                oracle = api.model.gibbs_oracle(params, temp)
                state = api.model.thermal_state(params, temp)
                if float(np.max(np.abs(state - oracle))) > 1e-10:
                    raise RuntimeError(f"{kind} {point}: closed-form state disagrees with the oracle")
                crossing_expected = {"crossing": True, "nocross": False, "boundary": False}.get(kind)
                if crossing_expected is not None and (out["fidelityTc"] is not None) != crossing_expected:
                    raise RuntimeError(f"{kind} {point}: unexpected fidelity crossing status")
            entries.append({"in": point, "out": out})
        kinds[kind] = entries
    return {"seed": POOL_SEED, "sizes": POOL_SIZES, "kinds": kinds}


def main() -> int:
    api = wl.Api()
    wl.DATA.mkdir(exist_ok=True)
    scratch = ROOT / ".bench_build" / "make_reference"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for preset in wl.PRESETS:
            table, sidecar = api.scan.write_scan(
                api.scan.figure_preset(preset), scratch / f"{preset}.csv", preset_id=preset
            )
            with gzip.GzipFile(wl.DATA / f"{preset}.csv.gz", "wb", mtime=0) as handle:
                handle.write(table.read_bytes())
            shutil.copyfile(sidecar, wl.DATA / f"{preset}.csv.meta.json")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    pool = json.dumps(make_pool(api), sort_keys=True).encode()
    with gzip.GzipFile(wl.DATA / "pointwise_pool.json.gz", "wb", mtime=0) as handle:
        handle.write(pool)
    return 0


if __name__ == "__main__":
    sys.exit(main())
