"""Library outputs against the benchmark's stored references.

``perfbench/data`` holds what the benchmark's correctness gates compare a
run with: the table of each preset and the pool of single-point requests
with their outputs. These tests apply the same rules, so a change that
the gates would reject fails here first. A table passes when it is
byte-identical to its reference, or else cell by cell: labels and axis
values exactly, values within 1e-12 relative for the closed forms and
1e-10 for the critical temperatures, each with an absolute floor of the
same size, and the no-crossing sentinel exactly. A pool request passes
when each output is within the same tolerances, 1e-6 for the envelope's
argmax and peak, and every other output is equal; solver diagnostics
(``residual``, ``iterations``, ``note``) are not compared. The references
are read as data; the benchmark package is not imported.
"""

import contextlib
import gzip
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from xxchain import cli
from xxchain.entanglement import (
    concurrence_closed_form,
    concurrence_wootters,
    entanglement_critical_temp,
)
from xxchain.model import ChainParams, Temperature, thermal_coefficients, thermal_state
from xxchain.scan import PRESETS, SENTINEL, figure_preset, write_scan
from xxchain.teleportation import fidelity_critical_temp, teleport_metrics

DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"
TOL_CLOSED = 1e-12
TOL_CRITICAL = 1e-10
TOL_ENVELOPE = 1e-6


def _cells(text, labelled):
    for line in text.splitlines()[1:]:
        fields = line.split(",")
        label = fields.pop(0) if labelled else None
        numbers = [float(f) for f in fields]
        yield label, numbers[:-1], numbers[-1]


def _close(value, ref, tol):
    if value is None or ref is None:
        return value is ref
    if value == SENTINEL or ref == SENTINEL:
        return value == ref
    return math.isclose(value, ref, rel_tol=tol, abs_tol=tol)


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_matches_benchmark_reference(preset, tmp_path):
    table, _ = write_scan(figure_preset(preset), tmp_path / f"{preset}.csv", preset_id=preset)
    text = table.read_text()
    with gzip.open(DATA / f"{preset}.csv.gz", "rt") as handle:
        reference = handle.read()
    if text == reference:
        return
    meta = json.loads((DATA / f"{preset}.csv.meta.json").read_text())
    tolerances = []
    for series in meta["series"]:
        cells = math.prod(axis["points"] for axis in series["axes"])
        critical = series["observable"].startswith("criticalTemp")
        tolerances += [TOL_CRITICAL if critical else TOL_CLOSED] * cells
    assert text.splitlines()[0] == reference.splitlines()[0]
    labelled = len(meta["series"]) > 1
    got = list(_cells(text, labelled))
    expected = list(_cells(reference, labelled))
    assert len(got) == len(expected) == len(tolerances)
    misses = [
        (row, ref_row)
        for row, ref_row, tol in zip(got, expected, tolerances)
        if row[:2] != ref_row[:2] or not _close(row[2], ref_row[2], tol)
    ]
    assert not misses, f"{len(misses)} cells off the reference, first {misses[:3]}"


with gzip.open(DATA / "pointwise_pool.json.gz", "rt") as _handle:
    POOL = json.load(_handle)["kinds"]
# Positions of the five X-state entries the pool records: the diagonal, then
# the |01><10| coherence.
_X_RECORDED = ((0, 0), (1, 1), (2, 2), (3, 3), (1, 2))
_X_PATTERN = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]
# Outputs compared within a tolerance; every other output must be equal.
_TOLERANCE = {
    "concurrence": TOL_CLOSED,
    "singletFraction": TOL_CLOSED,
    "fidelity": TOL_CLOSED,
    "entanglementTc": TOL_CRITICAL,
    "fidelityTc": TOL_CRITICAL,
    "value": TOL_CRITICAL,
    "argmaxB": TOL_ENVELOPE,
    "maxT": TOL_ENVELOPE,
}
_UNCOMPARED = {"rho", "rhoOffX", "residual", "iterations", "note"}


def _misses(out, ref):
    # The outputs that miss the reference, leaving out those in _UNCOMPARED.
    out, ref = ({k: v for k, v in d.items() if k not in _UNCOMPARED} for d in (out, ref))
    if set(out) != set(ref):
        return sorted(set(out) ^ set(ref))
    return [
        key
        for key in sorted(out)
        if not (
            _close(out[key], ref[key], _TOLERANCE[key])
            if key in _TOLERANCE
            else out[key] == ref[key]
        )
    ]


def _point_misses(kind, point, ref):
    # The outputs of one single-point request that miss the reference.
    j, b, b1, kbt = point
    params, temp = ChainParams(j=j, b=b, b1=b1), Temperature(kbt)
    rho = thermal_state(params, temp)
    threshold = fidelity_critical_temp(params)
    out = {
        "entanglementTc": entanglement_critical_temp(params).value,
        "fidelityTc": threshold.value if threshold.exists else None,
    }
    if kind == "ground":
        out["concurrence"] = concurrence_wootters(rho)
    else:
        out["concurrence"] = concurrence_closed_form(thermal_coefficients(params, temp))
        metrics = teleport_metrics(params, temp)
        out["singletFraction"] = metrics.singlet_fraction
        out["fidelity"] = metrics.fidelity
    misses = _misses(out, ref)
    recorded = [float(rho[index].real) for index in _X_RECORDED]
    if not all(_close(a, r, TOL_CLOSED) for a, r in zip(recorded, ref["rho"])):
        misses.append("rho")
    if np.max(np.abs(rho[~_X_PATTERN])) > TOL_CLOSED:
        misses.append("rhoOffX")
    return misses


def _cli_argv(kind, point):
    j, b, b1, kbt = (repr(float(v)) for v in point)
    if kind == "cli_compute":
        return ["compute", "--j", j, "--b", b, "--b1", b1, "--kbt", kbt]
    if kind == "cli_critical":
        return ["critical", "--kind", "fidelity", "--j", j, "--b", b, "--b1", b1]
    return ["envelope", "--j", j, "--b1", b1]


def _cli_misses(kind, point, ref):
    # The outputs of one in-process CLI request that miss the reference.
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(_cli_argv(kind, point))
    return _misses({"exit": code, **json.loads(buffer.getvalue())}, ref)


@pytest.mark.parametrize("kind", sorted(POOL))
def test_pointwise_pool_matches_benchmark_reference(kind):
    check = _cli_misses if kind.startswith("cli_") else _point_misses
    misses = []
    for entry in POOL[kind]:
        keys = check(kind, entry["in"], entry["out"])
        if keys:
            misses.append((entry["in"], keys))
    assert not misses, f"{len(misses)} of {len(POOL[kind])} {kind} requests off, first {misses[:3]}"
