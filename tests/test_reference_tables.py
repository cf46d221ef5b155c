"""Preset tables against the benchmark's stored reference tables.

``perfbench/data`` holds the table of each preset that the benchmark's
correctness gate compares a run with. This test applies the same rule, so
a change that the gate would reject fails here first. A table passes when
it is byte-identical to its reference, or else cell by cell: labels and
axis values exactly, values within 1e-12 relative for the closed forms and
1e-10 for the critical temperatures, each with an absolute floor of the
same size, and the no-crossing sentinel exactly. The references are read
as data; the benchmark package is not imported.
"""

import gzip
import json
import math
from pathlib import Path

import pytest

from xxchain.scan import PRESETS, SENTINEL, figure_preset, write_scan

DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"
TOL_CLOSED = 1e-12
TOL_CRITICAL = 1e-10


def _cells(text, labelled):
    for line in text.splitlines()[1:]:
        fields = line.split(",")
        label = fields.pop(0) if labelled else None
        numbers = [float(f) for f in fields]
        yield label, numbers[:-1], numbers[-1]


def _close(value, ref, tol):
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
