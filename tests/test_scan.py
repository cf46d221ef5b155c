"""Scan specs, figure presets, file output, and the self-check suite."""

import itertools
import json
import math
import os
import threading

import numpy as np
import pytest

from xxchain import __version__, cli, numerics, scan, teleportation
from xxchain.entanglement import concurrence_closed_form, entanglement_critical_temp_grid
from xxchain.model import ChainParams, thermal_point
from xxchain.scan import (
    OBSERVABLES,
    PRESETS,
    SENTINEL,
    Axis,
    ScanSpec,
    ScanValidationError,
    _draws,
    _evaluate,
    figure_preset,
    scan_spec_from_json,
    verify_suite,
    write_scan,
)
from xxchain.teleportation import fidelity_critical_temp_grid

CLASSICAL_BOUND = 2.0 / 3.0


def three_point_spec():
    return ScanSpec(
        "concurrence", {"J": 1.0, "B": 0.0, "B1": 0.0}, (Axis("kbT", 0.1, 2.0, 3),)
    )


def read_through_fifo(fifo, write):
    """``write()``'s result and the bytes a thread read from ``fifo`` meanwhile."""
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        result = write()
        reader.join(timeout=60)
        finished = not reader.is_alive()
    finally:
        if reader.is_alive():
            # No writer opened the FIFO: one that does and closes it ends the read.
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    assert finished, "the FIFO's reader did not finish"
    return result, received[0]


def scan_values(spec):
    # The spec's values on its axis mesh, first axis outermost.
    return _evaluate((spec,))[0]


class TestRunScan:
    def test_concurrence_rows(self):
        spec = three_point_spec()
        values = scan_values(spec)
        assert spec.axes[0].grid().tolist() == [0.1, 1.05, 2.0]
        # frozen from a 50-digit mpmath evaluation of the concurrence
        # closed form at these three temperatures
        assert abs(values[0] - 0.9998184126471232) < 1e-12
        assert abs(values[1] - 0.041395093356478313) < 1e-12
        assert values[2] == 0.0

    def test_fidelity_row(self):
        spec = ScanSpec(
            "fidelity", {"J": 1.0, "B": 0.0, "B1": 0.0}, (Axis("kbT", 0.5, 1.0, 2),)
        )
        values = scan_values(spec)
        # frozen from (2 F + 1) / 3 with F = e^2 / (2 + 2 cosh 2)
        assert abs(values[0] - 0.8505356617162506) < 1e-13

    def test_two_axis_row_major_order(self):
        spec = ScanSpec(
            "concurrence",
            {"J": 1.0, "B1": 0.0},
            (Axis("kbT", 0.5, 1.0, 2), Axis("B", -1.0, 1.0, 3)),
        )
        values = scan_values(spec)
        assert values.shape == (2, 3)
        for i, kbt in enumerate(spec.axes[0].grid().tolist()):
            for k, b in enumerate(spec.axes[1].grid().tolist()):
                assert values[i, k] == concurrence_closed_form(thermal_point(1.0, b, 0.0, kbt))

    def test_sentinel_for_missing_critical_temp(self):
        spec = ScanSpec(
            "criticalTempFidelity", {"J": 1.0, "B": -4.0}, (Axis("B1", 0.0, 6.0, 3),)
        )
        values = scan_values(spec)
        # B1 = 0: drive 4 > eta 1, no crossing; B1 = 6: drive 1 < eta sqrt(10)
        assert values[0] == SENTINEL
        assert values[2] > 0.0

    def test_subnormal_temperature_axis(self):
        # kbT = 5e-324 makes beta = inf; both cells are the ground-state
        # doublet's concurrence |J|/eta = 1/sqrt(2).
        spec = ScanSpec(
            "concurrence", {"J": 1.0, "B": -0.7, "B1": 2.0}, (Axis("kbT", 5e-324, 1e-300, 2),)
        )
        values = scan_values(spec)
        assert spec.axes[0].grid().tolist() == [5e-324, 1e-300]
        for value in values:
            assert abs(value - 1.0 / math.sqrt(2.0)) < 1e-12

    def test_entanglement_critical_temp_ignores_b(self):
        spec = ScanSpec(
            "criticalTempEntanglement", {"J": 1.0, "B": 2.5}, (Axis("B1", 0.0, 2.0, 2),)
        )
        values = scan_values(spec)
        bare = scan_values(
            ScanSpec("criticalTempEntanglement", {"J": 1.0}, (Axis("B1", 0.0, 2.0, 2),))
        )
        assert values.tobytes() == bare.tobytes()


class TestValidation:
    def test_unknown_observable(self):
        spec = ScanSpec("entropy", {"J": 1.0}, (Axis("kbT", 0.1, 1.0, 5),))
        with pytest.raises(ScanValidationError, match="unknown observable"):
            _evaluate((spec,))

    def test_no_axes(self):
        spec = ScanSpec("concurrence", {"J": 1.0, "B": 0.0, "B1": 0.0, "kbT": 1.0}, ())
        with pytest.raises(ScanValidationError, match="1 or 2 axes"):
            _evaluate((spec,))

    def test_message_collects_every_problem(self):
        spec = ScanSpec(
            "concurrence",
            {"J": 0.0, "spin": 1.0},
            (Axis("kbT", 2.0, 1.0, 1), Axis("kbT", 0.1, 1.0, 5)),
        )
        with pytest.raises(ScanValidationError) as info:
            _evaluate((spec,))
        message = str(info.value)
        assert "points must be >= 2" in message
        assert "lo must be < hi" in message
        assert "duplicate axis names" in message
        assert "unknown fixed parameter 'spin'" in message
        assert "missing parameters for concurrence" in message

    @pytest.mark.parametrize("points", [2.9, "3", True, None])
    def test_points_must_be_a_whole_number(self, tmp_path, points):
        # A fraction must fail, not be truncated to a shorter table.
        data = {
            "observable": "concurrence",
            "fixed": {"J": 1, "B": 0, "B1": 0},
            "axes": [{"name": "kbT", "lo": 0.1, "hi": 2.0, "points": points}],
        }
        with pytest.raises(ScanValidationError, match="points must be an integer"):
            scan_spec_from_json(data)
        spec_path, out = tmp_path / "spec.json", tmp_path / "out.csv"
        spec_path.write_text(json.dumps(data))
        assert cli.main(["scan", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert not out.exists()
        data["axes"][0]["points"] = 3.0
        assert scan_spec_from_json(data) == three_point_spec()

    def test_axis_fixed_overlap(self):
        spec = ScanSpec(
            "concurrence",
            {"J": 1.0, "B": 0.0, "B1": 0.0, "kbT": 1.0},
            (Axis("kbT", 0.1, 1.0, 5),),
        )
        with pytest.raises(ScanValidationError, match="both fixed and swept"):
            _evaluate((spec,))

    def test_unused_parameter_rejected(self):
        spec = ScanSpec(
            "criticalTempEntanglement",
            {"J": 1.0, "kbT": 1.0},
            (Axis("B1", 0.0, 2.0, 5),),
        )
        with pytest.raises(ScanValidationError, match="not used by"):
            _evaluate((spec,))

    def test_b_tolerated_for_entanglement_critical_temp(self):
        spec = ScanSpec(
            "criticalTempEntanglement", {"J": 1.0, "B": 1.0}, (Axis("B1", 0.0, 2.0, 2),)
        )
        _evaluate((spec,))  # must not raise

    def test_from_json_round_trip(self):
        data = {
            "observable": "concurrence",
            "fixed": {"J": 1, "B": 0, "B1": 0},
            "axes": [{"name": "kbT", "lo": 0.1, "hi": 2.0, "points": 3}],
        }
        spec = scan_spec_from_json(data)
        assert spec == three_point_spec()

    def test_from_json_malformed(self):
        with pytest.raises(ScanValidationError, match="malformed"):
            scan_spec_from_json({"observable": "concurrence"})
        with pytest.raises(ScanValidationError, match="malformed"):
            scan_spec_from_json(
                {"observable": "concurrence", "axes": [{"name": "kbT", "lo": 0.1}]}
            )

    @pytest.mark.parametrize("fixed", [[], None, "x"])
    def test_from_json_fixed_must_be_an_object(self, fixed):
        data = {
            "observable": "concurrence",
            "fixed": fixed,
            "axes": [{"name": "kbT", "lo": 0.1, "hi": 1, "points": 3}],
        }
        message = f"malformed scan spec: fixed must be an object, got {fixed!r}"
        with pytest.raises(ScanValidationError) as info:
            scan_spec_from_json(data)
        assert str(info.value) == message


class TestFigurePresets:
    def test_shapes(self):
        assert len(figure_preset("fig1a")) == 1
        assert len(figure_preset("fig1b")) == 1
        assert len(figure_preset("fig2")) == 4
        assert len(figure_preset("fig3")) == 6
        spec = figure_preset("fig1a")[0]
        assert [ax.name for ax in spec.axes] == ["kbT", "B"]
        assert [ax.points for ax in spec.axes] == [81, 81]
        assert scan_values(spec).shape == (81, 81)

    def test_frozen_expansion(self):
        assert figure_preset("fig2") == figure_preset("fig2")
        assert tuple(s.fixed["B"] for s in figure_preset("fig3")[1:]) == (
            0.0, -1.0, -2.0, -3.0, -4.0,
        )

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            figure_preset("fig9")

    def test_fig2_zero_field_curve_crosses_classical_bound_on_grid(self):
        spec = figure_preset("fig2")[3]
        assert spec.fixed == {"J": 1.0, "B": 0.0, "B1": 0.0}
        kbt, values = spec.axes[0].grid(), scan_values(spec)
        crossing = 1.1345926571065110  # frozen from 1 / log(1 + sqrt(2))
        above = kbt[values > CLASSICAL_BOUND]
        below = kbt[values < CLASSICAL_BOUND]
        assert above.size and below.size
        assert above.max() < crossing < below.min()
        step = (3.0 - 0.02) / 299
        assert below.min() - above.max() <= step + 1e-12

    def test_fig3_entanglement_curve_anchor(self):
        spec = figure_preset("fig3")[0]
        assert spec.axes[0].grid()[0] == 0.0
        # frozen from 1 / log(1 + sqrt(2))
        assert abs(scan_values(spec)[0] - 1.1345926571065110) < 1e-5

    def test_fig3_envelope_tangency(self):
        specs = figure_preset("fig3")
        b1 = specs[0].axes[0].grid().tolist()
        entanglement = dict(zip(b1, scan_values(specs[0]).tolist()))
        compensated = dict(zip(b1, scan_values(specs[2]).tolist()))  # B = -1
        assert abs(compensated[2.0] - entanglement[2.0]) < 1e-6
        for b1 in (1.0, 3.0):
            if compensated[b1] == SENTINEL:
                continue
            assert entanglement[b1] - compensated[b1] > 1e-3

    def test_fig3_sentinel_hygiene(self):
        for spec in figure_preset("fig3"):
            values = scan_values(spec)
            assert np.all((values == SENTINEL) | (values > 0.0))


class TestWriteScan:
    def test_single_spec_csv_round_trip(self, tmp_path):
        out = tmp_path / "scan.csv"
        table_path, sidecar_path = write_scan([three_point_spec()], out)
        assert table_path == out
        assert sidecar_path == tmp_path / "scan.csv.meta.json"
        lines = out.read_text().splitlines()
        assert lines[0] == "kbT,concurrence"
        parsed = [tuple(float(c) for c in line.split(",")) for line in lines[1:]]
        assert [row[0] for row in parsed] == three_point_spec().axes[0].grid().tolist()
        assert [row[1] for row in parsed] == scan_values(three_point_spec()).tolist()

    def test_rewrite_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_scan(figure_preset("fig2"), first, preset_id="fig2")
        write_scan(figure_preset("fig2"), second, preset_id="fig2")
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "a.csv.meta.json").read_bytes() == (
            tmp_path / "b.csv.meta.json"
        ).read_bytes()

    def test_multi_spec_csv_layout(self, tmp_path):
        out = tmp_path / "fig2.csv"
        write_scan(figure_preset("fig2"), out, preset_id="fig2")
        lines = out.read_text().splitlines()
        assert lines[0] == "series,kbT,value"
        assert len(lines) == 1 + 4 * 300
        first = lines[1].split(",")
        assert first[0] == "B=-1 B1=2"
        assert float(first[1]) == 0.02
        labels = {line.split(",")[0] for line in lines[1:]}
        assert labels == {"B=-1 B1=2", "B=0 B1=2", "B=-0.5 B1=0", "B=0 B1=0"}

    def test_sidecar_contents(self, tmp_path):
        out = tmp_path / "fig3.csv"
        _, sidecar_path = write_scan(figure_preset("fig3"), out, preset_id="fig3")
        meta = json.loads(sidecar_path.read_text())
        assert meta["preset"] == "fig3"
        assert meta["version"] == __version__
        assert meta["columns"] == ["series", "B1", "value"]
        assert meta["sentinel"]["value"] == SENTINEL
        assert len(meta["series"]) == 6
        assert meta["series"][0]["observable"] == "criticalTempEntanglement"
        assert meta["series"][1]["fixed"] == {"B": 0.0, "J": 1.0}
        assert meta["series"][0]["axes"] == [
            {"name": "B1", "lo": 0.0, "hi": 6.0, "points": 121}
        ]

    def test_a_fifo_takes_the_table_alone(self, tmp_path):
        # A FIFO is a stream: the table goes through it, and no sidecar beside it.
        fifo = tmp_path / "fig3.fifo"
        os.mkfifo(fifo)
        specs = figure_preset("fig3")
        result, streamed = read_through_fifo(fifo, lambda: write_scan(specs, fifo, preset_id="fig3"))
        assert result == (fifo, None)
        assert not os.path.lexists(f"{fifo}.meta.json")
        table, _ = write_scan(specs, tmp_path / "fig3.csv", preset_id="fig3")
        assert streamed == table.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "scan.json"
        write_scan([three_point_spec()], out, fmt="json")
        body = json.loads(out.read_text())
        assert body["columns"] == ["kbT", "concurrence"]
        assert len(body["rows"]) == 3
        assert body["rows"][0][0] == 0.1

    def test_mixed_axes_rejected(self, tmp_path):
        other = ScanSpec(
            "concurrence", {"J": 1.0, "B": 0.0, "B1": 0.0}, (Axis("J", 0.5, 1.0, 2),)
        )
        with pytest.raises(ValueError, match="same axes"):
            write_scan([three_point_spec(), other], tmp_path / "bad.csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            write_scan([three_point_spec()], tmp_path / "x.dat", fmt="tsv")


def _swept_coupling(kbt_lo):
    # A J axis through 0; every cell at J = 0 is rejected by the kernel.
    return ScanSpec(
        "concurrence",
        {"B": 0.0, "B1": 0.0},
        (Axis("J", -1.0, 1.0, 3), Axis("kbT", kbt_lo, 1.0, 2)),
    )


def _labelled_rows(specs, sidecar):
    # Each cell's axis values and value, behind its label when there are
    # several specs, from each spec evaluated alone.
    meta = json.loads(sidecar.read_text())
    labels = [series["label"] for series in meta["series"]]
    single = len(specs) == 1
    rows = []
    for label, spec in zip(labels, specs):
        points = itertools.product(*(ax.grid().tolist() for ax in spec.axes))
        for point, value in zip(points, scan_values(spec).ravel().tolist()):
            rows.append([*point, value] if single else [label, *point, value])
    return meta["columns"], rows


def _json_table(columns, rows):
    # The bytes write_scan must reproduce for a JSON table.
    return json.dumps({"columns": columns, "rows": rows}, indent=2, sort_keys=True) + "\n"


def _default_label_specs():
    # Two series that differ only in their axis range take the default label.
    axes = [(Axis("kbT", 0.1, hi, 3),) for hi in (1.0, 2.0)]
    return [ScanSpec("concurrence", {"J": 1.0, "B": 0.0, "B1": 0.0}, ax) for ax in axes]


class TestTablesFromArrays:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_tables_equal_formatted_rows(self, preset, tmp_path):
        specs = figure_preset(preset)
        table, sidecar = write_scan(specs, tmp_path / "t.csv", preset_id=preset)
        as_json, json_sidecar = write_scan(specs, tmp_path / "t.json", preset_id=preset, fmt="json")
        columns, rows = _labelled_rows(specs, sidecar)
        header, body = table.read_text().split("\n", 1)
        assert header == ",".join(columns)
        assert body == "".join(
            ",".join(x if isinstance(x, str) else repr(x) for x in row) + "\n" for row in rows
        )
        assert as_json.read_text() == _json_table(columns, rows)
        assert json_sidecar.read_bytes() == sidecar.read_bytes()

    @pytest.mark.parametrize(
        "specs, preset_id",
        [
            # one axis
            ([three_point_spec()], None),
            # two axes, a -0.0 axis value and a negative coupling
            (
                [
                    ScanSpec(
                        "fidelity",
                        {"J": -0.7, "B1": 0.3},
                        (Axis("B", -0.0, 1.0, 3), Axis("kbT", 1e-3, 2.0, 4)),
                    )
                ],
                None,
            ),
            # a default label that JSON escapes: quote, backslash, non-ASCII, newline
            (_default_label_specs(), 'fig "\u00e9" \\ \u2603\n'),
            # sentinel cells in two labelled series of different observables
            (
                [
                    ScanSpec(o, {"J": 1.0, "B": -2.0}, (Axis("B1", 0.0, 6.0, 7),))
                    for o in ("criticalTempEntanglement", "criticalTempFidelity")
                ],
                None,
            ),
        ],
        ids=["one-axis", "two-axis", "escaped-label", "sentinels"],
    )
    def test_json_bytes_equal_json_dumps(self, specs, preset_id, tmp_path):
        table, sidecar = write_scan(specs, tmp_path / "t.json", preset_id=preset_id, fmt="json")
        columns, rows = _labelled_rows(specs, sidecar)
        assert table.read_text() == _json_table(columns, rows)
        if preset_id:
            assert {row[0] for row in rows} == {preset_id}
            assert "\\u00e9" in table.read_text()
        if len(specs) == 2 and specs[0].observable != specs[1].observable:
            assert SENTINEL in [row[-1] for row in rows]

    def test_non_finite_values_are_spelled_per_format(self, monkeypatch, tmp_path):
        # The kernels raise or emit the sentinel instead; a stand-in shows
        # that CSV keeps repr's spelling and JSON takes json.dumps's.
        specials = np.array([math.nan, math.inf, -math.inf])
        required, _, route = scan._TABLE["concurrence"]
        monkeypatch.setitem(
            scan._TABLE, "concurrence", (required, lambda j, b, b1, kbt: specials.copy(), route)
        )
        specs = [three_point_spec()]
        table, sidecar = write_scan(specs, tmp_path / "t.csv")
        as_json, _ = write_scan(specs, tmp_path / "t.json", fmt="json")
        assert [line.split(",")[1] for line in table.read_text().splitlines()[1:]] == [
            "nan",
            "inf",
            "-inf",
        ]
        columns, rows = _labelled_rows(specs, sidecar)
        assert as_json.read_text() == _json_table(columns, rows)
        assert "NaN" in as_json.read_text() and "-Infinity" in as_json.read_text()

    @pytest.mark.parametrize("preset", ["fig2", "fig3"])
    def test_batched_values_are_bitwise_per_spec(self, preset):
        specs = figure_preset(preset)
        for spec, values in zip(specs, _evaluate(specs)):
            assert values.tobytes() == scan_values(spec).tobytes()

    @pytest.mark.parametrize(
        "kbt_lows, point",
        [
            # the J = 0 cell of the first spec: no closed form at j = 0
            ((0.5, 0.0), (0.0, 0.0, 0.0, 0.5)),
            # the first cell of the first spec: kbT = 0
            ((0.0, 0.5), (-1.0, 0.0, 0.0, 0.0)),
        ],
    )
    def test_first_spec_raises_its_scalar_error(self, kbt_lows, point, tmp_path):
        with pytest.raises(ValueError) as scalar:
            thermal_point(*point)
        specs = [_swept_coupling(lo) for lo in kbt_lows]
        with pytest.raises(ValueError) as batched:
            write_scan(specs, tmp_path / "t.csv")
        assert type(batched.value) is type(scalar.value)
        assert str(batched.value) == str(scalar.value)
        assert not (tmp_path / "t.csv").exists()

    def test_invalid_later_spec_fails_before_any_kernel(self, tmp_path):
        # The first spec's kernel would raise on its J = 0 cells.
        invalid = ScanSpec("entropy", {"B": 0.0, "B1": 0.0}, _swept_coupling(0.5).axes)
        with pytest.raises(ScanValidationError, match="unknown observable"):
            write_scan([_swept_coupling(0.5), invalid], tmp_path / "t.csv")


VERIFY_CHECKS = [
    "state_closed_vs_gibbs",
    "concurrence_closed_vs_spin_flip",
    "singlet_fraction_closed_vs_tensor",
    "singlet_fraction_closed_vs_search",
    "fidelity_tc_below_entanglement_tc",
    "envelope_argmax_at_minus_half_b1",
    "envelope_peak_equals_entanglement_tc",
]


# The impurity fields of verify's envelope checks, at J = 1.
ENVELOPE_FIELDS = (0.0, 1.0, 2.0, 4.0)


def reference_draws(seed, count):
    # The suite's sampling one uniform call at a time: j until |j| >= 0.05,
    # then b, b1 and kbt.
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        while True:
            j = float(rng.uniform(-3.0, 3.0))
            if abs(j) >= 0.05:
                break
        b = float(rng.uniform(-5.0, 5.0))
        b1 = float(rng.uniform(-6.0, 6.0))
        rows.append((j, b, b1, float(rng.uniform(0.05, 10.0))))
    return tuple(np.array(rows, dtype=float).reshape(count, 4).T)


def shifted(name, shift):
    # The route ``name`` of the scan module, its output moved by ``shift``.
    original = getattr(scan, name)
    return lambda *args: original(*args) + shift


def fidelity_tc_at_entanglement_tc(shift):
    # Where a crossing exists, the fidelity threshold set to the
    # entanglement threshold plus ``shift``: the ordering check's boundary.
    def route(j, b, b1):
        crossing = ~np.isnan(fidelity_critical_temp_grid(j, b, b1))
        return np.where(crossing, entanglement_critical_temp_grid(j, b, b1) + shift, np.nan)

    return route


class TestVerifySuite:
    def test_default_run_passes(self):
        report = verify_suite(seed=0, draws=40)
        assert report.passed
        assert [c.name for c in report.checks] == VERIFY_CHECKS
        for check in report.checks:
            assert math.isfinite(check.worst)

    def test_seed_with_near_boundary_crossing_passes(self):
        # draw 52 of seed 11 has a fidelity crossing just inside the
        # no-crossing boundary (eta - |b + b1/2| = 2.9e-4 eta), beyond the
        # solver's fixed bracket limit
        j, b, b1, _ = _draws(11, 120)
        eta = np.hypot(j, 0.5 * b1)
        gap = eta - np.abs(b + 0.5 * b1)
        assert 0.0 < gap[52] < 3e-4 * eta[52]
        assert verify_suite(seed=11).passed

    def test_deterministic_text(self):
        first = verify_suite(seed=7, draws=20)
        second = verify_suite(seed=7, draws=20)
        assert first.format_text() == second.format_text()
        assert "PASS state_closed_vs_gibbs" in first.format_text()
        assert first.format_text().endswith("all checks passed")

    def test_to_dict_shape(self):
        report = verify_suite(seed=3, draws=10)
        data = report.to_dict()
        assert data["seed"] == 3 and data["draws"] == 10
        assert data["passed"] is True
        assert len(data["checks"]) == 7
        assert set(data["checks"][0]) == {
            "name", "passed", "worst", "tolerance", "exercised", "worst_at",
        }

    def test_draws_match_one_uniform_call_at_a_time(self):
        for seed in range(200):
            for got, want in zip(_draws(seed, 120), reference_draws(seed, 120)):
                assert np.array_equal(got, want), seed
        for count in (0, 1):
            for got, want in zip(_draws(5, count), reference_draws(5, count)):
                assert np.array_equal(got, want)

    def test_reports_worst_draw_and_cases(self):
        report = verify_suite(seed=3, draws=30)
        j, b, b1, kbt = _draws(3, 30)
        eta = np.hypot(j, 0.5 * b1)
        crossings = int(np.sum(np.abs(b + 0.5 * b1) < eta))
        exercised = [c.exercised for c in report.checks]
        assert exercised == [30, 30, 30, 30, crossings, 4, 4]
        assert 0 < crossings < 30
        draws = set(zip(j.tolist(), b.tolist(), b1.tolist(), kbt.tolist()))
        for check in report.checks[:5]:
            assert tuple(check.worst_at[k] for k in ("J", "B", "B1", "kbT")) in draws
        order = report.checks[4]
        at = [order.worst_at[k] for k in ("J", "B", "B1")]
        assert order.worst == float(
            fidelity_critical_temp_grid(*at) - entanglement_critical_temp_grid(*at)
        )
        for check in report.checks[5:]:
            assert check.worst_at["J"] == 1.0 and check.worst_at["B1"] in ENVELOPE_FIELDS
        text = report.format_text()
        assert f"exercised={crossings} at J=" in text
        data = report.to_dict()["checks"][4]
        assert data["exercised"] == crossings and set(data["worst_at"]) == {"J", "B", "B1", "kbT"}

    def test_zero_draws_pass_with_nothing_exercised(self):
        report = verify_suite(seed=0, draws=0)
        assert report.passed and report.draws == 0
        for check in report.checks[:5]:
            assert check.worst == 0.0 and check.exercised == 0 and check.worst_at is None
        assert "exercised=0\n" in report.format_text()

    def test_negative_draws_raise(self):
        with pytest.raises(ValueError, match="draws must be >= 0, got -5"):
            verify_suite(seed=0, draws=-5)

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            verify_suite(seed=-1, draws=10)

    @pytest.mark.parametrize(
        "check, route, replacement",
        [
            ("state_closed_vs_gibbs", "gibbs_oracle_grid", None),
            ("concurrence_closed_vs_spin_flip", "concurrence_wootters", None),
            ("singlet_fraction_closed_vs_tensor", "singlet_fraction_general", None),
            ("singlet_fraction_closed_vs_search", "singlet_fraction_oracle", None),
            ("fidelity_tc_below_entanglement_tc", "fidelity_critical_temp_grid",
             fidelity_tc_at_entanglement_tc),
        ],
    )
    def test_a_shifted_route_fails_exactly_its_check(self, monkeypatch, check, route, replacement):
        # 1e-9 is ten times the oracle checks' tolerance, and takes the
        # ordering check from its boundary to twice its tolerance.
        make = replacement or (lambda shift: shifted(route, shift))
        monkeypatch.setattr(scan, route, make(1e-9 if replacement is None else 2e-9))
        report = verify_suite(seed=3, draws=20)
        assert [c.name for c in report.checks if not c.passed] == [check]
        if replacement is not None:
            # past the boundary but within the tolerance, the check passes
            monkeypatch.setattr(scan, route, replacement(0.5e-9))
            assert verify_suite(seed=3, draws=20).passed

    def test_envelope_witness_finds_the_peak_at_minus_half_b1(self):
        report = verify_suite(seed=0, draws=0)
        argmax, peak = report.checks[5:]
        assert argmax.worst == 0.0 and argmax.passed
        assert peak.worst <= 1e-10 and peak.passed
        for b1 in ENVELOPE_FIELDS:
            argmax_error, peak_error = scan._envelope_witness(b1)
            assert argmax_error == 0.0 and peak_error <= 1e-10, b1

    def test_a_shifted_threshold_peak_fails_exactly_the_argmax_check(self, monkeypatch):
        # The scalar threshold evaluated 1e-4 eta off each field, so its peak
        # lies 1e-4 eta below -b1/2: at the tolerance for B1 = 0, past it above.
        original = scan.fidelity_critical_temp

        def shifted_peak(params):
            return original(ChainParams(params.j, params.b + 1e-4 * params.eta, params.b1))

        monkeypatch.setattr(scan, "fidelity_critical_temp", shifted_peak)
        report = verify_suite(seed=3, draws=20)
        assert [c.name for c in report.checks if not c.passed] == ["envelope_argmax_at_minus_half_b1"]
        # The innermost witness offset, 2e-4 eta, is the least a failure reads,
        # and eta >= |J| = 1, so every failure reads past the tolerance.
        assert scan._WITNESS_OFFSETS[0] > scan.ENVELOPE_ARGMAX_TOL
        for b1 in ENVELOPE_FIELDS:
            eta = ChainParams(1.0, 0.0, b1).eta
            assert scan._envelope_witness(b1)[0] >= 2e-4 * eta * (1.0 - 1e-12), b1

    def test_runs_no_envelope_search(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("verify_suite ran the envelope search")

        monkeypatch.setattr(teleportation, "envelope_extremum", forbidden)
        monkeypatch.setattr(teleportation, "maximize_unimodal", forbidden)
        monkeypatch.setattr(numerics, "maximize_unimodal", forbidden)
        assert verify_suite(seed=3, draws=20).passed

    def test_a_nan_in_a_batch_fails_its_check(self, monkeypatch):
        original = scan.singlet_fraction_oracle

        def one_nan(rho):
            values = original(rho)
            values[7] = np.nan
            return values

        monkeypatch.setattr(scan, "singlet_fraction_oracle", one_nan)
        report = verify_suite(seed=3, draws=20)
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["singlet_fraction_closed_vs_search"]
        assert math.isnan(failed[0].worst)

    def test_exports(self):
        assert "concurrence" in OBSERVABLES
        assert PRESETS == ("fig1a", "fig1b", "fig2", "fig3")
