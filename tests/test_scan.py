"""Scan specs, figure presets, file output, and the self-check suite."""

import json
import math

import numpy as np
import pytest

from xxchain import __version__
from xxchain.scan import (
    OBSERVABLES,
    PRESETS,
    SENTINEL,
    Axis,
    ScanSpec,
    ScanValidationError,
    figure_preset,
    run_scan,
    scan_spec_from_json,
    verify_suite,
    write_scan,
)

CLASSICAL_BOUND = 2.0 / 3.0


def three_point_spec():
    return ScanSpec(
        "concurrence", {"J": 1.0, "B": 0.0, "B1": 0.0}, (Axis("kbT", 0.1, 2.0, 3),)
    )


class TestRunScan:
    def test_concurrence_rows(self):
        rows = run_scan(three_point_spec())
        assert [r[0] for r in rows] == [0.1, 1.05, 2.0]
        # frozen from a 50-digit mpmath evaluation of the concurrence
        # closed form at these three temperatures
        assert abs(rows[0][1] - 0.9998184126471232) < 1e-12
        assert abs(rows[1][1] - 0.041395093356478313) < 1e-12
        assert rows[2][1] == 0.0

    def test_fidelity_row(self):
        spec = ScanSpec(
            "fidelity", {"J": 1.0, "B": 0.0, "B1": 0.0}, (Axis("kbT", 0.5, 1.0, 2),)
        )
        rows = run_scan(spec)
        # frozen from (2 F + 1) / 3 with F = e^2 / (2 + 2 cosh 2)
        assert abs(rows[0][1] - 0.8505356617162506) < 1e-13

    def test_two_axis_row_major_order(self):
        spec = ScanSpec(
            "concurrence",
            {"J": 1.0, "B1": 0.0},
            (Axis("kbT", 0.5, 1.0, 2), Axis("B", -1.0, 1.0, 3)),
        )
        rows = run_scan(spec)
        assert len(rows) == 6
        assert [(r[0], r[1]) for r in rows] == [
            (0.5, -1.0), (0.5, 0.0), (0.5, 1.0),
            (1.0, -1.0), (1.0, 0.0), (1.0, 1.0),
        ]

    def test_sentinel_for_missing_critical_temp(self):
        spec = ScanSpec(
            "criticalTempFidelity", {"J": 1.0, "B": -4.0}, (Axis("B1", 0.0, 6.0, 3),)
        )
        rows = run_scan(spec)
        # B1 = 0: drive 4 > eta 1, no crossing; B1 = 6: drive 1 < eta sqrt(10)
        assert rows[0][1] == SENTINEL
        assert rows[2][1] > 0.0

    def test_subnormal_temperature_axis(self):
        # kbT = 5e-324 makes beta = inf; both cells are the ground-state
        # doublet's concurrence |J|/eta = 1/sqrt(2).
        spec = ScanSpec(
            "concurrence", {"J": 1.0, "B": -0.7, "B1": 2.0}, (Axis("kbT", 5e-324, 1e-300, 2),)
        )
        rows = run_scan(spec)
        assert [r[0] for r in rows] == [5e-324, 1e-300]
        for row in rows:
            assert abs(row[1] - 1.0 / math.sqrt(2.0)) < 1e-12

    def test_entanglement_critical_temp_ignores_b(self):
        spec = ScanSpec(
            "criticalTempEntanglement", {"J": 1.0, "B": 2.5}, (Axis("B1", 0.0, 2.0, 2),)
        )
        rows = run_scan(spec)
        bare = run_scan(
            ScanSpec("criticalTempEntanglement", {"J": 1.0}, (Axis("B1", 0.0, 2.0, 2),))
        )
        assert rows == bare


class TestValidation:
    def test_unknown_observable(self):
        spec = ScanSpec("entropy", {"J": 1.0}, (Axis("kbT", 0.1, 1.0, 5),))
        with pytest.raises(ScanValidationError, match="unknown observable"):
            run_scan(spec)

    def test_no_axes(self):
        spec = ScanSpec("concurrence", {"J": 1.0, "B": 0.0, "B1": 0.0, "kbT": 1.0}, ())
        with pytest.raises(ScanValidationError, match="1 or 2 axes"):
            run_scan(spec)

    def test_message_collects_every_problem(self):
        spec = ScanSpec(
            "concurrence",
            {"J": 0.0, "spin": 1.0},
            (Axis("kbT", 2.0, 1.0, 1), Axis("kbT", 0.1, 1.0, 5)),
        )
        with pytest.raises(ScanValidationError) as info:
            run_scan(spec)
        message = str(info.value)
        assert "points must be >= 2" in message
        assert "lo must be < hi" in message
        assert "duplicate axis names" in message
        assert "unknown fixed parameter 'spin'" in message
        assert "missing parameters for concurrence" in message
        assert "J = 0" in message

    def test_axis_fixed_overlap(self):
        spec = ScanSpec(
            "concurrence",
            {"J": 1.0, "B": 0.0, "B1": 0.0, "kbT": 1.0},
            (Axis("kbT", 0.1, 1.0, 5),),
        )
        with pytest.raises(ScanValidationError, match="both fixed and swept"):
            run_scan(spec)

    def test_unused_parameter_rejected(self):
        spec = ScanSpec(
            "criticalTempEntanglement",
            {"J": 1.0, "kbT": 1.0},
            (Axis("B1", 0.0, 2.0, 5),),
        )
        with pytest.raises(ScanValidationError, match="not used by"):
            run_scan(spec)

    def test_b_tolerated_for_entanglement_critical_temp(self):
        spec = ScanSpec(
            "criticalTempEntanglement", {"J": 1.0, "B": 1.0}, (Axis("B1", 0.0, 2.0, 2),)
        )
        run_scan(spec)  # must not raise

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


class TestFigurePresets:
    def test_shapes(self):
        assert len(figure_preset("fig1a")) == 1
        assert len(figure_preset("fig1b")) == 1
        assert len(figure_preset("fig2")) == 4
        assert len(figure_preset("fig3")) == 6
        spec = figure_preset("fig1a")[0]
        assert [ax.name for ax in spec.axes] == ["kbT", "B"]
        assert [ax.points for ax in spec.axes] == [81, 81]
        assert len(run_scan(spec)) == 81 * 81

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
        rows = run_scan(spec)
        crossing = 1.1345926571065110  # frozen from 1 / log(1 + sqrt(2))
        above = [r for r in rows if r[1] > CLASSICAL_BOUND]
        below = [r for r in rows if r[1] < CLASSICAL_BOUND]
        assert above and below
        assert max(r[0] for r in above) < crossing < min(r[0] for r in below)
        step = (3.0 - 0.02) / 299
        assert min(r[0] for r in below) - max(r[0] for r in above) <= step + 1e-12

    def test_fig3_entanglement_curve_anchor(self):
        rows = run_scan(figure_preset("fig3")[0])
        assert rows[0][0] == 0.0
        # frozen from 1 / log(1 + sqrt(2))
        assert abs(rows[0][1] - 1.1345926571065110) < 1e-5

    def test_fig3_envelope_tangency(self):
        specs = figure_preset("fig3")
        entanglement = {r[0]: r[1] for r in run_scan(specs[0])}
        compensated = {r[0]: r[1] for r in run_scan(specs[2])}  # B = -1
        assert abs(compensated[2.0] - entanglement[2.0]) < 1e-6
        for b1 in (1.0, 3.0):
            if compensated[b1] == SENTINEL:
                continue
            assert entanglement[b1] - compensated[b1] > 1e-3

    def test_fig3_sentinel_hygiene(self):
        for spec in figure_preset("fig3"):
            for row in run_scan(spec):
                assert row[1] == SENTINEL or row[1] > 0.0


class TestWriteScan:
    def test_single_spec_csv_round_trip(self, tmp_path):
        out = tmp_path / "scan.csv"
        table_path, sidecar_path = write_scan([three_point_spec()], out)
        assert table_path == out
        assert sidecar_path == tmp_path / "scan.csv.meta.json"
        lines = out.read_text().splitlines()
        assert lines[0] == "kbT,concurrence"
        parsed = [tuple(float(c) for c in line.split(",")) for line in lines[1:]]
        assert parsed == run_scan(three_point_spec())

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


class TestVerifySuite:
    def test_default_run_passes(self):
        report = verify_suite(seed=0, draws=40)
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == [
            "state_closed_vs_gibbs",
            "concurrence_closed_vs_spin_flip",
            "singlet_fraction_closed_vs_tensor",
            "singlet_fraction_closed_vs_search",
            "fidelity_tc_below_entanglement_tc",
            "envelope_argmax_at_minus_half_b1",
            "envelope_peak_equals_entanglement_tc",
        ]
        for check in report.checks:
            assert math.isfinite(check.worst)

    def test_seed_with_near_boundary_crossing_passes(self):
        # draw 52 of seed 11 has a fidelity crossing just inside the
        # no-crossing boundary, beyond the solver's fixed bracket limit
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
        assert set(data["checks"][0]) == {"name", "passed", "worst", "tolerance"}

    def test_exports(self):
        assert "concurrence" in OBSERVABLES
        assert PRESETS == ("fig1a", "fig1b", "fig2", "fig3")
