"""The self-check suite, and the boundary between it and the scan writer."""

import math
import subprocess
import sys

import numpy as np
import pytest

from xxchain import numerics, scan, teleportation, verify
from xxchain.entanglement import entanglement_critical_temp_grid
from xxchain.model import ChainParams
from xxchain.teleportation import fidelity_critical_temp_grid
from xxchain.verify import _draws, verify_suite


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
    # The route ``name`` of the verify module, its output moved by ``shift``.
    original = getattr(verify, name)
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
        monkeypatch.setattr(verify, route, make(1e-9 if replacement is None else 2e-9))
        report = verify_suite(seed=3, draws=20)
        assert [c.name for c in report.checks if not c.passed] == [check]
        if replacement is not None:
            # past the boundary but within the tolerance, the check passes
            monkeypatch.setattr(verify, route, replacement(0.5e-9))
            assert verify_suite(seed=3, draws=20).passed

    def test_envelope_witness_finds_the_peak_at_minus_half_b1(self):
        report = verify_suite(seed=0, draws=0)
        argmax, peak = report.checks[5:]
        assert argmax.worst == 0.0 and argmax.passed
        assert peak.worst <= 1e-10 and peak.passed
        for b1 in ENVELOPE_FIELDS:
            argmax_error, peak_error = verify._envelope_witness(b1)
            assert argmax_error == 0.0 and peak_error <= 1e-10, b1

    def test_a_shifted_threshold_peak_fails_exactly_the_argmax_check(self, monkeypatch):
        # The witness's threshold evaluated 1e-4 eta off each field, so its peak
        # lies 1e-4 eta below -b1/2: at the tolerance for B1 = 0, past it above.
        original = verify._witness_temp

        def shifted_peak(eta, b, b1):
            return original(eta, b + 1e-4 * eta, b1)

        monkeypatch.setattr(verify, "_witness_temp", shifted_peak)
        report = verify_suite(seed=3, draws=20)
        assert [c.name for c in report.checks if not c.passed] == ["envelope_argmax_at_minus_half_b1"]
        # The innermost witness offset, 2e-4 eta, is the least a failure reads,
        # and eta >= |J| = 1, so every failure reads past the tolerance.
        assert verify._WITNESS_OFFSETS[0] > verify.ENVELOPE_ARGMAX_TOL
        for b1 in ENVELOPE_FIELDS:
            eta = ChainParams(1.0, 0.0, b1).eta
            assert verify._envelope_witness(b1)[0] >= 2e-4 * eta * (1.0 - 1e-12), b1

    def test_the_witness_builds_one_chain_params_a_field(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return ChainParams(*args)

        monkeypatch.setattr(verify, "ChainParams", counted)
        assert verify_suite(seed=3, draws=20).passed
        assert built == [(1.0, 0.0, b1) for b1 in ENVELOPE_FIELDS]

    @pytest.mark.parametrize("b1", ENVELOPE_FIELDS)
    def test_witness_values_are_the_scalar_thresholds(self, monkeypatch, b1):
        # Every witness value, the peak's included, has the bits of the scalar
        # entry point at the same (1, b, b1).
        seen = []
        original = verify._witness_temp

        def recorded(eta, b, field):
            value = original(eta, b, field)
            seen.append((b, value))
            return value

        monkeypatch.setattr(verify, "_witness_temp", recorded)
        verify._envelope_witness(b1)
        assert len(seen) == 1 + 2 * len(verify._WITNESS_OFFSETS)
        for b, value in seen:
            result = teleportation.fidelity_critical_temp(ChainParams(1.0, b, b1))
            assert result.exists and value == result.value, b

    def test_every_witness_point_is_a_crossing(self):
        # _fidelity_root requires |b + b1/2| < eta, and the witness points lie
        # at most max(_WITNESS_OFFSETS) eta from -b1/2.
        assert max(verify._WITNESS_OFFSETS) < 1.0

    def test_runs_no_envelope_search(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("verify_suite ran the envelope search")

        monkeypatch.setattr(teleportation, "envelope_extremum", forbidden)
        monkeypatch.setattr(teleportation, "maximize_unimodal", forbidden)
        monkeypatch.setattr(numerics, "maximize_unimodal", forbidden)
        assert verify_suite(seed=3, draws=20).passed

    def test_a_nan_in_a_batch_fails_its_check(self, monkeypatch):
        original = verify.singlet_fraction_oracle

        def one_nan(rho):
            values = original(rho)
            values[7] = np.nan
            return values

        monkeypatch.setattr(verify, "singlet_fraction_oracle", one_nan)
        report = verify_suite(seed=3, draws=20)
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["singlet_fraction_closed_vs_search"]
        assert math.isnan(failed[0].worst)


class TestModuleBoundary:
    NAMES = {"CheckResult", "VerifyReport", "verify_suite"}

    def test_scan_reexports_the_suite_itself(self):
        assert scan.verify_suite is verify.verify_suite

    def test_only_verify_exports_the_suite(self):
        assert self.NAMES.isdisjoint(scan.__all__)
        assert self.NAMES <= set(verify.__all__)

    def test_importing_verify_leaves_scan_unloaded(self):
        code = "import sys, xxchain.verify; sys.exit('xxchain.scan' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0
