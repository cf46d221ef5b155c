"""Acceptance suite: the contract this library is signed off against.

Each test prints one ACCEPTANCE line (run pytest with -s to stream them).
The tolerances are part of the contract and are not to be loosened.
Criterion 07's inside-window value at B1 = 2 was corrected from ``>= 0.99``
to the model's ground-state concurrence ``|J|/eta``; no tolerance was widened.
"""

import json
import math
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from xxchain.entanglement import (
    concurrence_closed_form,
    concurrence_wootters,
    critical_fields,
    entanglement_critical_temp,
)
from xxchain.model import ChainParams, Temperature, gibbs_oracle, ground_state, thermal_coefficients, thermal_state
from xxchain.teleportation import (
    correlation_tensor,
    envelope_extremum,
    fidelity_critical_temp,
    optimal_fidelity,
    singlet_fraction_closed_form,
    singlet_fraction_general,
    singlet_fraction_oracle,
)

CLASSICAL_BOUND = 2.0 / 3.0


@contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {title}: PASS")


@pytest.fixture(scope="module")
def sample_draws():
    # 500 draws shared by the equivalence and symmetry criteria
    rng = np.random.default_rng(424242)
    draws = []
    while len(draws) < 500:
        j = float(rng.uniform(-3.0, 3.0))
        if abs(j) < 0.05:
            continue
        params = ChainParams(
            j=j, b=float(rng.uniform(-5.0, 5.0)), b1=float(rng.uniform(-6.0, 6.0))
        )
        draws.append((params, Temperature(float(rng.uniform(0.05, 10.0)))))
    return draws


def test_criterion_01_entanglement_threshold_anchor():
    with criterion(1, "entanglement critical temperature anchor"):
        result = entanglement_critical_temp(ChainParams(1.0, 0.0, 0.0))
        assert result.exists
        assert abs(result.value - 1.134593) <= 1e-5
        assert abs(result.value - 1.0 / math.log(1.0 + math.sqrt(2.0))) <= 1e-9


def test_criterion_02_fidelity_threshold_at_zero_fields():
    with criterion(2, "fidelity critical temperature at zero fields"):
        result = fidelity_critical_temp(ChainParams(1.0, 0.0, 0.0))
        assert result.exists
        assert abs(result.value - 1.134593) <= 1e-5


def test_criterion_03_fidelity_ordering_and_thresholds():
    with criterion(3, "fidelity ordering at kbT=1.2 and threshold values"):
        temp = Temperature(1.2)

        def fidelity(b, b1):
            return optimal_fidelity(
                singlet_fraction_closed_form(ChainParams(1.0, b, b1), temp)
            )

        assert fidelity(-1.0, 2.0) > CLASSICAL_BOUND
        assert fidelity(0.0, 2.0) < CLASSICAL_BOUND
        assert fidelity(-0.5, 0.0) < CLASSICAL_BOUND
        assert fidelity(0.0, 0.0) < CLASSICAL_BOUND

        compensated = fidelity_critical_temp(ChainParams(1.0, -1.0, 2.0)).value
        assert abs(compensated - 1.233814) <= 1e-5
        zero_field = fidelity_critical_temp(ChainParams(1.0, 0.0, 0.0)).value
        assert abs(zero_field - 1.134593) <= 1e-5
        assert fidelity_critical_temp(ChainParams(1.0, 0.0, 2.0)).value < 1.134593
        assert fidelity_critical_temp(ChainParams(1.0, -0.5, 0.0)).value < 1.134593


def test_criterion_04_envelope_and_ordering_grid():
    with criterion(4, "envelope extremum and threshold ordering"):
        for b1 in (0.0, 1.0, 2.0, 4.0):
            point = envelope_extremum(1.0, b1)
            assert abs(point.argmax_b + 0.5 * b1) <= 1e-4
            reference = entanglement_critical_temp(ChainParams(1.0, 0.0, b1)).value
            assert abs(point.max_kbt - reference) <= 1e-6
        for b1 in np.linspace(0.0, 4.0, 21):
            for b in np.linspace(-4.0, 2.0, 21):
                params = ChainParams(1.0, float(b), float(b1))
                fid = fidelity_critical_temp(params)
                if not fid.exists:
                    continue
                ent = entanglement_critical_temp(params)
                assert fid.value <= ent.value + 1e-9


def test_criterion_05_oracle_equivalence(sample_draws):
    with criterion(5, "oracle equivalence on 500 draws"):
        for params, temp in sample_draws:
            rho = thermal_state(params, temp)
            assert np.max(np.abs(rho - gibbs_oracle(params, temp))) <= 1e-10
            x = thermal_coefficients(params, temp)
            assert abs(concurrence_closed_form(x) - concurrence_wootters(rho)) <= 1e-10
            closed = singlet_fraction_closed_form(params, temp)
            general = singlet_fraction_general(correlation_tensor(rho))
            assert abs(closed - general) <= 1e-10
            assert abs(closed - singlet_fraction_oracle(rho)) <= 1e-10


def test_criterion_06_sign_symmetries(sample_draws):
    with criterion(6, "field and coupling sign symmetries"):
        for params, temp in sample_draws:
            x = thermal_coefficients(params, temp)
            c = concurrence_closed_form(x)
            fraction = singlet_fraction_closed_form(params, temp)
            fidelity = optimal_fidelity(fraction)
            for image in (
                ChainParams(params.j, -params.b, -params.b1),
                ChainParams(-params.j, params.b, params.b1),
            ):
                xi = thermal_coefficients(image, temp)
                assert abs(concurrence_closed_form(xi) - c) <= 1e-12
                fraction_i = singlet_fraction_closed_form(image, temp)
                assert abs(fraction_i - fraction) <= 1e-12
                assert abs(optimal_fidelity(fraction_i) - fidelity) <= 1e-12


def test_criterion_07_ground_state_transition_window():
    with criterion(7, "ground-state transition window"):
        params = ChainParams(1.0, 0.0, 2.0)
        fields = critical_fields(params)
        assert abs(fields.b_minus - 0.414214) <= 1e-5
        assert abs(fields.b_plus - 2.414214) <= 1e-5
        inner_lo = -fields.b_plus + 0.05
        inner_hi = fields.b_minus - 0.05
        # frozen from the -eta doublet level (-plus |01> + J |10>) / sqrt(2 eta plus),
        # plus = eta + B1/2: C = 2|ab| = |J|/eta, which is 1/sqrt(2) at J=1, B1=2
        # for every B inside the window
        expected = 1.0 / math.sqrt(2.0)
        for b in np.linspace(inner_lo, inner_hi, 21):
            c = concurrence_wootters(ground_state(ChainParams(1.0, float(b), 2.0)))
            assert abs(c - expected) <= 1e-9, (
                f"inside-window ground concurrence {c}, expected {expected}, at B={float(b)}"
            )
        # at B1 = 0 the doublet is the Bell singlet and the window is (-|J|, |J|)
        bare = critical_fields(ChainParams(1.0, 0.0, 0.0))
        for b in np.linspace(-bare.b_plus + 0.05, bare.b_minus - 0.05, 21):
            c = concurrence_wootters(ground_state(ChainParams(1.0, float(b), 0.0)))
            assert c >= 0.99, f"inside-window ground concurrence {c} at B={float(b)}, B1=0"
        for b in (fields.b_minus + 0.05, -fields.b_plus - 0.05):
            c = concurrence_wootters(ground_state(ChainParams(1.0, b, 2.0)))
            assert c <= 1e-6


def test_criterion_08_temperature_limits():
    with criterion(8, "temperature limits"):
        params = ChainParams(1.0, 0.0, 0.0)
        hot = Temperature(1e6)
        assert concurrence_closed_form(thermal_coefficients(params, hot)) == 0.0
        fraction = singlet_fraction_closed_form(params, hot)
        assert abs(fraction - 0.25) <= 1e-5
        assert abs(optimal_fidelity(fraction) - 0.5) <= 1e-5
        cold = Temperature(1e-3)
        assert concurrence_closed_form(thermal_coefficients(params, cold)) >= 0.999
        assert optimal_fidelity(singlet_fraction_closed_form(params, cold)) >= 0.999


def test_criterion_09_threshold_monotonicity_and_b_independence():
    with criterion(9, "threshold monotone in impurity field, independent of uniform"):
        values = [
            entanglement_critical_temp(ChainParams(1.0, 0.0, b1)).value
            for b1 in (0.0, 0.5, 1.0, 2.0, 4.0, 6.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))
        reference = entanglement_critical_temp(ChainParams(1.0, 0.0, 2.0)).value
        for b in (-3.0, 0.0, 3.0):
            assert entanglement_critical_temp(ChainParams(1.0, b, 2.0)).value == reference


def test_criterion_10_deterministic_outputs(tmp_path):
    with criterion(10, "deterministic scan and verify output"):
        tables = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "xxchain", "scan", "--preset", "fig2",
                 "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

        reports = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "xxchain", "verify", "--seed", "7"],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0
            reports.append(proc.stdout)
        assert reports[0] == reports[1]
