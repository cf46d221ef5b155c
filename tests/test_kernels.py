"""Array kernels against their scalar twins: values, sentinels and errors.

The scalar functions are the reference. ``scalar_rows`` walks a scan spec
one grid point at a time, row-major, through the scalar API; every kernel
result, and every error a scan raises, must match what that walk gives.
"""

import itertools
import json
import math

import numpy as np
import pytest

from xxchain import cli
from xxchain.entanglement import (
    concurrence_closed_form,
    concurrence_grid,
    entanglement_critical_temp,
    entanglement_critical_temp_grid,
)
from xxchain.model import ChainParams, ClosedFormUnavailableError, Temperature, thermal_coefficients
from xxchain.numerics import BracketError
from xxchain.scan import (
    PRESETS,
    SENTINEL,
    Axis,
    ScanSpec,
    figure_preset,
    run_scan,
    scan_spec_from_json,
)
from xxchain.teleportation import (
    fidelity_critical_temp,
    fidelity_critical_temp_grid,
    fidelity_grid,
    optimal_fidelity,
    singlet_fraction_closed_form,
    singlet_fraction_grid,
)

CLOSED_TOL = 1e-12
CRITICAL_TOL = 1e-10


def scalar_value(observable, values):
    params = ChainParams(j=values["J"], b=values.get("B", 0.0), b1=values["B1"])
    if observable == "concurrence":
        return concurrence_closed_form(thermal_coefficients(params, Temperature(values["kbT"])))
    if observable == "singletFraction":
        return singlet_fraction_closed_form(params, Temperature(values["kbT"]))
    if observable == "fidelity":
        return optimal_fidelity(singlet_fraction_closed_form(params, Temperature(values["kbT"])))
    if observable == "criticalTempEntanglement":
        result = entanglement_critical_temp(params)
    else:
        result = fidelity_critical_temp(params)
    return result.value if result.exists else SENTINEL


def scalar_rows(spec):
    names = [ax.name for ax in spec.axes]
    rows = []
    for combo in itertools.product(*(ax.grid().tolist() for ax in spec.axes)):
        values = dict(spec.fixed, **dict(zip(names, combo)))
        rows.append(combo + (scalar_value(spec.observable, values),))
    return rows


def close(value, ref, tol):
    return math.isclose(value, ref, rel_tol=tol, abs_tol=tol)


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_cells_match_scalar_reference(preset):
    for spec in figure_preset(preset):
        tol = CRITICAL_TOL if spec.observable == "criticalTempFidelity" else CLOSED_TOL
        rows = run_scan(spec)
        reference = scalar_rows(spec)
        assert len(rows) == len(reference)
        for row, ref in zip(rows, reference):
            assert row[:-1] == ref[:-1]
            assert (row[-1] == SENTINEL) == (ref[-1] == SENTINEL), (spec, row, ref)
            assert close(row[-1], ref[-1], tol), (spec, row, ref)


def draws(seed, count=1000):
    """Points (j, b, b1, kbt) from the verify domain and its hard corners."""
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], size=count)
    j = sign * rng.uniform(0.05, 3.0, count)
    b = rng.uniform(-5.0, 5.0, count)
    b1 = rng.uniform(-6.0, 6.0, count)
    kbt = rng.uniform(0.05, 10.0, count)
    quarter = count // 4
    # negative impurity fields
    b1[:quarter] = -rng.uniform(0.1, 6.0, quarter)
    # tiny couplings, down to 1e-12 of the fields
    j[quarter : 2 * quarter] = sign[:quarter] * 10.0 ** rng.uniform(-12.0, -3.0, quarter)
    # guarded temperatures, subnormal ones included: top / kbT > 700
    kbt[2 * quarter : 3 * quarter] = 10.0 ** rng.uniform(-300.0, -3.5, quarter)
    kbt[2 * quarter : 2 * quarter + 10] = 5e-324 * rng.integers(1, 1000, 10)
    return j, b, b1, kbt


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_closed_form_kernels_match_scalar_twins(seed):
    j, b, b1, kbt = draws(seed)
    kernels = (
        (concurrence_grid, "concurrence"),
        (singlet_fraction_grid, "singletFraction"),
        (fidelity_grid, "fidelity"),
    )
    for kernel, observable in kernels:
        values = kernel(j, b, b1, kbt)
        assert values.shape == j.shape
        for point, value in zip(zip(j, b, b1, kbt), values):
            ref = scalar_value(observable, dict(zip(("J", "B", "B1", "kbT"), map(float, point))))
            assert close(float(value), ref, CLOSED_TOL), (observable, point, value, ref)


@pytest.mark.parametrize("seed", [4, 5])
def test_critical_temperature_kernels_match_scalar_twins(seed):
    j, b, b1, _ = draws(seed)
    j[:5] = 0.0  # no coupling: no threshold of either kind
    b[5:10] = 1.0 - 0.5 * b1[5:10]  # |b + b1/2| = 1: near or on the boundary
    entanglement = entanglement_critical_temp_grid(j, b, b1)
    fidelity = fidelity_critical_temp_grid(j, b, b1)
    for point, ent, fid in zip(zip(j, b, b1), entanglement, fidelity):
        params = ChainParams(*map(float, point))
        for value, ref, tol in (
            (ent, entanglement_critical_temp(params), CLOSED_TOL),
            (fid, fidelity_critical_temp(params), CRITICAL_TOL),
        ):
            assert math.isnan(value) == (not ref.exists), (point, value, ref)
            if ref.exists:
                assert close(float(value), ref.value, tol), (point, value, ref)


def kernel_error_cases():
    nan, inf = math.nan, math.inf
    return [
        # the J axis hits 0 at its third point
        {"observable": "concurrence", "fixed": {"B": 0.0, "B1": 0.5, "kbT": 1.0},
         "axes": [{"name": "J", "lo": -1.0, "hi": 1.0, "points": 5}]},
        # the kbT axis starts at 0
        {"observable": "fidelity", "fixed": {"J": 1.0, "B": 0.0, "B1": 0.0},
         "axes": [{"name": "kbT", "lo": 0.0, "hi": 1.0, "points": 3}]},
        # negative kbT comes before J = 0 within one point, and in row order
        {"observable": "singletFraction", "fixed": {"B": 0.0, "B1": 1.0},
         "axes": [{"name": "J", "lo": 0.0, "hi": 2.0, "points": 3},
                  {"name": "kbT", "lo": -1.0, "hi": 1.0, "points": 3}]},
        # J = 0 on the inner axis: the first offender is the second cell
        {"observable": "concurrence", "fixed": {"B": 0.0, "B1": 1.0},
         "axes": [{"name": "kbT", "lo": 0.5, "hi": 1.5, "points": 3},
                  {"name": "J", "lo": -1.0, "hi": 1.0, "points": 3}]},
        # non-finite fixed fields
        {"observable": "concurrence", "fixed": {"J": 1.0, "B": nan, "B1": 0.0},
         "axes": [{"name": "kbT", "lo": 0.5, "hi": 1.0, "points": 2}]},
        {"observable": "criticalTempEntanglement", "fixed": {"J": 1.0, "B": inf},
         "axes": [{"name": "B1", "lo": 0.0, "hi": 1.0, "points": 2}]},
        {"observable": "criticalTempFidelity", "fixed": {"J": 1.0, "B1": -inf},
         "axes": [{"name": "B", "lo": 0.0, "hi": 1.0, "points": 2}]},
        # |J| ~ 9e5: excess(1e-6) > 0 already, bisect_root finds no sign change
        {"observable": "criticalTempFidelity", "fixed": {"B": 0.0, "B1": 0.0},
         "axes": [{"name": "J", "lo": 1.0, "hi": 9.5e5, "points": 3}]},
        # |J| >= 1e6: the bracket [1e-6, 1/eta] is empty
        {"observable": "criticalTempFidelity", "fixed": {"B": 0.0, "B1": 0.0},
         "axes": [{"name": "J", "lo": 1.0, "hi": 2e6, "points": 2}]},
    ]


@pytest.mark.parametrize("data", kernel_error_cases())
def test_scan_errors_match_scalar_route(data):
    spec = scan_spec_from_json(data)
    with pytest.raises(Exception) as expected:
        scalar_rows(spec)
    with pytest.raises(Exception) as actual:
        run_scan(spec)
    assert type(actual.value) is type(expected.value)
    assert str(actual.value) == str(expected.value)


@pytest.mark.parametrize(
    "data, error, message, code",
    [
        (kernel_error_cases()[0], ClosedFormUnavailableError,
         "thermal_coefficients needs j != 0; use gibbs_oracle for the uncoupled chain", 2),
        (kernel_error_cases()[1], ValueError,
         "kbt = 0 has no inverse temperature; use ground_state", 2),
        (kernel_error_cases()[2], ValueError,
         "kbt must be finite and non-negative, got -1.0", 2),
        (kernel_error_cases()[7], BracketError,
         "no sign change on [1e-06, 1.05263e-06]: fn(lo) = 3.847467e-02, fn(hi) = 6.445292e-02", 3),
    ],
)
def test_scan_errors_and_exit_codes(tmp_path, capsys, data, error, message, code):
    with pytest.raises(error) as info:
        run_scan(scan_spec_from_json(data))
    assert str(info.value) == message
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(data))
    assert cli.main(["scan", "--spec", str(spec_path), "--out", str(tmp_path / "out.csv")]) == code
    assert capsys.readouterr().err == f"error: {message}\n"


def test_uncoupled_points_are_sentinels():
    axis = (Axis("J", -1.0, 1.0, 3),)
    for observable in ("criticalTempEntanglement", "criticalTempFidelity"):
        spec = ScanSpec(observable, {"B": 0.0, "B1": 0.5}, axis)
        assert run_scan(spec) == scalar_rows(spec)
        assert run_scan(spec)[1] == (0.0, SENTINEL)


def test_fidelity_range_check_comes_first_in_row_order():
    # At J = 1e6 and kbT just above the guard the doublet weights overflow
    # to inf, so the scalar route rejects the singlet fraction; that point
    # precedes the kbT = 0 point.
    j = [1.0, 1e6, 1.0]
    kbt = [1.0, 1e6 / 699.9, 0.0]
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError) as expected:
            optimal_fidelity(
                singlet_fraction_closed_form(ChainParams(1e6, 0.0, 0.0), Temperature(kbt[1]))
            )
        with pytest.raises(ValueError) as actual:
            fidelity_grid(j, 0.0, 0.0, kbt)
    assert str(actual.value) == str(expected.value)
    assert "outside the physical range" in str(actual.value)
