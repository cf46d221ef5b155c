"""Array kernels against their scalar twins: values, sentinels and errors.

The scalar functions are the reference. ``scalar_values`` walks a scan
spec one grid point at a time, row-major, through the scalar API; every
kernel result, and every error a scan raises, must match what that walk
gives.
The state oracles, which ``verify_suite`` calls on stacks of states, must
give on a stack what they give one state at a time.
"""

import itertools
import json
import math

import numpy as np
import pytest

from xxchain import cli, scan, teleportation
from xxchain.entanglement import (
    concurrence_closed_form,
    concurrence_grid,
    concurrence_wootters,
    entanglement_critical_temp,
    entanglement_critical_temp_grid,
)
from xxchain.model import (
    ChainParams,
    ClosedFormUnavailableError,
    Temperature,
    gibbs_oracle,
    gibbs_oracle_grid,
    gibbs_weights_grid,
    ground_state,
    thermal_coefficients,
    thermal_state,
    thermal_state_grid,
)
from xxchain.numerics import BracketError
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
)
from xxchain.teleportation import (
    TeleportMetrics,
    correlation_tensor,
    fidelity_critical_temp,
    fidelity_critical_temp_grid,
    fidelity_grid,
    optimal_fidelity,
    singlet_fraction_closed_form,
    singlet_fraction_general,
    singlet_fraction_grid,
    singlet_fraction_oracle,
    teleport_metrics,
)

from test_numerics import assert_frozen_record
from test_teleportation import ROOTS_PAST_THE_FLOAT_RANGE, random_density_matrix
from test_whole_range import BOUNDS

CLOSED_TOL = 1e-12
CRITICAL_TOL = 1e-10
# Stacked and one-at-a-time oracle calls agree to this, absolutely.
STACK_TOL = 4.0 * np.finfo(float).eps
# The errors of a point whose site-1 field b + b1, or whose eta, overflows.
SITE_1_OVERFLOWS = r"site-1 field b \+ b1 overflows \(b = 1e\+308, b1 = 1e\+308\)"
ETA_OVERFLOWS = r"eta = hypot\(j, b1/2\) overflows \(j = 1.7e\+308, b1 = 1.7e\+308\)"
# Each thermal grid twin with its scalar route.
THERMAL_TWINS = [
    pytest.param(grid, route, id=grid.__name__)
    for grid, route in [
        (gibbs_weights_grid, lambda j, b, b1, kbt: thermal_coefficients(ChainParams(j, b, b1), Temperature(kbt))),
        (thermal_state_grid, lambda j, b, b1, kbt: thermal_state(ChainParams(j, b, b1), Temperature(kbt))),
        (concurrence_grid, lambda j, b, b1, kbt: concurrence_closed_form(
            thermal_coefficients(ChainParams(j, b, b1), Temperature(kbt)))),
        (singlet_fraction_grid,
         lambda j, b, b1, kbt: singlet_fraction_closed_form(ChainParams(j, b, b1), Temperature(kbt))),
        (fidelity_grid, lambda j, b, b1, kbt: teleport_metrics(ChainParams(j, b, b1), Temperature(kbt)).fidelity),
    ]
]


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


def scalar_values(spec):
    names = [ax.name for ax in spec.axes]
    cells = []
    for combo in itertools.product(*(ax.grid().tolist() for ax in spec.axes)):
        values = dict(spec.fixed, **dict(zip(names, combo)))
        cells.append(scalar_value(spec.observable, values))
    return cells


def close(value, ref, tol):
    return math.isclose(value, ref, rel_tol=tol, abs_tol=tol)


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_cells_match_scalar_reference(preset):
    for spec in figure_preset(preset):
        tol = CRITICAL_TOL if spec.observable == "criticalTempFidelity" else CLOSED_TOL
        values = _evaluate((spec,))[0].ravel().tolist()
        reference = scalar_values(spec)
        assert len(values) == len(reference)
        for index, (value, ref) in enumerate(zip(values, reference)):
            assert (value == SENTINEL) == (ref == SENTINEL), (spec, index, value, ref)
            assert close(value, ref, tol), (spec, index, value, ref)


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
    # cold temperatures, subnormal ones included: top / kbT > 700, where an
    # undamped factor exp(top / kbT) would overflow
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
        # eta / |J| overflows at J = 1e-320: the excess is NaN, no sign change
        {"observable": "criticalTempFidelity", "fixed": {"B": -0.5, "B1": 1.0},
         "axes": [{"name": "J", "lo": 1e-320, "hi": 1.0, "points": 2}]},
        # eta = hypot(J, B1/2) overflows at the second point of each
        {"observable": "concurrence", "fixed": {"J": 1.7e308, "B": 0.0, "kbT": 1.0},
         "axes": [{"name": "B1", "lo": 0.0, "hi": 1.7e308, "points": 2}]},
        {"observable": "criticalTempEntanglement", "fixed": {"B1": 1.7e308},
         "axes": [{"name": "J", "lo": 1.0, "hi": 1.7e308, "points": 2}]},
        {"observable": "criticalTempFidelity", "fixed": {"B1": 1.7e308, "B": 0.0},
         "axes": [{"name": "J", "lo": 1.0, "hi": 1.7e308, "points": 2}]},
    ]


@pytest.mark.parametrize("data", kernel_error_cases())
def test_scan_errors_match_scalar_route(data):
    assert_scan_error_matches_scalar_route(data)


@pytest.mark.parametrize("data", kernel_error_cases())
def test_scan_errors_match_scalar_route_on_the_lockstep(lockstep, data):
    assert_scan_error_matches_scalar_route(data)


def assert_scan_error_matches_scalar_route(data):
    spec = scan_spec_from_json(data)
    with pytest.raises(Exception) as expected:
        scalar_values(spec)
    with pytest.raises(Exception) as actual:
        _evaluate((spec,))
    assert type(actual.value) is type(expected.value)
    assert str(actual.value) == str(expected.value)


@pytest.mark.parametrize(
    "data, error, message, code",
    [
        (kernel_error_cases()[0], ClosedFormUnavailableError,
         "the closed forms need j != 0: the j = 0 thermal state is gibbs_oracle in Python; "
         "the command line has no j = 0 route at kbt > 0", 2),
        (kernel_error_cases()[1], ValueError,
         "kbt = 0 has no inverse temperature: the thermal observables need kbt > 0; the "
         "kbt = 0 state is thermal_state in Python, xxchain compute --observable state in a shell", 2),
        (kernel_error_cases()[2], ValueError,
         "kbt must be finite and non-negative, got -1.0", 2),
        (kernel_error_cases()[7], BracketError,
         "no sign change on [1e-06, 1.05263e-06]: fn(lo) = 3.847467e-02, fn(hi) = 6.445292e-02", 3),
        # strings and booleans are not numbers, though float() takes them
        ({"observable": "concurrence", "fixed": {"J": True, "B": "0.5", "B1": 0},
          "axes": [{"name": "kbT", "lo": "0.1", "hi": True, "points": 3}]},
         ScanValidationError, "malformed scan spec: lo must be a number, got '0.1'", 2),
        ({"observable": "concurrence", "fixed": {"J": 1, "B": 0, "B1": 0},
          "axes": [{"name": "kbT", "lo": 0.1, "hi": True, "points": 3}]},
         ScanValidationError, "malformed scan spec: hi must be a number, got True", 2),
        ({"observable": "concurrence", "fixed": {"J": True, "B": 0, "B1": 0},
          "axes": [{"name": "kbT", "lo": 0.1, "hi": 1.0, "points": 3}]},
         ScanValidationError, "malformed scan spec: J must be a number, got True", 2),
        ({"observable": "concurrence", "fixed": {"J": 1, "B": "0.5", "B1": 0},
          "axes": [{"name": "kbT", "lo": 0.1, "hi": 1.0, "points": 3}]},
         ScanValidationError, "malformed scan spec: B must be a number, got '0.5'", 2),
        # json reads -Infinity; np.linspace would warn on it and on an
        # overflowing span before the kernel rejected the cells
        ({"observable": "concurrence", "fixed": {"J": 1, "B1": 0, "kbT": 1},
          "axes": [{"name": "B", "lo": -math.inf, "hi": 1, "points": 3}]},
         ScanValidationError, "invalid scan spec: axis 'B': lo and hi must be finite, got [-inf, 1.0]", 2),
        ({"observable": "concurrence", "fixed": {"J": 1, "B1": 0, "kbT": 1},
          "axes": [{"name": "B", "lo": -1.7e308, "hi": 1.7e308, "points": 3}]},
         ScanValidationError,
         "invalid scan spec: axis 'B': the span hi - lo overflows, got [-1.7e+308, 1.7e+308]", 2),
        (kernel_error_cases()[-3], ValueError,
         "eta = hypot(j, b1/2) overflows (j = 1.7e+308, b1 = 1.7e+308)", 2),
        # a fixed J = 0 is judged by the kernel, as a swept one is
        ({"observable": "concurrence", "fixed": {"J": 0, "B": 0, "B1": 0},
          "axes": [{"name": "kbT", "lo": 0.1, "hi": 1, "points": 3}]},
         ClosedFormUnavailableError,
         "the closed forms need j != 0: the j = 0 thermal state is gibbs_oracle in Python; "
         "the command line has no j = 0 route at kbt > 0", 2),
    ],
)
def test_scan_errors_and_exit_codes(tmp_path, capsys, data, error, message, code):
    with pytest.raises(error) as info:
        _evaluate((scan_spec_from_json(data),))
    assert str(info.value) == message
    spec_path, out = tmp_path / "spec.json", tmp_path / "out.csv"
    spec_path.write_text(json.dumps(data))
    assert cli.main(["scan", "--spec", str(spec_path), "--out", str(out)]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_uncoupled_points_are_sentinels():
    axis = (Axis("J", -1.0, 1.0, 3),)
    for observable in ("criticalTempEntanglement", "criticalTempFidelity"):
        spec = ScanSpec(observable, {"B": 0.0, "B1": 0.5}, axis)
        values = _evaluate((spec,))[0].tolist()
        assert values == scalar_values(spec)
        assert axis[0].grid()[1] == 0.0 and values[1] == SENTINEL


def test_singlet_fraction_stays_in_the_physical_range():
    # The top level's factor is exactly 1 and w1 + w2 = e_gap_up + e_gap_down
    # >= 2|y|, so F = max(u + v, w1 + w2 + 2|y|) / (2 z) lies in [1/4, 1] up
    # to rounding, and optimal_fidelity's range check needs no grid twin.
    # Verify draws with every magnitude rescaled by 10^U(-300, 300), half of
    # them with kbT on that scale and half log-uniform down to 1e-320.
    rng = np.random.default_rng(19)
    j, b, b1, kbt = _draws(19, 20000)
    scale = 10.0 ** rng.uniform(-300.0, 300.0, j.size)
    kbt = np.where(np.arange(j.size) % 2 == 0, kbt * scale, 10.0 ** rng.uniform(-320.0, 300.0, j.size))
    point = (j * scale, b * scale, b1 * scale, kbt)
    fraction = singlet_fraction_grid(*point)
    eps = np.finfo(float).eps
    assert 0.25 - eps <= fraction.min() < 0.25 + 1e-6
    assert 1.0 - 1e-6 < fraction.max() <= 1.0 + eps
    assert np.array_equal(fidelity_grid(*point), (2.0 * fraction + 1.0) / 3.0)
    # the scalar route, whose range check would raise, on every 50th draw
    for k in range(0, j.size, 50):
        j_k, b_k, b1_k, kbt_k = (float(a[k]) for a in point)
        fraction_k = teleport_metrics(ChainParams(j_k, b_k, b1_k), Temperature(kbt_k)).singlet_fraction
        assert 0.25 - eps <= fraction_k <= 1.0 + eps


def test_weights_stay_finite_just_below_the_guard():
    # J = 1e6, kbT = 1e6/699.9: exp(eta beta) is about 1e304, just inside
    # the float range, and the damped doublet weights stay finite. The state
    # is the singlet up to about 2 exp(-699.9), so F = C = 1 in floats, on
    # both routes and without a warning.
    params, temp = ChainParams(1e6, 0.0, 0.0), Temperature(1e6 / 699.9)
    assert teleport_metrics(params, temp) == TeleportMetrics(singlet_fraction=1.0, fidelity=1.0)
    assert fidelity_grid(1e6, 0.0, 0.0, temp.kbt) == 1.0
    assert singlet_fraction_grid(1e6, 0.0, 0.0, temp.kbt) == 1.0
    assert concurrence_closed_form(thermal_coefficients(params, temp)) == 1.0
    assert concurrence_grid(1e6, 0.0, 0.0, temp.kbt) == 1.0
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    for rho in (thermal_state(params, temp), thermal_state_grid(1e6, 0.0, 0.0, temp.kbt)):
        assert np.max(np.abs(rho - np.outer(singlet, singlet))) <= 1e-15


@pytest.mark.parametrize(
    "point", [(1e308, 1.7e308, 0.0, 1.0), (1.0, 1.7e308, 0.0, 1.0), (1.0, -1.7e308, 0.0, 1e300)]
)
def test_twins_agree_at_levels_near_the_float_maximum(point):
    # level - top reaches -3.4e308 and overflows to -inf: a factor of
    # exactly 0 on both routes, and no warning.
    params, temp = ChainParams(*point[:3]), Temperature(point[3])
    assert concurrence_grid(*point) == concurrence_closed_form(thermal_coefficients(params, temp)) == 0.0
    metrics = teleport_metrics(params, temp)
    assert singlet_fraction_grid(*point) == metrics.singlet_fraction == 0.5
    assert fidelity_grid(*point) == metrics.fidelity
    assert np.array_equal(thermal_state_grid(*point), thermal_state(params, temp))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_threshold_lanes_equal_the_scalar_twin_bit_for_bit(seed):
    j, b, b1, _ = _draws(seed, 120)
    grid = fidelity_critical_temp_grid(j, b, b1)
    assert 0 < np.count_nonzero(~np.isnan(grid)) <= teleportation._LANE_LIMIT
    scalar = [
        fidelity_critical_temp(ChainParams(*point)).value
        for point in zip(j.tolist(), b.tolist(), b1.tolist())
    ]
    assert list(map(repr, grid.tolist())) == list(map(repr, scalar))


def test_threshold_lanes_follow_the_scalar_twin_where_the_hypots_differ():
    assert_threshold_grid_follows_the_scalar_twin_where_the_hypots_differ()


def test_threshold_lockstep_follows_the_scalar_twin_where_the_hypots_differ(lockstep):
    assert_threshold_grid_follows_the_scalar_twin_where_the_hypots_differ()


def assert_threshold_grid_follows_the_scalar_twin_where_the_hypots_differ():
    # With glibc, np.hypot puts eta one ulp below math.hypot here, and
    # |b + b1/2| equals the np.hypot value: a crossing mask on np.hypot's eta
    # sees the boundary, the scalar twin a crossing at kbT of about 8e-16.
    j, b, b1 = 1.6398565024854515, 5.3218714693852425, -4.816573781492293
    scalar = fidelity_critical_temp(ChainParams(j, b, b1)).value
    assert scalar > 0.0
    assert repr(float(fidelity_critical_temp_grid(j, b, b1))) == repr(scalar)


@pytest.mark.parametrize("point", ROOTS_PAST_THE_FLOAT_RANGE)
def test_threshold_grid_raises_the_scalar_error_where_the_root_passes_the_float_range(point):
    assert_threshold_grid_raises_the_float_range_error(point)


@pytest.mark.parametrize("point", ROOTS_PAST_THE_FLOAT_RANGE)
def test_threshold_grid_raises_the_scalar_error_where_the_root_passes_the_float_range_on_the_lockstep(
    lockstep, point
):
    assert_threshold_grid_raises_the_float_range_error(point)


def assert_threshold_grid_raises_the_float_range_error(point):
    # Between a crossing and a point ChainParams rejects, which the scalar
    # twin meets after it; the suite turns any overflow warning into an error.
    with pytest.raises(BracketError) as scalar:
        fidelity_critical_temp(ChainParams(*point))
    j, b, b1 = zip((1.0, 0.0, 0.0), point, (1.0, 1e308, 1e308))
    with pytest.raises(BracketError) as grid:
        fidelity_critical_temp_grid(j, b, b1)
    assert str(grid.value) == str(scalar.value)
    assert str(grid.value).startswith("beta = 1/kbT passes the float range")


@pytest.mark.parametrize("path", ["lanes", "lockstep"])
def test_threshold_grid_solves_a_root_just_inside_the_float_range(request, path):
    if path == "lockstep":
        request.getfixturevalue("lockstep")
    j = [1.0, 1.1e-308]
    scalar = [fidelity_critical_temp(ChainParams(value, 0.0, 0.0)).value for value in j]
    assert list(map(repr, fidelity_critical_temp_grid(j, 0.0, 0.0).tolist())) == list(map(repr, scalar))


@pytest.mark.parametrize("observable", OBSERVABLES)
def test_each_table_row_pairs_its_kernel_with_its_scalar_route(observable):
    # The critical temperatures' kernels are NaN where the route's result
    # does not exist, and the scan writes the sentinel there.
    required, kernel, route = scan._TABLE[observable]
    j, b, b1, kbt = _draws(2, 120)
    points = list(zip(j.tolist(), b.tolist(), b1.tolist(), kbt.tolist()))
    if "kbT" in required:
        values = kernel(j, b, b1, kbt)
        reference = [route(ChainParams(*p[:3]), Temperature(p[3])) for p in points]
    else:
        values = kernel(j, b, b1)
        reference = [route(ChainParams(*p[:3])).value for p in points]
    assert values.shape == (120,)
    for value, ref, point in zip(values.tolist(), reference, points):
        assert math.isnan(value) == math.isnan(ref), point
        assert math.isnan(ref) or close(value, ref, CLOSED_TOL), (point, value, ref)


def test_threshold_grid_paths_meet_at_the_lane_limit(monkeypatch):
    # The draws up to the last crossing within the limit, and up to the
    # first crossing past it; the first call solves lane by lane, the second
    # steps its lanes together and runs none through the scalar solver.
    limit = teleportation._LANE_LIMIT
    j, b, b1, _ = _draws(4, 8 * limit)
    ends = np.flatnonzero(np.abs(b + 0.5 * b1) < np.hypot(j, 0.5 * b1))[limit - 1 : limit + 1] + 1
    solves = []
    solver = teleportation._fidelity_root

    def counted(*args):
        solves.append(args)
        return solver(*args)

    monkeypatch.setattr(teleportation, "_fidelity_root", counted)
    under = fidelity_critical_temp_grid(j[: ends[0]], b[: ends[0]], b1[: ends[0]])
    assert len(solves) == limit
    over = fidelity_critical_temp_grid(j[: ends[1]], b[: ends[1]], b1[: ends[1]])
    assert len(solves) == limit
    assert np.count_nonzero(~np.isnan(over)) == limit + 1
    shared = over[: ends[0]]
    assert np.array_equal(np.isnan(shared), np.isnan(under))
    deviation = np.nanmax(np.abs(shared - under) / under)
    assert deviation <= BOUNDS["fidelity_tc_grid_vs_scalar"], deviation


@pytest.mark.parametrize(
    "points",
    [
        # a point ChainParams rejects before and after a crossing without a
        # bracket (excess(1e-6) > 0 at J = 9e5), and the crossing first
        [(1.0, 0.0, 0.0), (1.0, math.inf, 0.0), (9e5, 0.0, 0.0), (1.0, 1e308, 1e308)],
        [(1.0, 0.0, 0.0), (9e5, 0.0, 0.0), (1.0, math.inf, 0.0), (1.0, 1e308, 1e308)],
    ],
)
def test_threshold_lanes_raise_the_first_scalar_error_in_row_major_order(points):
    expected = None
    for point in points:
        try:
            fidelity_critical_temp(ChainParams(*point))
        except ValueError as exc:
            expected = exc
            break
    j, b, b1 = (np.reshape(a, (2, 2)) for a in zip(*points))
    with pytest.raises(ValueError) as grid:
        fidelity_critical_temp_grid(j, b, b1)
    assert type(grid.value) is type(expected)
    assert str(grid.value) == str(expected)


def verify_points():
    """Every draw (j, b, b1, kbt) of verify seeds 1 to 10, as four arrays."""
    return tuple(np.concatenate(a) for a in zip(*(_draws(seed, 120) for seed in range(1, 11))))


def oracle_states():
    """The closed-form states of ``verify_points``, then 2000 random ones of ranks 1 to 4."""
    rng = np.random.default_rng(5)
    random = [random_density_matrix(rng, rank=1 + i % 4) for i in range(2000)]
    return np.concatenate([thermal_state_grid(*verify_points()), np.array(random)])


def test_state_grid_twins_match_single_calls():
    j, b, b1, kbt = verify_points()
    closed = thermal_state_grid(j, b, b1, kbt)
    gibbs = gibbs_oracle_grid(j, b, b1, kbt)
    assert closed.shape == gibbs.shape == (1200, 4, 4)
    for k, point in enumerate(zip(j.tolist(), b.tolist(), b1.tolist(), kbt.tolist())):
        params, temp = ChainParams(*point[:3]), Temperature(point[3])
        assert np.max(np.abs(closed[k] - thermal_state(params, temp))) <= STACK_TOL, point
        assert np.max(np.abs(gibbs[k] - gibbs_oracle(params, temp))) <= STACK_TOL, point


def test_stacked_oracles_match_single_calls():
    states = oracle_states()
    concurrence = concurrence_wootters(states)
    tensors = correlation_tensor(states)
    general = singlet_fraction_general(tensors)
    search = singlet_fraction_oracle(states)
    assert concurrence.shape == general.shape == search.shape == (len(states),)
    assert tensors.matrix.shape == (len(states), 3, 3)
    # the random states reach Wootters' general route and the tensor's
    # negative-determinant branch
    assert np.sum(concurrence > 0.0) > 100
    assert np.sum(np.linalg.det(tensors.matrix) < 0.0) > 100
    for k, rho in enumerate(states):
        tensor = correlation_tensor(rho)
        assert abs(concurrence[k] - concurrence_wootters(rho)) <= STACK_TOL, k
        assert np.max(np.abs(tensors.matrix[k] - tensor.matrix)) <= STACK_TOL, k
        assert np.max(np.abs(tensors.singular_values[k] - tensor.singular_values)) <= STACK_TOL, k
        assert abs(general[k] - singlet_fraction_general(tensor)) <= STACK_TOL, k
        assert abs(search[k] - singlet_fraction_oracle(rho)) <= STACK_TOL, k


def test_oracles_keep_leading_axes_and_return_floats_for_one_state():
    states = oracle_states()[:6].reshape(2, 3, 4, 4)
    assert concurrence_wootters(states).shape == (2, 3)
    assert singlet_fraction_oracle(states).shape == (2, 3)
    assert singlet_fraction_general(correlation_tensor(states)).shape == (2, 3)
    assert correlation_tensor(states).singular_values.shape == (2, 3, 3)
    one = states[1, 2]
    for value in (
        concurrence_wootters(one),
        singlet_fraction_oracle(one),
        singlet_fraction_general(correlation_tensor(one)),
    ):
        assert type(value) is float
    empty = np.zeros((0, 4, 4))
    assert concurrence_wootters(empty).shape == singlet_fraction_oracle(empty).shape == (0,)


def magic_basis_fractions(states):
    """Per state, the largest eigenvalue of the symmetric part of Re(M^dagger rho M).

    M is built here from the Bell states, columns |Phi+>, i|Phi->, i|Psi+>,
    |Psi->, and each state takes its own two 4x4 products.
    """
    phi_plus, phi_minus = np.array([1, 0, 0, 1]), np.array([1, 0, 0, -1])
    psi_plus, psi_minus = np.array([0, 1, 1, 0]), np.array([0, 1, -1, 0])
    magic = np.column_stack([phi_plus, 1j * phi_minus, 1j * psi_plus, psi_minus]) / math.sqrt(2.0)
    values = []
    for rho in np.reshape(states, (-1, 4, 4)):
        a = (magic.conj().T @ rho @ magic).real
        values.append(np.linalg.eigvalsh(0.5 * (a + a.T))[-1])
    return np.reshape(values, np.shape(states)[:-2])


def singlet_oracle_stacks():
    """Verify stacks of seeds 1 to 3, then random non-Hermitian stacks of several leading shapes."""
    rng = np.random.default_rng(27)
    stacks = [pytest.param(thermal_state_grid(*_draws(seed, 120)), id=f"verify-{seed}") for seed in (1, 2, 3)]
    for shape in [(), (1,), (2, 3), (7,), (120,)]:
        a = rng.normal(size=shape + (4, 4)) + 1j * rng.normal(size=shape + (4, 4))
        # entries summing to 1 in magnitude, as a density matrix's at most do
        a /= np.abs(a).sum(axis=(-2, -1), keepdims=True)
        stacks.append(pytest.param(a, id="random-" + ("x".join(map(str, shape)) or "one")))
    return stacks


@pytest.mark.parametrize("states", singlet_oracle_stacks())
def test_singlet_fraction_oracle_matches_one_state_calls_and_the_magic_basis(states):
    values = singlet_fraction_oracle(states)
    assert np.shape(values) == states.shape[:-2]
    if states.ndim == 2:
        assert type(values) is float
    one = np.reshape([singlet_fraction_oracle(rho) for rho in states.reshape(-1, 4, 4)], states.shape[:-2])
    assert np.max(np.abs(values - one), initial=0.0) <= STACK_TOL
    assert np.max(np.abs(values - magic_basis_fractions(states))) <= STACK_TOL


def test_stacked_oracles_reject_bad_stacks():
    for oracle in (concurrence_wootters, correlation_tensor, singlet_fraction_oracle):
        with pytest.raises(ValueError, match="4x4"):
            oracle(np.zeros((5, 4, 3)))
        bad = np.tile(np.eye(4) / 4.0, (3, 1, 1))
        bad[2, 1, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            oracle(bad)


def test_state_grid_twins_raise_the_scalar_errors():
    with pytest.raises(ValueError, match="kbt = 0 has no inverse temperature"):
        thermal_state_grid([1.0, 1.0], 0.0, 0.0, [1.0, 0.0])
    with pytest.raises(ValueError, match="kbt = 0 has no inverse temperature"):
        gibbs_oracle_grid([1.0, 1.0], 0.0, 0.0, [1.0, 0.0])
    with pytest.raises(ValueError, match="kbt must be finite and non-negative"):
        gibbs_oracle_grid(1.0, 0.0, 0.0, [1.0, -1.0])
    with pytest.raises(ValueError, match="parameter b must be finite"):
        gibbs_oracle_grid(1.0, [0.0, math.nan], 0.0, 1.0)
    # b + b1 overflows at the second point, and kbT = 0 at the third
    for grid in (gibbs_weights_grid, gibbs_oracle_grid, thermal_state_grid, concurrence_grid,
                 singlet_fraction_grid, fidelity_grid):
        with pytest.raises(ValueError, match=SITE_1_OVERFLOWS):
            grid(1.0, [0.0, 1e308, 0.0], [0.0, 1e308, 0.0], [1.0, 1.0, 0.0])
    for grid in (entanglement_critical_temp_grid, fidelity_critical_temp_grid):
        with pytest.raises(ValueError, match=SITE_1_OVERFLOWS):
            grid(1.0, [0.0, 1e308], [0.0, 1e308])
    # eta = hypot(j, b1/2) overflows at the second point
    j, b1 = [1.0, 1.7e308], [0.0, 1.7e308]
    for grid in (gibbs_weights_grid, gibbs_oracle_grid, thermal_state_grid, concurrence_grid,
                 singlet_fraction_grid, fidelity_grid):
        with pytest.raises(ValueError, match=ETA_OVERFLOWS):
            grid(j, 0.0, b1, 1.0)
    for grid in (entanglement_critical_temp_grid, fidelity_critical_temp_grid):
        with pytest.raises(ValueError, match=ETA_OVERFLOWS):
            grid(j, 0.0, b1)
    # j = 0 has no closed form but a Gibbs state
    with pytest.raises(ClosedFormUnavailableError):
        thermal_state_grid([1.0, 0.0], 0.0, 0.0, 1.0)
    uncoupled = gibbs_oracle_grid([1.0, 0.0], 0.0, 0.3, 0.7)
    assert np.max(np.abs(uncoupled[1] - gibbs_oracle(ChainParams(0.0, 0.0, 0.3), Temperature(0.7)))) == 0.0


@pytest.mark.parametrize("grid, route", THERMAL_TWINS)
def test_thermal_grid_twins_solve_where_the_doublet_shift_overflows(grid, route):
    # The larger shift eta + |b1|/2 overflows at the second point, where
    # both twins raised. They read it only as a ratio to eta, so each gives
    # the values of the point scaled by 2^-16, kbT too: the scalar twin
    # bit for bit, the grid to rounding, as np.hypot may round the two etas
    # apart on another libm.
    scale = 2.0 ** -16
    point = ([1.0, 1.5e308], 0.0, [0.0, 1e308], 1.0)
    values = np.asarray(grid(*point))
    assert np.max(np.abs(values - np.asarray(grid(*(np.multiply(scale, a) for a in point))))) <= STACK_TOL
    assert np.asarray(route(1.5e308, 0.0, 1e308, 1.0)).tobytes() == np.asarray(
        route(1.5e308 * scale, 0.0, 1e308 * scale, scale)).tobytes()
    # The first rejected point in row-major order is named, here kbT = 0.
    with pytest.raises(ValueError, match="kbt = 0 has no inverse temperature"):
        grid([[1.0, 1.5e308]], 0.0, [0.0, 1e308], [[0.0], [1.0]])
    # With glibc, np.hypot puts eta one ulp off math.hypot at both points,
    # where the larger shift sits at the float maximum; the twins agree.
    for near in ((9.107615250285065e307, 0.0, 1.3362759222211936e308, 1.0),
                 (7.57125240093638e307, 0.0, 1.4788185627397755e308, 1.0)):
        assert np.max(np.abs(np.asarray(grid(*near)) - np.asarray(route(*near)))) <= CLOSED_TOL


# Points (J, B, B1, kbT) whose |J|, fields or kbT reach 1e308. At the first
# two -eta - top passes the float range, at the next two the larger doublet
# shift eta + |B1|/2, at the fifth -(B + B1/2) - top; the last has a field
# near the float maximum and a tiny kbT.
LARGE_POINTS = [
    (1e308, 0.0, 0.0, 1e308),
    (1.2e308, 1e308, 0.0, 1e308),
    (1.5e308, 0.0, 1e308, 1.0),
    (-1.5e308, 0.0, -1e308, 1e308),
    (1.0, 1.7e308, -1e308, 1e308),
    (-1e300, -1.7e308, 1e308, 1e-300),
]


@pytest.mark.parametrize("grid, route", THERMAL_TWINS)
def test_thermal_twins_are_unchanged_by_a_power_of_two_scale(grid, route):
    # Every observable depends only on ratios to |J|, and scaling all four
    # inputs by 2^-16 is exact, so the scalar twin must give the same bits
    # at both scales, and the grid the same values to rounding (np.hypot may
    # round eta differently at the two scales on another libm).
    scale = 2.0 ** -16
    for point in LARGE_POINTS:
        small = [scale * x for x in point]
        value = np.asarray(route(*point))
        assert value.tobytes() == np.asarray(route(*small)).tobytes(), point
        twin = np.asarray(grid(*point))
        assert np.max(np.abs(twin - np.asarray(grid(*small)))) <= STACK_TOL, point
        assert np.max(np.abs(twin - value)) <= CLOSED_TOL, point


def test_ground_state_is_unchanged_by_a_power_of_two_scale():
    scale = 2.0 ** -16
    for j, b, b1, _ in LARGE_POINTS:
        for route in (ground_state, lambda params: thermal_state(params, Temperature(0.0))):
            rho = route(ChainParams(j, b, b1))
            assert rho.tobytes() == route(ChainParams(scale * j, scale * b, scale * b1)).tobytes(), (j, b, b1)


def test_threshold_grid_raises_the_overflow_errors_on_the_lockstep(lockstep):
    with pytest.raises(ValueError, match=SITE_1_OVERFLOWS):
        fidelity_critical_temp_grid(1.0, [0.0, 1e308], [0.0, 1e308])
    with pytest.raises(ValueError, match=ETA_OVERFLOWS):
        fidelity_critical_temp_grid([1.0, 1.7e308], 0.0, [0.0, 1.7e308])


@pytest.mark.parametrize("j", [1.7e308, 9.1e307])
def test_threshold_grid_raises_the_scalar_error_where_eta_nears_the_float_maximum(j):
    assert_threshold_grid_raises_invalid_interval(j)


@pytest.mark.parametrize("j", [1.7e308, 9.1e307])
def test_threshold_grid_raises_the_scalar_error_where_eta_nears_the_float_maximum_on_the_lockstep(
    lockstep, j
):
    assert_threshold_grid_raises_invalid_interval(j)


def assert_threshold_grid_raises_invalid_interval(j):
    # On the lockstep -2 eta overflows among the grid's constant factors;
    # the suite turns that warning into an error. 1e-6 lies past 1 / eta:
    # no bracket, a solver failure.
    with pytest.raises(BracketError) as scalar:
        fidelity_critical_temp(ChainParams(j, 0.0, 0.0))
    with pytest.raises(BracketError) as grid:
        fidelity_critical_temp_grid([1.0, j], 0.0, 0.0)
    assert type(grid.value) is type(scalar.value) is BracketError
    assert str(grid.value) == str(scalar.value) == f"invalid interval [1e-06, {1.0 / j}]"


def test_teleport_metrics_is_a_frozen_record():
    metrics = teleport_metrics(ChainParams(1.0, 0.25, 0.5), Temperature(1.5))
    assert metrics == TeleportMetrics(
        singlet_fraction=metrics.singlet_fraction, fidelity=metrics.fidelity
    )
    assert metrics.fidelity == optimal_fidelity(metrics.singlet_fraction)
    assert_frozen_record(
        TeleportMetrics,
        [
            {"singlet_fraction": metrics.singlet_fraction, "fidelity": metrics.fidelity},
            {"singlet_fraction": 0.25, "fidelity": 0.5},
        ],
    )
