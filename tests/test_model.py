"""Hamiltonian, thermal-state and ground-state tests.

Frozen reference numbers in this file come from a 50-digit mpmath
evaluation of the closed-form coefficient expressions; each is tagged
with the formula it was computed from.
"""

import dataclasses
import json
import math
import pickle
import sys
import threading

import numpy as np
import pytest

from xxchain import cli, model
from xxchain.entanglement import (
    concurrence_closed_form,
    concurrence_wootters,
    critical_fields,
    entanglement_critical_temp,
)
from xxchain.model import (
    BASIS_LABELS,
    ChainParams,
    ClosedFormUnavailableError,
    Temperature,
    build_hamiltonian,
    gibbs_oracle,
    gibbs_oracle_grid,
    ground_state,
    thermal_coefficients,
    thermal_point,
    thermal_state,
)
from xxchain.teleportation import envelope_extremum, fidelity_critical_temp, teleport_metrics
from xxchain.verify import _draws


def random_params(rng):
    j = float(rng.uniform(0.05, 3.0)) * (1 if rng.uniform() < 0.5 else -1)
    return ChainParams(j, float(rng.uniform(-5.0, 5.0)), float(rng.uniform(-6.0, 6.0)))


class CountingMath:
    """Stands in for ``math`` and counts the ``exp`` calls made through it."""

    def __init__(self):
        self.exp_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def exp(self, x):
        self.exp_calls += 1
        return math.exp(x)


# Every scalar route from the three model fields, each building its own
# ChainParams; envelope_extremum fixes b = 0.
SCALAR_ROUTES = [
    lambda j, b, b1: ChainParams(j, b, b1),
    lambda j, b, b1: thermal_point(j, b, b1, 1.0),
    lambda j, b, b1: thermal_state(ChainParams(j, b, b1), Temperature(1.0)),
    lambda j, b, b1: ground_state(ChainParams(j, b, b1)),
    lambda j, b, b1: gibbs_oracle(ChainParams(j, b, b1), Temperature(1.0)),
    lambda j, b, b1: concurrence_closed_form(thermal_point(j, b, b1, 1.0)),
    lambda j, b, b1: teleport_metrics(ChainParams(j, b, b1), Temperature(1.0)),
    lambda j, b, b1: entanglement_critical_temp(ChainParams(j, b, b1)),
    lambda j, b, b1: fidelity_critical_temp(ChainParams(j, b, b1)),
    lambda j, b, b1: envelope_extremum(j, b1),
]

# Points ChainParams accepts whose larger doublet shift eta + |b1|/2
# overflows, one for each sign of b1.
SHIFT_OVERFLOWS = [(1.5e308, 0.0, 1e308), (-1.5e308, 0.0, -1e308)]

# Every thermal route that reads the doublet shifts, from the three model
# fields and kbT = s, where it needs one (s = 1, or 2^-16 at the scaled point).
SHIFT_ROUTES = [
    lambda j, b, b1, s: thermal_point(j, b, b1, s),
    lambda j, b, b1, s: thermal_state(ChainParams(j, b, b1), Temperature(s)),
    lambda j, b, b1, s: thermal_state(ChainParams(j, b, b1), Temperature(0.0)),
    lambda j, b, b1, s: ground_state(ChainParams(j, b, b1)),
    lambda j, b, b1, s: concurrence_closed_form(thermal_point(j, b, b1, s)),
    lambda j, b, b1, s: teleport_metrics(ChainParams(j, b, b1), Temperature(s)),
]


class TestParameters:
    def test_eta(self):
        assert ChainParams(1.0, 0.0, 0.0).eta == 1.0
        assert abs(ChainParams(1.0, 3.0, 2.0).eta - math.sqrt(2.0)) < 1e-15
        assert abs(ChainParams(-3.0, 0.0, -8.0).eta - 5.0) < 1e-15

    def test_stored_eta_keeps_repr_equality_hash_and_match_args(self):
        params = ChainParams(1.0, -0.5, 3.0)
        assert repr(params) == "ChainParams(j=1.0, b=-0.5, b1=3.0)"
        assert params == ChainParams(1, -0.5, 3) and params != ChainParams(1.0, -0.5, -3.0)
        assert hash(params) == hash((1.0, -0.5, 3.0))
        assert ChainParams.__match_args__ == ("j", "b", "b1")
        match params:
            case ChainParams(j, b, b1):
                assert (j, b, b1) == (1.0, -0.5, 3.0)
        copy = pickle.loads(pickle.dumps(params))
        assert copy == params and copy.eta == params.eta

    def test_replace_recomputes_eta(self):
        params = dataclasses.replace(ChainParams(1.0, 0.0, 3.0), b1=-8.0, j=3.0)
        assert params.eta == math.hypot(3.0, -4.0) == 5.0
        with pytest.raises(ValueError, match="eta"):
            dataclasses.replace(params, eta=1.0)
        # the replaced fields are checked again
        with pytest.raises(ValueError, match="eta = hypot"):
            dataclasses.replace(params, j=1.7e308, b1=1.7e308)

    def test_eta_is_not_an_argument(self):
        with pytest.raises(TypeError):
            ChainParams(1.0, 0.0, 0.0, eta=2.0)
        with pytest.raises(TypeError):
            ChainParams(1.0, 0.0, 0.0, 2.0)

    def test_eta_has_the_bits_of_hypot_of_the_stored_floats(self):
        rng = np.random.default_rng(17)
        j = 10.0 ** rng.uniform(-280.0, 280.0, 500) * rng.choice([-1.0, 1.0], 500)
        b1 = j * 10.0 ** rng.uniform(-20.0, 20.0, 500)
        cases = list(zip(j.tolist(), b1.tolist()))
        # numpy scalars and integers, converted to Python floats first
        cases += [(np.float64(0.3), np.float64(-0.7)), (np.float32(0.1), np.float32(0.3)),
                  (3, 2**60 + 1), (np.int64(-5), np.float16(1.5))]
        for x, y in cases:
            params = ChainParams(x, 0.0, y)
            assert type(params.eta) is float
            assert params.eta.hex() == math.hypot(float(x), 0.5 * float(y)).hex(), (x, y)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ChainParams(float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError):
            ChainParams(1.0, float("inf"), 0.0)

    @pytest.mark.parametrize("route", SCALAR_ROUTES)
    def test_rejects_an_overflowing_eta(self, route):
        # The weights were NaN here: concurrence 0, a NaN threshold, warnings.
        message = r"eta = hypot\(j, b1/2\) overflows \(j = 1.7e\+308, b1 = 1.7e\+308\)"
        with pytest.raises(ValueError, match=message):
            route(1.7e308, 0.0, 1.7e308)

    @pytest.mark.parametrize("route", SCALAR_ROUTES[:-1])
    def test_rejects_an_overflowing_site_1_field(self, route):
        # Both thresholds returned a value here, though the state routes
        # rejected the point.
        message = r"site-1 field b \+ b1 overflows \(b = 1e\+308, b1 = 1e\+308\)"
        with pytest.raises(ValueError, match=message):
            route(1.0, 1e308, 1e308)
        # an overflowing eta is named first
        with pytest.raises(ValueError, match="eta = hypot"):
            route(1.7e308, 1.7e308, 1.7e308)
        assert ChainParams(1.0, 1.7e308, -1e308).b == 1.7e308

    @pytest.mark.parametrize("point", SHIFT_OVERFLOWS)
    @pytest.mark.parametrize("route", SHIFT_ROUTES)
    def test_solves_where_the_doublet_shift_overflows(self, route, point):
        # These routes raised here. They read the shifts only as ratios to
        # eta, so the point gives the bits of the point scaled by 2^-16.
        scale = 2.0 ** -16
        value = route(*point, 1.0)
        assert np.asarray(value).tobytes() == np.asarray(route(*(scale * x for x in point), scale)).tobytes()

    @pytest.mark.parametrize("point", [*SHIFT_OVERFLOWS, (1.2e308, 0.0, 1.79e308)])
    def test_the_entanglement_threshold_needs_no_doublet_shift(self, point):
        # The larger transition field itself passes the float range here.
        with pytest.raises(ValueError) as error:
            critical_fields(ChainParams(*point))
        assert str(error.value) == f"doublet shift eta + |b1|/2 overflows (j = {point[0]}, b1 = {point[2]})"
        threshold = entanglement_critical_temp(ChainParams(*point))
        assert threshold.exists and math.isfinite(threshold.value)

    def test_accepts_the_largest_eta(self):
        assert ChainParams(1.2e308, 0.0, 1.79e308).eta == math.hypot(1.2e308, 0.895e308)
        assert ChainParams(-1.7976931348623157e308, 0.0, 0.0).eta == 1.7976931348623157e308

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            Temperature(-0.1)
        with pytest.raises(ValueError):
            Temperature(float("nan"))
        message = (
            "kbt = 0 has no inverse temperature: the thermal observables need kbt > 0; the "
            "kbt = 0 state is thermal_state in Python, xxchain compute --observable state in a shell"
        )
        with pytest.raises(ValueError) as info:
            thermal_coefficients(ChainParams(1.0, 0.0, 0.0), Temperature(0.0))
        assert str(info.value) == message

    def test_eta_shifts_product_identity(self):
        for j, b1 in [(1.0, 2.0), (0.5, -3.0), (2.0, 0.0), (1e-8, 2.0)]:
            fields = critical_fields(ChainParams(j, 0.0, b1))
            minus, plus = fields.b_minus, fields.b_plus
            assert minus > 0.0 and plus > 0.0
            assert abs(minus * plus - j * j) <= 1e-14 * j * j
            assert abs(plus - minus - b1) <= 1e-12 * max(1.0, abs(b1))

    def test_eta_shifts_no_cancellation(self):
        # Naive eta - b1/2 loses all digits here; the rationalized form
        # keeps full relative accuracy.
        minus = critical_fields(ChainParams(1e-8, 0.0, 2.0)).b_minus
        assert abs(minus - 0.5e-16) <= 1e-12 * 0.5e-16


class TestHamiltonian:
    def test_explicit_entries(self):
        h = build_hamiltonian(ChainParams(1.0, 1.0, 2.0))
        expected = np.array(
            [
                [-2.0, 0.0, 0.0, 0.0],
                [0.0, -1.0, 1.0, 0.0],
                [0.0, 1.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 2.0],
            ]
        )
        assert np.max(np.abs(h - expected)) < 1e-14

    def test_is_a_real_symmetric_float64_matrix(self):
        h = build_hamiltonian(ChainParams(1.0, 1.0, 2.0))
        assert h.dtype == np.float64
        assert np.array_equal(h, h.T)
        assert np.array_equal(
            h, [[-2.0, 0.0, 0.0, 0.0], [0.0, -1.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 2.0]]
        )

    def test_known_eigenvalues(self):
        h = build_hamiltonian(ChainParams(1.0, 1.0, 2.0))
        values = np.linalg.eigvalsh(h)
        root2 = math.sqrt(2.0)
        assert np.allclose(values, [-2.0, -root2, root2, 2.0])

    def test_basis_labels(self):
        assert BASIS_LABELS == ("00", "01", "10", "11")

    def test_overflowing_site_field_raises_before_any_warning(self):
        # b + b1 = inf would meet the zeros of Sz_1 as inf * 0, which warns;
        # ChainParams rejects it, so no route builds that matrix.
        with pytest.raises(ValueError, match="b \\+ b1 overflows"):
            ChainParams(1.0, 1e308, 1e308)
        # the largest finite site-1 field builds a finite matrix
        h = build_hamiltonian(ChainParams(1.0, 1e308, 7.9e307))
        assert np.isfinite(h).all() and h[3, 3] == 0.5 * (1e308 + 7.9e307) + 0.5e308

    def test_spectrum_beyond_float_range_raises_before_any_warning(self):
        # levels +/-1.7e308 and +/-1e308: E_max - E_min overflows, which
        # warned in the subtraction before the weights
        params = ChainParams(1e308, 1.7e308, 0.0)
        with pytest.raises(ValueError, match="spans more than the float range"):
            gibbs_oracle(params, Temperature(1.0))


class TestOraclesInRealArithmetic:
    """The oracles eigensolve the real H, and return complex128 states."""

    def test_states_are_complex_with_zero_imaginary_part(self):
        params = ChainParams(1.0, 0.3, 0.7)
        states = (
            gibbs_oracle(params, Temperature(0.8)),
            gibbs_oracle_grid(*_draws(1, 120)),
            gibbs_oracle(params, Temperature(0.0)),
        )
        for rho in states:
            assert rho.dtype == np.complex128
            assert not rho.imag.any()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_match_a_complex_eigensolve_of_the_same_matrix(self, seed):
        j, b, b1, kbt = _draws(seed, 120)
        points = zip(j.tolist(), b.tolist(), b1.tolist())
        h = np.array([build_hamiltonian(ChainParams(*point)) for point in points])
        values, vectors = np.linalg.eigh(h.astype(complex))
        weights = np.exp((values[:, :1] - values) / kbt[:, None])
        reference = (vectors * weights[:, None, :]) @ np.swapaxes(vectors.conj(), -1, -2)
        reference /= weights.sum(axis=-1)[:, None, None]
        error = np.abs(gibbs_oracle_grid(j, b, b1, kbt) - reference).max()
        assert error <= 4.0 * np.finfo(float).eps, error


class TestThermalCoefficients:
    # At b + b1/2 = 0 the product weights u = v equal the damping factor
    # the six weights share, so each weight over u is its undamped value.

    def test_frozen_symmetric_point(self):
        x = thermal_coefficients(ChainParams(1.0, 0.0, 0.0), Temperature(0.5))
        assert x.u == x.v
        # frozen from cosh(2): w1 = w2 = cosh(eta * beta) at eta=1, beta=2
        assert abs(x.w1 / x.u - 3.7621956910836315) < 1e-14
        assert abs(x.w2 / x.u - 3.7621956910836315) < 1e-14
        # frozen from -sinh(2)
        assert abs(x.y / x.u + 3.6268604078470188) < 1e-14
        # frozen from 2 + 2*cosh(2)
        assert abs(x.z / x.u - 9.524391382167263) < 1e-14

    def test_frozen_impurity_point(self):
        x = thermal_coefficients(ChainParams(1.0, -1.0, 2.0), Temperature(1.0))
        assert x.u == x.v
        # frozen from ((eta + 1) e^{-eta} + (eta - 1) e^{eta}) / (2 eta), eta=sqrt(2)
        assert abs(x.w1 / x.u - 0.80988468459998018) < 1e-13
        # frozen from ((eta - 1) e^{-eta} + (eta + 1) e^{eta}) / (2 eta)
        assert abs(x.w2 / x.u - 3.5464824286171615) < 1e-13
        # frozen from -sinh(sqrt(2)) / sqrt(2) * 2 ... i.e. -(J/eta) sinh(eta beta)
        assert abs(x.y / x.u + 1.3682988720085907) < 1e-13
        assert abs(x.z / x.u - 6.356367113217142) < 1e-13

    def test_invariants_on_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            params = random_params(rng)
            temp = Temperature(float(rng.uniform(0.05, 10.0)))
            x = thermal_coefficients(params, temp)
            # Two identities that any damping common to the six weights
            # keeps: u / v = exp(-2 (b + b1/2) beta) and
            # (w1 + w2) / (2 sqrt(u v)) = cosh(eta beta).
            field = params.b + 0.5 * params.b1
            ratio = math.exp(-2.0 * field / temp.kbt)
            assert abs(x.u / x.v - ratio) <= 1e-14 * ratio
            cosh = math.cosh(params.eta / temp.kbt)
            assert abs((x.w1 + x.w2) / (2.0 * math.sqrt(x.u * x.v)) - cosh) <= 1e-14 * cosh
            assert x.w1 > 0.0 and x.w2 > 0.0
            assert abs(x.z - (x.u + x.v + x.w1 + x.w2)) <= 1e-12 * x.z
            assert x.y * params.j <= 0.0
            # spin-flip identity: w1 w2 - y^2 = u v. The difference is
            # computed from products of magnitude ~e^{2 eta beta}, so the
            # attainable accuracy is rounding noise at that scale.
            lhs = x.w1 * x.w2 - x.y * x.y
            noise = 1e-13 * (x.w1 * x.w2 + x.y * x.y)
            assert abs(lhs - x.u * x.v) <= max(noise, 1e-10 * x.u * x.v)

    def test_overflow_guard_keeps_ratios(self):
        # beta * drive ~ 6.5e4 would overflow exp; the damped coefficients
        # stay finite and the populations still normalize.
        params = ChainParams(1.0, 5.0, 3.0)
        x = thermal_coefficients(params, Temperature(1e-4))
        for value in (x.u, x.v, x.w1, x.w2, x.y, x.z):
            assert math.isfinite(value)
        assert x.z > 0.0
        rho = thermal_state(params, Temperature(1e-4))
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.max(np.abs(rho - ground_state(params))) < 1e-12

    @pytest.mark.parametrize("kbt", [5e-324, 1e-300, 1e-3])
    def test_cold_and_subnormal_temperatures_reach_ground_state(self, kbt):
        # beta = 1/kbt is inf at 5e-324; the damped weights never form it.
        # Inside the window at B1 = 2 the ground state is the doublet with
        # concurrence |J|/eta = 1/sqrt(2).
        x = thermal_coefficients(ChainParams(1.0, -0.7, 2.0), Temperature(kbt))
        for value in (x.u, x.v, x.w1, x.w2, x.y, x.z):
            assert math.isfinite(value)
        assert abs(concurrence_closed_form(x) - 1.0 / math.sqrt(2.0)) < 1e-12


class _MutablePoint:
    """Duck-typed, mutable stand-in for both ``ChainParams`` and ``Temperature``."""

    def __init__(self, j, b, b1, kbt):
        self.j, self.b, self.b1, self.kbt = j, b, b1, kbt

    @property
    def eta(self):
        return math.hypot(self.j, 0.5 * self.b1)

    @property
    def beta(self):
        return 1.0 / self.kbt


def fresh_outputs(j, b, b1, kbt):
    """Bits of every single-point output at a point, from new objects only."""
    state = thermal_state(ChainParams(j, b, b1), Temperature(kbt))
    weights = thermal_coefficients(ChainParams(j, b, b1), Temperature(kbt))
    metrics = teleport_metrics(ChainParams(j, b, b1), Temperature(kbt))
    return state.tobytes(), repr(weights), repr(concurrence_closed_form(weights)), repr(metrics)


def shared_outputs(params, temp):
    """``fresh_outputs`` from one pair of objects, in a pointwise request's order."""
    state = thermal_state(params, temp)
    weights = thermal_coefficients(params, temp)
    metrics = teleport_metrics(params, temp)
    return state.tobytes(), repr(weights), repr(concurrence_closed_form(weights)), repr(metrics)


# A point at a moderate temperature and a cold one, where the damping
# factor exp(-top / kbT) is far below the smallest float.
MEMO_POINTS = ((1.0, 0.25, 0.5, 1.5), (-0.7, 2.0, -1.0, 1e-3))


class TestWeightsMemo:
    """One weights evaluation serves every single-point call on the same objects."""

    @pytest.fixture
    def counting(self, monkeypatch):
        counting = CountingMath()
        monkeypatch.setattr(model, "math", counting)
        return counting

    @pytest.mark.parametrize("point", MEMO_POINTS)
    def test_pointwise_sequence_evaluates_once(self, counting, point):
        params, temp = ChainParams(*point[:3]), Temperature(point[3])
        outputs = shared_outputs(params, temp)
        assert counting.exp_calls == 4
        assert outputs == fresh_outputs(*point)

    def test_cli_compute_evaluates_once(self, counting, capsys):
        argv = ["compute", "--j", "1", "--b", "0.25", "--b1", "0.5", "--kbt", "1.5"]
        assert cli.main(argv) == 0
        assert counting.exp_calls == 4
        out = json.loads(capsys.readouterr().out)
        params, temp = ChainParams(1.0, 0.25, 0.5), Temperature(1.5)
        metrics = teleport_metrics(params, temp)
        assert out == {
            "concurrence": concurrence_closed_form(thermal_coefficients(params, temp)),
            "singletFraction": metrics.singlet_fraction,
            "fidelity": metrics.fidelity,
        }

    def test_alternating_points_match_fresh_objects(self):
        pairs = [(ChainParams(*p[:3]), Temperature(p[3])) for p in MEMO_POINTS]
        expected = [fresh_outputs(*p) for p in MEMO_POINTS]
        for _ in range(3):
            for (params, temp), outputs in zip(pairs, expected):
                assert shared_outputs(params, temp) == outputs

    def test_equal_distinct_objects_recompute(self, counting):
        params, temp = ChainParams(1.0, 0.25, 0.5), Temperature(1.5)
        first = thermal_coefficients(params, temp)
        assert counting.exp_calls == 4
        for again in (
            (ChainParams(1.0, 0.25, 0.5), Temperature(1.5)),
            (params, Temperature(1.5)),
            (ChainParams(1.0, 0.25, 0.5), temp),
        ):
            assert repr(thermal_coefficients(*again)) == repr(first)
        assert counting.exp_calls == 16

    def test_mutable_stand_in_is_never_served(self, counting):
        before = fresh_outputs(1.0, 0.25, 0.5, 1.5)[1]
        after = fresh_outputs(1.0, -0.7, 0.5, 0.5)[1]
        calls = counting.exp_calls
        point = _MutablePoint(1.0, 0.25, 0.5, 1.5)
        assert repr(thermal_coefficients(point, point)) == before
        point.b, point.kbt = -0.7, 0.5
        assert repr(thermal_coefficients(point, point)) == after
        assert counting.exp_calls == calls + 8

    def test_raising_calls_store_nothing(self):
        # The same objects again must raise again.
        params, temp = ChainParams(1.0, 0.25, 0.5), Temperature(1.5)
        uncoupled, zero = ChainParams(0.0, 0.25, 0.5), Temperature(0.0)
        for _ in range(2):
            with pytest.raises(ClosedFormUnavailableError):
                thermal_coefficients(uncoupled, temp)
        for _ in range(2):
            with pytest.raises(ValueError, match="kbt = 0"):
                thermal_coefficients(params, zero)

    def test_threads_get_their_own_points(self):
        # Each thread asks twice for each of its own objects in turn; the
        # shared entry may miss but must never hand a thread another's weights.
        points = [(1.0, 0.25 * k, 0.5, 1.5) for k in range(6)]
        expected = {p: fresh_outputs(*p)[1] for p in points}
        wrong = []

        def work(point):
            pairs = [(ChainParams(*point[:3]), Temperature(point[3])) for _ in range(2)]
            for _ in range(2000):
                for params, temp in pairs:
                    for _ in range(2):
                        if repr(thermal_coefficients(params, temp)) != expected[point]:
                            wrong.append(point)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(p,)) for p in points]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestThermalState:
    def test_density_matrix_properties(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            params = random_params(rng)
            temp = Temperature(float(rng.uniform(0.05, 10.0)))
            rho = thermal_state(params, temp)
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
            values = np.linalg.eigvalsh(rho)
            assert values[0] > -1e-14
            # only the inner antidiagonal pair may be off-diagonal
            mask = np.zeros((4, 4), dtype=bool)
            mask[np.diag_indices(4)] = True
            mask[1, 2] = mask[2, 1] = True
            assert np.max(np.abs(rho[~mask])) == 0.0

    def test_frozen_populations(self):
        rho = thermal_state(ChainParams(1.0, 0.0, 0.0), Temperature(0.5))
        # frozen from 1 / (2 + 2 cosh(2)) and cosh(2) / (2 + 2 cosh(2))
        assert abs(rho[0, 0].real - 0.10499358540350652) < 1e-14
        assert abs(rho[1, 1].real - 0.3950064145964935) < 1e-14
        # frozen from -sinh(2) / (2 + 2 cosh(2))
        assert abs(rho[1, 2].real + 0.38079707797788244) < 1e-14
        assert abs(rho[1, 2].imag) == 0.0

    def test_matches_gibbs_construction(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            params = random_params(rng)
            temp = Temperature(float(rng.uniform(0.05, 10.0)))
            delta = np.max(np.abs(thermal_state(params, temp) - gibbs_oracle(params, temp)))
            assert delta < 1e-10

    def test_subnormal_temperature_gibbs_state_is_the_ground_state(self):
        # 1 / kbt overflows here; the weights must not meet inf * 0
        params = ChainParams(1.0, 0.3, 0.1)
        assert np.max(np.abs(gibbs_oracle(params, Temperature(5e-324)) - ground_state(params))) < 1e-12

    def test_tiny_coupling_matches_gibbs_construction(self):
        # j * j underflows here; the state must still be normalized and
        # agree with the eigensolver route.
        params = ChainParams(1e-170, 0.0, 0.0)
        temp = Temperature(1.0)
        rho = thermal_state(params, temp)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.max(np.abs(rho - gibbs_oracle(params, temp))) < 1e-10

    def test_high_temperature_limit(self):
        rho = thermal_state(ChainParams(1.0, 2.0, 3.0), Temperature(1e6))
        assert np.max(np.abs(rho - np.eye(4) / 4.0)) < 1e-5

    def test_low_temperature_reaches_ground(self):
        # stay away from level crossings so the gap is order eta
        for params in (ChainParams(1.0, 0.0, 0.0), ChainParams(1.0, -1.0, 2.0),
                       ChainParams(1.0, 3.0, 0.0)):
            cold = thermal_state(params, Temperature(1e-3 * params.eta))
            assert np.max(np.abs(cold - ground_state(params))) < 1e-9

    def test_zero_temperature_routes_to_ground(self):
        params = ChainParams(1.0, 0.0, 2.0)
        assert np.array_equal(thermal_state(params, Temperature(0.0)), ground_state(params))


def assembled_x_state(x):
    """The X state of one set of weights as zeros, six item stores and a complex division by z."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = x.v
    rho[1, 1] = x.w2
    rho[2, 2] = x.w1
    rho[3, 3] = x.u
    rho[1, 2] = x.y
    rho[2, 1] = x.y
    rho /= x.z
    return rho


class TestXStateAssembly:
    """``model._x_state`` builds by six item stores the bits of ``assembled_x_state``."""

    @pytest.fixture
    def assembled(self, monkeypatch):
        # Every weight set the routes hand to _x_state, each checked bit for
        # bit against the stepwise assembly.
        seen = []
        built = model._x_state

        def checked(x):
            rho = built(x)
            assert rho.tobytes() == assembled_x_state(x).tobytes(), x
            seen.append(x)
            return rho

        monkeypatch.setattr(model, "_x_state", checked)
        return seen

    def test_thermal_states_of_verify_domain_draws(self, assembled):
        j, b, b1, kbt = (a.tolist() for a in _draws(91, 1500))
        # Temperatures down to the smallest subnormal, where both doublet
        # factors underflow and the coherence is -0.0 for j > 0.
        rng = np.random.default_rng(92)
        colder = (10.0 ** rng.uniform(-323.7, 1.0, len(j))).tolist()
        subnormal = (5e-324, 1e-320, 2e-310)
        for k, point in enumerate(zip(j, b, b1)):
            params = ChainParams(*point)
            for t in (kbt[k], colder[k], subnormal[k % 3]):
                thermal_state(params, Temperature(t))
        assert len(assembled) == 3 * len(j)
        assert min(j) < 0.0 < max(j)
        negative_zero = [x for x in assembled if x.y == 0.0 and math.copysign(1.0, x.y) < 0.0]
        assert len(negative_zero) > 100

    @pytest.mark.parametrize("seed", [65, 66])
    def test_ground_states_with_level_crossings(self, assembled, seed):
        draws = ground_draws(seed, 300)
        for params in draws:
            ground_state(params)
            thermal_state(params, Temperature(0.0))
        assert len(assembled) == 2 * len(draws)


class TestGroundState:
    def test_singlet_at_symmetric_point(self):
        singlet = np.zeros(4, dtype=complex)
        singlet[1] = -1.0 / math.sqrt(2.0)
        singlet[2] = 1.0 / math.sqrt(2.0)
        # the degeneracy threshold scales with the levels, so a tiny coupling
        # still splits the singlet from the triplet
        for scale in (1e-12, 1.0, 1e12):
            rho = ground_state(ChainParams(scale, 0.0, 0.0))
            assert np.max(np.abs(rho - np.outer(singlet, singlet.conj()))) < 1e-12
            assert abs(concurrence_wootters(rho) - 1.0) < 1e-12

    def test_singlet_at_a_coupling_near_the_float_maximum(self):
        # 2 eta overflows for eta > 9e307; the doublet prefactors are formed
        # without it, so the singlet keeps its whole weight.
        singlet = np.zeros(4)
        singlet[1], singlet[2] = -1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)
        params = ChainParams(1e308, 0.0, 0.0)
        for rho in (ground_state(params), thermal_state(params, Temperature(1.0))):
            assert np.max(np.abs(rho - np.outer(singlet, singlet))) <= 1e-15
        assert teleport_metrics(params, Temperature(1.0)).singlet_fraction == 1.0

    def test_product_ground_outside_window(self):
        rho = ground_state(ChainParams(1.0, 2.0, 0.0))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho - expected)) < 1e-12

    def test_degenerate_boundary_mixture(self):
        # at B = eta - B1/2 the product level crosses the singlet level;
        # the ground projector averages the two, at any coupling scale.
        for scale in (1e-12, 1.0, 1e12):
            rho = ground_state(ChainParams(scale, scale, 0.0))
            assert abs(rho[0, 0].real - 0.5) < 1e-12
            assert abs(rho[1, 1].real - 0.25) < 1e-12
            assert abs(rho[2, 2].real - 0.25) < 1e-12
            assert abs(rho[3, 3].real) < 1e-12
            assert abs(rho[1, 2].real + 0.25) < 1e-12
            assert abs(np.trace(rho).real - 1.0) < 1e-12


def ground_draws(seed, count):
    """Points whose ground state both routes must agree on: random scales and ratios
    from 1e-150 to 1e150, plus every case where levels meet or the closed form
    has no doublet splitting."""
    rng = np.random.default_rng(seed)
    points = []
    for scale in 10.0 ** rng.uniform(-150.0, 150.0, count):
        j = float(rng.uniform(-3.0, 3.0)) * scale
        points.append((j, float(rng.uniform(-5.0, 5.0)) * scale, float(rng.uniform(-6.0, 6.0)) * scale))
    for scale in (1e-150, 1e-12, 1.0, 1e12, 1e150):
        points += [
            (0.0, 0.7 * scale, -1.3 * scale),  # no coupling
            (0.0, 0.0, 2.0 * scale),  # no coupling, no uniform field
            (0.0, -scale, 0.0),  # eta = 0, a product ground state
            (0.0, 0.0, 0.0),  # H = 0
            (scale, 0.4 * scale, 0.0),  # no impurity field
            (-scale, 0.0, 0.0),  # the singlet
            (scale, -0.5 * scale, scale),  # b = -b1/2: no net field on the product levels
        ]
        # b = eta - b1/2 and its mirror: a product level meets the doublet
        for b1 in (0.0, 0.5 * scale, -2.0 * scale, 7.0 * scale):
            eta = math.hypot(scale, 0.5 * b1)
            points += [(scale, eta - 0.5 * b1, b1), (-scale, -eta - 0.5 * b1, b1)]
    points.append((1e-200, 0.3, 2.0))  # |j| << |b1|: j**2 underflows in the doublet shifts
    return [ChainParams(*point) for point in points]


class TestGroundStateOracle:
    """The closed-form ground state against the eigensolver, and neither using the other."""

    @pytest.mark.parametrize("seed", [61, 62])
    def test_matches_eigensolver(self, seed):
        for params in ground_draws(seed, 500):
            rho = ground_state(params)
            assert np.max(np.abs(rho - gibbs_oracle(params, Temperature(0.0)))) <= 1e-15, params
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)

    def test_closed_form_needs_no_eigensolver(self, monkeypatch):
        expected = [gibbs_oracle(params, Temperature(0.0)) for params in ground_draws(63, 20)]

        def explode(*args, **kwargs):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(np.linalg, "eigh", explode)
        for params, oracle in zip(ground_draws(63, 20), expected):
            assert np.max(np.abs(ground_state(params) - oracle)) <= 1e-15
            assert np.array_equal(thermal_state(params, Temperature(0.0)), ground_state(params))

    def test_oracle_needs_no_closed_form(self, monkeypatch):
        expected = [ground_state(params) for params in ground_draws(64, 20)]

        def explode(params):
            raise AssertionError("closed form called")

        monkeypatch.setattr(model, "ground_state", explode)
        for params, closed in zip(ground_draws(64, 20), expected):
            assert np.max(np.abs(gibbs_oracle(params, Temperature(0.0)) - closed)) <= 1e-15
