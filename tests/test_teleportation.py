"""Teleportation fidelity, its threshold temperature, and the envelope.

Frozen reference numbers come from a 50-digit mpmath evaluation of the
closed-form expressions (thresholds solved there with findroot).
"""

import math
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext

import numpy as np
import pytest

from xxchain import teleportation
from xxchain.entanglement import concurrence_wootters, entanglement_critical_temp
from xxchain.model import (
    PAULI,
    ChainParams,
    Temperature,
    gibbs_oracle_grid,
    ground_state,
    thermal_state,
)
from xxchain.numerics import BracketError, CriticalResult, bisect_root, maximize_unimodal
from xxchain.scan import _draws
from xxchain.teleportation import (
    _MAGIC,
    EnvelopePoint,
    correlation_tensor,
    envelope_extremum,
    fidelity_critical_temp,
    optimal_fidelity,
    singlet_fraction_closed_form,
    singlet_fraction_general,
    singlet_fraction_oracle,
    teleport_metrics,
)

from test_model import CountingMath, random_params

# (J, B, B1) with a fidelity crossing whose root in beta = 1/kbT passes the
# float range.
ROOTS_PAST_THE_FLOAT_RANGE = [(1e-310, 0.0, 0.0), (1e-308, 0.0, 0.0), (1e-320, 0.0, 1e-320)]

CLASSICAL_BOUND = 2.0 / 3.0

# Verify-domain draws (seeds 11, 40, 311, 323, 669) whose fidelity root lies
# near ln(eta/|j|) / (eta - |b + b1/2|), beyond beta = 1e4/eta, so a bracket
# limit fixed at 1e4/eta stops short of the sign change.
PAST_LIMIT_CASES = (
    (0.1695525296214373, -0.005906193678562488, -4.390451098464959),
    (1.7802410635350379, 0.7743582288267437, 3.3182449096008906),
    (0.10429100237796174, 3.713203859253788, -3.7103110192779964),
    (1.0891236506183848, 4.97989759300334, -4.741863931581539),
    (2.252013667911535, 1.0774198775740231, 3.629495091698251),
)


def random_density_matrix(rng, rank=4):
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng):
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q


def with_correlations(t):
    # (1 + sum_ij t_ij sigma_i x sigma_j) / 4, whose correlation matrix is t
    rho = np.eye(4, dtype=complex)
    for i in range(3):
        for j in range(3):
            rho += t[i, j] * np.kron(PAULI[i], PAULI[j])
    return rho / 4.0


def classical_mixture():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = 0.5
    return rho


class TestCorrelationTensor:
    def test_frozen_symmetric_point(self):
        tensor = correlation_tensor(thermal_state(ChainParams(1.0, 0.0, 0.0), Temperature(0.5)))
        diag = np.diag(tensor.matrix).real
        # frozen from -tanh(1) (transverse) and -sinh(2)/(1 + cosh(2)) (longitudinal)
        assert abs(diag[0] + 0.7615941559557649) < 1e-13
        assert abs(diag[1] + 0.7615941559557649) < 1e-13
        assert abs(diag[2] + 0.5800256583859739) < 1e-13
        off_diag = tensor.matrix - np.diag(np.diag(tensor.matrix))
        assert np.max(np.abs(off_diag)) < 1e-14

    def test_singlet_projector(self):
        tensor = correlation_tensor(ground_state(ChainParams(1.0, 0.0, 0.0)))
        assert np.max(np.abs(tensor.matrix - (-np.eye(3)))) < 1e-12
        assert abs(singlet_fraction_general(tensor) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        tensor = correlation_tensor(np.eye(4, dtype=complex) / 4.0)
        assert np.max(np.abs(tensor.matrix)) < 1e-14
        assert abs(singlet_fraction_general(tensor) - 0.25) < 1e-12

    def test_singular_tensor_takes_plus_branch(self):
        # the classical 00/11 mixture has correlators (0, 0, 1): determinant
        # zero, and the additive branch gives the attainable 1/2.
        tensor = correlation_tensor(classical_mixture())
        assert abs(singlet_fraction_general(tensor) - 0.5) < 1e-12
        assert abs(singlet_fraction_oracle(classical_mixture()) - 0.5) < 1e-12

    def test_singular_values_descending(self):
        tensor = correlation_tensor(with_correlations(np.diag([0.75, -0.5, 0.25])))
        assert np.allclose(tensor.singular_values, [0.75, 0.5, 0.25])

    def test_rank_deficient_singular_values(self):
        tensor = correlation_tensor(with_correlations(np.diag([0.5, 0.25, 0.0])))
        assert np.allclose(tensor.singular_values, [0.5, 0.25, 0.0])

    def test_signed_permutation_invariance(self):
        # Singular values are invariant under orthogonal transforms.
        t = np.diag([0.75, -0.5, 0.25])
        perm = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        tensor = correlation_tensor(with_correlations(perm @ t))
        assert np.allclose(tensor.matrix, perm @ t)
        assert np.allclose(tensor.singular_values, [0.75, 0.5, 0.25])

    def test_matches_trace_of_each_pauli_product(self):
        # The nine traces one by one, on states with every entry nonzero. Each
        # correlator sums four products of entries of size <= 1 in a new order.
        tol = 4.0 * np.finfo(float).eps
        rng = np.random.default_rng(11)
        for _ in range(200):
            rho = random_density_matrix(rng)
            loop = np.array(
                [[np.trace(rho @ np.kron(si, sj)).real for sj in PAULI] for si in PAULI]
            )
            assert np.max(np.abs(correlation_tensor(rho).matrix - loop)) <= tol

    def test_rejects_bad_shape_and_non_finite(self):
        with pytest.raises(ValueError, match="4x4"):
            correlation_tensor(np.eye(3))
        bad = np.eye(4, dtype=complex) / 4.0
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            correlation_tensor(bad)


class TestSingletFraction:
    def test_frozen_values(self):
        # frozen from max(2, 2 cosh(2)) / (2 + 2 cosh(2)) ... eta=1 branch
        value = singlet_fraction_closed_form(ChainParams(1.0, 0.0, 0.0), Temperature(0.5))
        assert abs(value - 0.7758034925743759) < 1e-14
        # frozen from (cosh(r2) + sinh(r2)/r2) / (1 + cosh(r2)), r2 = sqrt(2)
        value = singlet_fraction_closed_form(ChainParams(1.0, -1.0, 2.0), Temperature(1.0))
        assert abs(value - 0.5579417244864235) < 1e-13

    def test_matches_tensor_route(self):
        rng = np.random.default_rng(67)
        for _ in range(300):
            params = random_params(rng)
            temp = Temperature(float(rng.uniform(0.05, 10.0)))
            closed = singlet_fraction_closed_form(params, temp)
            general = singlet_fraction_general(correlation_tensor(thermal_state(params, temp)))
            assert abs(closed - general) < 1e-10

    def test_matches_direct_search(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            params = random_params(rng)
            temp = Temperature(float(rng.uniform(0.05, 5.0)))
            rho = thermal_state(params, temp)
            closed = singlet_fraction_closed_form(params, temp)
            assert abs(closed - singlet_fraction_oracle(rho)) < 1e-12

    def test_magic_columns_are_maximally_entangled(self):
        for k in range(4):
            column = _MAGIC[:, k]
            assert abs(np.vdot(column, column) - 1.0) < 1e-15
            assert abs(concurrence_wootters(np.outer(column, column.conj())) - 1.0) < 1e-12

    def test_maximally_entangled_states_are_real_in_magic_basis(self):
        # (1 x U)|Phi+> covers every maximally entangled state up to a phase
        rng = np.random.default_rng(103)
        phi_plus = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        for _ in range(50):
            coefficients = _MAGIC.conj().T @ np.kron(np.eye(2), random_unitary(rng)) @ phi_plus
            phase = coefficients[np.argmax(np.abs(coefficients))]
            assert np.max(np.abs((coefficients * (abs(phase) / phase)).imag)) < 1e-12

    def test_search_finds_rotated_optimum(self):
        # A one-sided unitary keeps F but makes the state not an X state.
        rng = np.random.default_rng(101)
        for _ in range(40):
            params = random_params(rng)
            temp = Temperature(float(rng.uniform(0.05, 5.0)))
            u = np.kron(np.eye(2), random_unitary(rng))
            rho = u @ thermal_state(params, temp) @ u.conj().T
            closed = singlet_fraction_closed_form(params, temp)
            assert abs(singlet_fraction_oracle(rho) - closed) < 1e-12

    def test_search_never_exceeds_tensor_route(self):
        # two-sided: on general states of every rank the oracle equals F
        rng = np.random.default_rng(97)
        for i in range(2000):
            rho = random_density_matrix(rng, rank=1 + i % 4)
            found = singlet_fraction_oracle(rho)
            assert abs(found - singlet_fraction_general(correlation_tensor(rho))) < 1e-12

    def test_non_hermitian_input_gives_its_hermitian_part(self):
        # rho + i k with k Hermitian is a general matrix whose Hermitian part is rho
        rng = np.random.default_rng(107)
        for _ in range(20):
            rho = random_density_matrix(rng)
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            found = singlet_fraction_oracle(rho + 0.5j * (g + g.conj().T))
            assert abs(found - singlet_fraction_general(correlation_tensor(rho))) < 1e-12

    def test_search_endpoints(self):
        assert abs(singlet_fraction_oracle(np.eye(4, dtype=complex) / 4.0) - 0.25) < 1e-12
        singlet = ground_state(ChainParams(1.0, 0.0, 0.0))
        assert abs(singlet_fraction_oracle(singlet) - 1.0) < 1e-12

    def test_search_is_deterministic(self):
        rho = thermal_state(ChainParams(1.0, -1.0, 2.0), Temperature(1.0))
        assert singlet_fraction_oracle(rho) == singlet_fraction_oracle(rho)

    def test_field_reversal_symmetry(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            params = random_params(rng)
            temp = Temperature(float(rng.uniform(0.05, 5.0)))
            base = singlet_fraction_closed_form(params, temp)
            flipped = ChainParams(params.j, -params.b, -params.b1)
            assert abs(base - singlet_fraction_closed_form(flipped, temp)) < 1e-12


class TestOptimalFidelity:
    def test_frozen_values(self):
        metrics = teleport_metrics(ChainParams(1.0, 0.0, 0.0), Temperature(0.5))
        # frozen from (2 F + 1) / 3 at the frozen F values
        assert abs(metrics.fidelity - 0.8505356617162506) < 1e-14
        assert abs(metrics.singlet_fraction - 0.7758034925743759) < 1e-14
        metrics = teleport_metrics(ChainParams(1.0, -1.0, 2.0), Temperature(1.0))
        assert abs(metrics.fidelity - 0.7052944829909490) < 1e-13

    def test_affine_relation(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            params = random_params(rng)
            temp = Temperature(float(rng.uniform(0.05, 5.0)))
            metrics = teleport_metrics(params, temp)
            assert abs(metrics.fidelity - (2.0 * metrics.singlet_fraction + 1.0) / 3.0) < 1e-14

    def test_subnormal_temperature_gives_ground_state_metrics(self):
        # ground-state doublet at J = 1, B = -0.7, B1 = 2: F = (1 + |J|/eta) / 2
        metrics = teleport_metrics(ChainParams(1.0, -0.7, 2.0), Temperature(5e-324))
        fraction = 0.5 * (1.0 + 1.0 / math.sqrt(2.0))
        assert abs(metrics.singlet_fraction - fraction) < 1e-12
        assert abs(metrics.fidelity - (2.0 * fraction + 1.0) / 3.0) < 1e-12

    def test_domain_validation(self):
        assert optimal_fidelity(1.0) == 1.0
        assert abs(optimal_fidelity(0.25) - 0.5) < 1e-14
        with pytest.raises(ValueError):
            optimal_fidelity(0.2)
        with pytest.raises(ValueError):
            optimal_fidelity(1.1)

    def test_beats_classical_bound_only_with_impurity_assist(self):
        # at kbT = 1.2 only the B = -B1/2 impurity setting stays above 2/3
        cases = {
            (-1.0, 2.0): 0.6714750385322846,
            (0.0, 2.0): 0.6319494608961505,
            (-0.5, 0.0): 0.6456448196951357,
            (0.0, 0.0): 0.6572610969082442,
        }
        for (b, b1), expected in cases.items():
            # frozen from (2 F + 1) / 3 with F evaluated by mpmath
            metrics = teleport_metrics(ChainParams(1.0, b, b1), Temperature(1.2))
            assert abs(metrics.fidelity - expected) < 1e-9
        assert cases[(-1.0, 2.0)] > CLASSICAL_BOUND
        assert cases[(0.0, 2.0)] < CLASSICAL_BOUND
        assert cases[(-0.5, 0.0)] < CLASSICAL_BOUND
        assert cases[(0.0, 0.0)] < CLASSICAL_BOUND


class TestFidelityCriticalTemp:
    def test_frozen_values(self):
        # frozen from mpmath findroot of sinh(eta/T) = (eta/|J|) cosh((B + B1/2)/T)
        cases = {
            (1.0, 0.0, 0.0): 1.1345926571065110,
            (1.0, -1.0, 2.0): 1.2338108752823214,
            (1.0, 0.0, 2.0): 0.8640336929571266,
            (1.0, -0.5, 0.0): 1.0390434606175138,
        }
        for (j, b, b1), expected in cases.items():
            result = fidelity_critical_temp(ChainParams(j, b, b1))
            assert result.exists
            assert abs(result.value - expected) < 1e-8
            assert result.iterations > 0
            assert result.residual <= 1e-9

    def test_fidelity_crosses_classical_bound_there(self):
        for j, b, b1 in ((1.0, 0.0, 0.0), (1.0, -1.0, 2.0), (1.0, 0.0, 2.0)):
            params = ChainParams(j, b, b1)
            threshold = fidelity_critical_temp(params).value
            at = optimal_fidelity(singlet_fraction_closed_form(params, Temperature(threshold)))
            assert abs(at - CLASSICAL_BOUND) < 1e-8
            below = optimal_fidelity(
                singlet_fraction_closed_form(params, Temperature(0.95 * threshold))
            )
            above = optimal_fidelity(
                singlet_fraction_closed_form(params, Temperature(1.05 * threshold))
            )
            assert below > CLASSICAL_BOUND > above

    def test_oracle_state_has_singlet_fraction_one_half_there(self):
        # The eigensolver state and the magic-basis oracle read neither the
        # Gibbs weights nor the excess. Verify seeds 1-40 give 2126 crossings
        # with a worst |F - 1/2| of 3.2e-11; the bisection stops at a width of
        # 1e-10 in beta.
        points, thresholds = [], []
        for seed in range(1, 41):
            for point in zip(*(a.tolist() for a in _draws(seed, 120)[:3])):
                result = fidelity_critical_temp(ChainParams(*point))
                if result.exists:
                    points.append(point)
                    thresholds.append(result.value)
        assert len(points) > 2000
        j, b, b1 = np.array(points).T
        fraction = singlet_fraction_oracle(gibbs_oracle_grid(j, b, b1, np.array(thresholds)))
        assert np.max(np.abs(fraction - 0.5)) <= 1e-10

    def test_existence_conditions(self):
        beyond = fidelity_critical_temp(ChainParams(1.0, 5.0, 0.0))
        assert not beyond.exists and math.isnan(beyond.value)
        assert "field dominates" in beyond.note

        boundary = fidelity_critical_temp(ChainParams(1.0, 1.0, 0.0))
        assert not boundary.exists
        assert boundary.note == "boundary"

        no_coupling = fidelity_critical_temp(ChainParams(0.0, 0.5, 1.0))
        assert not no_coupling.exists
        assert "coupling" in no_coupling.note

    def test_no_crossing_results_are_shared_constants(self):
        # Each equals the keyword-built result field by field, NaN-aware, and
        # every point with the same note gets the very same object.
        def keyword_built(note):
            return CriticalResult(value=math.nan, exists=False, note=note)

        cases = [
            (
                fidelity_critical_temp,
                [(0.0, 0.5, 1.0), (0.0, -2.0, 0.0)],
                "no coupling, the fidelity never beats the classical bound",
            ),
            (fidelity_critical_temp, [(1.0, 1.0, 0.0), (1e12, 1e12, 0.0)], "boundary"),
            (
                fidelity_critical_temp,
                [(1.0, 5.0, 0.0), (-2.0, -30.0, 1.0)],
                "field dominates the doublet gap, no crossing",
            ),
            (
                entanglement_critical_temp,
                [(0.0, 0.3, 2.0), (0.0, 0.0, 0.0)],
                "no coupling, the thermal state is never entangled",
            ),
        ]
        for solver, points, note in cases:
            first, second = (solver(ChainParams(*point)) for point in points)
            assert second is first
            expected = keyword_built(note)
            assert type(first) is CriticalResult and first._fields == expected._fields
            for got, want in zip(first, expected):
                assert type(got) is type(want)
                assert got == want or (math.isnan(got) and math.isnan(want))

    def test_boundary_note_scales_with_eta(self):
        # |B| = 1e7 eta is far beyond the boundary, however small eta is.
        beyond = fidelity_critical_temp(ChainParams(1e-20, 1e-13, 0.0))
        assert beyond.note == "field dominates the doublet gap, no crossing"
        for scale in (1e-12, 1.0, 1e12):
            assert fidelity_critical_temp(ChainParams(scale, scale, 0.0)).note == "boundary"

    def test_near_boundary_still_resolves(self):
        result = fidelity_critical_temp(ChainParams(1.0, 0.999999999, 0.0))
        assert result.exists
        assert 0.0 < result.value < 0.2

    def test_crossings_past_the_fixed_bracket_limit(self):
        for j, b, b1 in PAST_LIMIT_CASES:
            params = ChainParams(j, b, b1)
            result = fidelity_critical_temp(params)
            assert result.exists
            eta = params.eta
            drive = abs(b + 0.5 * b1)
            ratio = eta / abs(j)
            beta = 1.0 / result.value

            def scaled(x):
                # 2 exp(-eta x) (sinh(eta x) - ratio cosh(drive x)), free of overflow
                return (1.0 - math.exp(-2.0 * eta * x)) - ratio * (
                    math.exp((drive - eta) * x) + math.exp(-(drive + eta) * x)
                )

            assert scaled(beta - 1e-10) < 0.0 < scaled(beta + 1e-10)

    def test_never_exceeds_entanglement_threshold(self):
        rng = np.random.default_rng(83)
        seen = 0
        while seen < 40:
            params = random_params(rng)
            fid = fidelity_critical_temp(params)
            if not fid.exists:
                continue
            seen += 1
            ent = entanglement_critical_temp(params)
            assert fid.value <= ent.value + 1e-9

    def test_equality_exactly_at_compensating_field(self):
        params = ChainParams(1.0, -1.0, 2.0)
        fid = fidelity_critical_temp(params).value
        ent = entanglement_critical_temp(params).value
        assert abs(fid - ent) < 1e-9
        detuned = ChainParams(1.0, 0.0, 2.0)
        gap = entanglement_critical_temp(detuned).value - fidelity_critical_temp(detuned).value
        assert gap > 0.3


def replayed_threshold(params):
    """The threshold as the bracket doubling plus ``bisect_root``, the reference schedule."""
    if params.j == 0.0:
        return CriticalResult(
            value=math.nan,
            exists=False,
            note="no coupling, the fidelity never beats the classical bound",
        )
    eta = params.eta
    drive = abs(params.b + 0.5 * params.b1)
    if drive >= eta:
        boundary = drive - eta <= 1e-12 * eta
        return CriticalResult(
            value=math.nan,
            exists=False,
            note="boundary" if boundary else "field dominates the doublet gap, no crossing",
        )
    ratio = eta / abs(params.j)
    rate, rise, fall, weight = -2.0 * eta, drive - eta, -(drive + eta), 0.5 * ratio

    def excess(beta):
        return 0.5 * (1.0 - math.exp(rate * beta)) - weight * (
            math.exp(rise * beta) + math.exp(fall * beta)
        )

    lo = 1e-6
    hi = 1.0 / eta
    limit = 4.0 * math.log1p(2.0 * ratio) / (eta - drive)
    while excess(hi) <= 0.0:
        hi *= 2.0
        if hi > limit:
            raise BracketError(
                f"no sign change up to beta = {limit:.3e} "
                f"(j = {params.j:g}, b = {params.b:g}, b1 = {params.b1:g})"
            )
    try:
        root, iterations, width = bisect_root(excess, lo, hi)
    except BracketError:
        raise
    except ValueError as exc:
        # An empty bracket: bisect_root's message, raised as the solver
        # failure it is, since the solver chose the interval.
        raise BracketError(str(exc)) from None
    return CriticalResult(value=1.0 / root, exists=True, iterations=iterations, residual=width)


def threshold_outcome(solver, params):
    # repr pins every field bit for bit (floats repr round-trip exactly).
    try:
        return repr(solver(params))
    except ValueError as exc:  # BracketError included
        return type(exc), str(exc)


def verify_domain(seed, count):
    j, b, b1, _ = _draws(seed, count)
    return [ChainParams(float(x), float(y), float(z)) for x, y, z in zip(j, b, b1)]


def log_uniform_scales(rng, count):
    return 10.0 ** rng.uniform(-150.0, 150.0, count) * rng.choice([-1.0, 1.0], count)


class TestThresholdSchedule:
    """``fidelity_critical_temp`` skips only midpoints whose sign is certified.

    Its result must equal the bisection through ``bisect_root`` bit for bit,
    exceptions included, on every kind of crossing.
    """

    def assert_replayed(self, cases):
        for params in cases:
            assert threshold_outcome(fidelity_critical_temp, params) == threshold_outcome(
                replayed_threshold, params
            ), params

    def test_verify_domain(self):
        self.assert_replayed(verify_domain(71, 10000))

    def test_near_the_boundary(self):
        # The replay caps the doubling at 4 log1p(2 eta/|j|) / (eta - |b + b1/2|)
        # and raises past it; the library has no cap, so a crossing that
        # reached it would show here as a mismatch.
        rng = np.random.default_rng(72)
        j = rng.uniform(-3.0, 3.0, 3000)
        b1 = rng.uniform(-6.0, 6.0, 3000)
        gap = 10.0 ** rng.uniform(-12.0, 0.0, 3000)
        sign = rng.choice([-1.0, 1.0], 3000)
        # The same at |j| log-uniform from 1e-150 to 1e150, gaps down to 1e-16.
        scales = log_uniform_scales(rng, 3000)
        j = np.concatenate([j, scales])
        b1 = np.concatenate([b1, rng.uniform(-6.0, 6.0, 3000) * np.abs(scales)])
        gap = np.concatenate([gap, 10.0 ** rng.uniform(-16.0, 0.0, 3000)])
        sign = np.concatenate([sign, rng.choice([-1.0, 1.0], 3000)])
        cases = []
        for x, y, g, s in zip(j, b1, gap, sign):
            eta = math.hypot(x, 0.5 * y)
            cases.append(ChainParams(x, s * (eta - g * eta) - 0.5 * y, y))
        self.assert_replayed(cases)

    def test_log_uniform_scales(self):
        rng = np.random.default_rng(73)
        scales = log_uniform_scales(rng, 3000)
        b, b1 = rng.uniform(-5.0, 5.0, 3000), rng.uniform(-6.0, 6.0, 3000)
        self.assert_replayed(
            [ChainParams(j, x * abs(j), y * abs(j)) for j, x, y in zip(scales, b, b1)]
        )

    def test_compensating_field(self):
        rng = np.random.default_rng(74)
        scales = log_uniform_scales(rng, 1000)
        b1 = rng.uniform(-6.0, 6.0, 1000) * np.abs(scales)
        self.assert_replayed([ChainParams(j, -0.5 * y, y) for j, y in zip(scales, b1)])

    def test_fields_far_above_the_coupling(self):
        # |J| / |B1| log-uniform from 1e-150 to 1. The window's half-width
        # grows with eta / |J| and must still stay inside the bracket.
        rng = np.random.default_rng(76)
        b1 = rng.uniform(-6.0, 6.0, 3000)
        j = 10.0 ** rng.uniform(-150.0, 0.0, 3000) * np.abs(b1) * rng.choice([-1.0, 1.0], 3000)
        b = -rng.uniform(0.0, 1.0, 3000) * b1
        cases = [ChainParams(x, y, z) for x, y, z in zip(j, b, b1)]
        cases += [ChainParams(x, -0.5 * z, z) for x, z in zip(j, b1)]
        self.assert_replayed(cases)

    def test_frozen_cases_and_solver_errors(self):
        cases = [ChainParams(*case) for case in PAST_LIMIT_CASES]
        cases += [ChainParams(1e-16, -0.5, 1.0), ChainParams(1e-300, 0.2, 1.0)]
        cases += [ChainParams(1.0, 1.0 - gap, 0.0) for gap in (1e-3, 1e-6, 1e-9, 1e-12)]
        # The root lies within 1e-13 of lo = 1e-6, so the bracket [1e-6, 1/eta]
        # starts below the stop width and the bisection takes no step.
        cases += [ChainParams(999999.9, 583629.2267709824, 0.0)]
        errors = [ChainParams(9e5, 0.0, 0.0), ChainParams(2e6, 0.0, 0.0)]
        self.assert_replayed(cases + errors)
        # No sign change, then an empty bracket with bisect_root's message.
        assert threshold_outcome(fidelity_critical_temp, errors[0])[0] is BracketError
        assert threshold_outcome(fidelity_critical_temp, errors[1]) == (
            BracketError,
            "invalid interval [1e-06, 5e-07]",
        )

    def test_evaluation_budget(self, monkeypatch):
        counting = CountingMath()
        monkeypatch.setattr(teleportation, "math", counting)
        crossings = [p for p in verify_domain(75, 5000) if abs(p.b + 0.5 * p.b1) < p.eta][:2000]
        assert len(crossings) == 2000
        for params in crossings:
            fidelity_critical_temp(params)
        # 5 evaluations of three exp calls each, against about 38 for the
        # bisection alone; 13.1 measured.
        assert counting.exp_calls <= 15 * len(crossings)

    def exp_calls(self, monkeypatch, params):
        """``exp`` calls of the solver and of the plain bisection it replays, and both results."""
        solver, plain = CountingMath(), CountingMath()
        monkeypatch.setattr(teleportation, "math", solver)
        monkeypatch.setitem(globals(), "math", plain)
        result, reference = fidelity_critical_temp(params), replayed_threshold(params)
        monkeypatch.undo()
        return solver.exp_calls, plain.exp_calls, result, reference

    def test_failed_window_evaluates_every_midpoint(self, monkeypatch):
        # Past eta / |j| = 2^44 the margin exceeds the excess's bound of 1/2,
        # so no window can hold: the solver skips the prediction and evaluates
        # every point, as the plain bisection does.
        params = ChainParams(1e-7, 1.2e7, -2.4e7)
        calls, plain, result, reference = self.exp_calls(monkeypatch, params)
        assert 3 * result.iterations <= calls <= plain
        assert repr(result) == repr(reference)

    def test_window_holds_near_the_boundary_at_unit_ratio(self, monkeypatch):
        # At eta / |j| = 1 close to the boundary each Newton step on the
        # excess gains only about 1 / (2 eta); the log steps reach the root
        # within the step cap, so the window holds and skips midpoints: 59
        # and 74 calls measured, against the plain bisection's 129 and 132.
        for gap in (1e-6, 1e-8):
            params = ChainParams(1.0, 1.0 - gap, 0.0)
            calls, plain, result, reference = self.exp_calls(monkeypatch, params)
            assert calls < 3 * result.iterations
            assert calls <= 0.65 * plain
            assert repr(result) == repr(reference)


def reference_root(params, start: float) -> Decimal:
    """Threshold root in ``beta`` of the library's own rounded equation, at 60 digits.

    Solves ``0.5 (1 - e^(rate b)) - weight (e^(rise b) + e^(fall b)) = 0``
    with ``rate, rise, fall, weight`` formed in floats as the solver forms
    them, from the stored ``eta``. The distance of a returned ``beta`` from
    this root is then a backward error, the solver's own, and leaves out how
    far the rounding of ``eta`` and the fields moves the exact root. Newton
    steps from ``start`` converge, as the left side is increasing and
    concave; the sign is checked 1e-45 relative on either side of the root.
    """
    eta = params.eta
    drive = abs(params.b + 0.5 * params.b1)
    constants = (-2.0 * eta, drive - eta, -(drive + eta), 0.5 * (eta / abs(params.j)))
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 60, MAX_EMAX, MIN_EMIN
        rate, rise, fall, weight = (Decimal(c) for c in constants)

        def excess(beta):
            return (1 - (rate * beta).exp()) / 2 - weight * ((rise * beta).exp() + (fall * beta).exp())

        def slope(beta):
            return -rate * (rate * beta).exp() / 2 - weight * (
                rise * (rise * beta).exp() + fall * (fall * beta).exp()
            )

        beta = Decimal(start)
        for _ in range(100):
            step = excess(beta) / slope(beta)
            beta -= step
            if abs(step) <= beta * Decimal("1e-55"):
                break
        shift = beta * Decimal("1e-45")
        assert excess(beta - shift) < 0 < excess(beta + shift), params
        return beta


def threshold_error(params) -> float:
    """``|1/value - beta_ref| - residual/2`` in ulps of ``beta_ref``, at 60 digits."""
    result = fidelity_critical_temp(params)
    beta = reference_root(params, 1.0 / result.value)
    with localcontext() as ctx:
        ctx.prec = 60
        beyond = abs(1 / Decimal(result.value) - beta) - Decimal(result.residual) / 2
        return float(beyond / Decimal(math.ulp(float(beta))))


class TestThresholdReference:
    """``fidelity_critical_temp`` against a 60-digit root of the equation it solves.

    The bisection stops at a width of 1e-10 in ``beta`` and returns the
    midpoint, so the root lies within half the reported width, up to the
    rounding of the sign tests near it and of ``1/value``.
    """

    def test_verify_domain_within_half_the_bracket(self):
        # 1.1 ms a point. Each of these 400 lies at least 12 ulps inside half
        # the bracket; the worst relative error is 1.25e-10, set by the
        # absolute stop width.
        crossings = [p for p in verify_domain(77, 1000) if abs(p.b + 0.5 * p.b1) < p.eta][:400]
        assert len(crossings) == 400
        for params in crossings:
            assert threshold_error(params) <= 4.0, params

    def test_log_uniform_scales_that_solve(self):
        # |J| log-uniform from 1e-150 to 1e150, B and B1 as ratios to it.
        # Crossings that the fixed bracket start cannot solve raise and are
        # skipped; the next test pins them. Where beta is large the bisection
        # stops at floating-point resolution, and the sign tests near the
        # root can err by a few ulps: the worst of these 557 is 6.0 ulps
        # (9.4 on three other seeds).
        rng = np.random.default_rng(78)
        scales = log_uniform_scales(rng, 3000)
        b, b1 = rng.uniform(-5.0, 5.0, 3000), rng.uniform(-6.0, 6.0, 3000)
        solved = 0
        for j, x, y in zip(scales.tolist(), b.tolist(), b1.tolist()):
            params = ChainParams(j, x * abs(j), y * abs(j))
            if not abs(params.b + 0.5 * params.b1) < params.eta:
                continue
            try:
                error = threshold_error(params)
            except ValueError:  # BracketError included
                continue
            solved += 1
            assert error <= 10.0, params
        assert solved > 500

    def test_fixed_bracket_start_still_fails(self):
        # Known defects of the bracket [1e-6, 1/eta]: every point has a
        # crossing. 1e-6 lies past the root at J = 9e5, the bracket is empty
        # at J = 2e6 and above eta = 1e6, and the excess is NaN where
        # eta/|J| overflows. Each is a solver failure, a BracketError, though
        # the empty bracket keeps bisect_root's "invalid interval" message.
        # A solver without the fixed start should solve all four, and this
        # test should then check their values.
        cases = [
            (ChainParams(9e5, 0.0, 0.0), r"no sign change on \[1e-06, "),
            (ChainParams(2e6, 0.0, 0.0), r"^invalid interval \[1e-06, 5e-07\]$"),
            (ChainParams(1e-160, -1e150, 2e150), r"^invalid interval \[1e-06, "),
            (ChainParams(1e-320, -0.5, 1.0), r"no sign change on \[1e-06, 2048\]"),
        ]
        for params, message in cases:
            assert abs(params.b + 0.5 * params.b1) < params.eta
            with pytest.raises(BracketError, match=message) as info:
                fidelity_critical_temp(params)
            assert type(info.value) is BracketError

    @pytest.mark.parametrize("point", ROOTS_PAST_THE_FLOAT_RANGE)
    def test_root_past_the_float_range_raises_bracket_error(self, point):
        # eta below about 1.04e-308: the root in beta passes the float
        # range, while T_E, about 1.13 eta, is a finite subnormal. A solver
        # in eta beta should solve these, and this test should then check
        # their values.
        params = ChainParams(*point)
        assert abs(params.b + 0.5 * params.b1) < params.eta
        assert 0.0 < entanglement_critical_temp(params).value < math.inf
        for solve in (lambda: fidelity_critical_temp(params), lambda: envelope_extremum(*point[::2])):
            with pytest.raises(BracketError, match=r"^beta = 1/kbT passes the float range on \[") as info:
                solve()
            assert type(info.value) is BracketError

    def test_root_past_the_float_range_ends_without_evaluating(self, monkeypatch):
        # At (1e-310, 0, 0) 1/eta overflows, so beta = inf from the start: one
        # Newton step there (slope 0), the doubling's check at hi = inf and the
        # entry checks at lo and hi, three exp calls each. Every midpoint is
        # inf, so the bisection loop evaluates nothing, and the error after it
        # evaluates nothing either.
        counting = CountingMath()
        monkeypatch.setattr(teleportation, "math", counting)
        params = ChainParams(1e-310, 0.0, 0.0)
        with pytest.raises(BracketError, match="passes the float range"):
            teleportation._fidelity_root(params.j, params.eta, 0.0)
        assert counting.exp_calls == 12

    def test_root_just_inside_the_float_range_still_solves(self):
        # Here 1/eta is finite and the root stays below the float maximum.
        params = ChainParams(1.1e-308, 0.0, 0.0)
        result = fidelity_critical_temp(params)
        assert result.exists and math.isfinite(result.residual)
        # At B = B1 = 0 the two thresholds coincide.
        assert result.value == entanglement_critical_temp(params).value


class TestEnvelope:
    def test_peak_and_argmax_with_impurity(self):
        point = envelope_extremum(1.0, 2.0)
        assert abs(point.argmax_b + 1.0) < 1e-4
        # frozen from eta / log((eta + sqrt(J^2 + eta^2)) / |J|), eta = sqrt(2)
        assert abs(point.max_kbt - 1.2338108752823214) < 1e-6

    def test_peak_without_impurity(self):
        point = envelope_extremum(1.0, 0.0)
        assert abs(point.argmax_b) < 1e-4
        # frozen from 1 / log(1 + sqrt(2))
        assert abs(point.max_kbt - 1.1345926571065110) < 1e-6

    def test_peak_equals_entanglement_threshold(self):
        for b1 in (0.0, 1.0, 3.0):
            point = envelope_extremum(1.0, b1)
            reference = entanglement_critical_temp(ChainParams(1.0, 0.0, b1)).value
            assert abs(point.max_kbt - reference) < 1e-6

    def test_no_coupling_raises(self):
        with pytest.raises(ValueError):
            envelope_extremum(0.0, 1.0)

    def test_overflowing_search_width_raises_before_any_probe(self, monkeypatch):
        # The width 6 eta overflows once eta passes about 3e307; the error
        # names the interval and eta, not a field the caller never gave.
        searches = []
        def search(fn, lo, hi):
            searches.append((lo, hi))
            return 0.0, 0.0

        monkeypatch.setattr(teleportation, "maximize_unimodal", search)
        cases = [
            (4e307, 0.0, "[-1.2e+308, 1.2e+308]", "4e+307"),
            (3e307, 0.0, "[-8.999999999999999e+307, 8.999999999999999e+307]", "3e+307"),
            (1.0, 1e308, "[-inf, 1e+308]", "5e+307"),
        ]
        for j, b1, interval, eta in cases:
            message = f"the envelope's search interval {interval} is wider than the float range (eta = {eta})"
            with pytest.raises(ValueError) as exc:
                envelope_extremum(j, b1)
            assert str(exc.value) == message
        assert searches == []
        # Just below, the width 1.74e308 is finite and the search starts.
        envelope_extremum(2.9e307, 0.0)
        assert searches == [(-8.7e307, 8.7e307)]

    def test_evaluation_budget(self, monkeypatch):
        counting = CountingMath()
        probes = []

        def counted_search(fn, lo, hi):
            def probe(b):
                probes.append(b)
                return fn(b)

            return maximize_unimodal(probe, lo, hi)

        monkeypatch.setattr(teleportation, "math", counting)
        monkeypatch.setattr(teleportation, "maximize_unimodal", counted_search)
        envelope_extremum(1.0, 2.0)
        # 3 evaluations of three exp calls each; 7.8 measured. A probe that
        # loses the sign window evaluates every midpoint, about 38 evaluations.
        assert counting.exp_calls <= 9 * len(probes)

    def test_evaluation_budget_of_the_verify_searches(self, monkeypatch):
        # verify's four searches: 143 solves (4 of the 147 probes lie past
        # the boundary) of 1.56 Newton steps, the upper window check and 0.08
        # midpoints, three exp calls each; 1 134 calls measured.
        counting = CountingMath()
        monkeypatch.setattr(teleportation, "math", counting)
        for b1 in (0.0, 1.0, 2.0, 4.0):
            envelope_extremum(1.0, b1)
        assert counting.exp_calls <= 1250


def replayed_envelope(j, b1):
    """The envelope as the section search over full ``fidelity_critical_temp`` calls.

    It searches the envelope's own interval, which rejects an overflowing
    width before any probe.
    """
    params = ChainParams(j, 0.0, b1)

    def crossing_temp(b):
        result = fidelity_critical_temp(ChainParams(j, b, b1))
        return result.value if result.exists else 0.0

    argmax_b, max_kbt = maximize_unimodal(
        crossing_temp, *teleportation._envelope_interval(params.b1, params.eta)
    )
    return EnvelopePoint(argmax_b=argmax_b, max_kbt=max_kbt)


def envelope_outcome(solver, j, b1):
    try:
        return repr(solver(j, b1))
    except Exception as exc:  # any failure must match in type and message
        return type(exc), str(exc)


@pytest.mark.filterwarnings("error")
class TestEnvelopeReplay:
    """``envelope_extremum`` probes through the threshold's solver alone.

    Its result must equal the section search over ``fidelity_critical_temp``
    bit for bit, exceptions included.
    """

    def assert_replayed(self, cases):
        for j, b1 in cases:
            assert envelope_outcome(envelope_extremum, j, b1) == envelope_outcome(
                replayed_envelope, j, b1
            ), (j, b1)

    def test_verify_fields(self):
        self.assert_replayed([(1.0, b1) for b1 in (0.0, 1.0, 2.0, 4.0)])

    def test_verify_domain(self):
        j, _, b1, _ = _draws(77, 200)
        self.assert_replayed(zip(j.tolist(), b1.tolist()))

    def test_log_uniform_scales(self):
        # numpy scalars, as zip over arrays gives them
        rng = np.random.default_rng(78)
        scales = log_uniform_scales(rng, 300)
        self.assert_replayed(zip(scales, rng.uniform(-6.0, 6.0, 300) * np.abs(scales)))

    def test_numpy_scalars(self):
        # Numpy scalars give the result of Python floats of the same value.
        cases = [
            (np.float64(1.0), np.float64(2.0)),
            (np.float64(-0.7), 1.5),
            (1.0, np.float64(4.0)),
            (np.float32(1.0), np.float32(2.0)),
            (np.float32(0.7), np.float32(-1.9)),
        ]
        for j, b1 in cases:
            assert envelope_outcome(envelope_extremum, j, b1) == envelope_outcome(
                replayed_envelope, float(j), float(b1)
            ), (j, b1)

    def test_varied_brackets_and_failed_windows(self):
        # Tiny impurity fields, fields far above the coupling and magnitudes
        # near 1e-200, where probes double to different brackets; at
        # (1e-7, -2.4e7), where eta / |j| passes 1e14, every probe's sign
        # window fails.
        self.assert_replayed(
            [
                (1.0, 1e-6),
                (1.0, 1e-12),
                (-3.0, 2e-9),
                (2.0, -1e-4),
                (1e-3, 6.0),
                (1e-200, 3e-200),
                (1e-7, -2.4e7),
            ]
        )

    def test_solver_errors(self):
        # (2e6, 0) and (1, 1e300): the threshold's bracket is empty, a solver
        # failure. (5e307, 0): the search interval's width overflows, which is
        # rejected before the first probe.
        errors = [(9e5, 0.0), (2e6, 0.0), (1.0, 1e300), (5e307, 0.0)]
        self.assert_replayed(errors)
        kinds = [envelope_outcome(envelope_extremum, j, b1)[0] for j, b1 in errors]
        assert kinds == [BracketError, BracketError, BracketError, ValueError]


@pytest.mark.filterwarnings("error")
class TestNumpyScalarInputs:
    """Numpy scalars compute in double precision, as Python floats do."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bits_as_python_floats(self, dtype):
        j, b, b1, kbt = (dtype(x) for x in (0.7, -0.3, 1.9, 0.45))
        params, temp = ChainParams(j, b, b1), Temperature(kbt)
        plain, plain_temp = ChainParams(float(j), float(b), float(b1)), Temperature(float(kbt))
        assert params == plain and temp == plain_temp
        assert type(params.j) is type(temp.kbt) is float
        assert thermal_state(params, temp).tobytes() == thermal_state(plain, plain_temp).tobytes()
        assert repr(teleport_metrics(params, temp)) == repr(teleport_metrics(plain, plain_temp))
        for solver in (fidelity_critical_temp, entanglement_critical_temp):
            assert repr(solver(params)) == repr(solver(plain))
        assert repr(envelope_extremum(j, b1)) == repr(envelope_extremum(float(j), float(b1)))

    def test_overflowing_ratio_raises_bracket_error(self):
        # eta / |j| overflows, and the division must not warn for a numpy j.
        for j in (1e-320, np.float64(1e-320)):
            with pytest.raises(BracketError):
                fidelity_critical_temp(ChainParams(j, -0.5, 1.0))
            with pytest.raises(BracketError):
                envelope_extremum(j, 1.0)
