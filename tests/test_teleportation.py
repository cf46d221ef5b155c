"""Teleportation fidelity, its threshold temperature, and the envelope.

Frozen reference numbers come from a 50-digit mpmath evaluation of the
closed-form expressions (thresholds solved there with findroot).
"""

import math

import numpy as np
import pytest

from xxchain.entanglement import concurrence_wootters, entanglement_critical_temp
from xxchain.model import PAULI, ChainParams, Temperature, ground_state, thermal_state
from xxchain.numerics import BracketError
from xxchain.teleportation import (
    _MAGIC,
    correlation_tensor,
    envelope_extremum,
    fidelity_critical_temp,
    optimal_fidelity,
    singlet_fraction_closed_form,
    singlet_fraction_general,
    singlet_fraction_oracle,
    teleport_metrics,
)

from test_model import random_params

CLASSICAL_BOUND = 2.0 / 3.0


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

    def test_near_boundary_still_resolves(self):
        result = fidelity_critical_temp(ChainParams(1.0, 0.999999999, 0.0))
        assert result.exists
        assert 0.0 < result.value < 0.2

    def test_crossings_past_the_fixed_bracket_limit(self):
        # verify-domain draws (seeds 11, 40, 311, 323, 669) whose root lies
        # near ln(eta/|j|) / (eta - |b + b1/2|), beyond beta = 1e4/eta, so a
        # bracket limit fixed at 1e4/eta stops short of the sign change
        cases = (
            (0.1695525296214373, -0.005906193678562488, -4.390451098464959),
            (1.7802410635350379, 0.7743582288267437, 3.3182449096008906),
            (0.10429100237796174, 3.713203859253788, -3.7103110192779964),
            (1.0891236506183848, 4.97989759300334, -4.741863931581539),
            (2.252013667911535, 1.0774198775740231, 3.629495091698251),
        )
        for j, b, b1 in cases:
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
