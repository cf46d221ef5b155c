"""Hamiltonian, spectrum, and thermal-state tests.

Frozen reference numbers in this file come from a 50-digit mpmath
evaluation of the closed-form coefficient expressions; each is tagged
with the formula it was computed from.
"""

import math

import numpy as np
import pytest

from xxchain.entanglement import concurrence_closed_form
from xxchain.model import (
    BASIS_LABELS,
    ChainParams,
    ClosedFormUnavailableError,
    Temperature,
    build_hamiltonian,
    closed_form_spectrum,
    eta_shifts,
    gibbs_oracle,
    ground_state,
    thermal_coefficients,
    thermal_state,
)
from xxchain.numerics import hermitian_eigen


def random_params(rng):
    j = float(rng.uniform(0.05, 3.0)) * (1 if rng.uniform() < 0.5 else -1)
    return ChainParams(j, float(rng.uniform(-5.0, 5.0)), float(rng.uniform(-6.0, 6.0)))


class TestParameters:
    def test_eta(self):
        assert ChainParams(1.0, 0.0, 0.0).eta == 1.0
        assert abs(ChainParams(1.0, 3.0, 2.0).eta - math.sqrt(2.0)) < 1e-15
        assert abs(ChainParams(-3.0, 0.0, -8.0).eta - 5.0) < 1e-15

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ChainParams(float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError):
            ChainParams(1.0, float("inf"), 0.0)

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            Temperature(-0.1)
        with pytest.raises(ValueError):
            Temperature(float("nan"))
        assert Temperature(2.0).beta == 0.5
        with pytest.raises(ValueError):
            Temperature(0.0).beta

    def test_eta_shifts_product_identity(self):
        for j, b1 in [(1.0, 2.0), (0.5, -3.0), (2.0, 0.0), (1e-8, 2.0)]:
            minus, plus = eta_shifts(j, b1)
            assert minus > 0.0 and plus > 0.0
            assert abs(minus * plus - j * j) <= 1e-14 * j * j
            assert abs(plus - minus - b1) <= 1e-12 * max(1.0, abs(b1))

    def test_eta_shifts_no_cancellation(self):
        # Naive eta - b1/2 loses all digits here; the rationalized form
        # keeps full relative accuracy.
        minus, _ = eta_shifts(1e-8, 2.0)
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

    def test_known_eigenvalues(self):
        h = build_hamiltonian(ChainParams(1.0, 1.0, 2.0))
        values, _ = hermitian_eigen(h)
        root2 = math.sqrt(2.0)
        assert np.allclose(values, [-2.0, -root2, root2, 2.0])

    def test_basis_labels(self):
        assert BASIS_LABELS == ("00", "01", "10", "11")


class TestClosedFormSpectrum:
    def test_matches_eigensolver(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            params = random_params(rng)
            h = build_hamiltonian(params)
            spectrum = closed_form_spectrum(params)
            for k in range(4):
                vec = spectrum.states[:, k]
                assert abs(np.vdot(vec, vec) - 1.0) < 1e-12
                residual = h @ vec - spectrum.energies[k] * vec
                assert np.max(np.abs(residual)) < 1e-10
            solver_values, _ = hermitian_eigen(h)
            assert np.allclose(sorted(spectrum.energies), solver_values, atol=1e-10)

    def test_entangled_levels_at_zero_impurity_field(self):
        spectrum = closed_form_spectrum(ChainParams(1.0, 0.5, 0.0))
        inv = 1.0 / math.sqrt(2.0)
        # index 2: symmetric combination at +|J|, index 3: singlet at -|J|
        assert np.allclose(spectrum.states[:, 2], [0.0, inv, inv, 0.0])
        assert np.allclose(spectrum.states[:, 3], [0.0, -inv, inv, 0.0])
        assert abs(spectrum.energies[2] - 1.0) < 1e-14
        assert abs(spectrum.energies[3] + 1.0) < 1e-14

    def test_product_level_energies(self):
        spectrum = closed_form_spectrum(ChainParams(1.0, 1.0, 2.0))
        assert abs(spectrum.energies[0] + 2.0) < 1e-14  # |00>
        assert abs(spectrum.energies[1] - 2.0) < 1e-14  # |11>

    def test_zero_coupling_raises(self):
        with pytest.raises(ClosedFormUnavailableError):
            closed_form_spectrum(ChainParams(0.0, 1.0, 1.0))

    def test_tiny_coupling_against_impurity_field(self):
        # minus = j**2 / plus is far below the float range; the doublet
        # vectors must still come out as unit eigenvectors.
        params = ChainParams(1e-200, 0.3, 2.0)
        h = build_hamiltonian(params)
        spectrum = closed_form_spectrum(params)
        for k in range(4):
            vec = spectrum.states[:, k]
            assert abs(np.vdot(vec, vec) - 1.0) < 1e-12
            residual = h @ vec - spectrum.energies[k] * vec
            assert np.max(np.abs(residual)) < 1e-10


class TestThermalCoefficients:
    def test_frozen_symmetric_point(self):
        x = thermal_coefficients(ChainParams(1.0, 0.0, 0.0), Temperature(0.5))
        assert x.u == 1.0 and x.v == 1.0
        # frozen from cosh(2): w1 = w2 = cosh(eta * beta) at eta=1, beta=2
        assert abs(x.w1 - 3.7621956910836315) < 1e-14
        assert abs(x.w2 - 3.7621956910836315) < 1e-14
        # frozen from -sinh(2)
        assert abs(x.y + 3.6268604078470188) < 1e-14
        # frozen from 2 + 2*cosh(2)
        assert abs(x.z - 9.524391382167263) < 1e-14

    def test_frozen_impurity_point(self):
        x = thermal_coefficients(ChainParams(1.0, -1.0, 2.0), Temperature(1.0))
        assert x.u == 1.0 and x.v == 1.0
        # frozen from ((eta + 1) e^{-eta} + (eta - 1) e^{eta}) / (2 eta), eta=sqrt(2)
        assert abs(x.w1 - 0.80988468459998018) < 1e-13
        # frozen from ((eta - 1) e^{-eta} + (eta + 1) e^{eta}) / (2 eta)
        assert abs(x.w2 - 3.5464824286171615) < 1e-13
        # frozen from -sinh(sqrt(2)) / sqrt(2) * 2 ... i.e. -(J/eta) sinh(eta beta)
        assert abs(x.y + 1.3682988720085907) < 1e-13
        assert abs(x.z - 6.356367113217142) < 1e-13

    def test_invariants_on_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            params = random_params(rng)
            temp = Temperature(float(rng.uniform(0.05, 10.0)))
            x = thermal_coefficients(params, temp)
            scale = max(x.u, x.v, x.w1, x.w2)
            assert abs(x.u * x.v - 1.0) <= 1e-10 * scale * scale or scale > 1e100
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
        # beta * drive ~ 6.5e4 overflows exp; the guarded coefficients
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
        # beta = 1/kbt is inf at 5e-324; the guarded weights never form it.
        # Inside the window at B1 = 2 the ground state is the doublet with
        # concurrence |J|/eta = 1/sqrt(2).
        x = thermal_coefficients(ChainParams(1.0, -0.7, 2.0), Temperature(kbt))
        for value in (x.u, x.v, x.w1, x.w2, x.y, x.z):
            assert math.isfinite(value)
        assert abs(concurrence_closed_form(x) - 1.0 / math.sqrt(2.0)) < 1e-12


class TestThermalState:
    def test_density_matrix_properties(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            params = random_params(rng)
            temp = Temperature(float(rng.uniform(0.05, 10.0)))
            rho = thermal_state(params, temp)
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
            values, _ = hermitian_eigen(rho)
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


class TestGroundState:
    def test_singlet_at_symmetric_point(self):
        rho = ground_state(ChainParams(1.0, 0.0, 0.0))
        singlet = np.zeros(4, dtype=complex)
        singlet[1] = -1.0 / math.sqrt(2.0)
        singlet[2] = 1.0 / math.sqrt(2.0)
        assert np.max(np.abs(rho - np.outer(singlet, singlet.conj()))) < 1e-12

    def test_product_ground_outside_window(self):
        rho = ground_state(ChainParams(1.0, 2.0, 0.0))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho - expected)) < 1e-12

    def test_degenerate_boundary_mixture(self):
        # at B = eta - B1/2 the product level crosses the singlet level;
        # the ground projector averages the two.
        rho = ground_state(ChainParams(1.0, 1.0, 0.0))
        assert abs(rho[0, 0].real - 0.5) < 1e-12
        assert abs(rho[1, 1].real - 0.25) < 1e-12
        assert abs(rho[2, 2].real - 0.25) < 1e-12
        assert abs(rho[3, 3].real) < 1e-12
        assert abs(rho[1, 2].real + 0.25) < 1e-12
        assert abs(np.trace(rho).real - 1.0) < 1e-12
