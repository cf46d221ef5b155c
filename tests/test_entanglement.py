"""Concurrence and entanglement-threshold tests.

Frozen reference numbers come from a 50-digit mpmath evaluation of the
closed-form expressions; each is tagged with its formula.
"""

import math
import sys
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from xxchain.entanglement import (
    _flip_roots_general,
    concurrence_closed_form,
    concurrence_wootters,
    critical_fields,
    entanglement_critical_temp,
    entanglement_critical_temp_grid,
)
from xxchain.model import (
    ChainParams,
    Temperature,
    gibbs_oracle_grid,
    thermal_coefficients,
    thermal_state,
)
from xxchain.scan import _draws

from test_model import random_params


def reference_threshold(j: float, eta: float) -> Decimal:
    """``eta / ln(r + sqrt(1 + r^2))`` with ``r = eta/|j|``, in 60 digits.

    Independent of the library's logarithm branches, but fed its rounded
    ``eta``: only the ulps of the threshold formula itself are measured.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        r = Decimal(eta) / Decimal(abs(j))
        return Decimal(eta) / (r + (1 + r * r).sqrt()).ln()


def ulps(value: float, reference: Decimal) -> float:
    return float(abs(Decimal(value) - reference) / Decimal(math.ulp(float(reference))))


def log_uniform(rng, lo: float, hi: float, count: int) -> np.ndarray:
    return 10.0 ** rng.uniform(lo, hi, count) * rng.choice([-1.0, 1.0], count)


def pure_state_density(rng):
    amplitudes = rng.normal(size=4) + 1j * rng.normal(size=4)
    amplitudes /= np.linalg.norm(amplitudes)
    return amplitudes, np.outer(amplitudes, amplitudes.conj())


class TestConcurrence:
    def test_frozen_symmetric_point(self):
        x = thermal_coefficients(ChainParams(1.0, 0.0, 0.0), Temperature(0.5))
        # frozen from (sinh(2) - 1) / (1 + cosh(2))
        assert abs(concurrence_closed_form(x) - 0.5516069851487519) < 1e-14

    def test_frozen_impurity_point(self):
        x = thermal_coefficients(ChainParams(1.0, -1.0, 2.0), Temperature(1.0))
        # frozen from 2 (sinh(sqrt 2)/sqrt 2 - 1) / Z at Z = 2 + 2 cosh(sqrt 2)
        assert abs(concurrence_closed_form(x) - 0.11588344897284699) < 1e-13

    def test_wootters_on_random_pure_states(self):
        # for |psi> = a|00> + b|01> + c|10> + d|11>, C = 2 |a d - b c|
        rng = np.random.default_rng(41)
        for _ in range(40):
            amps, rho = pure_state_density(rng)
            expected = 2.0 * abs(amps[0] * amps[3] - amps[1] * amps[2])
            assert abs(concurrence_wootters(rho) - expected) < 1e-10

    def test_block_and_general_paths_agree(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            rho = thermal_state(random_params(rng), Temperature(float(rng.uniform(0.05, 5.0))))
            block = concurrence_wootters(rho)
            r1, r2, r3, r4 = sorted(_flip_roots_general(rho), reverse=True)
            assert abs(block - max(0.0, r1 - r2 - r3 - r4)) < 1e-12

    def test_closed_form_matches_wootters(self):
        rng = np.random.default_rng(47)
        for _ in range(300):
            params = random_params(rng)
            temp = Temperature(float(rng.uniform(0.05, 10.0)))
            closed = concurrence_closed_form(thermal_coefficients(params, temp))
            assert abs(closed - concurrence_wootters(thermal_state(params, temp))) < 1e-10

    def test_field_reversal_symmetry(self):
        # flipping both fields swaps populations pairwise, |y| is even in
        # the fields, so the concurrence is unchanged; so is the sign of J.
        rng = np.random.default_rng(53)
        for _ in range(50):
            params = random_params(rng)
            temp = Temperature(float(rng.uniform(0.05, 5.0)))
            base = concurrence_closed_form(thermal_coefficients(params, temp))
            flipped = ChainParams(params.j, -params.b, -params.b1)
            negated = ChainParams(-params.j, params.b, params.b1)
            assert abs(base - concurrence_closed_form(thermal_coefficients(flipped, temp))) < 1e-12
            assert abs(base - concurrence_closed_form(thermal_coefficients(negated, temp))) < 1e-12

    def test_cold_limit_is_maximally_entangled(self):
        x = thermal_coefficients(ChainParams(1.0, 0.0, 0.0), Temperature(0.01))
        assert concurrence_closed_form(x) >= 0.999

    def test_rejects_bad_density_matrix(self):
        with pytest.raises(ValueError):
            concurrence_wootters(np.zeros((3, 3)))
        bad = np.eye(4, dtype=complex) / 4.0
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            concurrence_wootters(bad)


class TestEntanglementCriticalTemp:
    def test_frozen_values(self):
        # frozen from eta / log((eta + sqrt(J^2 + eta^2)) / |J|)
        cases = {
            0.0: 1.1345926571065110,
            1.0: 1.1616859047586932,
            2.0: 1.2338108752823214,
            4.0: 1.4477758258459172,
        }
        for b1, expected in cases.items():
            result = entanglement_critical_temp(ChainParams(1.0, 0.0, b1))
            assert result.exists
            assert abs(result.value - expected) < 1e-12

    def test_no_impurity_value_is_inverse_log_silver_ratio(self):
        result = entanglement_critical_temp(ChainParams(1.0, 0.5, 0.0))
        assert abs(result.value - 1.0 / math.log(1.0 + math.sqrt(2.0))) < 1e-12

    def test_independent_of_uniform_field(self):
        reference = entanglement_critical_temp(ChainParams(1.0, 0.0, 2.0)).value
        for b in (-3.0, 3.0, 7.5):
            assert entanglement_critical_temp(ChainParams(1.0, b, 2.0)).value == reference

    def test_monotone_in_impurity_field(self):
        values = [
            entanglement_critical_temp(ChainParams(1.0, 0.0, b1)).value
            for b1 in (0.0, 1.0, 2.0, 4.0)
        ]
        assert values == sorted(values)
        assert values[0] < values[-1]

    def test_threshold_condition_residual(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            params = random_params(rng)
            result = entanglement_critical_temp(params)
            eta = params.eta
            residual = abs(abs(params.j) / eta * math.sinh(eta / result.value) - 1.0)
            assert residual < 1e-10
            assert result.residual < 1e-10

    def test_concurrence_vanishes_across_threshold(self):
        for b1 in (0.0, 1.0, 2.0, 4.0):
            for b in (0.0, -1.5):
                params = ChainParams(1.0, b, b1)
                threshold = entanglement_critical_temp(params).value
                below = thermal_coefficients(params, Temperature(0.99 * threshold))
                above = thermal_coefficients(params, Temperature(1.01 * threshold))
                assert concurrence_closed_form(below) > 0.0
                assert concurrence_closed_form(above) == 0.0

    def test_oracle_concurrence_vanishes_across_threshold(self):
        # Wootters' concurrence of the eigensolver state reads neither the
        # Gibbs weights nor the closed form; all 4800 verify draws of seeds
        # 1-40 have a threshold.
        draws = [_draws(seed, 120) for seed in range(1, 41)]
        j, b, b1 = (np.concatenate([d[k] for d in draws]) for k in range(3))
        thresholds = np.array(
            [
                entanglement_critical_temp(ChainParams(*point)).value
                for point in zip(j.tolist(), b.tolist(), b1.tolist())
            ]
        )
        below = concurrence_wootters(gibbs_oracle_grid(j, b, b1, thresholds * (1.0 - 1e-6)))
        above = concurrence_wootters(gibbs_oracle_grid(j, b, b1, thresholds * (1.0 + 1e-6)))
        assert np.all(below > 0.0)
        assert np.all(above == 0.0)

    def test_no_coupling(self):
        result = entanglement_critical_temp(ChainParams(0.0, 1.0, 2.0))
        assert not result.exists
        assert math.isnan(result.value)
        assert "coupling" in result.note

    # eta / |j| beyond the float range: the quotient of the textbook form
    # overflows at the first two, 1 / 5e-324 at the third.
    @pytest.mark.parametrize("point", [(1e-160, 0.0, 1e160), (1e-300, 0.3, 1e300), (5e-324, 0.0, 1.0)])
    def test_threshold_beyond_float_range_quotient(self, point):
        params = ChainParams(*point)
        eta, strength = params.eta, abs(params.j)
        expected = eta / (math.log(eta + math.hypot(strength, eta)) - math.log(strength))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = entanglement_critical_temp(params)
            grid = entanglement_critical_temp_grid(*point)
        assert result.exists
        assert abs(result.value - expected) <= 1e-12 * expected
        assert math.isfinite(result.residual) and result.residual < 1e-10
        assert grid == result.value

    def test_threshold_within_4_ulps_of_a_60_digit_reference(self):
        # |j| log-uniform over 1e-150 to 1e150 with |b1|/|j| over 1e-8 to 1e8,
        # then three bands where the textbook quotient overflows: hypot(j, eta)
        # overflows, eta/|j| lies between 9e307 and the float maximum, and
        # eta/|j| overflows.
        rng = np.random.default_rng(19)
        j, tiny = log_uniform(rng, -150.0, 150.0, 3000), log_uniform(rng, -323.0, -300.0, 600)
        j = np.concatenate([j, log_uniform(rng, 307.5, 308.25, 300), tiny])
        b1 = np.concatenate(
            [np.abs(j[:3000]) * log_uniform(rng, -8.0, 8.0, 3000), log_uniform(rng, 307.0, 308.25, 300),
             np.abs(tiny) * log_uniform(rng, 307.96, 308.25, 600) * np.tile([2.0, 2e12], 300)]
        )
        overflows = r"threshold eta / asinh\(eta/\|j\|\) overflows"
        kept, references, wide, raised = [], [], 0, 0
        for point in zip(j.tolist(), b1.tolist()):
            if not math.isfinite(math.hypot(point[0], 0.5 * point[1])):
                continue  # ChainParams rejects it
            params = ChainParams(point[0], 0.0, point[1])
            reference = reference_threshold(params.j, params.eta)
            if reference > Decimal(sys.float_info.max):
                with pytest.raises(ValueError, match=overflows):
                    entanglement_critical_temp(params)
                with pytest.raises(ValueError, match=overflows):
                    entanglement_critical_temp_grid(params.j, 0.0, params.b1)
                raised += 1
                continue
            value = entanglement_critical_temp(params).value
            assert ulps(value, reference) <= 4.0, point
            wide += not math.isfinite((params.eta + math.hypot(params.j, params.eta)) / abs(params.j))
            kept.append(point)
            references.append(reference)
        assert len(kept) > 3800 and wide > 700 and raised > 10
        j_kept, b1_kept = np.array(kept).T
        grid = entanglement_critical_temp_grid(j_kept, 0.0, b1_kept)
        for k, reference in enumerate(references):
            assert ulps(float(grid[k]), reference) <= 4.0, kept[k]

    def test_threshold_where_hypot_overflows(self):
        # eta + hypot(j, eta) overflows though eta / |j| does not: the
        # logarithm is asinh(eta / |j|), in both twins and without a warning.
        params = ChainParams(1.2e308, 0.0, 1.79e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = entanglement_critical_temp(params)
            grid = entanglement_critical_temp_grid(1.2e308, 0.0, 1.79e308)
        assert result.exists and result.value == grid == 1.4311261595231457e308
        assert ulps(result.value, reference_threshold(params.j, params.eta)) <= 4.0
        # sinh(eta / value) is finite here, so the residual is formed without
        # the logarithms of |j| and eta near 709, which cancel.
        assert result.residual <= 1e-15
        # with |j| near eta above about 1.6e308 the threshold itself overflows
        message = r"threshold eta / asinh\(eta/\|j\|\) overflows \(j = 1.6e\+308, b1 = 0.0\)"
        with pytest.raises(ValueError, match=message):
            entanglement_critical_temp(ChainParams(1.6e308, 0.0, 0.0))
        with pytest.raises(ValueError, match=message):
            entanglement_critical_temp_grid([1.0, 1.6e308, 1.7e308], 0.0, 0.0)


class TestCriticalFields:
    def test_frozen_window_edges(self):
        fields = critical_fields(ChainParams(1.0, 0.0, 2.0))
        # frozen from sqrt(2) - 1 and sqrt(2) + 1
        assert abs(fields.b_minus - 0.41421356237309515) < 1e-14
        assert abs(fields.b_plus - 2.414213562373095) < 1e-14

    def test_edge_identities(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            params = random_params(rng)
            fields = critical_fields(params)
            assert fields.b_minus > 0.0 and fields.b_plus > 0.0
            assert abs(fields.b_minus + fields.b_plus - 2.0 * params.eta) < 1e-10
            assert abs(fields.b_plus - fields.b_minus - params.b1) < 1e-10

    def test_no_coupling_raises(self):
        with pytest.raises(ValueError):
            critical_fields(ChainParams(0.0, 0.0, 1.0))

    def test_ground_state_transition_at_edges(self):
        from xxchain.model import ground_state

        params = ChainParams(1.0, 0.0, 2.0)
        fields = critical_fields(params)
        inv_root2 = 1.0 / math.sqrt(2.0)  # |J| / eta at these parameters
        for edge, step in ((fields.b_minus, 0.05), (-fields.b_plus, -0.05)):
            inside = concurrence_wootters(ground_state(ChainParams(1.0, edge - step, 2.0)))
            outside = concurrence_wootters(ground_state(ChainParams(1.0, edge + step, 2.0)))
            assert abs(inside - inv_root2) < 1e-9
            assert outside <= 1e-6
