"""Solver and linear-algebra helper tests."""

import math

import numpy as np
import pytest

from xxchain.numerics import (
    BracketError,
    bisect_root,
    hermitian_eigen,
    maximize_unimodal,
    svd3,
)


class TestHermitianEigen:
    def test_known_spectrum(self):
        # sigma_x oplus sigma_x has eigenvalues (-1, -1, 1, 1); use a mix
        # with distinct values instead: diag(0, 0) coupled pairwise.
        m = np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        values, vectors = hermitian_eigen(m)
        assert np.allclose(values, [-1.0, 0.0, 0.0, 1.0])
        assert vectors.shape == (4, 4)

    def test_random_hermitian_reconstruction(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = a + a.conj().T
            values, vectors = hermitian_eigen(m)
            assert np.all(np.diff(values) >= -1e-12)
            residual = m @ vectors - vectors * values
            assert np.max(np.abs(residual)) < 1e-10
            gram = vectors.conj().T @ vectors
            assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_rejects_non_hermitian(self):
        m = np.zeros((4, 4))
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigen(m)

    def test_rejects_bad_shape_and_non_finite(self):
        with pytest.raises(ValueError, match="4x4"):
            hermitian_eigen(np.zeros((2, 3)))
        bad = np.zeros((4, 4))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            hermitian_eigen(bad)


class TestSvd3:
    def test_diagonal_matrix(self):
        result = svd3(np.diag([3.0, -2.0, 1.0]))
        assert np.allclose(result.values, [3.0, 2.0, 1.0])

    def test_rank_deficient(self):
        result = svd3(np.diag([2.0, 1.0, 0.0]))
        assert np.allclose(result.values, [2.0, 1.0, 0.0])

    def test_signed_permutation_invariance(self):
        # Singular values are invariant under orthogonal transforms.
        m = np.diag([3.0, -2.0, 1.0])
        perm = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        swapped = svd3(perm @ m)
        assert np.allclose(swapped.values, [3.0, 2.0, 1.0])


class TestBisectRoot:
    def test_linear(self):
        root, _, _ = bisect_root(lambda x: x - 1.0, 0.0, 3.0)
        assert abs(root - 1.0) < 1e-9

    def test_exact_endpoint(self):
        assert bisect_root(lambda x: x, 0.0, 1.0) == (0.0, 0, 0.0)
        assert bisect_root(lambda x: x - 1.0, 0.0, 1.0) == (1.0, 0, 0.0)

    def test_no_sign_change_raises_with_values(self):
        with pytest.raises(BracketError) as info:
            bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)
        assert info.value.f_lo == 2.0
        assert info.value.f_hi == 2.0

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            bisect_root(lambda x: x, 2.0, 1.0)

    def test_sinh_threshold_root(self):
        # Root of sinh(b) = 1, i.e. b = ln(1 + sqrt(2)).
        # frozen from a 50-digit mpmath evaluation of log(1 + sqrt(2))
        expected = 0.8813735870195430
        for hi in (2.0, 50.0):
            root, _, _ = bisect_root(lambda b: math.sinh(b) - 1.0, 1e-6, hi)
            assert abs(root - expected) < 1e-9
        # frozen from a 50-digit mpmath evaluation of 1 / log(1 + sqrt(2))
        assert abs(1.0 / root - 1.1345926571065110) < 1e-9

    def test_reports_iterations_and_width(self):
        root, iterations, width = bisect_root(lambda x: x - 1.0, 0.0, 3.0)
        assert iterations > 10
        assert width <= 1e-10
        assert abs(root - 1.0) < 1e-9


class TestMaximizeUnimodal:
    def test_parabola(self):
        argmax, value = maximize_unimodal(lambda x: -((x - 0.3) ** 2), -1.0, 1.0)
        assert abs(argmax - 0.3) < 1e-5
        assert value <= 0.0

    def test_cosh_valley(self):
        argmax, value = maximize_unimodal(lambda x: -math.cosh(x), -2.0, 3.0)
        assert abs(argmax) < 1e-5
        assert abs(value + 1.0) < 1e-9

    def test_mirror_symmetry(self):
        fn = lambda x: -((x - 0.7) ** 2)  # noqa: E731
        argmax, _ = maximize_unimodal(fn, -2.0, 2.0)
        mirrored, _ = maximize_unimodal(lambda x: fn(-x), -2.0, 2.0)
        assert abs(argmax + mirrored) < 1e-5

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            maximize_unimodal(lambda x: x, 1.0, 1.0)
