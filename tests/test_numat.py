"""Core value types and primitives."""

import numpy as np
import pytest

from maxeig import models
from maxeig.errors import InvalidInput
from maxeig.numat import (
    TridiagonalSystem,
    as_measure,
    as_vector,
    matvec,
    max_ratio,
    row_sums,
    shift_to_qc,
    weighted_inner,
    weighted_norm,
)

from conftest import oracle_max_pair, random_system


class TestValidation:
    def test_rejects_non_finite_vector(self):
        with pytest.raises(InvalidInput):
            as_vector([1.0, np.nan])
        with pytest.raises(InvalidInput):
            as_vector([np.inf, 0.0])

    def test_rejects_empty_vector(self):
        with pytest.raises(InvalidInput):
            as_vector([])

    def test_measure_checks(self):
        as_measure([1.0, 2.0, 0.5])
        with pytest.raises(InvalidInput):
            as_measure([1.0, -1.0])
        with pytest.raises(InvalidInput):
            as_measure([2.0, 1.0])  # first weight must be 1

    def test_system_invariants(self):
        with pytest.raises(InvalidInput):
            TridiagonalSystem.from_rates([0.0], [1.0], [0.0, 1.0])  # a must be > 0
        with pytest.raises(InvalidInput):
            TridiagonalSystem.from_rates([1.0], [1.0], [0.0, -1.0])  # c must be >= 0

    def test_diagonal_is_cached_and_every_array_read_only(self):
        system = models.bd_squares(3)
        d = system.diagonal
        assert system.diagonal is d
        assert np.array_equal(d, -(system.a + system.b + system.c))
        for array in (d, system.a, system.b, system.c):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_real_kind_is_preserved(self):
        system = models.bd_squares(3)
        out = matvec(system, np.ones(4))
        assert out.dtype == np.float64


class TestMatvec:
    def test_identity(self):
        out = matvec(np.eye(3), [1.0, 2.0, 3.0])
        assert np.array_equal(out, [1.0, 2.0, 3.0])

    def test_small_generator_row_sums(self):
        # rows of a generator sum to zero except the last, which gives -b_N
        system = models.bd_squares(1)
        out = matvec(system, np.ones(2))
        assert np.array_equal(out, [0.0, -4.0])

    def test_applies_eigenvector(self):
        # paper prints g to six digits; the oracle eigenvector carries the
        # identity A g = rho g to solver precision, and the printed g must
        # agree with the oracle to the display tolerance
        system = models.bd_squares(7)
        lam, g = oracle_max_pair(system.dense())
        out = matvec(system, g)
        assert abs(lam - (-0.525268)) <= 5e-6 * 0.525268
        assert np.all(np.abs(out - lam * g) <= 5e-6 * np.abs(lam * g))
        printed = np.array([55.878, 26.5271, 15.7059, 9.97983, 6.43129, 4.0251, 2.2954, 1.0])
        assert np.abs(g - printed).max() <= 1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            matvec(np.eye(3), [1.0, 2.0])
        with pytest.raises(InvalidInput):
            matvec(models.bd_squares(3), np.ones(3))

    def test_matches_dense_expansion_exactly(self, rng):
        # same arithmetic order per row as the ascending dense-row sum
        for _ in range(25):
            N = int(rng.integers(1, 51))
            system = random_system(rng, N, with_killing="all")
            v = rng.normal(size=N + 1)
            got = matvec(system, v)
            dense = system.dense()
            for i in range(N + 1):
                acc = 0.0
                for j in range(N + 1):
                    if dense[i, j] != 0.0:
                        acc += dense[i, j] * v[j]
                assert acc == got[i]


class TestWeightedInner:
    def test_plain_sum(self):
        assert weighted_inner([1.0, 1.0], [1.0, 1.0], [1.0, 1.0]) == 2.0

    def test_orthogonality(self):
        assert weighted_inner([1.0, 0.0], [0.0, 1.0], [1.0, 3.0]) == 0.0

    def test_norm_squared(self):
        assert weighted_inner([1.0, 2.0], [1.0, 2.0], [1.0, 3.0]) == 13.0
        assert weighted_norm([1.0, 2.0], [1.0, 3.0]) == pytest.approx(np.sqrt(13.0))

    def test_conjugate_symmetric_positive_definite(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 8))
            mu = np.concatenate([[1.0], rng.uniform(0.1, 3.0, n - 1)]) if n > 1 else np.ones(1)
            u = rng.normal(size=n) + 1j * rng.normal(size=n)
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert weighted_inner(u, v, mu) == pytest.approx(np.conj(weighted_inner(v, u, mu)))
            assert weighted_inner(u, u, mu).real > 0
            assert abs(weighted_inner(u, u, mu).imag) < 1e-12


class TestMaxRatio:
    def test_row_sums_of_example(self):
        assert max_ratio(models.negative3(), np.ones(3)) == 24.0

    def test_identity(self):
        assert max_ratio(np.eye(4), [0.5, 1.0, 2.0, 3.0]) == 1.0

    def test_triangular_generator_is_zero(self):
        # every row of the triangular generator sums to <= 0, max exactly 0
        Q = models.triangular_model(7, "inv_kp1")
        assert max_ratio(Q, np.ones(8)) == 0.0

    def test_rejects_nonpositive_vector(self):
        with pytest.raises(InvalidInput):
            max_ratio(np.eye(2), [1.0, 0.0])
        with pytest.raises(InvalidInput):
            max_ratio(np.eye(2), [1.0, -1.0])

    def test_equals_rho_on_exact_eigenvector(self):
        printed_g = np.array([0.486078, 1.24981, 1.0])
        assert max_ratio(models.negative3(), printed_g) == pytest.approx(17.5124, abs=1e-4)


class TestShiftToQc:
    def test_example_matrix(self):
        A = np.abs(models.negative3())
        qc, m = shift_to_qc(A)
        assert m == 24.0
        assert np.array_equal(qc, A - 24.0 * np.eye(3))
        sums = qc.sum(axis=1)
        assert sums.max() == pytest.approx(0.0, abs=1e-12)
        assert (sums <= 1e-12).all()

    def test_generator_is_fixed_point(self):
        Q = models.bd_squares(5).dense()
        qc, m = shift_to_qc(Q)
        assert m == 0.0
        assert np.array_equal(qc, Q)

    def test_all_ones(self):
        qc, m = shift_to_qc(np.ones((2, 2)))
        assert m == 2.0
        assert np.array_equal(qc, [[-1.0, 1.0], [1.0, -1.0]])

    def test_validation_flag(self):
        with pytest.raises(InvalidInput):
            shift_to_qc(models.negative3())  # has negative off-diagonal entries

    def test_row_sums(self):
        assert np.array_equal(row_sums(models.bd_squares(3)), [0.0, 0.0, 0.0, -16.0])
        assert np.array_equal(row_sums(np.ones((2, 2))), [2.0, 2.0])
