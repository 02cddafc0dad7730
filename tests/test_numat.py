"""Core value types and primitives."""

import numpy as np
import pytest

from maxeig import models
from maxeig.errors import InvalidInput
from maxeig.iterengine import algorithm2
from maxeig.linsolve import dense_solve
from maxeig.numat import (
    TridiagonalSystem,
    as_vector,
    matrix_scale,
    matvec,
    max_ratio,
    shift_to_qc,
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

    def test_non_numeric_input_is_invalid(self):
        for bad in (["a"], [[1.0, 2.0], [3.0]], [1.0, "x"]):
            with pytest.raises(InvalidInput):
                as_vector(bad)
        with pytest.raises(InvalidInput):
            dense_solve([["a"]], [1.0])
        # a TridiagonalSystem is not a dense matrix; the message names the way to one
        with pytest.raises(InvalidInput, match=r"\.dense\(\)"):
            as_vector(models.bd_squares(3))
        with pytest.raises(InvalidInput, match=r"\.dense\(\)"):
            algorithm2(models.bd_squares(7))

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

    def test_from_rates_copies_every_sequence(self):
        a, b, c = np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([0.0, 0.0, 1.0])
        system = TridiagonalSystem.from_rates(a, b, c)
        expected = [x.copy() for x in (system.c, system.diagonal, matvec(system, np.ones(3)))]
        for x in (a, b, c):
            x[0] = -5.0
        assert np.array_equal(system.c, expected[0])
        assert np.array_equal(system.diagonal, expected[1])
        assert np.array_equal(matvec(system, np.ones(3)), expected[2])

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

    @pytest.mark.parametrize("kind", [float, complex])
    def test_tridiagonal_apply_is_the_three_term_formula_bitwise(self, rng, kind):
        # the row sums as a zero-filled array, a*v[i-1] + diagonal*v[i] + b*v[i+1]
        for N in (1, 2, *rng.integers(3, 80, 10)):
            system = random_system(rng, int(N), with_killing="all")
            v = rng.normal(size=N + 1).astype(kind)
            if kind is complex:
                v += 1j * rng.normal(size=N + 1)
            out = np.zeros(N + 1, dtype=v.dtype)
            out[1:] = system.a[1:] * v[:-1]
            out += system.diagonal * v
            out[:-1] += system.b[:-1] * v[1:]
            assert matvec(system, v).tobytes() == out.tobytes()

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

    def test_equals_subtracting_m_times_identity(self, rng):
        for A in (rng.uniform(0.0, 1.0, (7, 7)) - 3.0 * np.eye(7),   # negative diagonal
                  models.poisson_block(4),                            # m < 0, zeros off the band
                  models.triangular_model(9), np.array([[2.5]])):
            before = A.copy()
            qc, m = shift_to_qc(A)
            assert m == float(A.sum(axis=1).max())
            assert qc.tobytes() == (A - m * np.eye(A.shape[0])).tobytes()
            assert np.array_equal(A, before)   # the input is not changed

    def test_rejects_complex_and_negative_off_diagonals(self):
        with pytest.raises(InvalidInput):
            shift_to_qc(np.eye(2, dtype=complex))
        with pytest.raises(InvalidInput):
            shift_to_qc([[-1.0, 1.0], [-1e-300, -1.0]])
        qc, m = shift_to_qc([[-5.0, 1.0], [2.0, -7.0]])   # a negative diagonal is allowed
        assert m == -4.0 and np.array_equal(qc, [[-1.0, 1.0], [2.0, -3.0]])

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_every_layout_is_sign_tested_alike(self, layout, rng):
        # every layout is read in row blocks (three at order 300)
        for n in (1, 2, 5, 300):
            A = rng.uniform(0.0, 1.0, (n, n))
            np.fill_diagonal(A, -1.0)
            B = np.asfortranarray(A) if layout == "F" else A.copy()
            if layout == "strided":
                B = np.zeros((2 * n, 2 * n))[::2, ::2]
                B[...] = A
            shift_to_qc(B)
            for i, j in ((n - 1, 0), (0, n - 1)) if n > 1 else ():
                B[i, j] = -1e-300
                with pytest.raises(InvalidInput):
                    shift_to_qc(B)
                B[i, j] = A[i, j]

    def test_row_sums(self):
        # Qc's row sums are nonpositive, and zero on the rows of the largest row sum
        for A, sums in ((models.bd_squares(3).dense(), [0.0, 0.0, 0.0, -16.0]),
                        (np.ones((2, 2)), [0.0, 0.0]),
                        (models.poisson_block(3), [-2, -1, -2, -1, 0, -1, -2, -1, -2])):
            qc, _ = shift_to_qc(A)
            assert np.array_equal(qc.sum(axis=1), sums)


class TestMatrixScale:
    def test_tridiagonal_scale_is_the_row_sum_formula(self, rng):
        # -2 min(diagonal) is (a + b + c) + |diagonal| maximised, bit for bit, as the
        # diagonal is -(a + b + c); rates spanning up to 16 decades, with and without killing
        for k in range(200):
            N = int(rng.integers(1, 300))
            span = rng.uniform(0.0, 16.0)
            a, b, c = (10.0 ** rng.uniform(-span / 2, span / 2, n) for n in (N, N, N + 1))
            if k % 2:
                c[:-1] = 0.0
            system = TridiagonalSystem.from_rates(a, b, c)
            formula = float((system.a + system.b + system.c + np.abs(system.diagonal)).max())
            assert matrix_scale(system) == formula
        system = models.bd_squares(10**6 - 1)
        assert matrix_scale(system) == float((system.a + system.b + system.c
                                              + np.abs(system.diagonal)).max())

    @pytest.mark.parametrize("kind", [float, complex])
    def test_dense_scale_in_row_blocks_is_the_whole_matrix_formula_bitwise(self, rng, kind):
        # orders of one row block and of several, in every layout a caller can pass
        for n in (30, 200, 600):
            A = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-8, 8, (n, n))
            if kind is complex:
                A = A + 1j * rng.normal(size=(n, n))
            for layout in (A, np.asfortranarray(A), A.T, A[::-1, ::-1], A[::2, ::2]):
                assert matrix_scale(layout) == float(np.abs(layout).sum(axis=1).max())
