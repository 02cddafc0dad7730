"""Tridiagonal elimination and the dense LAPACK solve."""

import numpy as np
import pytest

from maxeig import linsolve, models, tridiag
from maxeig.errors import InvalidInput, SolverBreakdown
from maxeig.linsolve import dense_solve, tridiag_solve

from conftest import oracle_min_neg, random_system


def shifted_coeffs(system, z):
    """Coefficients of (-Q - zI) for a TridiagonalSystem."""
    lower = -system.a[1:]
    upper = -system.b[:-1]
    diag = (system.a + system.b + system.c) - z
    return lower, diag, upper


class TestTridiagSolve:
    def test_symmetric_2x2(self):
        x = tridiag_solve([1.0], [2.0, 2.0], [1.0], [1.0, 1.0])
        assert np.allclose(x, [1.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-15)

    def test_identity(self):
        rhs = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(tridiag_solve([0.0, 0.0], np.ones(3), [0.0, 0.0], rhs), rhs)

    def test_order_one(self):
        assert tridiag_solve([], [4.0], [], [2.0])[0] == 0.5

    def test_matches_explicit_solver_on_shifted_system(self):
        # two independent routes to the same shifted solve
        system = models.bd_squares(7)
        ht = tridiag.compute_h(system)
        init = tridiag.compute_initials(ht.transformed)
        z = 0.523309
        w_generic = tridiag_solve(*shifted_coeffs(ht.transformed, z), init.v0)
        w_explicit = tridiag.explicit_rqi_solve(ht.transformed, init.mu, z, init.v0)
        w_generic = w_generic / np.linalg.norm(w_generic)
        w_explicit = w_explicit / np.linalg.norm(w_explicit)
        assert np.abs(w_generic - w_explicit).max() <= 1e-8

    def test_random_and_nearly_singular_agree_with_dense(self, rng):
        worst = 0.0
        for _ in range(60):
            n = int(rng.integers(2, 60))
            lower = rng.normal(size=n - 1)
            upper = rng.normal(size=n - 1)
            diag = rng.normal(size=n) + 4.0  # diagonally dominant
            rhs = rng.normal(size=n)
            dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
            x = tridiag_solve(lower, diag, upper, rhs)
            y = dense_solve(dense, rhs)
            worst = max(worst, np.abs(x - y).max() / max(1.0, np.abs(y).max()))
        assert worst <= 1e-9

    def test_rqi_shifted_regime(self, rng):
        # shifted by lambda + 1e-4: nearly singular is the normal regime
        for _ in range(5):
            system = random_system(rng, 12)
            lam = oracle_min_neg(system)
            z = lam + 1e-4
            rhs = np.ones(system.order)
            x = tridiag_solve(*shifted_coeffs(system, z), rhs)
            dense = -system.dense() - z * np.eye(system.order)
            y = dense_solve(dense, rhs)
            assert np.isfinite(x).all()
            assert np.abs(x - y).max() / np.abs(y).max() <= 1e-9

    def test_direction_converges_as_shift_approaches_eigenvalue(self):
        system = models.bd_squares(9)
        lam = oracle_min_neg(system)
        rhs = np.ones(system.order)
        prev = None
        angles = []
        for eps in (1e-4, 1e-8, 1e-12):
            w = tridiag_solve(*shifted_coeffs(system, lam + eps), rhs)
            assert np.isfinite(w).all()
            w = w / np.linalg.norm(w)
            if prev is not None:
                angles.append(1.0 - abs(prev @ w))
            prev = w
        assert angles[-1] <= 1e-7

    def test_complex_input_rejected(self, rng):
        n = 17
        real = [rng.normal(size=n - 1), rng.normal(size=n) + 4.0, rng.normal(size=n - 1),
                rng.normal(size=n)]
        for i in range(4):
            args = list(real)
            args[i] = args[i] + 1j * rng.normal(size=len(args[i]))
            with pytest.raises(InvalidInput):
                tridiag_solve(*args)

    def test_orders_one_and_two_agree_with_dense(self, rng):
        for n in (1, 2):
            for _ in range(5):
                lower, upper = rng.normal(size=n - 1), rng.normal(size=n - 1)
                diag, rhs = rng.normal(size=n), rng.normal(size=n)
                dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
                x = tridiag_solve(lower, diag, upper, rhs)
                assert np.abs(x - dense_solve(dense, rhs)).max() <= 1e-12 * np.abs(x).max()

    def test_strided_input_equals_contiguous(self, rng):
        n = 40
        lower, upper = rng.normal(size=2 * (n - 1))[::2], rng.normal(size=2 * (n - 1))[::2]
        diag, rhs = rng.normal(size=(n, 3))[:, 1], rng.normal(size=2 * n)[::-2]
        inputs = (lower, diag, upper, rhs)
        assert not rhs.flags.contiguous and not diag.flags.contiguous
        kept = [a.copy() for a in inputs]
        contiguous = [np.ascontiguousarray(a) for a in inputs]
        assert np.array_equal(tridiag_solve(*inputs), tridiag_solve(*contiguous))
        # strided diagonals are copied before use as work space; rhs always is
        assert all(np.array_equal(a, b) for a, b in zip(inputs, kept))
        assert np.array_equal(contiguous[3], kept[3])

    def test_exact_breakdown_raises(self):
        with pytest.raises(SolverBreakdown):
            tridiag_solve([0.0], [0.0, 1.0], [0.0], [1.0, 1.0])

    def test_tiny_pivot_or_overflow_raises(self):
        with pytest.raises(SolverBreakdown):
            tridiag_solve([1.0], [1e-40, 1.0], [0.0], [1.0, 1.0])
        with pytest.raises(SolverBreakdown):
            tridiag_solve([], [1e-29], [], [1e300])


# the LAPACK routine found at import, kept before any test forces the fallback
LAPACK_DGTSV = linsolve._dgtsv


def shifted_systems(rng):
    """Random real shifted tridiagonal systems, orders 1 to 5000, as (lower, diag, upper, rhs)."""
    for n in (1, 2, 3, 4, 7, 16, 64, 500, 5000):
        for with_killing in ("last", "all") if n > 1 else ():
            system = random_system(rng, n - 1, with_killing=with_killing)
            # shifts below, inside and above the spectrum's low end
            for z in (0.0, *rng.uniform(0.0, 4.0, 3)):
                yield (*shifted_coeffs(system, z), rng.normal(size=n))
        # no structure at all: pivots of either sign and many row swaps
        yield (rng.normal(size=n - 1), rng.normal(size=n), rng.normal(size=n - 1),
               rng.normal(size=n))


class TestTridiagSolveLoop(TestTridiagSolve):
    """Every TestTridiagSolve case again, on the Python loop that stands in
    when numpy's LAPACK exports no dgtsv."""

    @pytest.fixture(autouse=True)
    def without_lapack(self, monkeypatch):
        monkeypatch.setattr(linsolve, "_dgtsv", None)

    @staticmethod
    def lapack_solve(*args):
        if LAPACK_DGTSV is None:
            pytest.skip("numpy's LAPACK exports no dgtsv")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linsolve, "_dgtsv", LAPACK_DGTSV)
            return tridiag_solve(*args)

    def compare(self, args):
        # each solve overwrites the diagonals it is given, so each gets its own
        loop = tridiag_solve(*(a.copy() for a in args))
        assert loop.tobytes() == self.lapack_solve(*args).tobytes()

    def test_bitwise_equal_to_lapack_on_random_shifted_systems(self, rng):
        for args in shifted_systems(rng):
            self.compare(args)

    def test_bitwise_equal_to_lapack_on_t1(self):
        system = models.bd_squares(10**5 - 1)
        rhs = np.ones(system.order)
        for z in (0.25, 0.29, 0.5):
            self.compare((*shifted_coeffs(system, z), rhs))


class TestDenseLu:
    def test_identity(self):
        rhs = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(dense_solve(np.eye(3), rhs), rhs)

    def test_permutation_needs_pivoting(self):
        x = dense_solve(np.array([[0.0, 1.0], [1.0, 0.0]]), [5.0, 7.0])
        assert np.array_equal(x, [7.0, 5.0])

    def test_first_global_iterate_of_example(self):
        # (24 I - A) w = v0 gives the first Rayleigh quotient of the table
        A = models.negative3()
        v0 = np.ones(3) / np.sqrt(3)
        w = dense_solve(24.0 * np.eye(3) - A, v0)
        v1 = w / np.linalg.norm(w)
        z1 = v1 @ A @ v1
        assert z1 == pytest.approx(17.3772, abs=5e-4)

    def test_random_real_and_complex_residuals(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 65))
            A = rng.normal(size=(n, n)) + n * np.eye(n)
            b = rng.normal(size=n)
            x = dense_solve(A, b)
            assert np.abs(A @ x - b).max() <= 1e-9 * max(1.0, np.abs(b).max(), np.abs(A @ x).max())
            C = A + 1j * rng.normal(size=(n, n))
            xc = dense_solve(C, b.astype(complex))
            assert np.abs(C @ xc - b).max() <= 1e-9 * max(1.0, np.abs(C @ xc).max())

    def test_pivoting_residual(self):
        # a perturbed cyclic permutation: the leading pivot is zero and the
        # sub-diagonal tiny, so elimination without row interchanges fails
        n = 12
        A = np.diag(np.full(n - 1, 1.0), 1) + np.diag(np.full(n - 1, 1e-17), -1)
        A[-1, 0] = 1.0
        A[0, 0] = 0.0
        A += 1e-14 * np.tril(np.ones((n, n)), -2)
        b = np.arange(1.0, n + 1.0)
        x = dense_solve(A, b)
        assert np.abs(A @ x - b).max() <= 1e-12 * np.abs(b).max()

    def test_singular_raises(self):
        with pytest.raises(SolverBreakdown):
            dense_solve(np.zeros((2, 2)), [1.0, 1.0])
        with pytest.raises(SolverBreakdown):
            dense_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), [1.0, 1.0])
        with pytest.raises(SolverBreakdown):
            dense_solve(np.array([[1.0, 1j], [1j, -1.0]]), [1.0, 0.0])

    def test_dimension_mismatch_raises(self):
        with pytest.raises(InvalidInput):
            dense_solve(np.eye(3), [1.0, 2.0])
        with pytest.raises(InvalidInput):
            dense_solve(np.ones((2, 3)), [1.0, 2.0])
