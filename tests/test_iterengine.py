"""Power iteration, RQI, and the two global algorithms."""

import numpy as np
import pytest

from maxeig import models
from maxeig.errors import InvalidInput
from maxeig.general_init import general_rqi
from maxeig.iterengine import (
    C_FLOOR,
    DEFAULT_TOL_Z,
    algorithm1,
    algorithm2,
    power_iteration,
    rqi,
    run_shifted_iteration,
    _l2_norm,
    _max_ratio_update,
    _rayleigh_update,
    _shift_tolerance,
)
from maxeig.tridiag import tridiag_rqi

from conftest import oracle_eigenvalues, oracle_max_pair


class TestPowerIteration:
    def test_identity_fixed_point(self):
        # the iterates stay at ones/3, so every z = ||A v||_1 is 1
        trace = power_iteration(np.eye(3), v0=np.ones(3), steps=5)
        assert len(trace.zs()) == 6
        assert np.allclose(trace.zs(), 1.0, rtol=0, atol=1e-15)

    def test_dominant_diagonal(self):
        # in the l1 norm z_k = (2^(k+1) + 1) / (2^k + 1), so z_k - 2 = -1 / (2^k + 1):
        # the iterate's second component equals 2 - z_k
        trace = power_iteration(np.diag([2.0, 1.0]), v0=[0.5, 0.5], steps=120)
        zs = trace.zs()
        assert zs[-1] == pytest.approx(2.0, abs=1e-10)
        k = np.arange(12)
        assert np.allclose(zs[:12], 2.0 - 1.0 / (2.0 ** k + 1.0), rtol=0, atol=1e-15)

    def test_slow_convergence_on_the_shifted_generator(self):
        # with the efficient seed the estimate drops fast, then crawls:
        # after 1000 steps it is still far from converged at solver tolerance
        from maxeig.tridiag import compute_h, compute_initials

        system = models.bd_squares(7)
        dense = system.dense()
        m = float(np.abs(np.diag(dense)).max())
        A = m * np.eye(8) + dense
        lam = m - 0.525268
        ht = compute_h(system)
        seed = ht.h * compute_initials(ht.transformed).v0_raw
        trace = power_iteration(A, v0=seed, steps=1000)
        zs = trace.zs()
        err0, err10, err1000 = (abs(z - lam) for z in (zs[0], zs[10], zs[1000]))
        assert err10 < err0 / 3.0
        assert err10 < 0.5
        assert err1000 > 10 * 1e-10

    def test_tridiagonal_input_runs_shifted_without_densifying(self):
        # Q is iterated as m I + Q: the dense shifted run's estimates, read as m - z_k
        system = models.bd_squares(7)
        m = float((system.a + system.b + system.c).max())
        seed = np.linspace(1.0, 2.0, 8)
        for norm in ("l1", "l2"):
            trace = power_iteration(system, v0=seed, norm=norm, steps=200)
            dense = power_iteration(m * np.eye(8) + system.dense(), v0=seed, norm=norm, steps=200)
            assert np.allclose(trace.zs(), m - dense.zs(), rtol=1e-12, atol=1e-12 * m)
            assert np.allclose(trace.residuals(), dense.residuals(), rtol=1e-9, atol=1e-15)
        # the maximal pair, not the largest decay rate (155.7) that plain Q would give
        assert power_iteration(system, steps=1000).zs()[-1] == pytest.approx(0.525268, abs=5e-6)

    def test_norm_choices(self):
        for norm in ("l1", "l2"):
            assert power_iteration(np.eye(2), norm=norm, steps=1).zs()[-1] == 1.0
        with pytest.raises(InvalidInput):
            power_iteration(np.eye(2), norm="l2mu")

    def test_negative_steps_rejected(self):
        assert power_iteration(np.eye(2), steps=0).iterations == 0
        with pytest.raises(InvalidInput):
            power_iteration(np.eye(2), steps=-3)

    def test_list_input_equals_ndarray_input(self):
        A = [[1.0, 2.0], [3.0, 4.0]]
        from_list, from_array = (power_iteration(M, steps=20) for M in (A, np.array(A)))
        assert np.array_equal(from_list.zs(), from_array.zs())
        assert np.array_equal(from_list.residuals(), from_array.residuals())

    def test_non_square_list_rejected(self):
        with pytest.raises(InvalidInput, match="square"):
            power_iteration([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_start_of_the_wrong_length_rejected(self):
        with pytest.raises(InvalidInput, match="dimensions"):
            power_iteration(np.eye(3), v0=[1.0, 1.0])
        with pytest.raises(InvalidInput, match="system order"):
            power_iteration(models.bd_squares(3), v0=[1.0, 1.0])


class TestRqi:
    @pytest.mark.parametrize("opts", [{"tol_z": -1.0}, {"tol_z": np.nan}, {"tol_residual": -1e-8},
                                      {"tol_residual": np.nan}, {"max_iterations": 0},
                                      {"max_iterations": -1}])
    def test_unreachable_tolerances_and_budgets_rejected(self, opts):
        A = np.diag([2.0, 1.0])
        with pytest.raises(InvalidInput):
            rqi(A, [1.0, 0.5], 2.5, **opts)


    def test_invariant_subspace_single_step(self):
        result, trace = rqi(np.diag([3.0, 1.0]), [1.0, 0.0], 2.9)
        assert trace.zs()[1] == 3.0
        assert result.eigenvalue == 3.0
        assert result.iterations == 1

    def test_pitfall_iterates(self):
        # rough uniform start captures the third-lowest decay rate, and the
        # failure mode is preserved to five significant digits
        neg_q = -models.bd_squares(7).dense()
        v0 = np.ones(8) / np.sqrt(8)
        z0 = float(v0 @ neg_q @ v0)
        assert z0 == pytest.approx(8.0, rel=1e-12)
        result, trace = rqi(neg_q, v0, z0, "rayleigh")
        zs = trace.zs()
        for k, expect in enumerate([4.78557, 5.67061, 5.91766, 5.91867], start=1):
            assert zs[k] == pytest.approx(expect, rel=1e-5)
        assert not result.eigenvector_positive

    def test_efficient_initials_two_steps(self):
        from maxeig.tridiag import compute_h, compute_initials

        system = models.bd_squares(7)
        init = compute_initials(compute_h(system).transformed)
        neg_q = -system.dense()
        v0 = init.v0 / np.linalg.norm(init.v0)
        z0 = float(v0 @ neg_q @ v0)
        _, trace = rqi(neg_q, v0, z0, "rayleigh")
        assert trace.zs()[2] == pytest.approx(0.525268, abs=5e-6)
        assert trace.stabilized_at() <= 2

    def test_unknown_update_rejected(self):
        with pytest.raises(InvalidInput):
            rqi(np.eye(2), [1.0, 1.0], 0.5, "weighted_rayleigh")

    def test_max_ratio_update_rejects_sign_change(self):
        with pytest.raises(InvalidInput):
            _max_ratio_update(np.array([1.0, -1.0]), np.array([1.0, 1.0]))


_Z0_ENTRY_POINTS = {
    "tridiag_rqi": lambda z0: tridiag_rqi(models.bd_squares(7), z0=z0),
    "general_rqi": lambda z0: general_rqi(models.toeplitz_linear(6), z0=z0),  # dense route
    "rqi": lambda z0: rqi(np.diag([2.0, 1.0]), [1.0, 0.5], z0),
    "algorithm1": lambda z0: algorithm1(models.negative3(), z0=z0),
    "algorithm2": lambda z0: algorithm2(models.negative3(), z0=z0),
}


@pytest.mark.parametrize("z0", [np.nan, np.inf])
@pytest.mark.parametrize("entry", sorted(_Z0_ENTRY_POINTS))
def test_non_finite_z0_rejected_before_any_solve(entry, z0):
    # rejected by name at the driver's entry, with no numpy warning on the way
    with pytest.raises(InvalidInput, match="z0 must be finite"):
        _Z0_ENTRY_POINTS[entry](z0)


class TestDriverChecksEachIterate:
    A = np.diag([2.0, 1.0])

    def run(self, solve, z_update=_rayleigh_update):
        return run_shifted_iteration(lambda v: self.A @ v, solve, [1.0, 0.5], 2.5,
                                     z_update=z_update, norm=_l2_norm)

    def test_non_finite_iterate_rejected(self):
        with pytest.raises(InvalidInput, match="vector contains non-finite entries"):
            self.run(lambda z, v: np.array([np.nan, 1.0]))

    def test_non_finite_shift_update_rejected(self):
        with pytest.raises(InvalidInput, match="non-finite z at iteration 1"):
            self.run(lambda z, v: v, z_update=lambda v, av: np.inf)


class TestShiftTolerance:
    def test_floor_is_tol_z_up_to_order_1e5(self):
        for n in (1, 3, 400, 10**4, 10**5):
            assert _shift_tolerance(DEFAULT_TOL_Z, n) == DEFAULT_TOL_Z

    def test_floor_exceeds_tol_z_above_order_1e5(self):
        eps = np.finfo(float).eps
        for n in (2 * 10**5, 3 * 10**5, 10**6):
            assert _shift_tolerance(DEFAULT_TOL_Z, n) == C_FLOOR * n * eps > DEFAULT_TOL_Z

    def test_trace_records_the_clamped_tolerance(self):
        A = models.negative3()
        _, trace = algorithm2(A)
        assert trace.tol_z == DEFAULT_TOL_Z
        _, tight = algorithm2(A, tol_z=0.0)
        assert tight.tol_z == C_FLOOR * 3 * np.finfo(float).eps
        assert power_iteration(A, steps=2).tol_z is None


class TestGlobalAlgorithms:
    def test_specific_rqi_trace(self):
        result, trace = algorithm1(models.negative3())
        zs = trace.zs()
        assert zs[0] == 24.0
        assert zs[1] == pytest.approx(17.3772, rel=1e-4)
        assert zs[2] == pytest.approx(17.5124, rel=1e-4)
        assert result.eigenvalue == pytest.approx(17.5124, abs=5e-4)

    def test_shifted_inverse_trace(self):
        result, trace = algorithm2(models.negative3())
        zs = trace.zs()
        assert zs[1] == pytest.approx(18.5316, rel=1e-4)
        assert zs[2] == pytest.approx(17.5416, rel=1e-4)
        assert zs[3] == pytest.approx(17.5124, rel=1e-4)
        assert result.eigenvector_positive

    def test_identity_converges_immediately(self):
        result, trace = algorithm1(np.eye(4))
        assert result.eigenvalue == 1.0
        assert result.iterations == 0
        assert trace.termination == "converged"

    def test_symmetric_permutation(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        result, _ = algorithm2(A)
        assert result.eigenvalue == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.abs(result.eigenvector), 1.0 / np.sqrt(2.0), atol=1e-10)

    def test_triangular_family_final_value(self):
        result, trace = algorithm2(models.triangular_model(7, "inv_kp1"), negate=True)
        assert trace.zs()[-1] == pytest.approx(0.452339, abs=5e-6)
        # negate mode reports lambda_min(-Q), the positive decay rate
        assert result.eigenvalue == pytest.approx(0.452339, abs=5e-6)

    def test_complex_example(self):
        result, _ = algorithm1(models.complex3())
        oracle = oracle_eigenvalues(models.complex3())
        target = oracle[int(np.argmax(oracle.real))]
        assert abs(result.eigenvalue - target) <= 1e-6
        v = result.eigenvector / np.linalg.norm(result.eigenvector)
        printed = np.array([0.408237, 0.816507, 0.408237])
        assert np.abs(v - printed).max() <= 1e-4

    def test_algorithm2_rejects_complex(self):
        with pytest.raises(InvalidInput):
            algorithm2(models.complex3())


class TestEngineInvariants:
    def test_unit_norm_iterates(self):
        # the max-ratio update raises on a non-positive iterate, so a converged
        # run had positive iterates; its eigenvector is the last, of unit l2 norm
        result, _ = algorithm2(models.negative3())
        assert abs(np.linalg.norm(result.eigenvector) - 1.0) <= 1e-12
        assert result.eigenvector_positive

    def test_max_ratio_upper_bound(self, rng):
        from maxeig.numat import max_ratio

        for _ in range(20):
            n = int(rng.integers(2, 13))
            A = rng.uniform(0.0, 1.0, size=(n, n)) + 0.05 * np.eye(n)
            rho = float(np.max(oracle_eigenvalues(A).real))
            v = rng.uniform(0.1, 2.0, size=n)
            assert max_ratio(A, v) >= rho - 1e-10

    def test_shift_stays_above_rho_during_run(self):
        A = np.abs(models.negative3())  # nonnegative variant
        rho = float(np.max(oracle_eigenvalues(A).real))
        _, trace = algorithm2(A)
        assert (trace.zs() >= rho - 1e-10).all()

    def test_shift_equivalence(self, rng):
        A = models.negative3()
        m = 7.5
        r1, t1 = algorithm2(A)
        r2, t2 = algorithm2(A + m * np.eye(3))
        assert r2.eigenvalue - r1.eigenvalue == pytest.approx(m, abs=1e-10)
        assert np.abs(r1.eigenvector - r2.eigenvector).max() <= 1e-10
        B = rng.uniform(0.0, 1.0, size=(5, 5))
        r3, _ = algorithm1(B)
        r4, _ = algorithm1(B + m * np.eye(5))
        assert r4.eigenvalue - r3.eigenvalue == pytest.approx(m, abs=1e-10)
        assert np.abs(r3.eigenvector - r4.eigenvector).max() <= 1e-10

    def test_determinism_bitwise(self):
        runs = [algorithm2(models.negative3()) for _ in range(2)]
        zs = [t.zs() for _, t in runs]
        res = [t.residuals() for _, t in runs]
        assert np.array_equal(zs[0], zs[1])
        assert np.array_equal(res[0], res[1])
        vecs = [r.eigenvector for r, _ in runs]
        assert np.array_equal(vecs[0], vecs[1])

    def test_oracle_agreement(self):
        lam, g = oracle_max_pair(models.negative3())
        result, _ = algorithm2(models.negative3())
        assert result.eigenvalue == pytest.approx(lam, rel=1e-10)
        got = result.eigenvector / result.eigenvector[-1]
        assert np.abs(got - g).max() <= 1e-8
