"""The tridiagonal pipeline: transform, initials, closed-form solver, RQI."""

import hashlib

import numpy as np
import pytest

from maxeig import iterengine, models
from maxeig.errors import InvalidInput, MaxIterationsExceeded, SolverBreakdown
from maxeig.iterengine import EigenpairResult
from maxeig.linsolve import dense_solve
from maxeig.numat import TridiagonalSystem, matrix_scale, matvec
from maxeig.tridiag import (
    Z0_POLICIES,
    compute_h,
    compute_initials,
    explicit_rqi_solve,
    recover_original,
    tridiag_rqi,
    z0_combination,
)

from conftest import oracle_eigenvalues, oracle_min_neg, random_system


class TestComputeH:
    def test_identity_when_no_interior_killing(self):
        system = models.bd_squares(5)
        ht = compute_h(system)
        assert np.array_equal(ht.r, np.ones(5))
        assert np.array_equal(ht.h, np.ones(6))
        assert np.array_equal(ht.transformed.dense(), system.dense())

    def test_one_step_recurrence(self):
        system = TridiagonalSystem.from_rates([1.0], [1.0], [1.0, 0.0])
        ht = compute_h(system)
        assert ht.r[0] == 2.0
        assert np.array_equal(ht.h, [1.0, 2.0])
        assert ht.transformed.c[-1] == pytest.approx(0.5)

    def test_spectrum_preserved(self, rng):
        for _ in range(20):
            N = int(rng.integers(2, 11))
            system = random_system(rng, N, with_killing="all")
            ht = compute_h(system)
            before = np.sort(oracle_eigenvalues(system).real)
            after = np.sort(oracle_eigenvalues(ht.transformed).real)
            assert np.abs(before - after).max() <= 1e-8 * max(1.0, np.abs(before).max())

    def test_harmonic_rows_vanish(self, rng):
        for _ in range(20):
            N = int(rng.integers(2, 40))
            system = random_system(rng, N, with_killing="all")
            ht = compute_h(system)
            rows = (system.dense() @ ht.h)[:-1]
            assert np.abs(rows).max() <= 1e-10 * matrix_scale(system) * np.abs(ht.h).max()

    def test_ratios_equal_a_plain_loop(self, rng):
        # the docstring's recurrence, one numpy scalar at a time
        for order in range(8, 65, 4):
            system = random_system(rng, order - 1, with_killing="all")
            a, b, c = system.a, system.b, system.c
            r = np.ones(order - 1)
            r[0] = 1.0 + c[0] / b[0]
            for n in range(1, order - 1):
                r[n] = 1.0 + (a[n] + c[n]) / b[n] - a[n] / (b[n] * r[n - 1])
            assert np.array_equal(compute_h(system).r, r)


class TestComputeInitials:
    def test_exact_rational_case(self):
        # order-2 instance evaluates in closed form
        system = models.bd_squares(1)
        init = compute_initials(compute_h(system).transformed)
        assert np.array_equal(init.mu, [1.0, 1.0])
        assert np.array_equal(init.phi, [1.25, 0.25])
        assert init.v0_raw == pytest.approx([np.sqrt(1.25), 0.5])
        assert init.delta1 == pytest.approx(1.25 + 0.125 / np.sqrt(1.25))
        assert init.delta1 == pytest.approx(1.361803, abs=1e-6)

    def test_printed_seed_vector(self):
        init = compute_initials(compute_h(models.bd_squares(7)).transformed)
        rescaled = init.v0_raw / init.v0_raw[0]
        printed = [1.0, 0.587624, 0.426178, 0.329975, 0.260701, 0.204394, 0.153593, 0.101142]
        assert np.abs(rescaled - printed).max() <= 1e-6

    def test_blended_shift_value(self):
        system = models.bd_squares(7)
        ht = compute_h(system)
        init = compute_initials(ht.transformed)
        rq = float(init.mu * init.v0 @ -matvec(ht.transformed, init.v0))
        assert z0_combination(init.delta1, rq) == pytest.approx(0.523309, abs=1e-6)

    def test_phi_strictly_decreasing_and_positive(self, rng):
        for _ in range(10):
            init = compute_initials(compute_h(random_system(rng, 30, with_killing="all")).transformed)
            assert (init.phi > 0).all()
            assert (np.diff(init.phi) < 0).all()

    def test_mu_is_one_for_matched_rates(self):
        # b_{n-1} = a_n forces the weights to collapse to 1
        init = compute_initials(compute_h(models.bd_squares(20)).transformed)
        assert np.array_equal(init.mu, np.ones(21))

    def test_rejects_interior_killing(self):
        system = TridiagonalSystem.from_rates([1.0], [1.0], [1.0, 1.0])
        with pytest.raises(Exception):
            compute_initials(system)


class TestZ0Combination:
    def test_fixed_point(self):
        assert z0_combination(1.0 / 0.37, 0.37) == pytest.approx(0.37)

    def test_weights(self):
        assert z0_combination(2.0, 1.0) == pytest.approx(7.0 / 16.0 + 1.0 / 8.0)


class TestExplicitSolve:
    def test_basis_vector_against_dense(self):
        system = TridiagonalSystem.from_rates([1.0], [1.0], [1.0, 0.0])
        transformed = compute_h(system).transformed
        init = compute_initials(transformed)
        w = explicit_rqi_solve(transformed, init.mu, 0.0, [1.0, 0.0])
        dense = -transformed.dense()
        y = dense_solve(dense, np.array([1.0, 0.0]))
        assert np.abs(w - y).max() <= 1e-12

    def test_one_step_reaches_the_eigenvalue(self):
        system = models.bd_squares(7)
        ht = compute_h(system)
        init = compute_initials(ht.transformed)
        rq = float(init.mu * init.v0 @ -matvec(ht.transformed, init.v0))
        z0 = z0_combination(init.delta1, rq)
        w = explicit_rqi_solve(ht.transformed, init.mu, z0, init.v0)
        v1 = w / np.sqrt((init.mu * w * w).sum())
        z1 = float((init.mu * v1 * -matvec(ht.transformed, v1)).sum())
        assert z1 == pytest.approx(0.525268, abs=5e-6)

    def test_agrees_with_generic_solver(self, rng):
        from maxeig.linsolve import tridiag_solve

        worst = 0.0
        for _ in range(40):
            N = int(rng.integers(1, 101))
            system = random_system(rng, N)
            init = compute_initials(system)
            z = float(rng.uniform(0.0, 0.5))
            v = rng.normal(size=N + 1)
            w1 = explicit_rqi_solve(system, init.mu, z, v)
            w2 = tridiag_solve(-system.a[1:], (system.a + system.b + system.c) - z,
                               -system.b[:-1], v)
            worst = max(worst, np.abs(w1 - w2).max() / max(1e-30, np.abs(w2).max()))
        assert worst <= 1e-8

    def test_strided_input_equals_contiguous(self, rng):
        system = random_system(rng, 30)
        init = compute_initials(system)
        mu = np.repeat(init.mu, 2)[::2]
        v = rng.normal(size=(31, 2))[:, 0]
        assert not mu.flags.contiguous and not v.flags.contiguous
        w = explicit_rqi_solve(system, mu, 0.2, v)
        assert np.array_equal(w, explicit_rqi_solve(system, init.mu, 0.2, np.ascontiguousarray(v)))

    def test_breakdown_on_exact_eigenvalue(self):
        # dyadic rates give the dense form eigenvalues exactly {1, 4}, so the
        # shift z = 1 cancels the closed-form denominator to an exact zero
        system = TridiagonalSystem.from_rates([1.0], [2.0], [0.0, 2.0])
        assert sorted(np.linalg.eigvals(-system.dense()).real) == [1.0, 4.0]
        init = compute_initials(system)
        with pytest.raises(SolverBreakdown):
            explicit_rqi_solve(system, init.mu, 1.0, np.array([1.0, 0.0]))


# bd_squares at order 10^6 (the t1 family): (system, result, trace), one run per solver
@pytest.fixture(scope="module")
def million_explicit():
    system = models.bd_squares(10**6 - 1)
    return (system, *tridiag_rqi(system, solver="explicit"))


@pytest.fixture(scope="module")
def million_generic():
    system = models.bd_squares(10**6 - 1)
    return (system, *tridiag_rqi(system, solver="generic"))


def _assert_banded_oracle(system, result):
    eigvalsh_tridiagonal = pytest.importorskip("scipy.linalg").eigvalsh_tridiagonal
    # -Q is similar to the symmetric tridiagonal with off-diagonal sqrt(a_{i+1} b_i)
    d = system.a + system.b + system.c
    e = np.sqrt(system.a[1:] * system.b[:-1])
    lam = eigvalsh_tridiagonal(d, e, select="i", select_range=(0, 0))[0]
    row_sum = np.max(2.0 * (system.a + system.b) + system.c)
    assert abs(result.eigenvalue - lam) <= np.finfo(float).eps * row_sum


class TestTridiagRqi:
    def test_rayleigh_start_two_steps(self):
        _, trace = tridiag_rqi(models.bd_squares(7), z0="rayleigh")
        zs = trace.zs()
        assert zs[1] == pytest.approx(0.528215, abs=5e-6)
        assert zs[2] == pytest.approx(0.525268, abs=5e-6)
        assert trace.stabilized_at() == 2

    def test_large_row_of_the_comparison_table(self):
        _, trace = tridiag_rqi(models.bd_squares(999))
        zs = trace.zs()
        assert zs[0] == pytest.approx(0.338027, abs=5e-6)
        assert zs[1] == pytest.approx(0.327254, abs=5e-6)
        assert zs[2] == pytest.approx(0.32724, abs=5e-5)

    def test_order_million_against_banded_oracle(self, million_explicit):
        system, result, trace = million_explicit
        # the roundoff floor stops the run once the settled value repeats to within n*eps
        assert trace.termination == "converged"
        assert trace.iterations <= 3
        assert result.eigenvector_positive
        _assert_banded_oracle(system, result)

    def test_order_million_generic_solver(self, million_generic):
        system, result, trace = million_generic
        assert trace.termination == "converged"
        assert trace.iterations <= 3
        assert trace.tol_z > iterengine.DEFAULT_TOL_Z
        assert result.eigenvector_positive
        _assert_banded_oracle(system, result)

    @pytest.mark.parametrize("solver", ["explicit", "generic"])
    def test_order_million_first_iterates(self, request, solver):
        # z0..z2 of the t1 run at order 10^6 to six digits; the stopping rule leaves them alone
        _, _, trace = request.getfixturevalue(f"million_{solver}")
        assert [f"{z:.6g}" for z in trace.zs()[:3]] == ["0.295162", "0.279215", "0.279121"]

    @pytest.mark.parametrize("z0", Z0_POLICIES)
    def test_accepted_z0_policies(self, z0):
        result, _ = tridiag_rqi(models.bd_squares(7), z0=z0)
        assert result.eigenvalue == pytest.approx(0.525268, abs=5e-6)
        assert not result.z0_fallback

    @pytest.mark.parametrize("v0", ["bogus", None, np.ones(8)])
    def test_rejects_unknown_start(self, v0):
        with pytest.raises(InvalidInput):
            tridiag_rqi(models.bd_squares(7), v0=v0)

    def test_order_two_closed_form(self):
        result, _ = tridiag_rqi(models.bd_squares(1))
        assert result.eigenvalue == pytest.approx(3.0 - np.sqrt(5.0), rel=1e-12)

    def test_solver_choice_equivalent(self):
        r1, t1 = tridiag_rqi(models.bd_squares(50), solver="explicit")
        r2, t2 = tridiag_rqi(models.bd_squares(50), solver="generic")
        assert r1.eigenvalue == pytest.approx(r2.eigenvalue, rel=1e-10)
        assert np.abs(r1.eigenvector - r2.eigenvector).max() <= 1e-8

    def test_requires_killing(self):
        a = [1.0, 1.0]
        b = [1.0, 1.0]
        with pytest.raises(InvalidInput):
            tridiag_rqi(TridiagonalSystem.from_rates(a, b, np.zeros(3)))

    def test_iteration_budget(self):
        with pytest.raises(MaxIterationsExceeded):
            tridiag_rqi(models.bd_squares(30), z0="rayleigh", max_iterations=1)

    def test_two_iteration_property(self):
        # the efficient initials stabilize the trace by the second iterate
        for order in (8, 100, 500, 1000):
            system = models.bd_squares(order - 1)
            result, trace = tridiag_rqi(system)
            lam = result.eigenvalue
            assert abs(trace.zs()[2] - lam) < 1e-6 * lam
            assert trace.stabilized_at() <= 2


class TestRecoverOriginal:
    def test_trivial_transform(self):
        result, _ = tridiag_rqi(models.bd_squares(3))
        recovered = recover_original(result)
        assert recovered.eigenvalue == pytest.approx(-result.eigenvalue)
        assert recovered.eigenvector[-1] == 1.0

    def test_keeps_fields_it_does_not_remap(self):
        result = EigenpairResult(eigenvalue=0.5, eigenvector=np.array([2.0, 1.0]), iterations=3,
                                 residual=1e-12, h_scaling=np.array([1.0, 4.0]),
                                 z0_fallback=True)
        recovered = recover_original(result, m=2.0)
        assert recovered.eigenvalue == 1.5
        assert np.array_equal(recovered.eigenvector, [0.5, 1.0])
        assert (recovered.iterations, recovered.residual, recovered.shift_m) == (3, 1e-12, 2.0)
        assert recovered.z0_fallback

    def test_printed_eigenvector(self):
        result, _ = tridiag_rqi(models.bd_squares(7))
        g = recover_original(result).eigenvector
        printed = np.array([55.878, 26.5271, 15.7059, 9.97983, 6.43129, 4.0251, 2.2954, 1.0])
        # four significant digits per component
        assert np.abs(g / printed - 1.0).max() <= 5e-5

    def test_residual_against_original_matrix(self, rng):
        for _ in range(10):
            system = random_system(rng, 8, with_killing="all")
            result, _ = tridiag_rqi(system)
            recovered = recover_original(result)
            g = recovered.eigenvector
            rho = recovered.eigenvalue
            res = np.abs(system.dense() @ g - rho * g).max()
            assert res <= 1e-8 * np.abs(g).max() * matrix_scale(system)

    def test_against_oracle(self, rng):
        for _ in range(10):
            system = random_system(rng, 12, with_killing="all")
            result, _ = tridiag_rqi(system)
            assert result.eigenvalue == pytest.approx(oracle_min_neg(system), rel=1e-9)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


class TestPinnedOutputs:
    """Exact bits of the tridiagonal route, as first recorded.

    The route runs no BLAS kernel (LAPACK dgtsv is scalar code, and the
    Python fallback loop is bitwise the same), so the bits do not depend
    on the CPU.  A change here means some arithmetic changed: say why,
    and record the new values.
    """

    # name -> (eigenvalue as float.hex, iterations, sha256 of trace z, residuals, eigenvector)
    RQI = {
        "bd_squares order=10000": (
            "0x1.35d27f90a2d4dp-2", 3,
            "41df8c5f409cfc8d9a775288131163499af7df7c5f1cea5b5259856a51b8fc36"),
        "killing-at-last seed=1 order=16": (
            "0x1.18fd674022556p-7", 3,
            "c8cd8ae98b617e068728a6f425a59ba16d4d25d71ea84159d316bc8549263691"),
        "killing-at-last seed=2 order=64": (
            "0x1.79f4b6f0aac32p-20", 2,
            "665971c81069b1fb371a5d00519a4662f2827a46a8f2225654e4077ea7ba0e6a"),
        "killing-at-last seed=3 order=256": (
            "0x1.8739d80570abbp-31", 1,
            "acb601992e8596d5c8b7f74c5def8668c98dd7edafb9d6d06969fc1c326dd09c"),
    }

    @staticmethod
    def system(name):
        if name.startswith("bd_squares"):
            return models.bd_squares(9999)
        seed, order = (int(part.split("=")[1]) for part in name.split()[1:])
        return random_system(np.random.default_rng(seed), order - 1)

    @pytest.mark.parametrize("name", sorted(RQI))
    def test_tridiag_rqi(self, name):
        result, trace = tridiag_rqi(self.system(name))
        got = (float(result.eigenvalue).hex(), trace.iterations,
               _digest(trace.zs(), trace.residuals(), result.eigenvector))
        assert got == self.RQI[name]

    def test_power_iteration_on_a_tridiagonal_system(self):
        trace = iterengine.power_iteration(models.bd_squares(7), steps=200)
        assert _digest(trace.zs(), trace.residuals()) == (
            "bd24ff5ffbbe64f8ed2164ba762e0cbcdd1a99eb436fd1aed4dad88cc57f42c2")
