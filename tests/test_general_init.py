"""Initials for general matrices via the three linear systems."""

import numpy as np
import pytest

from maxeig import general_init, models
from maxeig.errors import InvalidInput, NonPositiveSequence, SolverBreakdown
from maxeig.general_init import (
    general_rqi,
    h_transform_general,
    jump_matrix,
    safe_z0,
    solve_h_general,
    solve_mu_general,
    solve_phi_general,
    tridiagonal_from_dense,
)
from maxeig.numat import matrix_scale, weighted_norm
from maxeig.tridiag import compute_h, compute_initials, recover_original, tridiag_rqi

from conftest import oracle_eigenvalues, random_system


class TestSolveH:
    def test_constant_when_row_sums_vanish(self):
        qc = models.bd_squares(6).dense()
        assert np.abs(solve_h_general(qc) - 1.0).max() <= 1e-12

    def test_two_state_example(self):
        h = solve_h_general(np.array([[-2.0, 1.0], [1.0, -1.0]]))
        assert h == pytest.approx([1.0, 2.0])

    def test_matches_recurrence_with_interior_killing(self, rng):
        for _ in range(10):
            system = random_system(rng, 9, with_killing="all")
            ht = compute_h(system)
            h = solve_h_general(system.dense())
            assert np.abs(h - ht.h).max() <= 1e-10 * np.abs(ht.h).max()

    def test_reducible_input_fails(self):
        with pytest.raises(SolverBreakdown):
            solve_h_general(np.zeros((2, 2)))


class TestHTransform:
    def test_identity_for_constant_h(self):
        qc = models.bd_squares(4).dense()
        assert np.array_equal(h_transform_general(qc, np.ones(5)), qc)

    def test_similarity_preserves_spectrum(self, rng):
        for _ in range(10):
            system = random_system(rng, 8, with_killing="all")
            qc = system.dense()
            h = solve_h_general(qc)
            qt = h_transform_general(qc, h)
            before = np.sort(oracle_eigenvalues(qc).real)
            after = np.sort(oracle_eigenvalues(qt).real)
            assert np.abs(before - after).max() <= 1e-8 * max(1.0, np.abs(before).max())

    def test_row_sums_vanish_below_last(self, rng):
        for _ in range(10):
            system = random_system(rng, 8, with_killing="all")
            qc = system.dense()
            qt = h_transform_general(qc, solve_h_general(qc))
            sums = qt.sum(axis=1)
            assert np.abs(sums[:-1]).max() <= 1e-10 * matrix_scale(qc)
            assert sums[-1] < 0


class TestSolvePhiMu:
    def test_two_state_jump_chain(self):
        qt = np.array([[-1.0, 1.0], [1.0, -5.0]])
        p = jump_matrix(qt)
        assert np.array_equal(p, [[0.0, 1.0], [0.2, 0.0]])
        assert solve_phi_general(qt) == pytest.approx([1.0, 0.2])

    def test_jump_rows_stochastic_where_conservative(self, rng):
        system = random_system(rng, 7)
        qt = compute_h(system).transformed.dense()
        p = jump_matrix(qt)
        sums = p.sum(axis=1)
        assert np.abs(sums[:-1] - 1.0).max() <= 1e-12

    def test_phi_matches_tail_formula(self):
        system = models.bd_squares(7)
        transformed = compute_h(system).transformed
        init = compute_initials(transformed)
        phi = solve_phi_general(transformed.dense())
        assert np.abs(phi / phi[0] - init.phi / init.phi[0]).max() <= 1e-10

    def test_mu_constant_for_matched_rates(self):
        qt = compute_h(models.bd_squares(9)).transformed.dense()
        assert np.abs(solve_mu_general(qt) - 1.0).max() <= 1e-10

    def test_mu_matches_recurrence(self, rng):
        for _ in range(10):
            system = random_system(rng, 8)
            init = compute_initials(system)
            mu = solve_mu_general(system.dense())
            assert np.abs(mu - init.mu).max() <= 1e-10 * np.abs(init.mu).max()

    def test_mu_constant_for_symmetric(self):
        # a symmetric transformed generator: zero row sums except the last
        qt = np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -5.0]])
        assert solve_mu_general(qt) == pytest.approx([1.0, 1.0, 1.0])


class TestInitials:
    def test_seed_direction_matches_tridiagonal_formula(self):
        system = models.bd_squares(7)
        transformed = compute_h(system).transformed
        init = compute_initials(transformed)
        qt = transformed.dense()
        v0 = np.sqrt(solve_phi_general(qt))
        v0 = v0 / weighted_norm(v0, solve_mu_general(qt))
        assert np.abs(v0 - init.v0).max() <= 1e-10

    def test_safe_shift_specializes_to_delta1(self):
        # with mu_0 b_0 = 1 the normalized-phi formula reproduces 1/delta_1
        system = models.bd_squares(1)
        init = compute_initials(system)
        z0 = safe_z0(init.phi / init.phi[0], init.mu)
        assert z0 == pytest.approx(1.0 / init.delta1, rel=1e-12)

    def test_safe_shift_shrinks_as_phi1_approaches_one(self):
        mu = np.ones(3)
        z_far = safe_z0([1.0, 0.5, 0.1], mu)
        z_near = safe_z0([1.0, 0.999999, 0.1], mu)
        assert 0.0 < z_near < z_far

    def test_safe_shift_unavailable(self):
        with pytest.raises(InvalidInput):
            safe_z0([1.0, 1.0, 1.0], np.ones(3))


class TestGeneralRqi:
    def test_pipeline_equivalence_on_tridiagonal_input(self):
        # general_rqi takes the banded solver; compare it with the closed form
        system = models.bd_squares(7)
        res_t, _ = tridiag_rqi(system, solver="explicit")
        res_g, trace = general_rqi(system.dense())
        assert -res_g.eigenvalue == pytest.approx(res_t.eigenvalue, rel=1e-10)
        assert trace.stabilized_at() <= 2
        g_t = res_t.eigenvector / res_t.eigenvector[-1]
        assert np.abs(res_g.eigenvector - g_t).max() <= 1e-9

    def test_structure_detection(self):
        assert tridiagonal_from_dense(models.bd_squares(5).dense()) is not None
        assert tridiagonal_from_dense(models.toeplitz_linear(5)) is None
        assert tridiagonal_from_dense(models.negative3()) is None

    def test_one_entry_outside_the_band_is_not_tridiagonal(self):
        Q = models.bd_squares(5).dense()
        Q[0, 0] -= 1e-3
        Q[0, 3] = 1e-3    # row sums unchanged, so only the band test can refuse it
        assert tridiagonal_from_dense(Q) is None

    def test_negative_zero_outside_the_band_is_zero(self):
        Q = models.bd_squares(5).dense()
        expected = tridiagonal_from_dense(Q)
        Q[4, 0] = -0.0
        got = tridiagonal_from_dense(Q)
        for x, y in ((got.a, expected.a), (got.b, expected.b), (got.c, expected.c)):
            assert np.array_equal(x, y)

    def test_recovered_pair_residual(self, rng):
        for n in (6, 12):
            A = models.toeplitz_linear(n)
            result, _ = general_rqi(A)
            g = result.eigenvector
            res = np.abs(A @ g - result.eigenvalue * g).max()
            assert res <= 1e-8 * np.abs(g).max() * matrix_scale(A)

    def test_small_toeplitz_against_oracle(self):
        A = models.toeplitz_linear(30)
        result, _ = general_rqi(A)
        oracle = float(np.max(oracle_eigenvalues(A).real))
        assert result.eigenvalue == pytest.approx(oracle, rel=1e-10)
        assert result.eigenvector_positive

    def test_rayleigh_start_from_uniform_hits_the_pitfall(self):
        result, trace = general_rqi(models.bd_squares(7).dense(), z0="rayleigh", v0="uniform")
        assert trace.zs()[-1] == pytest.approx(5.91867, abs=5e-5)
        assert not result.eigenvector_positive

    # state 1 jumps only to state 0, so phi = [1, 1, 0.6] rules out the safe
    # shift.  A tridiagonal phi decreases strictly, so this dense input stands
    # in for the fallback both routes share.
    FALLBACK = np.array([[-3.0, 1.0, 2.0], [1.0, -1.0, 0.0], [1.5, 0.0, -2.5]])

    def test_z0_fallback_flag(self):
        A = self.FALLBACK
        assert np.array_equal(solve_phi_general(A), [1.0, 1.0, 0.6])
        oracle = float(np.max(oracle_eigenvalues(A).real))
        for v0 in ("efficient", "uniform"):
            result, _ = general_rqi(A, v0=v0)
            assert result.z0_fallback
            assert result.eigenvalue == pytest.approx(oracle, abs=1e-9)

    def test_z0_fallback_flag_dense(self):
        # the fallback starts from the efficient seed's quotient whichever the start vector
        _, seed_trace = general_rqi(self.FALLBACK, z0="rayleigh")
        for v0 in ("efficient", "uniform"):
            _, trace = general_rqi(self.FALLBACK, v0=v0)
            assert trace.zs()[0] == seed_trace.zs()[0]

    def test_tridiagonal_input_runs_the_tridiagonal_pipeline(self):
        system = models.bd_squares(9)
        res_g, trace_g = general_rqi(system.dense())
        res_t, trace_t = tridiag_rqi(system, solver="generic", z0="safe")
        assert np.array_equal(trace_g.zs(), trace_t.zs())
        assert np.array_equal(res_g.eigenvector, recover_original(res_t).eigenvector)

    @pytest.mark.parametrize("z0", general_init.Z0_POLICIES)
    def test_accepted_z0_policies(self, z0):
        for A in (models.bd_squares(5).dense(), models.toeplitz_linear(5)):
            result, _ = general_rqi(A, z0=z0)
            assert result.eigenvector_positive

    @pytest.mark.parametrize("v0", ["bogus", None])
    def test_rejects_unknown_start(self, v0):
        for A in (models.bd_squares(5).dense(), models.toeplitz_linear(5)):
            with pytest.raises(InvalidInput):
                general_rqi(A, v0=v0)

    def test_rejects_tridiagonal_only_policy(self):
        with pytest.raises(ValueError):
            general_rqi(models.bd_squares(5).dense(), z0="combination")

    def test_non_positive_phi(self):
        # reducible: nothing leads back from the last state, so phi_1 = phi_2 = 0
        with pytest.raises(NonPositiveSequence) as exc:
            general_rqi(np.array([[0.0, 1, 0], [0, 0, 1], [0, 0, 0]]))
        assert exc.value.sequence == "phi"

