"""Initials for general matrices via the three linear systems."""

import ctypes
import hashlib

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxeig import general_init, iterengine, linsolve, models, tridiag
from maxeig.errors import InvalidInput, NonPositiveSequence, SolverBreakdown
from maxeig.general_init import (
    general_rqi,
    h_transform_general,
    safe_z0,
    solve_h_general,
    solve_mu_general,
    solve_phi_general,
    tridiagonal_from_dense,
)
from maxeig.numat import TridiagonalSystem, matrix_scale, shift_to_qc
from maxeig.tridiag import compute_h, compute_initials, recover_original, tridiag_rqi

from conftest import count_calls, fail_if_called, oracle_eigenvalues, random_system


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

    def test_row_blocks_keep_the_entrywise_bits(self, rng):
        # the ratios are formed a row block at a time, with the same arithmetic per entry
        for n in (7, 300):      # one block, and three
            qc, _ = shift_to_qc(rng.uniform(0.01, 1.0, (n, n)))
            h = rng.uniform(0.5, 2.0, n) * 10.0 ** rng.uniform(-100, 100, n)
            for layout in (qc, np.asfortranarray(qc), qc.T):
                expected = layout * (h[None, :] / h[:, None])
                assert h_transform_general(layout, h).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("h", [[1.0, 0.0], [1e-320, 1.0]])
    def test_a_ratio_that_is_not_finite_is_invalid_input(self, h):
        # a zero in h divides by zero, and a subnormal next to 1 overflows
        with pytest.raises(InvalidInput, match="finite"):
            h_transform_general([[-1, 1], [1, -2]], h)


def phi_from_jump_chain(qt):
    """phi as the paper defines it: rows 1..N of (I - P) phi = 0, P = D^-1 Q~ + I."""
    n = qt.shape[0]
    p = qt / -np.diag(qt)[:, None] + np.eye(n)
    rows = (np.eye(n) - p)[1:, :]
    return np.concatenate([[1.0], np.linalg.solve(rows[:, 1:], -rows[:, 0])])


def random_transformed_generator(rng, n):
    """Q~ of a random dense matrix with positive entries: Qc = A - mI, h-transformed."""
    qc, _ = shift_to_qc(rng.uniform(0.01, 1.0, (n, n)))
    return h_transform_general(qc, solve_h_general(qc))


class TestSolvePhiMu:
    def test_two_state_jump_chain(self):
        qt = np.array([[-1.0, 1.0], [1.0, -5.0]])
        assert solve_phi_general(qt) == pytest.approx([1.0, 0.2])

    def test_phi_from_generator_rows_equals_phi_from_jump_chain(self, rng):
        for n in (2, 3, 8, 40, 120):
            qt = random_transformed_generator(rng, n)
            phi, expected = solve_phi_general(qt), phi_from_jump_chain(qt)
            assert np.abs(phi - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_phi_needs_negative_diagonal_below_the_first_row(self):
        # state 1 is absorbing: P is undefined on its row, and phi with it
        with pytest.raises(InvalidInput, match="strictly negative diagonal"):
            solve_phi_general(np.array([[-1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(InvalidInput, match="strictly negative diagonal"):
            general_rqi(np.array([[-1.0, 1.0], [0.0, 0.0]]))
        # the first row is not among phi's equations
        assert solve_phi_general(np.array([[0.0, 0.0], [1.0, -2.0]])) == pytest.approx([1.0, 0.5])

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
        v0 = v0 / np.sqrt((solve_mu_general(qt) * v0 * v0).sum())
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

    @pytest.mark.parametrize("mu", [[2.0], np.ones(7), [1.0, 2.0]])
    def test_mu_of_another_length_than_phi_is_refused(self, mu):
        # a mu of one entry broadcast, a longer one was accepted, and one of two
        # raised numpy's broadcast error
        with pytest.raises(InvalidInput, match=f"mu has {len(mu)} entries and phi 4"):
            safe_z0([1.0, 0.5, 0.25, 0.1], mu)


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

    def test_every_layout_gives_the_same_bits(self):
        # shift_to_qc sums the rows of its C-order copy, so m, and with it the
        # whole run, rounds the same for a C-order, Fortran-order or strided A
        A = np.random.default_rng(3).uniform(0, 1, (300, 300))
        wide = np.zeros((300, 600))
        wide[:, ::2] = A
        layouts = (A, np.asfortranarray(A), wide[:, ::2])
        assert not layouts[2].flags.c_contiguous and not layouts[2].flags.f_contiguous
        runs = []
        for layout in layouts:
            result, trace = general_rqi(layout)
            runs.append((result.eigenvalue.hex(), result.eigenvector.tobytes(),
                         [(s.k, s.z, s.residual) for s in trace.steps], trace.termination,
                         trace.tol_z, trace.bracket))
        assert runs[0][0] == "0x1.2b99a11458c93p+7"
        assert runs[1] == runs[0] and runs[2] == runs[0]

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

    def test_z0_fallback_one_ulp_below_the_tie(self, monkeypatch):
        # phi_1 one ulp below phi_0 is a tie to roundoff: the safe shift,
        # (1 - phi_1) / peak, would be about 1e-16 / peak
        initials = general_init._initials

        def below_the_tie(qc):
            h, q_tilde, _, mu = initials(qc)
            return h, q_tilde, np.array([1.0, np.nextafter(1.0, 0.0), 0.6]), mu

        monkeypatch.setattr(general_init, "_initials", below_the_tie)
        result, _ = general_rqi(self.FALLBACK)
        assert result.z0_fallback
        assert result.eigenvalue == pytest.approx(float(np.max(oracle_eigenvalues(self.FALLBACK).real)),
                                                  abs=1e-9)

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

    @pytest.mark.parametrize("z0, v0", [("safe", "efficient"), ("rayleigh", "uniform")])
    def test_a_tridiagonal_system_runs_as_its_dense_matrix(self, monkeypatch, z0, v0):
        # each run evaluates delta_1's peak once, in safe_z0, where its policy reads it
        calls = count_calls(monkeypatch, tridiag, "_delta1_peak")
        system = models.bd_squares(7)
        res_s, trace_s = general_rqi(system, z0=z0, v0=v0)
        assert len(calls) == (z0 == "safe")
        res_d, trace_d = general_rqi(system.dense(), z0=z0, v0=v0)
        assert len(calls) == 2 * (z0 == "safe")
        assert np.array_equal(trace_s.zs(), trace_d.zs())
        assert np.array_equal(res_s.eigenvector, res_d.eigenvector)
        assert res_s.eigenvalue == res_d.eigenvalue
        assert np.copysign(1.0, res_s.shift_m) == 1.0    # m = +0.0 when min(c) = 0

    def test_a_tridiagonal_system_agrees_with_its_dense_matrix(self, rng):
        # with killing everywhere m = -min(c) > 0, and the two routes round apart;
        # only killing at the last state is checked against the oracle, as killing
        # everywhere can lose the maximal pair on both routes alike
        for killing in ("last", "all"):
            for _ in range(16):
                system = random_system(rng, int(rng.integers(7, 64)), with_killing=killing)
                res_s, res_d = (general_rqi(A)[0] for A in (system, system.dense()))
                assert res_s.eigenvalue == pytest.approx(res_d.eigenvalue, rel=1e-10)
                if killing == "last":
                    assert res_s.eigenvalue == pytest.approx(
                        float(np.max(oracle_eigenvalues(system).real)), rel=1e-8)

    def test_uniform_killing_answers_on_both_routes(self, rng):
        # Q + c I is conservative when every killing rate is c: rho(Q) = -c with
        # the ones vector, exactly, from the system and from its dense form, whose
        # row sums leave roundoff killing or, with unit rates, cancel exactly
        systems = [TridiagonalSystem.from_rates(np.ones(5), np.ones(5), np.full(6, 0.5)),
                   TridiagonalSystem.from_rates([1.0, 2.0], [3.0, 0.5], np.zeros(3))]
        for _ in range(24):
            n = int(rng.integers(3, 60))
            a, b = rng.uniform(0.5, 2.0, n - 1), rng.uniform(0.5, 2.0, n - 1)
            systems.append(TridiagonalSystem.from_rates(a, b, np.full(n, rng.uniform(0.5, 2.0))))
        cancelled = 0
        for system in systems:
            c = float(system.c[0])
            qc, m = shift_to_qc(system.dense())
            cancelled += not qc.sum(axis=1).any()
            for A, rho in ((system, -c), (system.dense(), m)):
                result, trace = general_rqi(A)
                assert result.eigenvalue == rho == pytest.approx(-c, rel=1e-14, abs=1e-14)
                assert (result.eigenvector == 1.0).all()
                assert (trace.iterations, trace.termination) == (0, "converged")
                assert trace.steps[0].residual <= 1e-15
        assert cancelled >= 1

    def test_small_row_killing_is_not_taken_for_roundoff(self):
        # c = 1 at state 0 is below 1e-12 of the scale, about 4e13, but not of
        # its own row: both routes run RQI to the maximal pair of eig, about
        # -0.219, not the conservative pair rho = 0
        system = TridiagonalSystem(np.array([0.0, 1.0, 1e13]), np.array([1.0, 1e13, 0.0]),
                                   np.array([1.0, 0.0, 0.0]))
        rho = float(np.max(np.linalg.eigvals(system.dense()).real))
        assert rho == pytest.approx(-0.2192, abs=1e-3)
        for A in (system, system.dense()):
            result, trace = general_rqi(A)
            assert result.eigenvalue == pytest.approx(rho, abs=1e-3)
            assert trace.iterations >= 1
            assert result.eigenvector[0] < 0.6

    def test_uniform_killing_checks_the_run_options(self):
        system = TridiagonalSystem.from_rates(np.ones(5), np.ones(5), np.full(6, 0.5))
        for A in (system, system.dense()):
            with pytest.raises(InvalidInput, match="unknown v0"):
                general_rqi(A, v0="bogus")
            with pytest.raises(InvalidInput, match="tolerances must be nonnegative"):
                general_rqi(A, tol_z=float("nan"))
            with pytest.raises(InvalidInput, match="z0 must be finite"):
                general_rqi(A, z0=float("inf"))

    @pytest.mark.parametrize("z0", general_init.Z0_POLICIES)
    def test_order_one_is_invalid(self, z0):
        with pytest.raises(InvalidInput, match="order at least 2"):
            general_rqi([[2.0]], z0=z0)

    @pytest.mark.parametrize("z0", general_init.Z0_POLICIES)
    def test_accepted_z0_policies(self, z0):
        for A in (models.bd_squares(5).dense(), models.toeplitz_linear(5)):
            result, _ = general_rqi(A, z0=z0)
            assert result.eigenvector_positive

    # the three routes: the tridiagonal pipeline (a system and its dense form),
    # the dense body, and the conservative answer (uniform killing, both forms)
    ROUTES = (models.bd_squares(5), models.bd_squares(5).dense(), models.toeplitz_linear(5),
              TridiagonalSystem.from_rates(np.ones(5), np.ones(5), np.full(6, 0.5)),
              TridiagonalSystem.from_rates(np.ones(5), np.ones(5), np.full(6, 0.5)).dense())

    @pytest.mark.parametrize("v0", ["bogus", None, np.ones(6)])
    def test_rejects_unknown_start(self, monkeypatch, v0):
        # at entry, before the shift to Qc and the transform
        fail_if_called(monkeypatch, general_init, "shift_to_qc")
        fail_if_called(monkeypatch, tridiag, "compute_h")
        for A in self.ROUTES:
            with pytest.raises(InvalidInput, match="^unknown v0 choice "):
                general_rqi(A, v0=v0)

    @pytest.mark.parametrize("z0", ["combination", "bogus", None, 1j, np.ones(6)])
    def test_rejects_unknown_z0(self, monkeypatch, z0):
        # a name outside the policy set, or no real number, before any O(N) work;
        # tridiag_rqi takes "combination", but the other names and types neither
        fail_if_called(monkeypatch, general_init, "shift_to_qc")
        fail_if_called(monkeypatch, tridiag, "compute_h")
        for A in self.ROUTES:
            with pytest.raises(InvalidInput, match="^unknown z0 choice "):
                general_rqi(A, z0=z0)
        if not (isinstance(z0, str) and z0 in tridiag.Z0_POLICIES):
            with pytest.raises(InvalidInput, match="^unknown z0 choice "):
                tridiag_rqi(self.ROUTES[0], z0=z0)

    def test_rejects_tridiagonal_only_policy(self):
        with pytest.raises(ValueError):
            general_rqi(models.bd_squares(5).dense(), z0="combination")

    def test_non_positive_phi(self):
        # reducible: nothing leads back from the last state, so phi_1 = phi_2 = 0
        with pytest.raises(NonPositiveSequence) as exc:
            general_rqi(np.array([[0.0, 1, 0], [0, 0, 1], [0, 0, 0]]))
        assert exc.value.sequence == "phi"


def bordered_sequences(qc):
    """h, phi and mu from their defining systems, each with one equation
    dropped, solved with one step of iterative refinement."""
    def unit_head(rows):
        A, b = rows[:, 1:], -rows[:, 0]
        x = np.linalg.solve(A, b)
        return np.r_[1.0, x + np.linalg.solve(A, b - A @ x)]

    h = unit_head(qc[:-1])
    qt = qc * (h[None, :] / h[:, None])
    return h, unit_head(qt[1:]), unit_head(qt.T[:-1])


@st.composite
def killed_matrices(draw, everywhere):
    """A random irreducible dense matrix with nonnegative off-diagonals and
    rates from 1e-3 to 1e3, shifted to Qc; killing at one state, or at
    every state before the shift."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rates = 10.0 ** rng.uniform(-3, 3, (n, n))
    rates *= rng.uniform(size=(n, n)) < 0.5
    cycle = np.arange(n)
    rates[cycle, np.roll(cycle, -1)] = 10.0 ** rng.uniform(-3, 3, n)   # irreducible
    np.fill_diagonal(rates, 0.0)
    killing = np.zeros(n)
    if everywhere:
        killing[:] = 10.0 ** rng.uniform(-3, 3, n)
    else:
        killing[draw(st.integers(0, n - 1))] = 10.0 ** rng.uniform(-3, 3)
    return shift_to_qc(rates - np.diag(rates.sum(axis=1) + killing))[0]


def assert_one_lu_matches_bordered(qc):
    h, qt, phi, mu = general_init._initials(qc)
    assert np.array_equal(qt, h_transform_general(qc, h))
    for got, expected in zip((h, phi, mu), bordered_sequences(qc)):
        assert (got > 0).all()
        assert np.abs(got / expected - 1.0).max() <= 1e-10


class TestOneLuInitials:
    """general_rqi's h, phi and mu from one LU of Qc against their bordered definitions."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(killed_matrices(everywhere=False))
    def test_killing_at_one_state(self, qc):
        assert_one_lu_matches_bordered(qc)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(killed_matrices(everywhere=True))
    def test_killing_everywhere(self, qc):
        assert_one_lu_matches_bordered(qc)

    def test_grid_laplacian_factors_on_the_band(self):
        qc, _ = shift_to_qc(models.poisson_block(12))
        assert linsolve._band_route(qc, 3) == (12, 12, False)
        assert_one_lu_matches_bordered(qc)

    def test_conservative_input_takes_the_bordered_systems(self, rng, monkeypatch):
        # no killing: Qc is singular, h = phi = 1 exactly and Q~ = Qc, so only
        # mu's bordered system is solved
        rates = rng.uniform(0.01, 1.0, (8, 8))
        qc, _ = shift_to_qc(rates - np.diag(rates.sum(axis=1)))
        lu, orders = linsolve._lu, []
        monkeypatch.setattr(linsolve, "_lu", lambda A, solves: orders.append(len(A)) or lu(A, solves))
        h, qt, phi, mu = general_init._initials(qc)
        assert orders == [7]   # one bordered system, no LU of Qc
        assert np.array_equal(h, np.ones(8)) and np.array_equal(phi, np.ones(8))
        assert qt is qc
        assert np.array_equal(mu, solve_mu_general(qc))

    def test_phi_diagonal_is_checked_before_the_lu(self):
        # state 1 absorbs, which rules phi out and makes Qc singular
        with pytest.raises(InvalidInput, match="strictly negative diagonal"):
            general_init._initials(np.array([[-2.0, 1.0], [0.0, 0.0]]))


def mp_unit_head(rows):
    """x with x_0 = 1 and rows @ x = 0, to 60 digits: float64 corrections of
    residuals taken in 60-digit mpmath, until a correction is below 1e-30
    relative."""
    to_mp = np.vectorize(mpmath.mpf, otypes=[object])
    B, c = rows[:, 1:], -rows[:, 0]
    B_mp, c_mp, y = to_mp(B), to_mp(c), to_mp(np.zeros(len(c)))
    with mpmath.workdps(60):
        for _ in range(30):
            dy = np.linalg.solve(B, (c_mp - B_mp @ y).astype(float))
            y = y + to_mp(dy)
            if np.abs(dy).max() <= 1e-30 * np.abs(y.astype(float)).max():
                return np.r_[1.0, y.astype(float)]
    raise AssertionError("the mpmath reference did not converge")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(killed_matrices(everywhere=True))
def test_bordered_solves_resolve_every_entry(qc):
    # one refinement step on the one LU: each entry within 45 eps of the
    # bordered system's exact solution (unrefined: up to 1.2e-13 here)
    h = solve_h_general(qc)
    qt = h_transform_general(qc, h)
    for got, rows in ((h, qc[:-1]), (solve_phi_general(qt), qt[1:]), (solve_mu_general(qt), qt.T[:-1])):
        assert np.abs(got / mp_unit_head(rows) - 1.0).max() <= 1e-14


def test_bordered_solves_take_real_input_only():
    with pytest.raises(InvalidInput, match="real"):
        solve_h_general(np.array([[-2.0, 1j], [1.0, -1.0]]))


def test_branching_model_matches_the_oracle_or_fails_visibly():
    # with killing only at the left end h spans 1e10 at order 50, 6e19 at 100
    # and 3e27 at 140; one LU of Qc with a refinement step resolves it up to
    # order 140 (the bordered solves lost its sign at 120 and 140).  Beyond
    # that h may lose its sign (NonPositiveSequence) or, positive but wrong,
    # start the run at a non-maximal pair, which the result flags
    for n in (50, 100, 120, 140, 160, 180, 200, 400):
        A = models.branching_model(n)
        try:
            result, _ = general_rqi(A)
        except NonPositiveSequence as exc:
            assert n > 140 and exc.sequence == "h"
            continue
        assert result.eigenvector_positive or n > 140
        if result.eigenvector_positive:
            oracle = float(np.max(oracle_eigenvalues(A).real))
            assert result.eigenvalue == pytest.approx(oracle, rel=1e-9)


def _openblas_core():
    """The kernel family of the OpenBLAS numpy's LAPACK comes from, or None."""
    try:
        from numpy.linalg import _umath_linalg
        corename = ctypes.CDLL(_umath_linalg.__file__).scipy_openblas_get_corename64_
    except (ImportError, OSError, AttributeError):
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _random(seed, n):
    return np.random.default_rng(seed).uniform(0.01, 1.0, (n, n))


def _conservative(seed, n):
    rates = _random(seed, n)
    np.fill_diagonal(rates, 0.0)
    return rates - np.diag(rates.sum(axis=1))


@pytest.mark.skipif(_openblas_core() != "SkylakeX",
                    reason="pinned with the SkylakeX kernels of numpy's bundled OpenBLAS; "
                           "other kernels round dgemv and dgetrf in their own order")
class TestPinnedDenseOutputs:
    """Exact bits of the dense routes, as first recorded.

    Orders stay below 100, where OpenBLAS's threading leaves the LU bits
    alone (see ``linsolve``), so the bits are the same for any number of
    BLAS threads; they do depend on the CPU kernels OpenBLAS picks, as
    its matvec and LU sum in their own order.  A change here means some
    arithmetic changed: say why, and record the new values.
    """

    # name -> (run, eigenvalue as float.hex, iterations, sha256 of trace z,
    # residuals, eigenvector): general_rqi with killing, on conservative
    # input and on the grid (the band LU), algorithm1, and algorithm2 on the
    # triangular and branching models
    RUNS = {
        "general_rqi toeplitz order=60": (
            lambda: general_rqi(models.toeplitz_linear(60)),
            "0x1.4712390eb3d78p+10", 4,
            "380213b09c296d8f9333f92e19aaa24846788a54cd6f85bbf73bb3a322d5b3ec"),
        "general_rqi random seed=1 order=50": (
            lambda: general_rqi(_random(1, 50)),
            "0x1.9127a614133dap+4", 4,
            "5227870e802e5cde63f5ab508a285331f5c25967eb045ea241a75c540c346fcd"),
        "general_rqi random seed=1 order=50 z0=rayleigh v0=uniform": (
            lambda: general_rqi(_random(1, 50), z0="rayleigh", v0="uniform"),
            "0x1.9127a614134b1p+4", 6,
            "74b8dabedcbbce6036fb3faf986ca5e0b61e2c2731133312384bc4f470b9ded1"),
        "general_rqi conservative seed=2 order=40": (
            lambda: general_rqi(_conservative(2, 40)),
            "-0x1.94287f786d680p-51", 1,
            "c33c15cf9182d4f49dfba42cfeeb521e3d1ef8fd22faf06618b1a95caee9cc23"),
        "general_rqi grid=9": (
            lambda: general_rqi(models.poisson_block(9)),
            "-0x1.90f1ecbbab00ep-3", 4,
            "c9ebe8e95cda9fa499ead72552ca5b2a58b2955e9d0ef62fc12784b664eed2f8"),
        "algorithm1 random seed=1 order=50": (
            lambda: iterengine.algorithm1(_random(1, 50)),
            "0x1.9127a61413672p+4", 3,
            "4b68c6199fb365728fc6c8987081e281a3a461ce38f50bf3d8a55cab8435fe5d"),
        "algorithm2 triangular order=80": (
            lambda: iterengine.algorithm2(models.triangular_model(79), negate=True),
            "0x1.68bd1e23e058ep-2", 6,
            "f672514f3d42da4009439e25fdfb292c746fee1d6566b83e75559aeef5cc9a42"),
        "algorithm2 branching order=60": (
            lambda: iterengine.algorithm2(models.branching_model(60), negate=True),
            "0x1.4000000008120p-1", 8,
            "d4211fe3229f5d8e587000635840544fe8e27c88d77f2a6aaf6fd076bc7c4bff"),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_dense_run(self, name):
        run, *expected = self.RUNS[name]
        result, trace = run()
        got = [float(result.eigenvalue).hex(), trace.iterations,
               _digest(trace.zs(), trace.residuals(), result.eigenvector)]
        assert got == expected
