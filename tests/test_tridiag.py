"""The tridiagonal pipeline: transform, initials, closed-form solver, RQI."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxeig import iterengine, models, tridiag
from maxeig.errors import InvalidInput, MaxIterationsExceeded, SolverBreakdown
from maxeig.general_init import general_rqi, h_transform_general, solve_h_general
from maxeig.iterengine import EigenpairResult
from maxeig.linsolve import dense_solve
from maxeig.numat import TridiagonalSystem, matrix_scale, matvec, shift_to_qc
from maxeig.tridiag import (
    Z0_POLICIES,
    _closed_form_solver,
    _delta1_peak,
    _mu_norm,
    _rayleigh,
    _unit,
    _weights,
    compute_h,
    compute_initials,
    explicit_rqi_solve,
    recover_original,
    tridiag_rqi,
    z0_combination,
)

from conftest import count_calls, fail_if_called, oracle_eigenvalues, oracle_min_neg, random_system


class TestUnweightedRun:
    """A symmetric chain (a_{k+1} = b_k) has mu all ones; compute_initials
    makes it a stride-0 view of one 1.0, and the run skips the weighting,
    which with mu = ones changes no bit."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 200), st.integers(0, 2**32 - 1))
    def test_each_unweighted_form_is_its_weighted_form_at_ones(self, order, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(order) * 10.0 ** rng.uniform(-20, 20, order)
        v[1:][rng.uniform(size=order - 1) < 0.1] = -0.0
        av = rng.standard_normal(order) * 10.0 ** rng.uniform(-20, 20, order)
        phi = rng.uniform(0.01, 100.0, order)
        ones = np.ones(order)

        def bits(*values):
            return [float(x).hex() for x in values]

        assert bits(*_rayleigh(None, v, av, np.empty(order))) == bits(
            *_rayleigh(ones, v, av, np.empty(order)))
        assert bits(_mu_norm(None, v, np.empty(order))) == bits(_mu_norm(ones, v, np.empty(order)))
        # the residual's norm is taken in place, the vector its own scratch
        u, w = v.copy(), v.copy()
        assert bits(_mu_norm(None, u, u)) == bits(_mu_norm(ones, w, w))
        assert _unit(np.abs(v), None).tobytes() == _unit(np.abs(v), ones).tobytes()
        assert bits(_delta1_peak(phi, None, np.sqrt(phi))) == bits(
            _delta1_peak(phi, ones, np.sqrt(phi)))

    def test_weights_are_none_only_when_all_ones(self):
        init = compute_initials(models.bd_squares(20))
        assert init.mu.strides == (0,) and not init.mu.flags.writeable
        assert _weights(init.mu) is None and _weights(np.ones(5)) is None
        for mu in (np.array([1.0, 1.0, np.nextafter(1.0, 2.0)]), np.array([1.0, 0.5, 2.0]),
                   np.array([1.0, np.nan])):
            assert _weights(mu) is mu

    def test_a_symmetric_chain_has_the_divided_phi(self, rng):
        # phi bit for bit as the divide and cumulative product form it
        for order in (2, 3, 17, 300):
            system = _symmetric(int(rng.integers(2**32)), order)
            init = compute_initials(system)
            b_eff = system.b.copy()
            b_eff[-1] = system.c[-1]
            mu = np.concatenate([[1.0], np.multiply.accumulate(b_eff[:-1] / system.a[1:])])
            assert np.array_equal(mu, np.ones(order))
            phi = np.add.accumulate((1.0 / (b_eff * mu))[::-1])[::-1]
            assert init.phi.tobytes() == phi.tobytes()
            assert _weights(init.mu) is None

    def test_an_unsymmetric_chain_keeps_its_mu(self, rng):
        system = random_system(rng, 30)
        init = compute_initials(system)
        assert init.mu.flags.owndata and _weights(init.mu) is init.mu

    @pytest.mark.parametrize("solver", ["generic", "explicit"])
    def test_the_run_takes_each_iterates_norm_once(self, monkeypatch, solver):
        # per step: the solve's output and the residual; ||v|| is the quotient's
        # denominator.  At the start also v0 and ||v0||
        calls = count_calls(monkeypatch, tridiag, "_mu_norm")
        _, trace = tridiag_rqi(_symmetric(3, 60), solver=solver)
        assert len(calls) == 3 + 2 * trace.iterations

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_symmetric_chain_on_both_routes(self, seed):
        # general_rqi on the dense form reads roundoff killing from the row sums,
        # so its bits are its own; both routes find the same decay rate
        system = _symmetric(seed, 80)
        result, _ = tridiag_rqi(system, z0="safe")
        dense, _ = general_rqi(system.dense())
        assert -dense.eigenvalue == pytest.approx(result.eigenvalue, rel=1e-9)
        assert result.eigenvalue == pytest.approx(oracle_min_neg(system), rel=1e-9)


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


    def test_the_run_solver_equals_explicit_rqi_solve_bitwise(self, rng):
        # one solver per run, in the (z I - Q) orientation: the closed form's shift is -z
        for system in (random_system(rng, 40), models.bd_squares(20)):
            init = compute_initials(system)
            solve = _closed_form_solver(system, init.mu)
            v = rng.normal(size=system.order)
            for z in (0.3, 0.1, 0.3, 0.45, -0.2):
                assert solve(-z, v).tobytes() == explicit_rqi_solve(system, init.mu, z, v).tobytes()

    def test_a_vanishing_denominator_leaves_the_next_shift_clean(self):
        system = TridiagonalSystem.from_rates([1.0], [2.0], [0.0, 2.0])   # eigenvalues {1, 4}
        init = compute_initials(system)
        solve = _closed_form_solver(system, init.mu)
        v = np.array([1.0, 0.0])
        for z in (0.5, 1.0, 0.25):
            if z == 1.0:
                with pytest.raises(SolverBreakdown, match="denominator"):
                    solve(-z, v)
            else:
                assert solve(-z, v).tobytes() == explicit_rqi_solve(system, init.mu, z, v).tobytes()


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
    def test_order_million_stops_on_the_repeat(self, request, solver):
        # A v rounds by eps times a scale of about 4e12, far past tol_z |z|,
        # so no bracket can certify the run
        _, _, trace = request.getfixturevalue(f"million_{solver}")
        assert trace.bracket is None and trace.iterations == 3

    @pytest.mark.parametrize("solver", ["explicit", "generic"])
    def test_order_million_first_iterates(self, request, solver):
        # z0..z2 of the t1 run at order 10^6 to six digits; the stopping rule leaves them alone
        _, _, trace = request.getfixturevalue(f"million_{solver}")
        assert [f"{z:.6g}" for z in trace.zs()[:3]] == ["0.295162", "0.279215", "0.279121"]

    @pytest.mark.parametrize("z0", Z0_POLICIES + (0.5,))
    def test_accepted_z0_policies(self, monkeypatch, z0):
        # delta_1 is evaluated only where the policy reads it, once
        calls = count_calls(monkeypatch, tridiag, "_delta1_peak")
        result, _ = tridiag_rqi(models.bd_squares(7), z0=z0)
        assert result.eigenvalue == pytest.approx(0.525268, abs=5e-6)
        assert not result.z0_fallback
        assert len(calls) == (z0 in ("combination", "delta1", "safe"))

    @pytest.mark.parametrize("v0", ["bogus", None, np.ones(8)])
    def test_rejects_unknown_start(self, monkeypatch, v0):
        # at entry, before the transform
        fail_if_called(monkeypatch, tridiag, "compute_h")
        with pytest.raises(InvalidInput, match="^unknown v0 choice "):
            tridiag_rqi(models.bd_squares(7), v0=v0)

    @pytest.mark.parametrize("system", [models.bd_squares(7).dense(), [[-1.0, 1.0], [1.0, -2.0]],
                                        None])
    def test_rejects_what_is_not_a_system(self, system):
        # a matrix is general_rqi's input
        with pytest.raises(InvalidInput, match="takes a TridiagonalSystem.*general_rqi"):
            tridiag_rqi(system)

    def test_order_two_closed_form(self):
        result, _ = tridiag_rqi(models.bd_squares(1))
        assert result.eigenvalue == pytest.approx(3.0 - np.sqrt(5.0), rel=1e-12)

    def test_closed_form_output_too_large_to_square(self):
        # from the uniform start's quotient the closed form's second output at
        # order 1101 peaks near 1e178: its mu-norm overflowed, and the driver
        # divided by inf.  Scaled by a power of two, the run converges
        result, trace = tridiag_rqi(models.bd_squares(1100), solver="explicit",
                                    z0="rayleigh", v0="uniform")
        assert trace.termination == "converged"
        assert np.isfinite(result.eigenvector).all()

    def test_closed_form_non_finite_output_is_a_breakdown(self):
        # at order 10001 the closed form's fourth output holds NaN: its loop's
        # Python floats overflow silently.  Like a LAPACK route's non-finite
        # solution it is a breakdown, retried once, and not an invalid input
        with pytest.raises(SolverBreakdown,
                           match=r"non-finite solution \(iteration 4, after one retry\)") as exc:
            tridiag_rqi(models.bd_squares(10000), solver="explicit", z0="rayleigh", v0="uniform")
        assert exc.value.trace.termination == "breakdown"
        assert exc.value.trace.iterations == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_closed_form_overflow_is_a_breakdown_without_a_warning(self):
        # from the shift 1e150 the closed form's sequences pass 1e300 at order 8,
        # and the products that finish a solve overflow: the output is not finite,
        # a breakdown retried once, and numpy warns of nothing on the way
        with pytest.raises(SolverBreakdown,
                           match=r"non-finite solution \(iteration 1, after one retry\)"):
            tridiag_rqi(models.bd_squares(7), solver="explicit", z0=1e150)
        system = models.bd_squares(7)
        with pytest.raises(SolverBreakdown, match="non-finite solution"):
            explicit_rqi_solve(system, compute_initials(system).mu, -1e150, np.ones(8))

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


class TestWorkingSet:
    """What a t1 run at order 10^6 allocates beyond its input, counted in arrays
    of N doubles by tracemalloc, to which numpy reports its allocations; and
    what a dense run at order 800 allocates, counted in order-800 matrices."""

    N = 10**6
    ARRAY = 8 * N
    SMALL = 2**20    # the run's other objects: trace, closures, ctypes buffers
    ORDER = 800
    MATRIX = 8 * ORDER**2

    def peak(self, call):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_tridiag_rqi_holds_seven_arrays(self):
        # the start, dgtsv's three work arrays, the iterate, the driver's scratch
        # and a solve's output or A v, which dlagtm forms in one array; the
        # chain is symmetric, so its mu is all ones and no array.  For every
        # shift and start: the start is built once the shift is chosen, so none
        # is held while safe_z0 forms phi / phi_0, its root and two work arrays
        system = models.bd_squares(self.N - 1)
        for z0 in ("combination", "delta1", "safe", "rayleigh", 0.25):
            for v0 in ("efficient", "uniform"):
                peak = self.peak(lambda: tridiag_rqi(system, z0=z0, v0=v0))
                assert peak <= 7 * self.ARRAY + self.SMALL, (z0, v0, peak / self.ARRAY)

    def test_general_rqi_on_a_system_holds_seven_arrays(self):
        # min(c) = 0: the system runs as it is, so the run is tridiag_rqi's
        system = models.bd_squares(self.N - 1)
        assert self.peak(lambda: general_rqi(system)) <= 7 * self.ARRAY + self.SMALL

    def test_recover_original_holds_one_array(self):
        result, _ = tridiag_rqi(models.bd_squares(self.N - 1))
        eigenvector = result.eigenvector.copy()
        assert self.peak(lambda: recover_original(result)) <= self.ARRAY + self.SMALL
        assert np.array_equal(result.eigenvector, eigenvector)

    def test_compute_initials_holds_six_arrays(self):
        transformed = compute_h(models.bd_squares(self.N - 1)).transformed
        assert self.peak(lambda: compute_initials(transformed)) <= 6 * self.ARRAY + self.SMALL

    def test_identity_transform_holds_no_ones(self):
        system = models.bd_squares(self.N - 1)
        assert self.peak(lambda: compute_h(system)) <= self.SMALL

    def random_matrix(self):
        return np.random.default_rng(20170608).uniform(0.01, 1.0, (self.ORDER, self.ORDER))

    @pytest.mark.parametrize("family", ["toeplitz", "random"])
    def test_general_rqi_holds_three_matrices(self, family):
        # Q~, and the run's packed -Q~ and LU work array: Qc and the initials'
        # LU are gone before the run starts
        A = models.toeplitz_linear(self.ORDER) if family == "toeplitz" else self.random_matrix()
        assert self.peak(lambda: general_rqi(A)) <= 3 * self.MATRIX + self.SMALL

    def test_algorithm1_holds_two_matrices(self):
        # the packed -A and the LU work array
        A = self.random_matrix()
        assert self.peak(lambda: iterengine.algorithm1(A)) <= 2 * self.MATRIX + self.SMALL

    def test_algorithm2_on_the_band_holds_two_matrices(self):
        # lower Hessenberg, reversed onto a band of n + 2 rows: its packed -A and work array
        A = models.triangular_model(self.ORDER - 1)
        assert self.peak(lambda: iterengine.algorithm2(A, negate=True)) <= 2 * self.MATRIX + self.SMALL

    def test_h_transform_general_holds_one_matrix(self):
        qc, _ = shift_to_qc(models.toeplitz_linear(self.ORDER))
        h = solve_h_general(qc)
        assert self.peak(lambda: h_transform_general(qc, h)) <= self.MATRIX + self.SMALL


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


def _tiny_style(seed, order, killing_everywhere):
    """A killing-everywhere or killing-at-last generator, drawn as perfbench's tiny
    workload draws them: a, b and then c from U(0.5, 2)."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.5, 2.0, order - 1), rng.uniform(0.5, 2.0, order - 1)
    if killing_everywhere:
        c = rng.uniform(0.5, 2.0, order)
    else:
        c = np.zeros(order)
        c[-1] = rng.uniform(0.5, 2.0)
    return TridiagonalSystem.from_rates(a, b, c)


def _symmetric(seed, order):
    """A symmetric chain, a_{k+1} = b_k, killed only at the last state: b and
    then c[-1] drawn from U(0.5, 2)."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.5, 2.0, order - 1)
    c = np.zeros(order)
    c[-1] = rng.uniform(0.5, 2.0)
    return TridiagonalSystem.from_rates(b, b, c)


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

    # name -> (eigenvalue as float.hex, iterations, sha256 of trace z, residuals, eigenvector);
    # the words after seed and order are tridiag_rqi's options, one entry per
    # z0 branch, start vector and solver
    RQI = {
        "bd_squares order=10000": (
            "0x1.35d27f90a2d4dp-2", 3,
            "41df8c5f409cfc8d9a775288131163499af7df7c5f1cea5b5259856a51b8fc36"),
        "bd_squares order=1000000": (
            "0x1.1dd1cabef94fbp-2", 3,
            "801e06f415f5043064114ee6ce37ec1e45222b801c575db53375af17ec9d0065"),
        # symmetric chains (_symmetric): mu is all ones and the run unweighted
        "symmetric seed=7 order=100": (
            "0x1.0b65fb00605e0p-12", 3,
            "7e3f0055654ac97f39f57e1451b4fdd9c1a0d0063f8b1dd7b1ae7f5e234ee31d"),
        "symmetric seed=8 order=300 z0=safe": (
            "0x1.f7aee2c027a6bp-16", 2,
            "83c43c53f8073d39e338158bc94a7446f249831e3738770dc2677d00a0733765"),
        "symmetric seed=9 order=50 z0=delta1": (
            "0x1.15f859bf5096dp-10", 3,
            "0f791b138c3efbf6384de22066dd7ff6c51362e2580165351589941778d400e5"),
        "symmetric seed=10 order=64 z0=rayleigh v0=uniform": (
            "0x1.9ba902686f5e9p-8", 6,
            "924082e09747e683859b6d79212df3fa0b60e8bc7968fb64eb98743f2ea77e07"),
        "symmetric seed=11 order=40 solver=explicit": (
            "0x1.a8b806a73d79dp-10", 3,
            "c52530a2306b52a2755e36a660cbedb284f4f29aee4c98e43e2075c8bfe64acd"),
        "killing-at-last seed=1 order=16": (
            "0x1.18fd674022556p-7", 3,
            "c8cd8ae98b617e068728a6f425a59ba16d4d25d71ea84159d316bc8549263691"),
        "killing-at-last seed=2 order=64": (
            "0x1.79f4b6f0aac32p-20", 2,
            "665971c81069b1fb371a5d00519a4662f2827a46a8f2225654e4077ea7ba0e6a"),
        "killing-at-last seed=3 order=256": (
            "0x1.8739d80570abbp-31", 1,
            "acb601992e8596d5c8b7f74c5def8668c98dd7edafb9d6d06969fc1c326dd09c"),
        "killing-at-last seed=1 order=16 z0=safe": (
            "0x1.18fd67402256fp-7", 3,
            "11fb9bbdc4ae3d29327f2f36c77893fd577275d095b7bc3dd4408d8642263c77"),
        "killing-at-last seed=2 order=64 z0=safe": (
            "0x1.79f4b6f164a48p-20", 2,
            "8df8bce1db8fb81c76d503a5e1faac7c05523e1a05aafbb838200a0855af308f"),
        "killing-at-last seed=3 order=256 z0=safe": (
            "0x1.8739d91344f4fp-31", 2,
            "1e58fd6f5e09de2d572370cac95a0026be817e9c17ed5f761c57cc9f50e7a55e"),
        "killing-at-last seed=1 order=16 z0=delta1": (
            "0x1.18fd67402255bp-7", 3,
            "ce2e0da640944294996a4c9899195c57eb83ead1c036e890a53aa5698143b8ff"),
        "killing-at-last seed=2 order=64 z0=delta1": (
            "0x1.79f4b6f0b347fp-20", 2,
            "143617d0335c434a5f562026c05c565c2804ee32104da4503de55e8004197e63"),
        "killing-at-last seed=3 order=256 z0=delta1": (
            "0x1.8739d8a2c8e3ep-31", 1,
            "772180aa900b3f363e66407e911ebe37f953d1a1d2a096a57006675a7ed3b39b"),
        "killing-at-last seed=1 order=16 z0=rayleigh v0=uniform": (
            "0x1.eb3436f0409a2p-5", 6,
            "5e804c3e52937de02b05854444af5b07f98a6336ec74f5d3ff351212dc1642f1"),
        "killing-at-last seed=2 order=64 z0=rayleigh v0=uniform": (
            "0x1.79f4b6f0b347fp-20", 3,
            "4c2f88b8a62a58b30c2e15fa7b004abcac83281acb1b63eae2b4453672f1f02f"),
        "killing-at-last seed=3 order=256 z0=rayleigh v0=uniform": (
            "0x1.8739d98a638d8p-31", 2,
            "0888ebae3dd0127bbb316ee1a205c23c24f54c281c73082681d28c78769cce14"),
        "killing-at-last seed=1 order=16 solver=explicit": (
            "0x1.18fd674022545p-7", 3,
            "3d846779ad1bbe709bade62828ec8bbdff6e09f1fe69b2e8239c7607cbf5ac89"),
        "killing-at-last seed=2 order=64 solver=explicit": (
            "0x1.79f4b6f0f6d9cp-20", 2,
            "b00d040af3b4e70ca163de4404dfd44915cbee81dacc34bbda25d49bf2005638"),
        "killing-at-last seed=3 order=256 solver=explicit": (
            "0x1.8739d80260e91p-31", 1,
            "2fcaf6df7b1357bda31181d9c6d28bbbcd703dc6f9ab486b380d1ae1103a3053"),
        # killing everywhere (the tiny-style draws of _tiny_style): compute_h's
        # loop and the transformed system
        "killing-everywhere seed=1 order=12": (
            "0x1.3b47707a159ecp+0", 4,
            "428143399eec57986ae03c4891c023ce018e3e2491f756efa58d329936257288"),
        "killing-everywhere seed=4 order=64": (
            "0x1.fe78617682874p-1", 5,
            "6a48368a51f8a7c3d467f9bdd1256b234536f413a48b7b5ecd4ed64e7c9d8d2f"),
        "killing-everywhere seed=3 order=40 z0=safe": (
            "0x1.0faeda7a778cdp+0", 9,
            "8221d9699bdcd08fbbe7973faea05e3a4e191d07f7922842b37a2135a26dd047"),
        "killing-everywhere seed=2 order=27 z0=delta1": (
            "0x1.ef5f7096b8bd1p-1", 4,
            "0c6f78bb34ade9c6288566a28e6c751f779efb935a3464c17a9e7248329078a8"),
        "killing-everywhere seed=6 order=33 z0=rayleigh v0=uniform": (
            "0x1.c55c2189da0eap-1", 3,
            "7f7392fed961a1fce0ef5083f7871b095061a876cae1ab917ac4657797082f3c"),
        "killing-everywhere seed=5 order=8 solver=explicit": (
            "0x1.018bfdadf89a4p+0", 3,
            "cf4a24c6a0a283510ddee6737e4bf18e66ed593dbebabc12056259c3fec13001"),
    }

    # general_rqi on the dense form of a tiny-style generator, which takes the
    # recognised-tridiagonal route; its row sums leave roundoff killing in rows
    # a killing-at-last generator does not kill.  No BLAS kernel runs on it.
    DENSE_FORM = {
        "killing-everywhere seed=1 order=12": (
            "-0x1.3b47707a159eap+0", 4,
            "46ae793f4477121c4e6da36520bb4d04a3a98fbbc84f9ba7b887cc202bf671f4"),
        "killing-everywhere seed=2 order=27 z0=rayleigh v0=uniform": (
            "-0x1.89de3ad3a5516p+0", 5,
            "42e665176df41cb36ec6e010aea283aa7b67ac67f15d5c8cbf78c416560a3981"),
        "killing-everywhere seed=3 order=40": (
            "-0x1.0d6f6753960ecp+0", 5,
            "4317511682943682f29a45f98b4a7329e85b90f24a917b335505eff969434a6e"),
        "killing-at-last seed=5 order=20": (
            "-0x1.e792af51f8c95p-10", 3,
            "c0226675481539514fb0842591319817e4bd1f4edb0232c57805278bf8cbfd81"),
        "killing-at-last seed=6 order=50 z0=rayleigh v0=uniform": (
            "-0x1.40ca6a1b28926p-4", 4,
            "e3e9e529d5c905a9056072e184bf2bf1bbe7201636f3324e5a14b4f89a905b01"),
        "symmetric seed=7 order=100": (
            "-0x1.0b65fb006016cp-12", 3,
            "099193d13d1142baa8eb03fdb6de03796ca5a662f7039d09480b5c1051c13fdd"),
        "symmetric seed=12 order=30 z0=rayleigh v0=uniform": (
            "-0x1.8d0e4c70de104p-6", 5,
            "53264c1a23fd88197e59cda3fb2200f1b964dd704bec0c0219b3245cfda774a5"),
    }

    @staticmethod
    def parse(name):
        """(kind, seed, order, options) of a pinned run's name."""
        kind, *options = name.split()
        words = dict(part.split("=") for part in options)
        return kind, int(words.pop("seed", 0)), int(words.pop("order")), words

    @staticmethod
    def system(kind, seed, order):
        if kind == "bd_squares":
            return models.bd_squares(order - 1)
        if kind == "symmetric":
            return _symmetric(seed, order)
        if kind == "killing-everywhere":
            return _tiny_style(seed, order, True)
        return random_system(np.random.default_rng(seed), order - 1)

    @staticmethod
    def got(result, trace):
        return (float(result.eigenvalue).hex(), trace.iterations,
                _digest(trace.zs(), trace.residuals(), result.eigenvector))

    @pytest.mark.parametrize("name", sorted(RQI))
    def test_tridiag_rqi(self, name):
        kind, seed, order, words = self.parse(name)
        assert self.got(*tridiag_rqi(self.system(kind, seed, order), **words)) == self.RQI[name]

    @pytest.mark.parametrize("name", sorted(DENSE_FORM))
    def test_general_rqi_on_the_dense_form(self, name):
        kind, seed, order, words = self.parse(name)
        system = (_symmetric(seed, order) if kind == "symmetric"
                  else _tiny_style(seed, order, kind == "killing-everywhere"))
        assert self.got(*general_rqi(system.dense(), **words)) == self.DENSE_FORM[name]

    def test_power_iteration_on_a_tridiagonal_system(self):
        trace = iterengine.power_iteration(models.bd_squares(7), steps=200)
        assert _digest(trace.zs(), trace.residuals()) == (
            "bd24ff5ffbbe64f8ed2164ba762e0cbcdd1a99eb436fd1aed4dad88cc57f42c2")
