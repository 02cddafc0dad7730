"""Tridiagonal elimination, the banded and the dense LAPACK solves."""

import ctypes
import gc
import importlib.util
import math
import re
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxeig import general_init, iterengine, linsolve, models, tridiag
from maxeig.errors import InvalidInput, MaxIterationsExceeded, SolverBreakdown
from maxeig.linsolve import dense_solve, tridiag_solve
from maxeig.numat import TridiagonalSystem, _apply

from conftest import oracle_min_neg, random_system, scaled


def shifted_coeffs(system, z):
    """Coefficients of (-Q - zI) for a TridiagonalSystem."""
    lower = -system.a[1:]
    upper = -system.b[:-1]
    diag = (system.a + system.b + system.c) - z
    return lower, diag, upper


def record_solves(monkeypatch, run):
    """(solves, gesv_calls) of ``run``: (z, v, x) for each solve of
    linsolve._shifted_solver, x as the solve returned it, and one entry per
    call of linsolve._gesv.  A run that does not converge is recorded all
    the same."""
    solves, gesv_calls = [], []
    build, gesv_route = linsolve._shifted_solver, linsolve._gesv

    def shifted_solver(A):
        solve = build(A)

        def recorded(z, v):
            x = solve(z, v)
            solves.append((z, v.copy(), x.copy()))
            return x

        return recorded

    def counted_gesv(M, rhs):
        gesv_calls.append(M)
        return gesv_route(M, rhs)

    with monkeypatch.context() as mp:
        mp.setattr(linsolve, "_shifted_solver", shifted_solver)
        mp.setattr(linsolve, "_gesv", counted_gesv)
        try:
            run()
        except MaxIterationsExceeded:
            pass
    return solves, gesv_calls


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

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidInput, match="length n-1"):
            tridiag_solve([1.0], [2.0, 2.0, 2.0], [1.0, 1.0], np.ones(3))
        with pytest.raises(InvalidInput, match="length n-1"):
            tridiag_solve([1.0, 1.0], [2.0, 2.0, 2.0], [1.0], np.ones(3))
        with pytest.raises(InvalidInput, match="rhs length"):
            tridiag_solve([1.0, 1.0], [2.0, 2.0, 2.0], [1.0, 1.0], np.ones(2))

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
        # the solve works on copies: no argument is overwritten, contiguous or not
        assert all(np.array_equal(a, b) for a, b in zip(inputs, kept))
        assert all(np.array_equal(a, b) for a, b in zip(contiguous, kept))

    def test_exact_breakdown_raises(self):
        with pytest.raises(SolverBreakdown):
            tridiag_solve([0.0], [0.0, 1.0], [0.0], [1.0, 1.0])

    def test_tiny_pivot_solves_and_overflow_raises(self):
        # a pivot of 1e-40 is no breakdown: the finite solution comes back,
        # with a residual at roundoff of |M| |x| in every row
        M, rhs = np.array([[1e-40, 0.0], [1.0, 1.0]]), np.ones(2)
        x = tridiag_solve([1.0], [1e-40, 1.0], [0.0], rhs)
        assert x == pytest.approx([1e40, -1e40], rel=1e-15)
        assert (np.abs(M @ x - rhs) <= 2 * np.finfo(float).eps * (np.abs(M) @ np.abs(x))).all()
        with pytest.raises(SolverBreakdown):
            tridiag_solve([], [1e-29], [], [1e300])

    def test_a_pivot_of_1e_31_is_no_breakdown(self):
        x = tridiag_solve([0.0], [1e-31, 1.0], [0.0], [1.0, 1.0])
        assert np.array_equal(x, [1.0 / 1e-31, 1.0])


def shifted_tridiagonal(system, z, rhs):
    """tridiag_solve of (z I - Q) x = rhs, with the diagonals built from Q's rates."""
    return tridiag_solve(-system.a[1:], z - system.diagonal, -system.b[:-1], rhs)


class TestShiftedTridiagonalSolver:
    """linsolve._shifted_solver on a TridiagonalSystem: one set of dgtsv work
    arrays per run, refilled before each solve."""

    def test_equals_tridiag_solve_bitwise_over_repeated_shifts(self, rng):
        for system in (random_system(rng, 49, with_killing="all"), models.bd_squares(99)):
            solve = linsolve._shifted_solver(system)
            rhs = rng.normal(size=system.order)
            for z in (0.3, 1.7, 0.3, -0.2, 0.3):
                assert solve(z, rhs).tobytes() == shifted_tridiagonal(system, z, rhs).tobytes()

    def test_a_breakdown_leaves_the_next_shift_clean(self, rng):
        # unit rates and no killing: at z = 0 the last pivot is exactly zero
        system = TridiagonalSystem.from_rates(np.ones(4), np.ones(4), np.zeros(5))
        solve = linsolve._shifted_solver(system)
        rhs = rng.normal(size=system.order)
        with pytest.raises(SolverBreakdown):
            solve(0.0, rhs)
        assert solve(0.5, rhs).tobytes() == shifted_tridiagonal(system, 0.5, rhs).tobytes()

    def test_a_run_binds_dgtsv_once_and_keeps_no_solution(self, rng, monkeypatch):
        bound, prepare = [], linsolve._prepare

        def counted(name, *args):
            bound.append(name)
            return prepare(name, *args)

        monkeypatch.setattr(linsolve, "_prepare", counted)
        system = random_system(rng, 30, with_killing="all")
        solve = linsolve._shifted_solver(system)
        rhs = rng.normal(size=system.order)
        solutions = [weakref.ref(solve(z, rhs)) for z in (0.3, 1.7, -0.2, 0.3, 2.5)]
        assert bound == ["dgtsv"]
        # each solution is the caller's alone: the bound call does not keep it
        gc.collect()
        assert all(ref() is None for ref in solutions)


@st.composite
def scaled_solves(draw):
    """(chain, shift, right-hand side, k): a random chain of order 2 to 80 with
    killing at the last state only or everywhere, a shift within and around
    its spectrum, and a scale 2^-k far below the old pivot floor of 1e-30."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    system = random_system(rng, draw(st.integers(1, 79)),
                           with_killing=draw(st.sampled_from(["last", "all"])))
    z = draw(st.floats(-1.0, 5.0, allow_subnormal=False))
    return system, z, rng.normal(size=system.order), draw(st.sampled_from([100, 200, 460]))


class TestScaleEquivariance:
    """Only an exactly zero pivot or denominator, or a non-finite solution,
    stops a shifted solve; no pivot is compared with an absolute size.  So a
    system and shift scaled by 2^-k give the solution scaled by 2^k, bit for
    bit, down to rates of about 1e-139, where a floor of 1e-30 used to raise."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(scaled_solves())
    def test_the_shifted_solve_scales_bitwise(self, case):
        system, z, v, k = case
        x = linsolve._shifted_solver(system)(z, v)
        assert np.isfinite(x).all()
        small = linsolve._shifted_solver(scaled(system, k))(math.ldexp(z, -k), v)
        assert np.ldexp(small, -k).tobytes() == x.tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(scaled_solves())
    def test_the_closed_form_scales_bitwise(self, case):
        system, z, v, k = case
        transformed = tridiag.compute_h(system).transformed
        mu = tridiag.compute_initials(transformed).mu
        x = tridiag._closed_form_solver(transformed, mu)(z, v)
        assert np.isfinite(x).all()
        small = tridiag._closed_form_solver(scaled(transformed, k), mu)(math.ldexp(z, -k), v)
        assert np.ldexp(small, -k).tobytes() == x.tobytes()


def bits(x):
    """The bits of a float64 array, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(x).view(np.int64)


def wide_system(rng, n):
    """A random TridiagonalSystem of order n, rates from 1e-8 to 1e8, killing on half its rows."""
    a, b, c = (10.0 ** rng.uniform(-8, 8, size) for size in (n - 1, n - 1, n))
    return TridiagonalSystem.from_rates(a, b, c * (rng.random(n) < 0.5))


def wide_vector(rng, n):
    """Entries of either sign over 16 decades, a tenth of them zeros of either sign."""
    v = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, 8, n)
    zeros = rng.random(n) < 0.1
    v[zeros] = np.copysign(0.0, rng.choice([-1.0, 1.0], zeros.sum()))
    return v


class TestTridiagonalProduct:
    """linsolve._product on a TridiagonalSystem: LAPACK dlagtm, bound once per
    run, against numat._apply, the bitwise reference.

    dlagtm sums row i as ((0 + a v[i-1]) + diagonal v[i]) + b v[i+1] and
    _apply as (diagonal v[i] + a v[i-1]) + b v[i+1]: the same number, as
    IEEE addition commutes, but for the sign of a zero.  A row whose three
    terms are all -0.0 is -0.0 in _apply and +0.0 from dlagtm, whose sum
    starts at +0.0 and so never gives -0.0; every other row has the same
    bits.  So the product is _apply's result plus 0.0."""

    def test_equals_apply_bitwise_on_wide_random_systems(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 201))
            system, v = wide_system(rng, n), wide_vector(rng, n)
            assert np.array_equal(bits(linsolve._product(system)(v)), bits(_apply(system, v) + 0.0))

    @pytest.mark.parametrize("system", [models.bd_squares(10**5 - 1), "wide"])
    def test_equals_apply_bitwise_at_order_1e5(self, rng, system):
        system = wide_system(rng, 10**5) if system == "wide" else system
        product = linsolve._product(system)
        for v in (rng.random(system.order), wide_vector(rng, system.order)):
            assert np.array_equal(bits(product(v)), bits(_apply(system, v) + 0.0))

    def test_a_row_of_negative_zeros_comes_out_positive(self):
        # v = (-0, +0, -0, +0, ...): each odd row's terms a v[i-1], diagonal v[i]
        # and b v[i+1] are all -0.0 (a, b > 0, diagonal < 0), the even rows' +0.0
        system = models.bd_squares(6)
        v = np.copysign(np.zeros(7), [-1.0, 1.0] * 3 + [-1.0])
        applied = _apply(system, v)
        assert np.array_equal(np.signbit(applied), [False, True] * 3 + [False])
        product = linsolve._product(system)(v)
        assert not np.signbit(product).any()
        assert np.array_equal(bits(product), bits(applied + 0.0))

    def test_a_complex_vector_takes_apply(self, rng):
        system = wide_system(rng, 40)
        v = rng.normal(size=40) + 1j * rng.normal(size=40)
        assert linsolve._product(system)(v).tobytes() == _apply(system, v).tobytes()

    def test_a_dense_matrix_takes_apply(self, rng):
        A = rng.normal(size=(5, 5))
        v = rng.normal(size=5)
        assert linsolve._product(A)(v).tobytes() == (A @ v).tobytes()

    def test_a_strided_system_is_read_in_place(self, rng):
        # the system keeps contiguous copies of strided rates, which dlagtm reads
        a, b, c = (rng.uniform(0.5, 2.0, (9, 2))[:, 0] for _ in range(3))
        a[0] = b[-1] = 0.0
        system = TridiagonalSystem(a, b, c)
        assert all(x.flags.c_contiguous for x in (system.a, system.b, system.diagonal))
        v = rng.normal(size=9)
        assert np.array_equal(bits(linsolve._product(system)(v)), bits(_apply(system, v) + 0.0))

    @pytest.mark.parametrize("run", ["tridiag_rqi", "general_rqi", "power_iteration"])
    def test_a_run_binds_dlagtm_once_and_keeps_no_product(self, monkeypatch, run):
        bound, prepare = [], linsolve._prepare
        products, factory = [], linsolve._product

        def counted(name, *args, **kwargs):
            bound.append(name)
            return prepare(name, *args, **kwargs)

        def watched(A):
            product = factory(A)

            def kept(v):
                out = product(v)
                products.append(weakref.ref(out))
                return out

            return kept

        monkeypatch.setattr(linsolve, "_prepare", counted)
        monkeypatch.setattr(linsolve, "_product", watched)
        system = models.bd_squares(40)
        {"tridiag_rqi": lambda: tridiag.tridiag_rqi(system, z0="rayleigh"),
         "general_rqi": lambda: general_init.general_rqi(system, z0="rayleigh"),
         "power_iteration": lambda: iterengine.power_iteration(system, steps=5)}[run]()
        assert bound.count("dlagtm") == 1
        assert len(products) >= 4
        # each product is the caller's alone: the bound call does not keep it
        gc.collect()
        assert all(ref() is None for ref in products)

    def test_the_bind_passes_doubles_by_reference_and_reads_no_info(self, rng):
        # alpha = beta = -1 on a filled B (dlagtm reads 0 and +-1 only):
        # B := -A X - B, and no INFO to return
        system = random_system(rng, 9, with_killing="all")
        x, b = rng.normal(size=10), rng.normal(size=10)
        call = linsolve._prepare("dlagtm", b"N", 10, 1, -1.0, system.a[1:], system.diagonal,
                                 system.b[:-1], x, 10, -1.0, None, 10, info=False)
        out = b.copy()
        assert call(out) is None
        assert np.abs(out + (_apply(system, x) + b)).max() <= 1e-14 * np.abs(out).max()

    def test_a_strided_read_only_array_is_refused(self):
        strided = np.arange(10.0)[::2]
        strided.flags.writeable = False
        with pytest.raises(ValueError, match="C or Fortran order"):
            linsolve._address(strided)


class TestGuardsRaiseBeforeLapack:
    """LAPACK reads and writes through its pointers unchecked: each size and
    layout guard of a bound call raises before its routine runs.  Every
    routine is replaced by one that records its calls."""

    @pytest.fixture
    def ran(self, monkeypatch):
        calls = []
        for name in linsolve._ROUTINES:
            def routine(*pointers, name=name):
                calls.append(name)

            monkeypatch.setitem(linsolve._LAPACK, name, routine)
        return calls

    def test_a_vector_is_pointed_to_through_the_view_alone(self, ran):
        # a read-only, strided or Fortran-order vector is refused, not pointed to
        d = np.ones(3)
        read_only = np.ones(3)
        read_only.flags.writeable = False
        refused = (read_only, np.ones(6)[::2], np.ones((3, 2), order="F"))
        one = linsolve._prepare("dgtsv", 3, 1, np.zeros(2), d, np.zeros(2), None, 3)
        two = linsolve._prepare("dlagtm", b"N", 3, 1, 1.0, np.zeros(2), d, np.zeros(2), None, 3,
                                0.0, None, 3, info=False)
        for x in refused:
            with pytest.raises((TypeError, ValueError)):
                one(x)
            with pytest.raises((TypeError, ValueError)):
                two(np.ones(3), x)
            with pytest.raises((TypeError, ValueError)):
                two(x, np.empty(3))
        assert ran == []
        one(np.ones(3))
        two(np.ones(3), np.empty(3))
        assert ran == ["dgtsv", "dlagtm"]

    def test_a_factor_array_of_the_wrong_layout(self):
        for a, n, band in ((np.zeros((3, 3)), 3, ()), (np.zeros((3, 3), np.float32, order="F"), 3, ()),
                           (np.zeros((2, 3), order="F"), 3, ()),
                           (np.zeros((3, 5), order="F"), 5, (1, 1))):
            with pytest.raises(ValueError, match="LAPACK LU needs"):
                linsolve._check_layout(a, n, band)
        linsolve._check_layout(np.zeros((4, 5), order="F"), 5, (1, 1))

    def test_a_right_hand_side_of_another_order(self, ran):
        solve = linsolve._gtsv(np.zeros(2), np.ones(3), np.zeros(2))
        with pytest.raises(ValueError, match="dgtsv needs a right-hand side"):
            solve(np.ones(4))
        refactor = linsolve._lu(np.eye(3), 1)
        solve = refactor(2.0)
        assert ran == ["dgetrf"]
        for rhs in (np.ones(4), np.ones((2, 1))):
            with pytest.raises(ValueError, match="does not match the factored order"):
                solve(rhs)
        assert ran == ["dgetrf"]

    def test_a_product_vector_of_another_order(self, ran):
        product = linsolve._product(models.bd_squares(3))
        with pytest.raises(ValueError, match="dlagtm needs a vector"):
            product(np.ones(5))
        assert ran == []



class TestShiftedFullSolver:
    """linsolve._shifted_solver on a full real matrix: -A packed once, one
    work array refilled, shifted and factored by dgetrf/dgetrs per solve."""

    @pytest.mark.parametrize("n", [3, 40, 400])
    def test_equals_numpy_solve_bitwise(self, rng, n):
        A = rng.uniform(0.01, 1.0, (n, n))
        assert linsolve._band_route(A, linsolve._RUN_SOLVES) is None
        solve = linsolve._shifted_solver(A)
        v = rng.normal(size=n)
        for z in (0.3, -2.5, 0.3, float(n)):
            assert solve(z, v).tobytes() == np.linalg.solve(z * np.eye(n) - A, v).tobytes()

    def test_complex_shift_or_vector(self, rng, monkeypatch):
        # a complex z0 or v0 on a real matrix: rqi builds the solver on
        # A.astype(complex), and every solve of the run is gesv's, numpy's
        # solution of z I - A bit for bit
        n = 40
        A = rng.uniform(0.01, 1.0, (n, n))
        v = rng.normal(size=n)
        for z0, v0 in ((0.5 + 2j, v), (0.5, v + 1j), (0.5 + 2j, v + 1j)):
            solves, gesv_calls = record_solves(monkeypatch, lambda: iterengine.rqi(A, v0, z0))
            assert solves and len(gesv_calls) == len(solves)
            for z, rhs, x in solves:
                assert np.iscomplexobj(x)
                assert x.tobytes() == np.linalg.solve(z * np.eye(n) - A, rhs).tobytes()
        solve = linsolve._shifted_solver(A.astype(complex))
        assert solve(0.5 + 2j, v).tobytes() == np.linalg.solve((0.5 + 2j) * np.eye(n) - A, v).tobytes()
        solve = linsolve._shifted_solver(A)
        assert solve(0.5, v).tobytes() == np.linalg.solve(0.5 * np.eye(n) - A, v).tobytes()

    def test_exact_singular_shift_raises_and_the_next_shift_solves(self):
        # rank one: z I - A at z = 0 meets an exactly zero second pivot
        n = 50
        A = np.ones((n, n))
        solve = linsolve._shifted_solver(A)
        with pytest.raises(SolverBreakdown, match=r"^dgetrf: pivot at row 1 is exactly zero$"):
            solve(0.0, np.ones(n))
        x = solve(1.0, np.ones(n))
        assert np.abs((np.eye(n) - A) @ x - 1.0).max() <= 1e-12 * n


@st.composite
def lu_cases(draw):
    """(A, z, rhs, transpose, route) for linsolve._lu: -A diagonally dominant,
    so z I - A is well conditioned for z >= 0; ``route`` is "full", "band"
    (a band of at most 3 sub- and super-diagonals) or "reversed" (more
    sub- than super-diagonals, run on the reversed order)."""
    route = draw(st.sampled_from(["full", "band", "reversed"]))
    n = draw(st.integers(2, 60) if route == "full" else st.integers(8, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.uniform(-1.0, 1.0, (n, n))
    if route != "full":
        ku = draw(st.integers(0, 2))
        kl = draw(st.integers(ku + 1, 3) if route == "reversed" else st.integers(0, ku))
        A = np.triu(np.tril(A, ku), -kl)
    np.fill_diagonal(A, 0.0)
    A -= np.diag(np.abs(A).sum(axis=1) + 1.0)
    z = draw(st.sampled_from([0.0, 2.5]))
    rhs = rng.normal(size=n if draw(st.booleans()) else (n, 2))
    return A, z, rhs, draw(st.booleans()), route


class TestLuSolver:
    """linsolve._lu: one factorisation of z I - A, solves with it and its transpose."""

    def matrices(self, rng):
        n = 300
        upper = np.triu(rng.uniform(0.1, 1.0, (n, n)), -1) + n * np.eye(n)
        return (rng.uniform(0.01, 1.0, (80, 80)) + 80 * np.eye(80),   # full
                models.poisson_block(15) - 10 * np.eye(225),           # band
                upper.T.copy())                                        # band, reversed

    def test_solves_with_a_and_its_transpose(self, rng):
        # at z = 0 the solves are with -A
        for A in self.matrices(rng):
            n = len(A)
            solve = linsolve._lu(A, 3)(0.0)
            rhs = rng.normal(size=(n, 2))
            for transpose, M in ((False, A), (True, A.T)):
                x, y = solve(rhs, transpose), np.linalg.solve(-M, rhs)
                assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max()
                x = solve(rhs[:, 0], transpose)
                assert np.abs(x - y[:, 0]).max() <= 1e-12 * np.abs(y).max()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(lu_cases())
    def test_matches_numpy_solve(self, case):
        # bitwise on the full route without transpose: dgetrf then dgetrs is
        # numpy's gesv (orders below 100, where OpenBLAS threads neither)
        A, z, rhs, transpose, route = case
        with pytest.MonkeyPatch.context() as mp:
            # the band route at every order the flop rule allows
            mp.setattr(linsolve, "_BAND_FIXED", 0)
            mp.setattr(linsolve, "_BAND_ENTRY", 0)
            taken = linsolve._band_route(A, 1)
            x = linsolve._lu(A, 1)(z)(rhs, transpose)
        assert (None if taken is None else taken[2]) == \
            {"full": None, "band": False, "reversed": True}[route]
        shifted = z * np.eye(len(A)) - A
        y = np.linalg.solve(shifted.T if transpose else shifted, rhs)
        if route == "full" and not transpose:
            assert x.tobytes() == y.tobytes()
        else:
            assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max()

    def test_routes(self, rng):
        full, band, reversed_band = self.matrices(rng)
        assert linsolve._band_route(full, 3) is None
        assert linsolve._band_route(band, 3) == (15, 15, False)
        assert linsolve._band_route(reversed_band, 3) == (1, 299, True)


def import_linsolve_afresh():
    """Run the linsolve module's code again, as a new module, the way an import does."""
    spec = importlib.util.spec_from_file_location("maxeig._linsolve_afresh", linsolve.__file__)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_lapack_comes_from_one_export_family_or_none(monkeypatch):
    # a family that lacks one of the six routines gives none of them, and
    # without a complete family the import fails, naming what each lacks
    names = [pattern.format(routine) for pattern, _ in linsolve._LAPACK_EXPORTS
             for routine in linsolve._ROUTINES]
    fake = types.SimpleNamespace(**{name: object() for name in names})
    monkeypatch.setattr(ctypes, "CDLL", lambda path: fake)
    (first, first_int), (second, second_int), (third, _) = linsolve._LAPACK_EXPORTS
    export, routines, int_t = linsolve._load_lapack()
    assert (export, int_t, sorted(routines)) == (first, first_int, sorted(linsolve._ROUTINES))
    delattr(fake, first.format("dgbtrs"))
    export, routines, int_t = linsolve._load_lapack()
    assert (export, int_t) == (second, second_int)
    assert routines["dgtsv"] is getattr(fake, second.format("dgtsv"))
    delattr(fake, second.format("dgtsv"))
    delattr(fake, third.format("dgetrf"))
    delattr(fake, third.format("dlagtm"))
    lacks = f"{first} lacks dgbtrs; {second} lacks dgtsv; {third} lacks dgetrf, dlagtm"
    with pytest.raises(ImportError) as raised:
        linsolve._load_lapack()
    assert str(raised.value).endswith(lacks)
    assert all(pattern in str(raised.value) for pattern, _ in linsolve._LAPACK_EXPORTS)
    assert all(routine in str(raised.value) for routine in linsolve._ROUTINES)
    with pytest.raises(ImportError, match=re.escape(lacks)):
        import_linsolve_afresh()


def test_a_linalg_library_that_cannot_be_opened_fails_the_import(monkeypatch):
    def refuse(path):
        raise OSError(f"{path}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", refuse)
    with pytest.raises(ImportError, match="^maxeig needs the LAPACK library numpy.linalg links: "):
        import_linsolve_afresh()


def _tridiagonal_with_zero_column(n=60):
    A = 2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    A[:, n // 2] = 0.0
    return A


BREAKDOWNS = [
    (lambda: tridiag_solve([1.0], [1.0, 1.0], [1.0], [1.0, 2.0]),
     r"^dgtsv: pivot at row 1 is exactly zero$"),
    (lambda: tridiag_solve([0.0], [1e-20, 1.0], [0.0], [1e300, 1.0]),
     r"^dgtsv returned a non-finite solution$"),
    (lambda: dense_solve(_tridiagonal_with_zero_column(), np.ones(60)),
     r"^dgbtrf: pivot at row 30 is exactly zero$"),
    (lambda: dense_solve(np.diag([1e-20] + [1.0] * 59), np.r_[1e300, np.ones(59)]),
     r"^dgbtrs returned a non-finite solution$"),
    (lambda: dense_solve(np.zeros((3, 3)), np.ones(3)), r"^dgetrf: pivot at row 0 is exactly zero$"),
    (lambda: dense_solve(np.diag([1e-20, 1.0, 1.0]), [1e300, 1.0, 1.0]),
     r"^dgetrs returned a non-finite solution$"),
    # gesv serves complex input
    (lambda: dense_solve(np.zeros((3, 3), complex), np.ones(3)), r"^gesv: Singular matrix$"),
    (lambda: dense_solve(np.diag([1e-20, 1.0, 1.0]), [1e300, 1.0, 1j]),
     r"^gesv returned a non-finite solution$"),
]


@pytest.mark.parametrize("solve, message", BREAKDOWNS, ids=[m.strip("^$") for _, m in BREAKDOWNS])
def test_each_breakdown_names_its_routine(solve, message):
    with pytest.raises(SolverBreakdown, match=message):
        solve()


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


BANDS = ((0, 0), (0, 3), (2, 0), (1, 1), (20, 20))


def random_band(rng, n, kl, ku, symmetric=False):
    """A random real n x n matrix with kl sub- and ku super-diagonals, diagonally dominant."""
    A = rng.normal(size=(n, n))
    if symmetric:
        A = A + A.T
    A = np.triu(np.tril(A, ku), -kl)
    return A + np.diag(np.abs(A).sum(axis=1) + 1.0)


def gesv(A, rhs):
    return np.linalg.solve(A, rhs)


class TestBandedSolve:
    """dense_solve and the dense shifted solver on banded input, against gesv.

    The band's fixed and packing costs are set to zero here, so that the
    band route is open at every order the flop rule allows, orders 1 and
    2 included.
    """

    band = True   # whether the band route is expected to run

    @pytest.fixture(autouse=True)
    def band_at_every_order(self, monkeypatch):
        monkeypatch.setattr(linsolve, "_BAND_FIXED", 0)
        monkeypatch.setattr(linsolve, "_BAND_ENTRY", 0)

    def assert_route(self, A, reverse=None):
        route = linsolve._band_route(A, 1)
        assert (route is not None) == self.band
        if self.band and reverse is not None:
            assert route[2] == reverse

    def test_bandwidths_of_edge_cases(self):
        assert linsolve._bandwidths(np.zeros((1, 1))) == (0, 0)
        assert linsolve._bandwidths(np.ones((1, 1))) == (0, 0)
        assert linsolve._bandwidths(np.zeros((2, 2))) == (0, 0)
        assert linsolve._bandwidths(np.array([[0.0, 1.0], [0.0, 0.0]])) == (0, 1)
        assert linsolve._bandwidths(np.ones((5, 5))) == (4, 4)
        A = np.diag(np.ones(6)) + np.diag(np.ones(3), -3) + np.diag(np.ones(4), 2)
        A[2] = 0.0   # a zero row widens nothing
        assert linsolve._bandwidths(A) == (3, 2)

    def test_random_bands_agree_with_gesv(self, rng):
        for n in (1, 2, 5, 17, 80, 200):
            for kl, ku in BANDS:
                if max(kl, ku) >= n:
                    continue
                A = random_band(rng, n, kl, ku)
                rhs = rng.normal(size=n)
                x, y = dense_solve(A, rhs), gesv(A, rhs)
                assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max()
        self.assert_route(random_band(rng, 80, 20, 20))

    def test_nearly_singular_shifts_agree_with_gesv(self, rng):
        n = 80
        for kl, ku in BANDS:
            A = random_band(rng, n, kl, ku, symmetric=kl == ku)
            lam = np.linalg.eigvals(A).real.min()   # real: triangular or symmetric
            z = lam * (1.0 - 1e-9)
            solve = linsolve._shifted_solver(A)
            rhs = rng.normal(size=n)
            x, y = solve(z, rhs), gesv(z * np.eye(n) - A, rhs)
            # the direction is what RQI uses; the length carries the condition
            # number, about 1e9 here, times eps
            assert np.abs(x / np.linalg.norm(x) - y / np.linalg.norm(y)).max() <= 1e-12
            assert np.abs(x - y).max() <= 1e-6 * np.abs(y).max()
            self.assert_route(A)

    def test_hessenberg_runs_reversed_when_lower(self, rng):
        n = 60
        upper = np.triu(rng.uniform(0.1, 1.0, (n, n)), -1) + n * np.eye(n)
        for A, reverse in ((upper, False), (upper.T.copy(), True)):
            self.assert_route(A, reverse)
            if self.band:
                assert linsolve._band_route(A, 1)[:2] == (1, n - 1)
            rhs = rng.normal(size=n)
            x, y = dense_solve(A, rhs), gesv(A, rhs)
            assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max()
            for z in (0.0, 2.5):
                x, y = linsolve._shifted_solver(A)(z, rhs), gesv(z * np.eye(n) - A, rhs)
                assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max()

    def test_orders_one_and_two(self):
        assert dense_solve([[4.0]], [2.0])[0] == 0.5
        x = dense_solve([[2.0, 1.0], [0.0, 4.0]], [3.0, 4.0])
        assert np.allclose(x, [1.0, 1.0], rtol=0, atol=1e-15)
        self.assert_route(np.array([[2.0, 1.0], [0.0, 4.0]]), reverse=False)
        self.assert_route(np.array([[2.0, 0.0], [1.0, 4.0]]), reverse=True)
        with pytest.raises(SolverBreakdown):
            dense_solve([[0.0]], [1.0])
        with pytest.raises(SolverBreakdown):
            dense_solve(np.zeros((2, 2)), [1.0, 1.0])

    def test_exact_singular_shift_raises(self):
        n = 50
        A = np.diag(np.arange(1.0, n + 1.0)) + np.diag(np.ones(n - 1), 1)
        self.assert_route(A)
        solve = linsolve._shifted_solver(A)
        with pytest.raises(SolverBreakdown):
            solve(7.0, np.ones(n))
        # the work band is refilled: the next shift solves cleanly
        x = solve(7.5, np.ones(n))
        assert np.abs((7.5 * np.eye(n) - A) @ x - 1.0).max() <= 1e-12

    def test_full_and_complex_input_stay_on_gesv(self, rng):
        n = 60
        assert linsolve._band_route(rng.normal(size=(n, n)), 1) is None
        assert linsolve._band_route(models.toeplitz_linear(n), 1) is None
        C = random_band(rng, n, 1, 1) + 1j * np.diag(rng.normal(size=n))
        assert linsolve._band_route(C, 1) is None
        rhs = rng.normal(size=n).astype(complex)
        assert np.abs(C @ dense_solve(C, rhs) - rhs).max() <= 1e-12 * n

    def test_complex_rhs_or_shift_on_a_real_band(self, rng, monkeypatch):
        # the band holds real numbers: a complex right-hand side takes gesv,
        # and so does every solve of an rqi run from a complex shift or start,
        # on A.astype(complex); none loses an imaginary part
        n = 60
        for A in (random_band(rng, n, 2, 3), np.triu(random_band(rng, n, n - 1, n - 1), -1).T):
            self.assert_route(A)
            rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
            x, y = dense_solve(A, rhs), gesv(A, rhs)
            assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max()
            for z0, v0 in ((0.5 + 2j, rhs.real.copy()), (0.5, rhs), (0.5 + 2j, rhs)):
                solves, gesv_calls = record_solves(monkeypatch, lambda: iterengine.rqi(A, v0, z0))
                assert solves and len(gesv_calls) == len(solves)
                for z, v, x in solves:
                    assert np.iscomplexobj(x)
                    assert x.tobytes() == gesv(z * np.eye(n) - A, v).tobytes()
            # a real shift on the real matrix takes the band or the full LU
            x, y = linsolve._shifted_solver(A)(0.5, rhs.real.copy()), gesv(0.5 * np.eye(n) - A, rhs.real)
            assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max()

    def test_rqi_from_a_complex_shift_on_a_real_band(self, rng):
        # a complex z0 or v0 on real banded input runs as on gesv
        n = 80
        A = random_band(rng, n, 2, 2, symmetric=True)
        self.assert_route(A)
        lam = np.linalg.eigvalsh(A)
        v0 = np.ones(n)
        for z0, start in ((lam[0] + 0.1j, v0), (lam[0] + 0.1, v0 + 0.5j)):
            result, _ = iterengine.rqi(A, start, z0)
            assert abs(result.eigenvalue - lam[np.abs(lam - result.eigenvalue).argmin()]) <= 1e-10 * abs(lam).max()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(linsolve, "_BAND_FIXED", math.inf)
                reference, _ = iterengine.rqi(A, start, z0)
            assert abs(result.eigenvalue - reference.eigenvalue) <= 1e-12 * abs(reference.eigenvalue)


class TestBandedSolveFallback(TestBandedSolve):
    """Every TestBandedSolve case again, on the full LU that the cost rule
    picks when the band does not pay."""

    band = False

    @pytest.fixture(autouse=True)
    def band_at_every_order(self, monkeypatch):
        # in place of TestBandedSolve's fixture: no order pays for the band
        monkeypatch.setattr(linsolve, "_BAND_FIXED", math.inf)


def tridiagonal(n):
    return np.eye(n) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)


def upper_hessenberg(n):
    return np.triu(np.ones((n, n)), -1) + n * np.eye(n)


def test_band_rule_takes_small_orders_to_gesv():
    # a run of shifted solves (_RUN_SOLVES) shares the packing, so it takes
    # the band at lower orders than a single solve
    runs = linsolve._RUN_SOLVES
    for A in (tridiagonal(3), tridiagonal(43), models.poisson_block(8),
              upper_hessenberg(159), models.triangular_model(158)):
        assert linsolve._band_route(A, runs) is None
    for A in (tridiagonal(54), models.poisson_block(11), upper_hessenberg(607)):
        assert linsolve._band_route(A, 1) is None
    assert linsolve._band_route(tridiagonal(44), runs) == (1, 1, False)
    assert linsolve._band_route(tridiagonal(55), 1) == (1, 1, False)
    assert linsolve._band_route(models.poisson_block(9), runs) == (9, 9, False)
    assert linsolve._band_route(models.poisson_block(12), 1) == (12, 12, False)
    assert linsolve._band_route(models.triangular_model(159), runs) == (1, 159, True)
    assert linsolve._band_route(models.branching_model(160), runs) == (1, 159, False)
    assert linsolve._band_route(upper_hessenberg(608), 1) == (1, 607, False)


def test_shifted_runs_take_the_band_sooner_than_single_solves(monkeypatch):
    storage, bands = linsolve._band_storage, []
    monkeypatch.setattr(linsolve, "_band_storage",
                        lambda A, kl, ku, reverse: bands.append((kl, ku)) or storage(A, kl, ku, reverse))
    A, rhs = models.branching_model(160), np.ones(160)
    dense_solve(A, rhs)
    assert bands == []
    linsolve._shifted_solver(A)(0.5, rhs)
    assert bands == [(1, 159)]


@pytest.mark.parametrize("name", ["triangular", "branching", "grid"])
def test_dgbsv_and_gesv_paths_give_one_eigenvalue(name, monkeypatch):
    # at order 400 the triangular paths differ by 2.6e-12, within tol_z: the
    # reversed pivot order changes the rounding, and the band's value lies
    # nearer the eig oracle's
    run = {
        "triangular": lambda: iterengine.algorithm2(models.triangular_model(199), negate=True),
        "branching": lambda: iterengine.algorithm2(models.branching_model(200), negate=True),
        "grid": lambda: general_init.general_rqi(models.poisson_block(15)),
    }[name]
    band = run()[0].eigenvalue
    monkeypatch.setattr(linsolve, "_BAND_FIXED", math.inf)
    full = run()[0].eigenvalue
    assert abs(band - full) <= 1e-12 * abs(full)
