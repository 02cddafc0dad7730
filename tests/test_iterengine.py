"""Power iteration, RQI, and the two global algorithms."""

import contextlib
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxeig import iterengine, linsolve, models, numat, tridiag
from maxeig.errors import InvalidInput, MaxeigError, SolverBreakdown
from maxeig.general_init import general_rqi
from maxeig.iterengine import (
    C_FLOOR,
    DEFAULT_TOL_Z,
    _EPS,
    algorithm1,
    algorithm2,
    power_iteration,
    rqi,
    run_shifted_iteration,
    _l1_norm,
    _l2_norm,
    _max_ratio_update,
    _rayleigh_update,
    _relative_residual,
    _shift_tolerance,
    _sign_fix,
)
from maxeig.numat import TridiagonalSystem, matrix_scale
from maxeig.tridiag import _mu_norm, tridiag_rqi

from conftest import (count_calls, fail_if_called, oracle_eigenvalues, oracle_max_pair,
                      oracle_min_neg)


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

    def test_a_vanishing_iterate_is_invalid_before_any_division(self):
        # A v_1 = 0 for the nilpotent matrix; the zero matrix already at step 0
        for A, step in (([[0.0, 1.0], [0.0, 0.0]], 1), (np.zeros((3, 3)), 0)):
            with pytest.raises(InvalidInput, match=f"A v_{step} = 0 at step {step}"):
                power_iteration(A)

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

    def test_zero_start_rejected(self):
        # named before the start is divided by its norm, with no numpy warning
        with pytest.raises(InvalidInput, match="start vector v0 has norm 0"):
            power_iteration(np.eye(3), v0=np.zeros(3), steps=2)

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_an_overflowing_iterate_is_invalid(self, norm):
        # ||A v_0|| overflows to inf, and dividing by it would leave a zero iterate:
        # the step checks that scalar, not the iterate, and numpy warns of nothing
        with pytest.raises(InvalidInput, match=r"\|\|A v_0\|\| = inf at step 0: .*overflowed"):
            power_iteration(np.full((2, 2), 1e308), norm=norm, steps=3)


class TestRqi:
    # the last five are of the wrong type, an input error and not a TypeError
    @pytest.mark.parametrize("opts", [{"tol_z": -1.0}, {"tol_z": np.nan}, {"tol_residual": -1e-8},
                                      {"tol_residual": np.nan}, {"max_iterations": 0},
                                      {"max_iterations": -1}, {"tol_z": "1e-3"},
                                      {"tol_residual": None}, {"max_iterations": 2.5},
                                      {"z0": None}, {"z0": "x"}])
    def test_unreachable_tolerances_and_budgets_rejected(self, opts):
        A = np.diag([2.0, 1.0])
        with pytest.raises(InvalidInput):
            rqi(A, [1.0, 0.5], **{"z0": 2.5, **opts})


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

    def test_zero_start_rejected(self):
        # named before the start is divided by its norm, with no numpy warning
        with pytest.raises(InvalidInput, match="start vector v0 has norm 0"):
            rqi(np.eye(3), np.zeros(3), 0.5)

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


@pytest.mark.parametrize("opts", [{"z0": "x"}, {"tol_z": "1e-3"}, {"max_iterations": 2.5}])
@pytest.mark.parametrize("method", [algorithm1, algorithm2])
def test_options_of_the_wrong_type_are_invalid(method, opts):
    # z0=None is the automatic shift; a name is not a shift
    with pytest.raises(InvalidInput):
        method(models.negative3(), **opts)


_finite = st.floats(-1e150, 1e150, allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_finite, _finite), min_size=1, max_size=64), st.booleans())
def test_l2_norm_is_numpy_norm_bitwise(pairs, is_complex):
    re, im = np.array(pairs).T      # strided views
    v = re + 1j * im if is_complex else re
    for u in (v, np.ascontiguousarray(v), v[::-1]):
        assert np.float64(_l2_norm(u, None)).tobytes() == np.linalg.norm(u).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(_finite, min_size=1, max_size=300))
def test_rayleigh_denominator_is_the_l2_norms_square_bitwise(entries):
    # the driver takes ||v|| of a real l2 run from the Rayleigh update
    v = np.array(entries + [1.0])
    z, size = _rayleigh_update(v, v[::-1].copy())
    assert np.float64(size).tobytes() == np.float64(_l2_norm(v, None)).tobytes()


def test_rayleigh_update_of_a_complex_run_shares_no_norm():
    # every update returns the pair (z, ||v|| or None): the complex quotient
    # and the max ratio give no norm
    v = np.array([1.0 + 1j, 0.5])
    z, size = _rayleigh_update(v, 2.0 * v)
    assert z == pytest.approx(2.0) and size is None
    assert _max_ratio_update(np.array([1.0, 0.5]), np.array([2.0, 3.0])) == (6.0, None)


_ties = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 5e-324, -5e-324])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_ties, st.floats(-1e300, 1e300)), min_size=1, max_size=40))
def test_sign_fix_pivot_is_argmax_of_abs(entries):
    # a real iterate is flipped as when the pivot is v[argmax(|v|)]: the larger
    # magnitude, on a tie of opposite signs the lower index; -0.0 is no sign
    v = np.array(entries)
    pivot = v[np.abs(v).argmax()]
    expected = v if pivot == 0 or pivot > 0 else -v
    assert _sign_fix(v.copy(), np.empty(len(v))).tobytes() == expected.tobytes()


@pytest.mark.parametrize("method, per_step", [(algorithm1, 2), (algorithm2, 3)])
def test_the_driver_takes_each_iterates_norm_once(monkeypatch, method, per_step):
    # the solve's output and the residual; the Rayleigh update's denominator is
    # ||v||^2, the max-ratio update has none.  At the start also v0 and ||v0||
    calls = count_calls(monkeypatch, iterengine, "_l2_norm")
    _, trace = method(np.random.default_rng(3).uniform(0.01, 1.0, (30, 30)))
    assert len(calls) == 3 + per_step * trace.iterations


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_finite, _finite), min_size=1, max_size=64), st.booleans(),
       st.booleans())
def test_l1_norm_is_numpy_abs_sum_bitwise(pairs, is_complex, complex_run):
    # formed in the scratch array on a real run, a real or complex vector, also
    # when the vector is the scratch itself, as the residual is
    re, im = np.array(pairs).T      # strided views
    v = re + 1j * im if is_complex else re
    kind = complex if is_complex or complex_run else float
    for u in (v, np.ascontiguousarray(v), v[::-1], v.astype(kind)):
        expected = np.float64(np.abs(u).sum()).tobytes()
        assert np.float64(_l1_norm(u, np.empty(len(u), kind))).tobytes() == expected
    assert np.float64(_l1_norm(u, u)).tobytes() == expected


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNormsOutOfRange:
    """The l2 norm and the mu-norm are plain: inf where the squares overflow
    and 0 where they all underflow.  The driver, and power iteration for its
    ||A v||, take a norm of 0 or inf on a finite, nonzero vector again on the
    vector scaled by 2^600 or 2^-600; no numpy warning on the way."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=32), st.booleans())
    def test_l2_norm_is_numpy_norm_over_the_whole_range(self, entries, is_complex):
        # numpy's norm bit for bit, inf where the squares overflow, NaN propagated
        v = np.array(entries)
        if is_complex:
            v = v + np.zeros(len(v), complex)
            v.imag = v.real[::-1]
        with np.errstate(over="ignore", invalid="ignore"):
            expected = float(np.linalg.norm(v))
        got = _l2_norm(v, None)
        if np.isnan(expected):
            assert np.isnan(got)
        else:
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_l2_norm_of_huge_entries_is_inf(self):
        assert _l2_norm(np.array([1e150, 1.0]), None) == 1e150
        assert _l2_norm(np.array([1e200, 1.0]), None) == np.inf
        assert _l2_norm(np.array([3e200, 4e200 + 0j]), None) == np.inf
        assert _l2_norm(np.array([np.inf, 1.0]), None) == np.inf
        assert np.isnan(_l2_norm(np.array([np.nan, 1e300]), None))

    def test_mu_norm_is_plain(self):
        # a weighted run ignores numpy's overflow flag, as tridiag's runs do
        with np.errstate(over="ignore"):
            assert _mu_norm(None, np.array([1e200, 1.0]), np.empty(2)) == np.inf
            assert _mu_norm(np.array([4.0, 1.0]), np.array([1e150, 1.0]), np.empty(2)) == 2e150
        assert _mu_norm(np.array([4.0, 1.0]), np.array([1e-170, 1e-180]), np.empty(2)) == 0.0

    MU = np.array([4.0, 1.0])
    DRIVER_NORMS = {"l2": (_l2_norm, _rayleigh_update, 1.0),
                    "mu None": (partial(_mu_norm, None), partial(tridiag._rayleigh, None), 1.0),
                    "weighted": (partial(_mu_norm, MU), partial(tridiag._rayleigh, MU), 0.5)}

    @pytest.mark.parametrize("name", DRIVER_NORMS)
    def test_a_solve_output_whose_norm_overflows_is_scaled(self, name):
        # entries near 1e200 square past the largest double, so the norm is inf:
        # the driver scales the output by 2^-600 and normalises it.  The mu-norm
        # runs as a weighted run does, with numpy's overflow flag ignored
        norm, update, peak = self.DRIVER_NORMS[name]
        A = np.diag([2.0, 1.0])
        with contextlib.nullcontext() if name == "l2" else np.errstate(over="ignore"):
            _, v, _ = run_shifted_iteration(A, lambda z, v: np.array([1e200, 1e180]),
                                            [1.0, 0.5], 2.5, z_update=update, norm=norm,
                                            max_iterations=2)
        assert v[0] == peak and v[1] == pytest.approx(peak * 1e-20, rel=1e-14)
        assert norm(v, np.empty(2)) == pytest.approx(1.0, rel=1e-15)

    def test_algorithm1_on_an_entry_past_1e154(self):
        # A v0 - z0 v0 overflowed the squares of the first residual, and the
        # retried solve's output, of entries near 1e-188, underflowed them to 0
        result, trace = algorithm1(np.diag([1e200, 1.0]))
        assert trace.termination == "converged"
        assert result.eigenvalue == 1e200
        assert result.eigenvector[0] == 1.0 and 0.0 < result.eigenvector[1] < 1e-11
        assert np.isfinite(trace.residuals()).all()

    @pytest.mark.parametrize("method", [algorithm2, lambda A: rqi(A, [1.0, 1.0], 2e200)])
    def test_other_dense_methods_on_an_entry_past_1e154(self, method):
        result, _ = method(np.diag([1e200, 1.0]))
        assert result.eigenvalue == 1e200

    @pytest.mark.parametrize("method", [algorithm1, algorithm2])
    def test_a_start_ratio_past_the_largest_double_is_no_shift(self, method):
        # max(A v0 / v0) overflows to inf: refused as a shift, with no numpy warning
        with pytest.raises(InvalidInput, match="z0 must be finite"):
            method(np.full((2, 2), 1e308))

    def test_power_iteration_on_an_entry_past_1e154(self):
        trace = power_iteration(np.diag([1e200, 1.0]), norm="l2", steps=5)
        assert trace.zs()[0] == pytest.approx(1e200 / np.sqrt(2.0), rel=1e-15)
        assert trace.zs()[-1] == 1e200

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_algorithm1_residual_below_1e154_does_not_underflow(self):
        # A v0 - z0 v0 = (0, -9e-201) / sqrt(2): its square underflowed, and the
        # residual of 0 accepted the uniform start as converged at step 0
        result, trace = algorithm1(np.diag([1e-200, 1e-201]))
        assert trace.residuals()[0] == pytest.approx(0.9 / np.sqrt(2.0), rel=1e-14)
        assert trace.iterations > 0 and result.residual <= iterengine.DEFAULT_TOL_RESIDUAL

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_power_iteration_below_1e154(self):
        # ||A v_0||_2 underflowed to 0, which read as A v_0 = 0
        trace = power_iteration(np.diag([1e-200, 1e-201]), norm="l2", steps=40)
        assert trace.zs()[0] == pytest.approx(1.01e-200 / np.sqrt(2.0), rel=1e-14)
        assert trace.zs()[-1] == pytest.approx(1e-200, rel=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("norm", [_l2_norm, lambda v, work: _mu_norm(None, v, work),
                                      lambda v, work: _mu_norm(np.arange(1.0, 9.0), v, work)])
    def test_a_residual_below_1e154_is_taken_at_scale(self, norm):
        # the mu-norm squares the residual in place of it, so it is formed anew
        rng = np.random.default_rng(1)
        v, av = rng.uniform(0.5, 2.0, 8), rng.uniform(0.5, 2.0, 8)
        at_one = _relative_residual(norm, av, 0.75, v, 3.0, np.empty(8))
        tiny = _relative_residual(norm, av * 2.0**-700, 0.75 * 2.0**-700, v, 3.0 * 2.0**-700,
                                  np.empty(8))
        assert tiny == pytest.approx(at_one, rel=1e-15)
        assert _relative_residual(norm, 0.75 * v, 0.75, v, 3.0, np.empty(8)) == 0.0

    def test_a_solve_output_whose_norm_underflows_is_scaled(self):
        # entries of 1e-170 square to 0: the output is scaled by 2^600 and normalised
        A = np.diag([2.0, 1.0])
        _, v, _ = run_shifted_iteration(A, lambda z, v: np.array([1e-170, 1e-190]),
                                        [1.0, 0.5], 2.5, z_update=_rayleigh_update,
                                        norm=_l2_norm, max_iterations=2)
        assert v[0] == 1.0 and v[1] == pytest.approx(1e-20, rel=1e-14)


@pytest.mark.parametrize("steps", [2.5, None, "3", np.float64(3.0)])
def test_power_iteration_takes_an_integer_number_of_steps(steps):
    with pytest.raises(InvalidInput, match="steps must be a nonnegative integer"):
        power_iteration(np.eye(2), steps=steps)
    assert power_iteration(np.eye(2), steps=np.int64(3)).iterations == 3


@pytest.mark.parametrize("opts", [{"tol_z": "1e-3"}, {"tol_residual": None},
                                  {"max_iterations": 2.5}, {"z0": "x"}])
@pytest.mark.parametrize("method", ["rqi", "algorithm1", "algorithm2"])
def test_options_are_checked_before_the_matrix_is_read(monkeypatch, method, opts):
    # a wrong option is reported before the uniform start's product or the LU's packing
    fail_if_called(monkeypatch, iterengine, "_uniform_start")
    fail_if_called(monkeypatch, linsolve, "_lu")
    A = np.random.default_rng(7).uniform(0.01, 1.0, (200, 200))
    args = (A, np.ones(200)) if method == "rqi" else (A,)
    opts = {"z0": 0.5, **opts} if method == "rqi" else opts
    with pytest.raises(InvalidInput):
        getattr(iterengine, method)(*args, **opts)


class TestDriverChecksEachIterate:
    A = np.diag([2.0, 1.0])

    def run(self, solve, z_update=_rayleigh_update):
        return run_shifted_iteration(self.A, solve, [1.0, 0.5], 2.5,
                                     z_update=z_update, norm=_l2_norm)

    def test_non_finite_iterate_rejected(self):
        with pytest.raises(InvalidInput, match="vector contains non-finite entries"):
            self.run(lambda z, v: np.array([np.nan, 1.0]))

    def test_zero_output_rejected(self):
        # the driver divides by no norm that is zero or not finite
        with pytest.raises(InvalidInput, match="output at iteration 1 has norm 0"):
            self.run(lambda z, v: np.zeros(2))

    def test_non_finite_shift_update_rejected(self):
        with pytest.raises(InvalidInput, match="non-finite z at iteration 1"):
            self.run(lambda z, v: v, z_update=lambda v, av, work: (np.inf, None))


class TestPerturbAndRetry:
    """An exactly singular solve: accepted at tolerance, else retried once at a
    shift moved up by 1e-12 (1 + |z|)."""

    A = np.diag([2.0, 1.0])

    def run(self, breakdowns, v0=(1.0, 0.5), z0=2.5, negate=False):
        """Run the driver with a solve that raises on its first ``breakdowns``
        calls; returns the result and the shifts the solve was given."""
        shifts = []

        def solve(z, v):
            shifts.append(z)
            if len(shifts) <= breakdowns:
                raise SolverBreakdown("forced")
            return np.linalg.solve(z * np.eye(2) - self.A, v)

        return run_shifted_iteration(self.A, solve, list(v0), z0, z_update=_rayleigh_update,
                                     norm=_l2_norm, negate=negate), shifts

    def test_one_breakdown_retries_at_the_perturbed_shift(self):
        (z, _, trace), shifts = self.run(1)
        assert shifts[:2] == [2.5, 2.5 + 1e-12 * (1.0 + 2.5)]
        assert trace.termination == "converged" and z == pytest.approx(2.0)

    def test_a_negated_run_retries_at_a_higher_reported_value(self):
        # the run reports -z, so moving the reported value up moves its shift down
        (z, _, trace), shifts = self.run(1, negate=True)
        assert shifts[:2] == [2.5, 2.5 - 1e-12 * (1.0 + 2.5)]
        assert trace.termination == "converged" and z == pytest.approx(-2.0)

    def test_a_second_breakdown_raises(self):
        with pytest.raises(SolverBreakdown, match="after one retry") as exc:
            self.run(2)
        trace = exc.value.trace
        assert trace.termination == "breakdown"
        assert trace.iterations == 0 and trace.zs().tolist() == [2.5]

    def test_a_breakdown_at_tolerance_converges_without_retry(self):
        (z, _, trace), shifts = self.run(1, v0=(1.0, 0.0), z0=2.0)
        assert shifts == [2.0] and z == 2.0
        assert trace.termination == "converged" and trace.iterations == 0

    def test_tridiag_rqi_retries_at_a_higher_decay_rate(self, monkeypatch):
        # the run shifts q from minus the decay rate, so dgtsv sees it negated
        make, shifts = linsolve._shifted_solver, []

        def singular_once(q):
            solve = make(q)

            def wrapped(z, v):
                shifts.append(z)
                if len(shifts) == 1:
                    raise SolverBreakdown("forced")
                return solve(z, v)

            return wrapped

        monkeypatch.setattr(linsolve, "_shifted_solver", singular_once)
        _, trace = tridiag_rqi(models.bd_squares(7))
        lam = trace.zs()[0]
        assert shifts[:2] == [-lam, -(lam + 1e-12 * (1.0 + lam))]
        assert trace.termination == "converged"


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


def _chain(seed, n, everywhere):
    """The killing-at-last or killing-everywhere generator of ``seed`` at order
    n: rates U(0.5, 2), drawn a, b, then c."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.5, 2.0, n - 1), rng.uniform(0.5, 2.0, n - 1)
    c = rng.uniform(0.5, 2.0, n) if everywhere else np.r_[np.zeros(n - 1), rng.uniform(0.5, 2.0)]
    return TridiagonalSystem.from_rates(a, b, c)


_OPERAND_SYSTEMS = {
    **{f"bd_squares order={n}": lambda n=n: models.bd_squares(n - 1) for n in (8, 64, 500)},
    **{f"{kind} seed={seed} order={n}": lambda seed=seed, n=n, kind=kind: _chain(
        seed, n, kind == "killing-everywhere")
       for kind in ("killing-at-last", "killing-everywhere") for seed in (1, 2, 3)
       for n in (8, 64, 500)},
}
# lambda = 5.2e-12, below the absolute unit of the shift-change test: both runs
# stop after one solve, 3e-5 to 5e-5 apart and as far from the answer
_OPERAND_SYSTEMS_AT_THE_UNIT = {"killing-at-last seed=3 order=500"}


class TestTridiagonalOperand:
    """rqi, algorithm1 and algorithm2 take a TridiagonalSystem in O(N), never
    densifying it; A v is LAPACK dlagtm, not A @ v, so the run equals the run
    on the dense form to rounding, not bit for bit."""

    # each takes the operand and its order
    RUNS = {
        "algorithm1": lambda A, n: algorithm1(A, negate=True),
        "algorithm2": lambda A, n: algorithm2(A, negate=True),
        "rqi": lambda A, n: rqi(A, np.ones(n), 0.0, negate=True),
    }

    @pytest.mark.parametrize("name", [
        pytest.param(name, marks=pytest.mark.xfail(strict=True, reason="absolute-unit stop"))
        if name in _OPERAND_SYSTEMS_AT_THE_UNIT else name for name in _OPERAND_SYSTEMS])
    def test_agrees_with_the_dense_form(self, monkeypatch, name):
        system = _OPERAND_SYSTEMS[name]()
        dense = {method: run(system.dense(), system.order) for method, run in self.RUNS.items()}
        monkeypatch.setattr(TridiagonalSystem, "dense", lambda self: pytest.fail("densified"))
        for method, run in self.RUNS.items():
            result, trace = run(system, system.order)
            expected = dense[method][0].eigenvalue
            assert trace.termination == "converged"
            assert result.eigenvalue == pytest.approx(expected, rel=1e-9, abs=0.0), method
            assert result.eigenvector_positive == dense[method][0].eigenvector_positive

    def test_a_system_takes_a_real_start_and_shift(self):
        system = models.bd_squares(7)
        with pytest.raises(InvalidInput, match="real"):
            rqi(system, np.ones(8, complex), 0.5)
        with pytest.raises(InvalidInput, match="real"):
            algorithm1(system, z0=0.5 + 0.1j)

    def test_the_start_shares_the_runs_product(self, monkeypatch):
        # the uniform start's max(A v0 / v0) and every step take one dlagtm binding
        products = count_calls(monkeypatch, linsolve, "_product")
        _, trace = algorithm2(models.bd_squares(99), negate=True)
        assert len(products) == 1 and trace.termination == "converged"


@pytest.mark.parametrize("method", [algorithm1, algorithm2])
def test_the_zero_matrix_converges_at_once_with_an_absolute_residual(method):
    result, trace = method(np.zeros((3, 3)))
    assert result.eigenvalue == 0.0 and result.residual == 0.0
    assert trace.iterations == 0 and trace.termination == "converged"


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


def _outcome(run):
    """(result, trace) of run(); a raised MaxeigError stands in for the result,
    with the trace it carries, or None."""
    try:
        return run()
    except MaxeigError as exc:
        return exc, getattr(exc, "trace", None)


def _without_bracket(run):
    """_outcome(run) with the certified stop switched off: the repeat rule alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(iterengine, "_bracket_test", lambda *run_args: lambda *step: None)
        return _outcome(run)


def _steps(trace):
    return [(s.k, s.z, s.residual) for s in trace.steps]


def _assert_only_shortened(run, oracle=None):
    """run's outcome against the same run without the certified stop.

    The traces agree bitwise up to where the certified run stops, and it
    takes no more solves.  A run that stops on its bracket returns a
    positive eigenvector and a bracket no wider than tol_z |z| that holds
    ``oracle(result)``, the maximal eigenvalue on the trace's scale, to the
    oracle's accuracy, (value, accuracy); any other run is the plain run,
    bit for bit.  Returns the trace, or None where the run raised before
    it had one."""
    result, trace = _outcome(run)
    plain_result, plain = _without_bracket(run)
    if trace is None or plain is None:
        assert type(result) is type(plain_result) and trace is plain is None
        return None
    steps = len(trace.steps)
    assert steps <= len(plain.steps)
    assert _steps(trace) == _steps(plain)[:steps]
    if trace.bracket is None:
        assert _steps(trace) == _steps(plain) and trace.termination == plain.termination
        assert type(result) is type(plain_result)
        if isinstance(result, iterengine.EigenpairResult):
            assert np.array_equal(result.eigenvector, plain_result.eigenvector)
        return trace
    lo, hi = trace.bracket
    z = trace.steps[-1].z
    assert trace.termination == "converged" and isinstance(result, iterengine.EigenpairResult)
    assert lo <= hi and hi - lo <= trace.tol_z * abs(z)
    assert result.eigenvector_positive
    if oracle is not None:
        value, accuracy = oracle(result)
        assert lo - accuracy <= value <= hi + accuracy
    return trace


@st.composite
def _nonnegative_matrices(draw):
    """A random irreducible matrix of order 2-60 with nonnegative off-diagonals:
    rates U(0.01, 1) kept with a drawn density, a cycle through every state,
    and a diagonal U(-5, 5)."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.uniform(0.01, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < draw(st.floats(0.05, 1.0)))
    cycle = np.arange(n)
    A[cycle, np.roll(cycle, -1)] = rng.uniform(0.01, 1.0, n)
    np.fill_diagonal(A, rng.uniform(-5.0, 5.0, n))
    return A


@st.composite
def _generators(draw):
    """A tridiagonal generator of order 8-200, rates U(0.5, 2), killed at the
    last state or at every state."""
    n = draw(st.integers(8, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = rng.uniform(0.5, 2.0, n - 1), rng.uniform(0.5, 2.0, n - 1)
    c = rng.uniform(0.5, 2.0, n) if draw(st.booleans()) else np.r_[np.zeros(n - 1), rng.uniform(0.5, 2.0)]
    return TridiagonalSystem.from_rates(a, b, c)


def _dense_oracle(A, shifted):
    """oracle(result) of _assert_only_shortened for a dense run on A: rho(A), or
    m - rho(A) where the trace holds lambda_min(-Qc) (general_rqi)."""
    rho = float(np.max(oracle_eigenvalues(A).real))
    accuracy = 8 * len(A) * _EPS * matrix_scale(A)
    return lambda result: (result.shift_m - rho if shifted else rho, accuracy)


def _e13():
    """Example 1.3's rough start: RQI on the dense -Q from the uniform vector and
    its quotient (the e13 table runs it on Q, reporting the negated shifts)."""
    neg_q = -models.bd_squares(7).dense()
    v0 = np.ones(8) / np.sqrt(8)
    return rqi(neg_q, v0, float(v0 @ neg_q @ v0))


class TestCertifiedStop:
    """The Collatz-Wielandt stop: it ends runs one solve sooner and changes no
    step a run keeps."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_nonnegative_matrices(), st.sampled_from(["algorithm1", "algorithm2", "general_rqi"]))
    def test_dense_runs(self, A, method):
        run = {"algorithm1": lambda: algorithm1(A), "algorithm2": lambda: algorithm2(A),
               "general_rqi": lambda: general_rqi(A)}[method]
        _assert_only_shortened(run, _dense_oracle(A, method == "general_rqi"))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_generators())
    def test_tridiagonal_runs(self, system):
        oracle = oracle_min_neg(system)
        accuracy = 8 * system.order * _EPS * matrix_scale(system)
        _assert_only_shortened(lambda: tridiag_rqi(system), lambda result: (oracle, accuracy))

    @pytest.mark.parametrize("run", [
        lambda: algorithm1(np.abs(models.negative3())),
        lambda: algorithm2(models.triangular_model(79), negate=True),
        lambda: general_rqi(np.random.default_rng(1).uniform(0.01, 1.0, (50, 50)),
                            z0="rayleigh", v0="uniform"),
    ], ids=["algorithm1", "algorithm2 negate", "general_rqi"])
    def test_the_bracket_is_on_the_reported_scale(self, run):
        _, trace = run()
        lo, hi = trace.bracket
        assert lo <= trace.steps[-1].z <= hi

    @pytest.mark.parametrize("run", [
        lambda: algorithm1(models.negative3()),
        lambda: algorithm2(models.negative3()),
        lambda: algorithm1(models.complex3()),
        _e13,
        lambda: general_rqi(models.bd_squares(7).dense(), z0="rayleigh", v0="uniform"),
        lambda: tridiag_rqi(models.bd_squares(9999)),
    ], ids=["t6 algorithm1", "t6 algorithm2", "complex3", "e13", "e13 pitfall", "t1 order 1e4"])
    def test_where_the_stop_cannot_fire(self, run):
        # a negative off-diagonal entry (t6, e13's -Q), a complex run, a
        # sign-changing iterate, and a scale against which A v rounds past
        # tol_z |z|
        trace = _assert_only_shortened(run)
        assert trace.bracket is None and trace.termination == "converged"

    def test_a_dense_matrix_is_sign_tested_once(self, monkeypatch):
        # once per driver run; on general_rqi's dense route shift_to_qc tests
        # the input once more, and the driver the Q~ = H^-1 Qc H it runs on
        checks = count_calls(monkeypatch, numat, "_nonnegative_off_diagonal")
        runs = count_calls(monkeypatch, iterengine, "_nonnegative_off_diagonal")
        operators = count_calls(monkeypatch, tridiag, "_efficient_rqi")
        A = np.random.default_rng(1).uniform(0.01, 1.0, (50, 50))
        _, trace = algorithm1(A)
        assert trace.bracket is not None and not checks and len(runs) == 1 and runs[0][0] is A
        _, trace = general_rqi(A, z0="rayleigh", v0="uniform")
        assert trace.bracket is not None and len(checks) == 1 and checks[0][0] is A
        assert len(runs) == 2 and runs[1][0] is operators[0][0]
