"""Model generators and their invariants."""

import numpy as np
import pytest

from maxeig import iterengine, models
from maxeig.errors import InvalidInput
from maxeig.matrixio import parse_error

from conftest import oracle_eigenvalues


class TestBdSquares:
    def test_order_two_dense_form(self):
        assert np.array_equal(models.bd_squares(1).dense(), [[-1.0, 1.0], [1.0, -5.0]])

    def test_row_sums(self):
        system = models.bd_squares(9)
        sums = system.dense().sum(axis=1)
        assert np.array_equal(sums[:-1], np.zeros(9))
        assert sums[-1] == -100.0

    def test_square_rates(self):
        system = models.bd_squares(4)
        assert np.array_equal(system.a[1:], [1.0, 4.0, 9.0, 16.0])
        assert np.array_equal(system.b[:-1], [1.0, 4.0, 9.0, 16.0])
        assert system.c[-1] == 25.0


class TestTriangular:
    def test_explicit_order_three(self):
        Q = models.triangular_model(2, "one")
        assert np.array_equal(Q, [[-1.0, 1.0, 0.0],
                                  [1.0, -3.0, 2.0],
                                  [1.0, 0.0, -4.0]])

    def test_row_sums(self):
        for rule in ("inv_kp1", "one", "k", "k2"):
            Q = models.triangular_model(6, rule)
            sums = Q.sum(axis=1)
            assert np.abs(sums[:-1]).max() == 0.0
            assert sums[-1] == -7.0

    def test_size_refused(self):
        with pytest.raises(InvalidInput, match="N >= 1"):
            models.triangular_model(0)

    def test_rules(self):
        assert models.triangular_model(3, "inv_kp1")[2, 0] == pytest.approx(1.0 / 3.0)
        assert models.triangular_model(3, "k")[2, 0] == 2.0
        assert models.triangular_model(3, "k2")[3, 0] == 9.0


class TestBranching:
    def test_row_sums_close_except_first(self):
        Q = models.branching_model(3, 1.0)
        assert np.allclose(Q.sum(axis=1), [-0.5, 0.0, 0.0], atol=1e-15)
        Q = models.branching_model(12, 1.75)
        sums = Q.sum(axis=1)
        assert sums[0] == pytest.approx(-1.75 / 2.0, abs=1e-15)
        assert np.abs(sums[1:]).max() <= 1e-14

    def test_offspring_mean_subcritical(self):
        # M1 = 3(2 - alpha)/2; subcritical for alpha = 7/4
        alpha = 7.0 / 4.0
        ks = np.arange(2, 200)
        m1 = float((ks * (2.0 - alpha) / 2.0**ks).sum())
        assert m1 == pytest.approx(3.0 * (2.0 - alpha) / 2.0, abs=1e-12)
        assert m1 == pytest.approx(0.375)
        assert m1 < 1.0

    def test_off_diagonals_nonnegative(self):
        Q = models.branching_model(9, 1.2)
        off = Q - np.diag(np.diag(Q))
        assert (off >= 0).all()

    @staticmethod
    def loop_model(N, alpha):
        """The model filled entry by entry with 2.0**k, as first written (N <= 1024)."""
        Q = np.zeros((N, N))
        for i in range(1, N):
            row = i - 1
            if i >= 2:
                Q[row, row - 1] = i * (alpha / 2.0)
            Q[row, row] = -float(i)
            for kk in range(2, N - i + 1):
                Q[row, i + kk - 2] += i * ((2.0 - alpha) / 2.0**kk)
            Q[row, N - 1] += i * ((2.0 - alpha) / 2.0 ** (N - i))
        Q[N - 1, N - 2] = N * (alpha / 2.0)
        Q[N - 1, N - 1] = -N * (alpha / 2.0)
        return Q

    @pytest.mark.parametrize("N, alphas", [(2, (1.75, 0.5, 1.9)), (3, (1.75, 0.5, 1.9)),
                                           (5, (1.75, 0.5, 1.9)), (50, (1.75, 0.5, 1.9)),
                                           (400, (1.75, 0.5, 1.9)), (1024, (1.75,))])
    def test_bitwise_equal_to_the_entry_loop(self, N, alphas):
        for alpha in alphas:
            assert models.branching_model(N, alpha).tobytes() == self.loop_model(N, alpha).tobytes()

    def test_builds_past_order_1024(self):
        # 2.0**1024 overflows; the tail probabilities underflow to 0 instead
        Q = models.branching_model(1100)
        assert np.isfinite(Q).all()
        assert (Q - np.diag(np.diag(Q)) >= 0).all()
        _, trace = iterengine.algorithm2(Q, negate=True)
        assert abs(trace.zs()[-1] - 0.625) <= 1e-6

    def test_domain_checks(self):
        with pytest.raises(InvalidInput):
            models.branching_model(1, 1.0)
        with pytest.raises(InvalidInput):
            models.branching_model(5, 2.5)


class TestToeplitz:
    def test_explicit_order_three(self):
        assert np.array_equal(models.toeplitz_linear(3),
                              [[1.0, 2.0, 3.0], [2.0, 1.0, 2.0], [3.0, 2.0, 1.0]])

    def test_symmetry(self, rng):
        n = int(rng.integers(2, 40))
        A = models.toeplitz_linear(n)
        assert np.array_equal(A, A.T)

    def test_size_refused(self):
        with pytest.raises(InvalidInput, match="n >= 2"):
            models.toeplitz_linear(1)


class TestPoisson:
    def test_explicit_two_by_two_blocks(self):
        expected = np.array([
            [-4.0, 1.0, 1.0, 0.0],
            [1.0, -4.0, 0.0, 1.0],
            [1.0, 0.0, -4.0, 1.0],
            [0.0, 1.0, 1.0, -4.0],
        ])
        assert np.array_equal(models.poisson_block(2), expected)

    def test_size_refused(self):
        with pytest.raises(InvalidInput, match="grid >= 2"):
            models.poisson_block(1)

    def test_symmetry(self):
        A = models.poisson_block(5, 4)
        assert np.array_equal(A, A.T)
        assert A.shape == (20, 20)

    def test_grid_spectrum_closed_form(self):
        # separable grid Laplacian: eigenvalues -4 + 2cos(i pi/(g+1)) + 2cos(j pi/(g+1))
        g = 6
        A = models.poisson_block(g)
        lams = np.sort(oracle_eigenvalues(A).real)
        ii, jj = np.meshgrid(np.arange(1, g + 1), np.arange(1, g + 1))
        expected = np.sort((-4.0 + 2.0 * np.cos(ii * np.pi / (g + 1))
                            + 2.0 * np.cos(jj * np.pi / (g + 1))).ravel())
        assert np.abs(lams - expected).max() <= 1e-10


class TestFixedExamples:
    def test_negative3_spectrum(self):
        lams = np.sort(oracle_eigenvalues(models.negative3()).real)
        assert lams == pytest.approx([-7.4675, 4.95513, 17.5124], abs=5e-5)

    def test_negative3_maximal_eigenvector(self):
        w, V = np.linalg.eig(models.negative3())
        g = V[:, int(np.argmax(w.real))].real
        g = g / g[-1]
        assert g == pytest.approx([0.486078, 1.24981, 1.0], abs=1e-5)

    def test_complex3_spectrum(self):
        lams = oracle_eigenvalues(models.complex3())
        for target in (3.0 + 0.0j, -2.0 - 1.0j, 1.0 + 1.0j):
            assert np.min(np.abs(lams - target)) <= 5e-5

    def test_complex3_maximal_eigenvector(self):
        A = models.complex3()
        w, V = np.linalg.eig(A)
        g = V[:, int(np.argmax(w.real))]
        g = g / np.linalg.norm(g)
        g = g * np.conj(g[1]) / abs(g[1])
        assert np.abs(g - [0.408237, 0.816507, 0.408237]).max() <= 1e-4


class TestModelSpec:
    def test_json_round_trip(self):
        spec = models.ModelSpec("branching", 50, {"alpha": 1.75})
        again = models.ModelSpec.from_json(spec.to_json())
        assert again == spec
        assert np.array_equal(again.render(), spec.render())

    def test_render_dispatch(self):
        assert models.ModelSpec("bd_squares", 3).render().order == 4
        assert models.ModelSpec("toeplitz", 4).render().shape == (4, 4)
        assert models.ModelSpec("negative3").render().shape == (3, 3)
        assert models.ModelSpec("complex3").render().dtype.kind == "c"
        # a parameter left out takes the constructor's default
        assert np.array_equal(models.ModelSpec("branching", 50).render(),
                              models.branching_model(50, 1.75))
        assert np.array_equal(models.ModelSpec("triangular", 5).render(),
                              models.triangular_model(5, "inv_kp1"))

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidInput):
            models.ModelSpec("mystery", 3)

    def test_malformed_spec_is_a_parse_error(self):
        with pytest.raises(parse_error):
            models.ModelSpec("bd_squares")
        with pytest.raises(parse_error):
            models.ModelSpec("poisson_block", 3, {"foo": 1})
        with pytest.raises(parse_error):
            models.ModelSpec("triangular", 3, {"rule": "zzz"})
        with pytest.raises(parse_error):
            models.ModelSpec.from_json('{"name": "bd_squares"')
        with pytest.raises(parse_error):
            models.ModelSpec.from_json("[1]")
        for params in (5, [["alpha", 2]]):
            with pytest.raises(parse_error):
                models.ModelSpec("branching", 50, params)
        with pytest.raises(parse_error):
            models.ModelSpec("negative3", 5)
        for name, params in (("branching", {"alpha": "x"}), ("branching", {"alpha": True}),
                             ("poisson_block", {"block_size": 2.5}),
                             ("poisson_block", {"block_size": False}),
                             ("triangular", {"rule": ["one"]})):
            with pytest.raises(parse_error):
                models.ModelSpec(name, 50, params)
        assert models.ModelSpec("branching", 50, {"alpha": 1}).params == {"alpha": 1}

    def test_deterministic(self):
        a = models.ModelSpec("poisson_block", 3, {"block_size": 4}).render()
        b = models.ModelSpec("poisson_block", 3, {"block_size": 4}).render()
        assert np.array_equal(a, b)
