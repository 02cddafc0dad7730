"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Iteration counts are measured as the trace stabilization step:
the iterate from which the printed six-digit value stops changing (the
stopping rule itself needs one further confirming solve).
"""

import time

import numpy as np
import pytest

from maxeig import models
from maxeig.general_init import (
    general_rqi,
    h_transform_general,
    solve_h_general,
    solve_mu_general,
    solve_phi_general,
)
from maxeig.iterengine import algorithm1, algorithm2, rqi
from maxeig.linsolve import tridiag_solve
from maxeig.numat import matrix_scale, max_ratio
from maxeig.tridiag import (
    compute_h,
    compute_initials,
    explicit_rqi_solve,
    recover_original,
    tridiag_rqi,
)

from conftest import oracle_eigenvalues, random_system


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f"  -- {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


PRINTED_G = np.array([55.878, 26.5271, 15.7059, 9.97983, 6.43129, 4.0251, 2.2954, 1.0])
TABLE1 = {
    8: (0.523309, 0.525268, 0.525268),
    100: (0.387333, 0.376393, 0.376383),
    500: (0.349147, 0.338342, 0.338329),
    1000: (0.338027, 0.327254, 0.32724),
}


def test_example_1_1_eigenpair():
    t0 = time.perf_counter()
    result, _ = tridiag_rqi(models.bd_squares(7))
    elapsed = time.perf_counter() - t0
    g = recover_original(result).eigenvector
    ok_val = abs(result.eigenvalue - 0.525268) <= 5e-6 * 0.525268
    ok_vec = np.abs(g - PRINTED_G).max() <= 1e-3
    ok_time = elapsed < 0.5
    report(
        "example 1.1: decay rate 0.525268 and printed eigenvector",
        ok_val and ok_vec and ok_time,
        f"lambda={result.eigenvalue:.6f}, max vec dev={np.abs(g - PRINTED_G).max():.2e}, "
        f"{elapsed*1e3:.1f} ms",
    )


def test_table1_two_step_convergence():
    # the banded default and the paper's closed form must both reproduce the table
    for solver in ("generic", "explicit"):
        for size, cells in TABLE1.items():
            _, trace = tridiag_rqi(models.bd_squares(size - 1), solver=solver)
            zs = trace.zs()
            for k, expect in enumerate(cells):
                ok = abs(zs[k] - expect) <= 5e-6 * abs(expect)
                report(f"table 1 size {size} ({solver}): z{k} = {expect}", ok,
                       f"computed {zs[k]:.6f}")
            stab = trace.stabilized_at()
            report(f"table 1 size {size} ({solver}): stabilized by the second iterate",
                   stab <= 2, f"stabilized at {stab}, {trace.iterations} solves")


def test_table1_order_ten_thousand():
    t0 = time.perf_counter()
    _, trace = tridiag_rqi(models.bd_squares(9999), solver="explicit")
    elapsed = time.perf_counter() - t0
    z2 = trace.zs()[2]
    report(
        "table 1 size 10000: z2 = 0.302561 within 60 s via the closed-form solver",
        abs(z2 - 0.302561) <= 5e-6 * 0.302561 and elapsed < 60.0,
        f"z2={z2:.6f}, {elapsed:.2f} s",
    )


def test_example_1_3_pitfall_regression():
    neg_q = -models.bd_squares(7).dense()
    v0 = np.ones(8) / np.sqrt(8)
    z0 = float(v0 @ neg_q @ v0)
    result, trace = rqi(neg_q, v0, z0, "rayleigh")
    zs = trace.zs()
    expected = [4.78557, 5.67061, 5.91766, 5.91867]
    ok_iter = all(abs(zs[k] - e) <= 1e-5 * e for k, e in enumerate(expected, start=1))
    safe, _ = algorithm2(models.bd_squares(7).dense(), negate=True)
    flagged = (not result.eigenvector_positive) and (
        abs(result.eigenvalue - safe.eigenvalue) > 1e-3 * abs(safe.eigenvalue)
    )
    report(
        "example 1.3: rough-start iterates reproduced and flagged non-maximal",
        ok_iter and flagged,
        f"iterates {[f'{z:.5f}' for z in zs[1:5]]}, safe value {safe.eigenvalue:.6f}",
    )


def test_table3_toeplitz_1600():
    t0 = time.perf_counter()
    _, trace = general_rqi(models.toeplitz_linear(1600))
    elapsed = time.perf_counter() - t0
    lam = float(trace.zs()[-1])
    stab = trace.stabilized_at()
    report(
        "table 3: Toeplitz order 1600 reaches 0.389890e6 in at most 4 iterations",
        abs(lam - 0.389890e6) <= 1e-4 * 0.389890e6 and stab <= 4,
        f"lambda={lam:.1f}, stabilized at {stab}, {trace.iterations} solves, {elapsed:.0f} s",
    )


def test_table4_final_values():
    for size, expect in ((8, 0.452339), (32, 0.372311), (1000, 0.335010)):
        _, trace = algorithm2(models.triangular_model(size - 1, "inv_kp1"), negate=True)
        lam = float(trace.zs()[-1])
        report(
            f"table 4 size {size}: final value {expect}",
            abs(lam - expect) <= 1e-5 * expect,
            f"computed {lam:.6f} in {trace.iterations} solves",
        )


def test_table5_branching_finals():
    for size in (50, 100, 500, 1000):
        _, trace = algorithm2(models.branching_model(size, 7.0 / 4.0), negate=True)
        lam = float(trace.zs()[-1])
        report(
            f"table 5 size {size}: final value 0.625000",
            abs(lam - 0.625) <= 1e-6,
            f"computed {lam:.8f} in {trace.iterations} solves",
        )


def test_table6_traces():
    _, trace1 = algorithm1(models.negative3())
    _, trace2 = algorithm2(models.negative3())
    zs1, zs2 = trace1.zs(), trace2.zs()
    checks = [
        ("algorithm 1 z1", zs1[1], 17.3772),
        ("algorithm 1 z2", zs1[2], 17.5124),
        ("algorithm 2 z1", zs2[1], 18.5316),
        ("algorithm 2 z2", zs2[2], 17.5416),
        ("algorithm 2 z3", zs2[3], 17.5124),
    ]
    for name, got, expect in checks:
        report(f"table 6: {name} = {expect}", abs(got - expect) <= 1e-4 * expect,
               f"computed {got:.6f}")


def test_complex_example():
    A = models.complex3()
    result, _ = algorithm1(A)
    lams = oracle_eigenvalues(A)
    target = lams[int(np.argmax(lams.real))]
    ok_val = abs(result.eigenvalue - target) <= 1e-6
    ok_nominal = abs(target - 3.0) <= 1e-4  # four-decimal coefficients move it ~4.4e-5
    v = result.eigenvector / np.linalg.norm(result.eigenvector)
    printed = np.array([0.408237, 0.816507, 0.408237])
    ok_vec = np.abs(v - printed).max() <= 1e-4
    report(
        "complex example: eigenvalue 3 (via the oracle of the displayed matrix) "
        "and printed eigenvector; the variant y-trace stays reference-only",
        ok_val and ok_nominal and ok_vec,
        f"lambda={result.eigenvalue:.8f}, |lambda-3|={abs(result.eigenvalue-3):.2e}, "
        f"max vec dev={np.abs(v - printed).max():.2e}",
    )


def test_table2_substitute_property():
    # the source table's diagonal blocks are under-specified; the check is
    # against the closed-form cosine eigenvalues of the grid Laplacian
    t0 = time.perf_counter()
    _, trace = general_rqi(models.poisson_block(40, 40))
    elapsed = time.perf_counter() - t0
    lam = float(trace.zs()[-1])
    oracle = 4.0 - 4.0 * np.cos(np.pi / 41.0)
    stab = trace.stabilized_at(rtol=1e-6)
    report(
        "grid Laplacian order 1600: closed-form eigenvalue in at most 3 iterations",
        abs(lam - oracle) <= 1e-6 * oracle and stab <= 3,
        f"lambda={lam:.10f}, oracle={oracle:.10f}, stabilized at {stab}, {elapsed:.0f} s",
    )


def test_property_suites():
    rng = np.random.default_rng(20170608)

    # H-transform preserves the spectrum (dense oracle), N <= 12
    worst = 0.0
    for _ in range(15):
        system = random_system(rng, int(rng.integers(2, 13)), with_killing="all")
        before = np.sort(oracle_eigenvalues(system).real)
        after = np.sort(oracle_eigenvalues(compute_h(system).transformed).real)
        worst = max(worst, np.abs(before - after).max() / max(1.0, np.abs(before).max()))
    report("property: H-transform spectrum preservation (1e-8)", worst <= 1e-8, f"worst {worst:.2e}")

    # closed-form solver == banded elimination, N <= 100
    worst = 0.0
    for _ in range(25):
        system = random_system(rng, int(rng.integers(1, 101)))
        init = compute_initials(system)
        z = float(rng.uniform(0.0, 0.5))
        v = rng.normal(size=system.order)
        w1 = explicit_rqi_solve(system, init.mu, z, v)
        w2 = tridiag_solve(-system.a[1:], (system.a + system.b + system.c) - z,
                           -system.b[:-1], v)
        worst = max(worst, np.abs(w1 - w2).max() / max(1e-30, np.abs(w2).max()))
    report("property: explicit vs generic tridiagonal solve (1e-8)", worst <= 1e-8,
           f"worst {worst:.2e}")

    # the general three-system route specializes to the closed forms
    worst = 0.0
    for _ in range(8):
        system = random_system(rng, int(rng.integers(2, 10)), with_killing="all")
        ht = compute_h(system)
        init = compute_initials(ht.transformed)
        qc = system.dense()
        h = solve_h_general(qc)
        qt = h_transform_general(qc, h)
        phi = solve_phi_general(qt)
        mu = solve_mu_general(qt)
        worst = max(worst, np.abs(h - ht.h).max() / np.abs(ht.h).max())
        worst = max(worst, np.abs(mu - init.mu).max() / np.abs(init.mu).max())
        worst = max(worst, np.abs(phi / phi[0] - init.phi / init.phi[0]).max())
    report("property: general sequences specialize to tridiagonal forms (1e-10)",
           worst <= 1e-10, f"worst {worst:.2e}")

    # max ratio dominates the Perron root on nonnegative matrices, N <= 12
    ok = True
    for _ in range(25):
        n = int(rng.integers(2, 13))
        A = rng.uniform(0.0, 1.0, size=(n, n)) + 0.05 * np.eye(n)
        rho = float(np.max(oracle_eigenvalues(A).real))
        v = rng.uniform(0.1, 2.0, size=n)
        ok = ok and max_ratio(A, v) >= rho - 1e-10
    report("property: max ratio bounds the Perron root from above", ok)

    # shifting the matrix shifts the eigenvalue and nothing else
    m = 7.5
    r1, _ = algorithm2(models.negative3())
    r2, _ = algorithm2(models.negative3() + m * np.eye(3))
    ok = abs((r2.eigenvalue - r1.eigenvalue) - m) <= 1e-10
    ok = ok and np.abs(r1.eigenvector - r2.eigenvector).max() <= 1e-10
    report("property: shift equivalence", ok,
           f"offset {r2.eigenvalue - r1.eigenvalue:.12f}")

    # bitwise deterministic traces
    a = algorithm2(models.negative3())[1]
    b = algorithm2(models.negative3())[1]
    c = tridiag_rqi(models.bd_squares(40))[1]
    d = tridiag_rqi(models.bd_squares(40))[1]
    ok = np.array_equal(a.zs(), b.zs()) and np.array_equal(a.residuals(), b.residuals())
    ok = ok and np.array_equal(c.zs(), d.zs()) and np.array_equal(c.residuals(), d.residuals())
    report("property: repeated runs produce bitwise-identical traces", ok)

    # converged runs leave a final relative residual at or below 1e-8
    residuals = []
    for run in (
        tridiag_rqi(models.bd_squares(7)),
        tridiag_rqi(models.bd_squares(99)),
        algorithm2(models.negative3()),
        general_rqi(models.toeplitz_linear(40)),
    ):
        residuals.append(run[1].residuals()[-1])
    ok = max(residuals) <= 1e-8
    report("property: final-pair residual at most 1e-8 on every converged run",
           ok, f"worst {max(residuals):.2e}")

    # and the recovered pair satisfies the eigen identity on the original matrix
    worst = 0.0
    for _ in range(6):
        system = random_system(rng, 8, with_killing="all")
        recovered = recover_original(tridiag_rqi(system)[0])
        g = recovered.eigenvector
        res = np.abs(system.dense() @ g - recovered.eigenvalue * g).max()
        worst = max(worst, res / (np.abs(g).max() * matrix_scale(system)))
    report("property: recovered eigenpair residual (1e-8, original coordinates)",
           worst <= 1e-8, f"worst {worst:.2e}")
