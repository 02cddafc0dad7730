"""Efficient initials for general irreducible matrices with nonnegative off-diagonals.

The three sequences that drive the tridiagonal pipeline carry over to
the general case through their probabilistic meaning, each obtained
from one linear system on the shifted generator Qc = A - mI:

* h  -- harmonic for every row but the last (h_0 = 1); its diagonal
  similarity transform pushes all killing to the right endpoint;
* phi -- the transiency tail, fixed by all rows but the first of the
  jump-chain matrix P (phi_0 = 1);
* mu -- the invariant weighting, fixed by all columns but the last
  (mu_0 = 1).

sqrt(phi) seeds the initial vector exactly as in the tridiagonal case,
and the safe initial shift copies the delta_1 formula with a 1/(1 -
phi_1) correction.  On tridiagonal input the closed-form recurrences
are used instead of dense solves, which keeps those runs O(N); the
results agree with the dense route to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import iterengine, linsolve, tridiag
from .errors import (
    DimensionMismatch,
    NonFiniteInput,
    NonPositiveH,
    NonPositiveMu,
    NonPositivePhi,
    SafeFormulaUnavailable,
)
from .iterengine import EigenpairResult, run_shifted_iteration
from .numat import (
    TridiagonalSystem,
    as_square_matrix,
    as_vector,
    matrix_scale,
    matvec,
    shift_to_qc,
    weighted_norm,
)

__all__ = [
    "GeneralInitials",
    "solve_h_general",
    "h_transform_general",
    "solve_phi_general",
    "solve_mu_general",
    "initials_general",
    "safe_z0",
    "general_rqi",
    "tridiagonal_from_dense",
]


@dataclass(frozen=True)
class GeneralInitials:
    h: np.ndarray
    q_tilde: np.ndarray | TridiagonalSystem  # three-sequence form on tridiagonal input
    phi: np.ndarray
    mu: np.ndarray
    v0: np.ndarray
    z0_rayleigh: float
    z0_safe: float | None  # None when phi_1 >= 1 makes the safe formula unavailable


def _solve_with_unit_head(rows, error_cls, what):
    """Solve rows @ x = 0 for x with x_0 = 1; raise error_cls if any x_i <= 0."""
    n = rows.shape[1]
    x = np.ones(n)
    if n > 1:
        x[1:] = linsolve.dense_solve(rows[:, 1:], -rows[:, 0])
    if (x <= 0).any():
        raise error_cls(f"{what} has non-positive components (min {x.min():.3g}); "
                        "input is not irreducible with the assumed structure")
    return x


def solve_h_general(qc):
    """Harmonic vector of Qc away from the right endpoint, h_0 = 1."""
    qc = as_square_matrix(qc)
    return _solve_with_unit_head(qc[:-1, :], NonPositiveH, "harmonic vector h")


def h_transform_general(qc, h):
    """Similarity transform Diag(h)^-1 Qc Diag(h), entrywise q_ij h_j / h_i."""
    qc = as_square_matrix(qc)
    h = as_vector(h)
    if len(h) != qc.shape[0]:
        raise DimensionMismatch("h length must match the matrix order")
    return qc * (h[None, :] / h[:, None])


def jump_matrix(q_tilde):
    """P = Diag((-q_ii)^-1) Q + I, the embedded jump chain of the generator."""
    q_tilde = as_square_matrix(q_tilde)
    d = -np.diag(q_tilde)
    if (d <= 0).any():
        raise NonFiniteInput("jump matrix requires strictly negative diagonal entries")
    return q_tilde / d[:, None] + np.eye(q_tilde.shape[0])


def solve_phi_general(q_tilde):
    """Tail sequence: rows 1..N of (I - P) phi = 0 with phi_0 = 1."""
    p = jump_matrix(q_tilde)
    rows = (np.eye(p.shape[0]) - p)[1:, :]
    return _solve_with_unit_head(rows, NonPositivePhi, "tail sequence phi")


def solve_mu_general(q_tilde):
    """Invariant weighting: first N rows of Q^T mu = 0 with mu_0 = 1."""
    q_tilde = as_square_matrix(q_tilde)
    return _solve_with_unit_head(q_tilde.T[:-1, :], NonPositiveMu, "invariant measure mu")


def safe_z0(phi, mu):
    """The safer initial shift; requires phi_1 < 1.

    z0^{-1} = 1/(1 - phi_1) * max_n [ sqrt(phi_n) sum_{k<=n} mu_k sqrt(phi_k)
              + (1/sqrt(phi_n)) sum_{j>n} mu_j phi_j^{3/2} ]
    """
    phi = as_vector(phi)
    mu = as_vector(mu)
    if len(phi) < 2 or phi[1] >= 1.0:
        raise SafeFormulaUnavailable(f"safe shift needs phi_1 < 1, got {phi[1] if len(phi) > 1 else 'n/a'}")
    sqrt_phi = np.sqrt(phi)
    prefix = np.cumsum(mu * sqrt_phi)
    tail_terms = mu * phi * sqrt_phi
    suffix = np.concatenate([np.cumsum(tail_terms[::-1])[::-1][1:], [0.0]])
    peak = float(np.max(sqrt_phi * prefix + suffix / sqrt_phi))
    return (1.0 - float(phi[1])) / peak


def initials_general(q_tilde, phi, mu):
    """Seed vector and both initial-shift candidates from phi and mu.

    Returns (v0, z0_rayleigh, z0_safe); z0_safe is None when phi_1 >= 1.
    """
    q_tilde = as_square_matrix(q_tilde)
    phi = as_vector(phi)
    mu = as_vector(mu)
    if (phi <= 0).any():
        raise NonPositivePhi("phi must be strictly positive")
    v0 = np.sqrt(phi)
    v0 = v0 / weighted_norm(v0, mu)
    z0_rayleigh = float((mu * v0 * -(q_tilde @ v0)).sum() / (mu * v0 * v0).sum())
    try:
        z0s = safe_z0(phi / phi[0], mu)
    except SafeFormulaUnavailable:
        z0s = None
    return v0, z0_rayleigh, z0s


def tridiagonal_from_dense(A, tol=0.0):
    """Recognize a dense generator as a TridiagonalSystem, or return None.

    Requires zero entries outside the three diagonals, strictly positive
    couplings, and nonpositive row sums (the killing rates c = -row sums).
    """
    A = as_square_matrix(A)
    if np.iscomplexobj(A) or A.shape[0] < 2:
        return None
    n = A.shape[0]
    mask = np.ones((n, n), dtype=bool)
    idx = np.arange(n)
    mask[idx, idx] = False
    mask[idx[1:], idx[:-1]] = False
    mask[idx[:-1], idx[1:]] = False
    if np.abs(A[mask]).max(initial=0.0) > tol:
        return None
    a = A[idx[1:], idx[:-1]]
    b = A[idx[:-1], idx[1:]]
    if (a <= 0).any() or (b <= 0).any():
        return None
    c = -A.sum(axis=1)
    if (c < -1e-12 * matrix_scale(A)).any():
        return None
    c = np.where(c < 0, 0.0, c)
    return TridiagonalSystem.from_rates(a, b, c)


def compute_general_initials(qc, system=None) -> GeneralInitials:
    """h, transform, phi, mu, and initials for a shifted generator Qc.

    Tridiagonal input (detected, or passed as ``system``) short-circuits
    to the closed-form recurrences, and the transform is kept in its
    three-sequence representation.
    """
    if system is None:
        qc = as_square_matrix(qc)
        system = tridiagonal_from_dense(qc)
    if system is not None:
        ht = tridiag.compute_h(system)
        init = tridiag.compute_initials(ht.transformed)
        phi = init.phi / init.phi[0]
        v0 = init.v0
        mu = init.mu
        q_tilde = ht.transformed
        z0_rayleigh = float(
            (mu * v0 * -matvec(q_tilde, v0)).sum() / (mu * v0 * v0).sum()
        )
        try:
            z0s = safe_z0(phi, mu)
        except SafeFormulaUnavailable:
            z0s = None
        return GeneralInitials(h=ht.h, q_tilde=q_tilde, phi=phi, mu=mu, v0=v0,
                               z0_rayleigh=z0_rayleigh, z0_safe=z0s)
    h = solve_h_general(qc)
    q_tilde = h_transform_general(qc, h)
    phi = solve_phi_general(q_tilde)
    mu = solve_mu_general(q_tilde)
    v0, z0_rayleigh, z0s = initials_general(q_tilde, phi, mu)
    return GeneralInitials(h=h, q_tilde=q_tilde, phi=phi, mu=mu, v0=v0,
                           z0_rayleigh=z0_rayleigh, z0_safe=z0s)


def general_rqi(
    A,
    *,
    z0="safe",
    v0=None,
    tol_z=iterengine.DEFAULT_TOL_Z,
    tol_residual=iterengine.DEFAULT_TOL_RESIDUAL,
    max_iterations=50,
    store_vectors=False,
):
    """Maximal eigenpair of a real matrix with nonnegative off-diagonals.

    Shifts to generator form, builds the three sequences, runs weighted
    RQI, and recovers (rho(A), g) by undoing the shift and the
    h-scaling (eigenvector normalized to last component 1).  The trace
    records the internal shifts, i.e. estimates of lambda_min(-Qc) =
    m - rho(A), the scale on which the reproduction tables print.

    ``z0``: "safe" (default; falls back to "rayleigh" with the result
    flagged when phi_1 >= 1), "rayleigh", or a number.
    """
    A = as_square_matrix(A)
    qc, m = shift_to_qc(A)
    system = tridiagonal_from_dense(qc)
    init = compute_general_initials(qc, system=system)
    mu = init.mu
    q_tilde = init.q_tilde

    if v0 is None:
        start = init.v0
    elif isinstance(v0, str) and v0 == "uniform":
        ones = np.ones(len(mu))
        start = ones / weighted_norm(ones, mu)
    else:
        start = as_vector(v0)
        start = start / weighted_norm(start, mu)

    fallback = False
    if isinstance(z0, str):
        if z0 == "safe":
            if init.z0_safe is None:
                z_start, fallback = init.z0_rayleigh, True
            else:
                z_start = init.z0_safe
        elif z0 == "rayleigh":
            # the quotient of the vector the run actually starts from
            z_start = float(
                (mu * start * -matvec(q_tilde, start)).sum() / (mu * start * start).sum()
            )
        else:
            raise ValueError(f"unknown z0 choice {z0!r}")
    else:
        z_start = float(z0)

    neg_q = lambda vec: -matvec(q_tilde, vec)
    if isinstance(q_tilde, TridiagonalSystem):
        # keep tridiagonal runs O(N): banded solver on the transformed rates
        solver = tridiag._shifted_solver(q_tilde, mu, "generic")
    else:
        eye = np.eye(q_tilde.shape[0])

        def solver(z, v):
            return linsolve.dense_solve(-q_tilde - z * eye, v)

    z, v, trace = run_shifted_iteration(
        neg_q,
        solver,
        start,
        z_start,
        z_update="weighted_rayleigh",
        norm="l2mu",
        mu=mu,
        scale=matrix_scale(q_tilde),
        tol_z=tol_z,
        tol_residual=tol_residual,
        max_iterations=max_iterations,
        store_vectors=store_vectors,
    )
    g = init.h * v
    g = g / g[-1]
    result = EigenpairResult(
        eigenvalue=m - z,
        eigenvector=g,
        iterations=trace.iterations,
        residual=trace.steps[-1].residual,
        shift_m=m,
        h_scaling=init.h,
        norm_tag="l2mu",
        z0_fallback=fallback,
    )
    return result, trace
