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
and the safe initial shift (``tridiag.safe_z0``) copies the delta_1
formula with a 1/(1 - phi_1) correction.  Where phi_1 >= phi_0 rules
that shift out, the run starts from the seed's Rayleigh quotient and
the result is flagged (``z0_fallback``).  Tridiagonal input is handed
to ``tridiag.tridiag_rqi`` with the banded solver and the safe shift,
which keeps those runs O(N); the results agree with the dense route to
roundoff.  The dense route hands h, phi and mu to the same body that
runs the tridiagonal pipeline's start vector, initial shift and
weighted RQI (``tridiag._efficient_rqi``), and to its recovery; it has
no delta_1, so it takes only the "safe" and "rayleigh" policies.
"""

from __future__ import annotations

import numpy as np

from . import iterengine, linsolve, tridiag
from .errors import InvalidInput, NonPositiveSequence
from .numat import TridiagonalSystem, _scale, _shift_to_qc, as_square_matrix, as_vector
from .tridiag import safe_z0

__all__ = [
    "solve_h_general",
    "h_transform_general",
    "solve_phi_general",
    "solve_mu_general",
    "safe_z0",
    "general_rqi",
    "tridiagonal_from_dense",
]

# initial-shift policies general_rqi accepts besides a number
Z0_POLICIES = ("safe", "rayleigh")


def _solve_with_unit_head(rows, sequence, what):
    """Solve rows @ x = 0 for x with x_0 = 1; raise NonPositiveSequence if any x_i <= 0.

    ``rows`` is a slice of an already-checked matrix; the solve takes
    dgbsv when its band pays, as a banded matrix's slices are banded too.
    """
    n = rows.shape[1]
    x = np.ones(n)
    if n > 1:
        x[1:] = linsolve._solve(rows[:, 1:], -rows[:, 0])
    if (x <= 0).any():
        raise NonPositiveSequence(
            sequence, f"{what} has non-positive components (min {x.min():.3g}); "
            "input is not irreducible with the assumed structure")
    return x


# Each public helper checks its input once and calls a private body;
# general_rqi checks its matrix once and calls the bodies, apart from
# h_transform_general, whose check costs a seventh of its product.


def solve_h_general(qc):
    """Harmonic vector of Qc away from the right endpoint, h_0 = 1."""
    return _solve_h(as_square_matrix(qc))


def _solve_h(qc):
    return _solve_with_unit_head(qc[:-1, :], "h", "harmonic vector h")


def h_transform_general(qc, h):
    """Similarity transform Diag(h)^-1 Qc Diag(h), entrywise q_ij h_j / h_i."""
    qc = as_square_matrix(qc)
    h = as_vector(h)
    if len(h) != qc.shape[0]:
        raise InvalidInput("h length must match the matrix order")
    return qc * (h[None, :] / h[:, None])


def jump_matrix(q_tilde):
    """P = Diag((-q_ii)^-1) Q + I, the embedded jump chain of the generator."""
    return _jump_matrix(as_square_matrix(q_tilde))


def _jump_matrix(q_tilde):
    d = -np.diag(q_tilde)
    if (d <= 0).any():
        raise InvalidInput("jump matrix requires strictly negative diagonal entries")
    return q_tilde / d[:, None] + np.eye(q_tilde.shape[0])


def solve_phi_general(q_tilde):
    """Tail sequence: rows 1..N of (I - P) phi = 0 with phi_0 = 1."""
    return _solve_phi(as_square_matrix(q_tilde))


def _solve_phi(q_tilde):
    p = _jump_matrix(q_tilde)
    rows = (np.eye(p.shape[0]) - p)[1:, :]
    return _solve_with_unit_head(rows, "phi", "tail sequence phi")


def solve_mu_general(q_tilde):
    """Invariant weighting: first N rows of Q^T mu = 0 with mu_0 = 1."""
    return _solve_mu(as_square_matrix(q_tilde))


def _solve_mu(q_tilde):
    return _solve_with_unit_head(q_tilde.T[:-1, :], "mu", "invariant measure mu")


def tridiagonal_from_dense(A):
    """Recognize a dense generator as a TridiagonalSystem, or return None.

    Requires exact zeros outside the three diagonals, strictly positive
    couplings, and nonpositive row sums (the killing rates c = -row sums).
    """
    return _tridiagonal(as_square_matrix(A))


def _tridiagonal(A):
    if np.iscomplexobj(A) or A.shape[0] < 2:
        return None
    a, d, b = (np.diagonal(A, k) for k in (-1, 0, 1))
    # an entry outside the band is nonzero exactly when A has more nonzeros than its band
    if np.count_nonzero(A) != sum(np.count_nonzero(x) for x in (a, d, b)):
        return None
    if (a <= 0).any() or (b <= 0).any():
        return None
    c = -A.sum(axis=1)
    if (c < -1e-12 * _scale(A)).any():
        return None
    c = np.where(c < 0, 0.0, c)
    return TridiagonalSystem.from_rates(a, b, c)


def general_rqi(
    A,
    *,
    z0="safe",
    v0="efficient",
    tol_z=iterengine.DEFAULT_TOL_Z,
    tol_residual=iterengine.DEFAULT_TOL_RESIDUAL,
    max_iterations=50,
):
    """Maximal eigenpair of a real matrix with nonnegative off-diagonals.

    Shifts to generator form, builds the three sequences, runs weighted
    RQI, and recovers (rho(A), g) by undoing the shift and the
    h-scaling (eigenvector normalized to last component 1).  The trace
    records the internal shifts, i.e. estimates of lambda_min(-Qc) =
    m - rho(A), the scale on which the reproduction tables print.
    Tridiagonal input runs ``tridiag_rqi`` with the banded solver.

    ``z0``: "safe" (default; falls back to the Rayleigh quotient of the
    efficient seed, with the result flagged, when phi_1 >= phi_0),
    "rayleigh", or a number.  ``v0``: "efficient" (the seed sqrt(phi),
    default) or "uniform".
    """
    if isinstance(z0, str) and z0 not in Z0_POLICIES:
        raise InvalidInput(f"unknown z0 choice {z0!r}")
    opts = {"tol_z": tol_z, "tol_residual": tol_residual, "max_iterations": max_iterations}
    qc, m = _shift_to_qc(as_square_matrix(A))
    system = _tridiagonal(qc)
    if system is not None:
        result, trace = tridiag.tridiag_rqi(system, z0=z0, v0=v0, **opts)
    else:
        h = _solve_h(qc)
        q_tilde = h_transform_general(qc, h)
        phi = _solve_phi(q_tilde)
        mu = _solve_mu(q_tilde)
        solve = linsolve._shifted_solver(-q_tilde)
        result, trace = tridiag._efficient_rqi(q_tilde, solve, h, mu, phi, None, z0, v0, **opts)
    return tridiag.recover_original(result, m=m), trace
