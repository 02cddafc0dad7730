"""Efficient initials for general irreducible matrices with nonnegative off-diagonals.

The three sequences that drive the tridiagonal pipeline carry over to
the general case through their probabilistic meaning, each defined by
one linear system on the shifted generator Qc = A - mI with one
equation dropped:

* h  -- harmonic for every row but the last (h_0 = 1); its diagonal
  similarity transform pushes all killing to the right endpoint;
* phi -- the transiency tail, fixed by all rows but the first of the
  jump-chain matrix P = D^-1 Q~ + I, D = Diag(-q~_ii), which are those
  rows of the transformed generator Q~ (phi_0 = 1);
* mu -- the invariant weighting, fixed by all columns but the last
  (mu_0 = 1).

The public ``solve_h_general``, ``solve_phi_general`` and
``solve_mu_general`` solve these bordered systems as written.  When some
row of Qc has killing beyond roundoff, -Qc is a nonsingular M-matrix,
and all three sequences are columns of its inverse, the chain's Green's
function: h ~ Qc^-1 e_N, phi ~ H^-1 Qc^-1 e_0 and mu ~ H Qc^-T e_N,
H = Diag(h).  ``general_rqi`` then takes them from one LU of Qc
(``_initials``), where the bordered systems took three; they agree to
roundoff.  Conservative Qc, with no killing, is singular, and there
``general_rqi`` runs the bordered systems.

sqrt(phi) seeds the initial vector exactly as in the tridiagonal case,
and the safe initial shift (``tridiag.safe_z0``) copies the delta_1
formula with a 1/(1 - phi_1) correction.  Where phi_1 >= phi_0 rules
that shift out, the run starts from the seed's Rayleigh quotient and
the result is flagged (``z0_fallback``).  Tridiagonal input, a
``TridiagonalSystem`` (shifted in its rates, never densified) or a dense
matrix recognised as one, is handed to ``tridiag.tridiag_rqi`` with the
banded solver and the safe shift, which keeps those runs O(N); the
results agree with the dense route to roundoff.  The dense route hands
h, phi, mu and ``linsolve``'s shifted solve of Q~ itself to the same
body that runs the tridiagonal pipeline's start vector, initial shift
and weighted RQI (``tridiag._efficient_rqi``), and to its recovery; it
has no delta_1, so it takes only the "safe" and "rayleigh" policies.

``general_rqi`` calls public functions that check their own input:
``numat.shift_to_qc``, ``tridiagonal_from_dense``, ``h_transform_general``,
and on conservative input the three ``solve_*_general``.  Their checks
sweep an order-400 matrix with killing for non-finite entries five times
per call, about 0.3 ms of a 14-20 ms call (2-core Xeon, one BLAS thread);
only the iteration loop below them calls unchecked kernels.
"""

from __future__ import annotations

import numpy as np

from . import iterengine, linsolve, tridiag
from .errors import InvalidInput, NonPositiveSequence
from .numat import TridiagonalSystem, as_square_matrix, as_vector, matrix_scale, shift_to_qc
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

# row-sum roundoff, relative to matrix_scale: a row sum beyond it is killing
# (or, positive, a negative killing rate)
_ROUNDOFF = 1e-12


def _unit_head(x, sequence, what):
    """x / x_0; raise NonPositiveSequence unless every entry is positive."""
    with np.errstate(divide="ignore", invalid="ignore"):   # x_0 = 0 fails below
        x = x / x[0]
    if not (x > 0).all():
        raise NonPositiveSequence(
            sequence, f"{what} has non-positive components (min {x.min():.3g}); "
            "input is not irreducible with the assumed structure")
    return x


def _solve_with_unit_head(rows, sequence, what):
    """Solve rows @ x = 0 for x with x_0 = 1; raise NonPositiveSequence if any x_i <= 0.

    ``rows`` is a slice of a matrix; the solve takes the band LU when its
    band pays, as a banded matrix's slices are banded too.
    """
    n = rows.shape[1]
    x = np.ones(n)
    if n > 1:
        x[1:] = linsolve.dense_solve(rows[:, 1:], -rows[:, 0])
    return _unit_head(x, sequence, what)


def _require_phi_diagonal(q_tilde):
    """phi's jump chain needs q~_ii < 0 in rows 1..N."""
    if (np.diagonal(q_tilde)[1:] >= 0).any():
        raise InvalidInput("phi requires strictly negative diagonal entries in rows 1..N")


def solve_h_general(qc):
    """Harmonic vector of Qc away from the right endpoint, h_0 = 1."""
    return _solve_with_unit_head(as_square_matrix(qc)[:-1, :], "h", "harmonic vector h")


def h_transform_general(qc, h):
    """Similarity transform Diag(h)^-1 Qc Diag(h), entrywise q_ij h_j / h_i."""
    qc = as_square_matrix(qc)
    h = as_vector(h)
    if len(h) != qc.shape[0]:
        raise InvalidInput("h length must match the matrix order")
    return qc * (h[None, :] / h[:, None])


def solve_phi_general(q_tilde):
    """Tail sequence: rows 1..N of Q~ phi = 0 with phi_0 = 1.

    The paper states it on the jump chain P = D^-1 Q~ + I, D = Diag(-q~_ii):
    there I - P = -D^-1 Q~, so rows 1..N of (I - P) phi = 0 are the same
    equations, and phi is solved without forming P.  As P needs it,
    q~_ii < 0 is required in those rows.
    """
    q_tilde = as_square_matrix(q_tilde)
    _require_phi_diagonal(q_tilde)
    return _solve_with_unit_head(q_tilde[1:, :], "phi", "tail sequence phi")


def solve_mu_general(q_tilde):
    """Invariant weighting: first N rows of Q^T mu = 0 with mu_0 = 1."""
    return _solve_with_unit_head(as_square_matrix(q_tilde).T[:-1, :], "mu", "invariant measure mu")


def _initials(qc):
    """h, Q~, phi and mu of the checked Qc, with the checks of the public steps.

    When some row of Qc has killing beyond roundoff, -Qc (irreducible) is
    a nonsingular M-matrix, and its inverse, the chain's Green's function,
    holds all three sequences: h is Qc^-1 e_N, phi is H^-1 Qc^-1 e_0 and
    mu is H Qc^-T e_N, H = Diag(h), each scaled to a unit head.  One LU of
    Qc gives them.  A column of the inverse spans as many orders of
    magnitude as h does, and the LU resolves its small entries only to
    eps times its largest; one step of iterative refinement on the same
    LU resolves each entry to working accuracy.  Conservative Qc is
    singular; there the three bordered systems of solve_h_general,
    solve_phi_general and solve_mu_general run, each with one equation
    dropped.
    """
    if not (qc.sum(axis=1) < -_ROUNDOFF * matrix_scale(qc)).any():
        h = solve_h_general(qc)
        q_tilde = h_transform_general(qc, h)
        return h, q_tilde, solve_phi_general(q_tilde), solve_mu_general(q_tilde)
    _require_phi_diagonal(qc)    # the transform keeps the diagonal
    n = qc.shape[0]
    solve = linsolve._lu_solver(qc, 3)
    ends = np.zeros((n, 2))
    ends[-1, 0] = ends[0, 1] = 1.0
    columns = solve(ends)
    columns += solve(ends - qc @ columns)
    row = solve(ends[:, 0], transpose=True)
    row += solve(ends[:, 0] - qc.T @ row, transpose=True)
    h = _unit_head(columns[:, 0], "h", "harmonic vector h")
    phi = _unit_head(columns[:, 1] / h, "phi", "tail sequence phi")
    mu = _unit_head(h * row, "mu", "invariant measure mu")
    return h, h_transform_general(qc, h), phi, mu


def tridiagonal_from_dense(A):
    """Recognize a dense generator as a TridiagonalSystem, or return None.

    Requires exact zeros outside the three diagonals, strictly positive
    couplings, and nonpositive row sums (the killing rates c = -row sums).
    """
    A = as_square_matrix(A)
    if np.iscomplexobj(A) or A.shape[0] < 2:
        return None
    a, d, b = (np.diagonal(A, k) for k in (-1, 0, 1))
    # an entry outside the band is nonzero exactly when A has more nonzeros than its band
    if np.count_nonzero(A) != sum(np.count_nonzero(x) for x in (a, d, b)):
        return None
    if (a <= 0).any() or (b <= 0).any():
        return None
    c = -A.sum(axis=1)
    if (c < -_ROUNDOFF * matrix_scale(A)).any():
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
    Tridiagonal input runs ``tridiag_rqi`` with the banded solver: a
    dense matrix recognised as tridiagonal, or a TridiagonalSystem Q,
    which is shifted by m = -min(c) in its rates, (a, b, c - min(c)),
    in O(N) memory.

    ``z0``: "safe" (default; falls back to the Rayleigh quotient of the
    efficient seed, with the result flagged, when phi_1 >= phi_0),
    "rayleigh", or a number.  ``v0``: "efficient" (the seed sqrt(phi),
    default) or "uniform".
    """
    if isinstance(z0, str) and z0 not in Z0_POLICIES:
        raise InvalidInput(f"unknown z0 choice {z0!r}")
    opts = {"tol_z": tol_z, "tol_residual": tol_residual, "max_iterations": max_iterations}
    if isinstance(A, TridiagonalSystem):
        # Qc = Q - m I, m = -min(c) the max row sum; +0.0, not -0.0, when min(c) is 0
        m, system = 0.0 - float(A.c.min()), TridiagonalSystem(A.a, A.b, A.c - A.c.min())
    else:
        qc, m = shift_to_qc(A)
        if qc.shape[0] < 2:
            raise InvalidInput("general_rqi needs a matrix of order at least 2")
        system = tridiagonal_from_dense(qc)
    if system is not None:
        result, trace = tridiag.tridiag_rqi(system, z0=z0, v0=v0, **opts)
    else:
        h, q_tilde, phi, mu = _initials(qc)
        solve = linsolve._shifted_solver(q_tilde)
        result, trace = tridiag._efficient_rqi(q_tilde, solve, h, mu, phi, None, z0, v0, **opts)
    return tridiag.recover_original(result, m=m), trace
