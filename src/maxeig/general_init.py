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
``solve_mu_general`` solve these bordered systems as written, each from
one LU with one step of iterative refinement.  When some row of Qc has
killing beyond roundoff, -Qc is a nonsingular M-matrix, and all three
sequences are columns of its inverse, the chain's Green's function:
h ~ Qc^-1 e_N, phi ~ H^-1 Qc^-1 e_0 and mu ~ H Qc^-T e_N, H = Diag(h).
``general_rqi`` then takes them from one LU of -Qc (``_initials``),
where the bordered systems took three; they agree to roundoff.
Conservative Qc, with no killing, is singular, and there h = phi = 1
exactly: the transform is the identity and Q~ = Qc, as ``compute_h``
has it for chains with no interior killing, so only mu's bordered
system is solved.  Every LU here comes from ``linsolve._lu`` at z = 0,
which factors minus its matrix.

sqrt(phi) seeds the initial vector exactly as in the tridiagonal case,
and the safe initial shift (``tridiag.safe_z0``) copies the delta_1
formula with a 1/(1 - phi_1) correction.  Where phi_1 is not below
phi_0 by more than roundoff, which rules that shift out (always, on
conservative Qc), the run starts from the seed's Rayleigh quotient and
the result is flagged (``z0_fallback``).  Tridiagonal input, a
``TridiagonalSystem`` (shifted in its rates, never densified) or a dense
matrix recognised as one, is handed to ``tridiag.tridiag_rqi`` with the
banded solver and the safe shift, which keeps those runs O(N); the
results agree with the dense route to roundoff.  The dense route hands
h, phi, mu and Q~ itself to the tridiagonal pipeline's one body,
``tridiag._efficient_rqi``, which picks the start vector and the
initial shift, builds ``linsolve``'s shifted solve of Q~ and runs
weighted RQI, and then to its recovery; ``general_rqi`` takes only the
"safe" and "rayleigh" policies, so no route reads ``InitialData``'s
delta_1 property, and "safe" evaluates its peak once, in ``safe_z0``.

``general_rqi`` checks its options first, through the tridiagonal
pipeline's one helper, ``tridiag._check_options``, before
``shift_to_qc`` or any O(N) work.  The conservative answer
(``_conservative_pair``) and the dense body check none of them; the
tridiagonal route re-enters ``tridiag_rqi``, whose entry check costs a
few comparisons.

``general_rqi`` checks its matrix once, through ``numat.shift_to_qc``,
and recognises a tridiagonal Qc without checking it again
(``_tridiagonal_from_dense``, the public ``tridiagonal_from_dense``'s
kernel).  The recognition takes Qc's row sums, whose bits the killing
rates need (shift_to_qc's row sums of A, less m, round otherwise), and
reads the scale, a pass over |Qc|, only when a row sum could exceed
roundoff against it; the system it builds tests its rates in one pass
(see ``numat``).  Past that only ``h_transform_general``, and on
conservative input ``solve_mu_general``, check their input again, as
public functions do; the row-sum tests and the driver take the scale
unchecked (``numat._scale``).  A dense call with killing thus sweeps its
matrix for non-finite entries twice, where it swept it five times.

A conservative tridiagonal Qc, which comes from uniform killing (every
c_i of Q equal) or from conservative input, has rows that sum to zero,
so 0 with the ones vector is its maximal pair, exactly, and
``general_rqi`` returns rho = m with the ones vector without a step.  A
TridiagonalSystem is conservative when c - min(c) is exactly 0; a dense
Qc when each row sum is within roundoff of that row's own entries.
That rule is stricter than ``_initials``' global one, which only picks
the initials and leaves the killing to the run: here no run follows, so
a row's real killing below the scale of the whole matrix must not be
taken for roundoff.

A dense run holds at most three order-n matrices beyond its input: Qc
and the initials' LU (packed -Qc and a work array); then Qc and Q~, as
the LU is dropped first; then Q~ and the run's LU, as ``general_rqi``
drops Qc.  The scale and the transform's ratios are formed a row block
at a time, never as an n^2 temporary.
"""

from __future__ import annotations

import numpy as np

from . import iterengine, linsolve, tridiag
from .errors import InvalidInput, NonPositiveSequence
from .numat import (TridiagonalSystem, _apply, _rows_per_block, _scale, as_square_matrix,
                    as_vector, shift_to_qc)
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

# row-sum roundoff, relative to matrix_scale or, where general_rqi decides a
# run has no killing, to each row's own entries: a row sum beyond it is killing
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

    ``rows`` is a real slice of a checked matrix: x_1.. solve the square
    system -B x = c, B = rows[:, 1:] and c = rows[:, 0], from one LU
    (the band LU when its band pays, as a banded matrix's slices are
    banded too) with one step of iterative refinement, as in _initials.
    """
    if np.iscomplexobj(rows):
        raise InvalidInput(f"{what} needs a real matrix")
    n = rows.shape[1]
    x = np.ones(n)
    if n > 1:
        B, c = rows[:, 1:], rows[:, 0]
        solve = linsolve._lu(B, 2)(0.0)
        y = solve(c)
        x[1:] = y + solve(c + B @ y)
    return _unit_head(x, sequence, what)


def _require_phi_diagonal(q_tilde):
    """phi's jump chain needs q~_ii < 0 in rows 1..N."""
    if (np.diagonal(q_tilde)[1:] >= 0).any():
        raise InvalidInput("phi requires strictly negative diagonal entries in rows 1..N")


def solve_h_general(qc):
    """Harmonic vector of Qc away from the right endpoint, h_0 = 1."""
    return _solve_with_unit_head(as_square_matrix(qc)[:-1, :], "h", "harmonic vector h")


def h_transform_general(qc, h):
    """Similarity transform Diag(h)^-1 Qc Diag(h), entrywise q_ij (h_j / h_i).

    A new matrix, formed in row blocks (``numat._rows_per_block``), so the
    ratios h_j / h_i never fill an n^2 temporary.  Raises InvalidInput when
    a ratio is not finite: h has a zero, or entries so far apart that a
    ratio overflows.
    """
    qc = as_square_matrix(qc)
    h = as_vector(h)
    if len(h) != qc.shape[0]:
        raise InvalidInput("h length must match the matrix order")
    q_tilde = np.empty(qc.shape, np.result_type(qc, h))
    rows = _rows_per_block(qc)
    for i in range(0, len(h), rows):
        block = q_tilde[i:i + rows]     # the block's ratios, then its entries
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.divide(h, h[i:i + rows, None], out=block)
        if not np.isfinite(block).all():
            raise InvalidInput("h_transform_general needs every ratio h_j / h_i finite: "
                               "h has a zero or entries too far apart")
        np.multiply(qc[i:i + rows], block, out=block)
    return q_tilde


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
    LU resolves each entry to working accuracy.  The LU is dropped
    before Q~ is made, as a new matrix: the caller's Qc is left as it
    was.  Conservative Qc is singular; there h = phi = 1 exactly, Q~ is
    Qc itself, and only mu is solved, from its bordered system
    (solve_mu_general).
    """
    _require_phi_diagonal(qc)    # the transform keeps the diagonal
    n = qc.shape[0]
    if not (qc.sum(axis=1) < -_ROUNDOFF * _scale(qc)).any():
        # no killing: h = phi = 1 exactly and the transform is the identity
        return np.ones(n), qc, np.ones(n), solve_mu_general(qc)
    solve = linsolve._lu(qc, 3)(0.0)    # with -Qc; the unit heads cancel the sign
    ends = np.zeros((n, 2))
    ends[-1, 0] = ends[0, 1] = 1.0
    columns = solve(ends)
    columns += solve(ends + qc @ columns)
    row = solve(ends[:, 0], transpose=True)
    row += solve(ends[:, 0] + qc.T @ row, transpose=True)
    del solve   # its LU work array, a matrix, before Q~ is made
    h = _unit_head(columns[:, 0], "h", "harmonic vector h")
    phi = _unit_head(columns[:, 1] / h, "phi", "tail sequence phi")
    mu = _unit_head(h * row, "mu", "invariant measure mu")
    return h, h_transform_general(qc, h), phi, mu


def tridiagonal_from_dense(A):
    """Recognize a dense generator as a TridiagonalSystem, or return None.

    Requires exact zeros outside the three diagonals, strictly positive
    couplings, and nonpositive row sums (the killing rates c = -row sums).
    """
    return _tridiagonal_from_dense(as_square_matrix(A))


def _tridiagonal_from_dense(A):
    """tridiagonal_from_dense without its check, for a checked square A.

    A row sum beyond roundoff, -c_i > _ROUNDOFF * _scale(A), refuses A.  As
    the scale is at least max |a_ii|, the pass over |A| it takes is made
    only when some -c_i exceeds _ROUNDOFF * max |a_ii|.
    """
    if np.iscomplexobj(A) or A.shape[0] < 2:
        return None
    a, d, b = (A.diagonal(k) for k in (-1, 0, 1))
    # an entry outside the band is nonzero exactly when A has more nonzeros than its band
    if np.count_nonzero(A) != sum(np.count_nonzero(x) for x in (a, d, b)):
        return None
    if a.min() <= 0 or b.min() <= 0:
        return None
    c = -A.sum(axis=1)
    if (c < -_ROUNDOFF * np.abs(d).max()).any() and (c < -_ROUNDOFF * _scale(A)).any():
        return None
    c[c < 0] = 0.0
    return TridiagonalSystem.from_rates(a, b, c)


def _conservative_pair(system, tol_z):
    """(result, trace) of a conservative tridiagonal Qc (see general_rqi).

    Its rows sum to zero, so lambda_min(-Qc) = 0 with the ones vector is
    its maximal pair, exactly, and the run takes no step.  The trace
    holds that pair's relative residual, zero or roundoff, and the
    shift-change tolerance of ``tol_z`` at its order.  It checks no
    option: general_rqi checked them all at entry.
    """
    ones = np.ones(system.order)
    residual = iterengine._relative_residual(iterengine._l2_norm, _apply(system, ones), 0.0,
                                             ones, _scale(system), np.empty(system.order))
    trace = iterengine.IterationTrace(tol_z=iterengine._shift_tolerance(tol_z, system.order))
    trace.record(0, 0.0, residual, 0.0)
    trace.termination = "converged"
    return iterengine._result(0.0, ones, trace)


def general_rqi(
    A,
    *,
    z0="safe",
    v0="efficient",
    tol_z=iterengine.DEFAULT_TOL_Z,
    tol_residual=iterengine.DEFAULT_TOL_RESIDUAL,
    max_iterations=iterengine.DEFAULT_MAX_ITERATIONS,
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
    in O(N) memory, and runs as it is when min(c) = 0.  When the shifted
    tridiagonal system is conservative, the result is rho = m with the
    ones vector, exactly, after no step: for a TridiagonalSystem when
    every c is equal, or zero, so that c - min(c) is exactly 0; for a
    dense matrix when each row of Qc sums to no more than roundoff
    against that row's own entries, as a dense form of uniform killing
    leaves it.  A row's killing is never judged against the scale of
    the whole matrix, as a small row's real killing can fall below it.

    ``z0``: "safe" (default; falls back to the Rayleigh quotient of the
    efficient seed, with the result flagged, when phi_1 is not below
    phi_0 by more than roundoff),
    "rayleigh", or a number.  ``v0``: "efficient" (the seed sqrt(phi),
    default) or "uniform".  The options are checked here, before the
    matrix is read (``tridiag._check_options``), and on no route below.
    """
    tridiag._check_options(Z0_POLICIES, z0, v0, tol_z, tol_residual, max_iterations)
    opts = {"tol_z": tol_z, "tol_residual": tol_residual, "max_iterations": max_iterations}
    if isinstance(A, TridiagonalSystem):
        # Qc = Q - m I, m = -min(c) the max row sum; +0.0, not -0.0, when min(c) is 0,
        # and then Qc is Q itself; c + m is exactly c - min(c)
        m = 0.0 - float(A.c.min())
        system = A if m == 0.0 else TridiagonalSystem(A.a, A.b, A.c + m)
        conservative = not system.c.any()
    else:
        qc, m = shift_to_qc(A)
        if qc.shape[0] < 2:
            raise InvalidInput("general_rqi needs a matrix of order at least 2")
        system = _tridiagonal_from_dense(qc)
        # each row sum against its own row's roundoff, a_i + |qc_ii| + b_i
        conservative = system is not None and bool(
            (system.c <= _ROUNDOFF * (system.a + system.b - qc.diagonal())).all())
    if conservative:
        result, trace = _conservative_pair(system, tol_z)
    elif system is not None:
        result, trace = tridiag.tridiag_rqi(system, z0=z0, v0=v0, **opts)
    else:
        h, q_tilde, phi, mu = _initials(qc)
        del qc      # Q~ alone goes on to the run, which adds its LU's two matrices
        init = tridiag.InitialData(mu=mu, phi=phi, v0_raw=np.sqrt(phi))
        result, trace = tridiag._efficient_rqi(q_tilde, h, init, z0, v0, **opts)
    return tridiag.recover_original(result, m=m), trace
