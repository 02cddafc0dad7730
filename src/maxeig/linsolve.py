"""Linear-system solvers backing the inverse/RQI iterations.

Two routes:

- ``tridiag_solve``, a banded elimination for real tridiagonal systems.
  Its O(N) loop indexes plain Python floats through memoryviews of
  float64 buffers, so no step boxes a numpy scalar.
- ``dense_solve``, LAPACK ``gesv`` (LU with partial pivoting) through
  ``numpy.linalg.solve`` and numpy's bundled LAPACK, real or complex.

Shifted-inverse iteration deliberately drives these systems toward
singularity, so "nearly singular" is the normal operating regime here
and must not error.  Only an exact hit on an eigenvalue raises
SolverBreakdown, and the iteration driver handles that: a tridiagonal
pivot below an absolute floor, or a dense system on which ``gesv`` meets
an exactly zero pivot or returns a non-finite solution.

``scipy.linalg`` is deliberately not imported: numpy's ``gesv`` is the
same routine, and importing scipy would add about 28 MiB of resident
memory and a third of a second to every process that solves a system.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, SolverBreakdown
from .numat import as_square_matrix, as_vector

__all__ = ["PIVOT_FLOOR", "dense_solve", "tridiag_solve"]

# Far below any legitimate pivot at desk scale; signals an exact eigenvalue hit.
PIVOT_FLOOR = 1e-30


def tridiag_solve(lower, diag, upper, rhs):
    """Solve a tridiagonal system by elimination with adjacent-row pivoting.

    ``lower[i]`` couples row i+1 to column i, ``upper[i]`` row i to
    column i+1.  Row swaps between adjacent rows create fill-in on a
    second super-diagonal, which is carried explicitly; this keeps the
    solve stable on the shifted, nearly singular systems RQI produces,
    where the pivot-free forward recurrence can fail.

    Raises InvalidInput for complex input and SolverBreakdown when a
    pivot falls below PIVOT_FLOOR.
    """
    diag = as_vector(diag)
    n = len(diag)
    lower = as_vector(lower) if n > 1 else np.zeros(0)
    upper = as_vector(upper) if n > 1 else np.zeros(0)
    rhs = as_vector(rhs)
    if n > 1 and (len(lower) != n - 1 or len(upper) != n - 1):
        raise InvalidInput("lower/upper diagonals must have length n-1")
    if len(rhs) != n:
        raise InvalidInput("rhs length does not match the system order")

    if any(np.iscomplexobj(a) for a in (lower, diag, upper, rhs)):
        raise InvalidInput("tridiag_solve takes real input only")
    work = [np.array(a, dtype=np.float64) for a in (lower, diag, upper, rhs, np.zeros(n))]
    l, d, u, x, s = map(memoryview, work)  # s: fill-in second super-diagonal

    for i in range(n - 1):
        if abs(l[i]) > abs(d[i]):
            # bring the larger sub-diagonal entry onto the pivot
            d[i], l[i] = l[i], d[i]
            u[i], d[i + 1] = d[i + 1], u[i]
            if i + 1 < n - 1:
                s[i], u[i + 1] = u[i + 1], s[i]
            else:
                s[i] = 0.0
            x[i], x[i + 1] = x[i + 1], x[i]
        if abs(d[i]) < PIVOT_FLOOR:
            raise SolverBreakdown(f"tridiagonal pivot {d[i]!r} below floor at row {i}")
        f = l[i] / d[i]
        d[i + 1] = d[i + 1] - f * u[i]
        if i + 1 < n - 1:
            u[i + 1] = u[i + 1] - f * s[i]
        x[i + 1] = x[i + 1] - f * x[i]

    if abs(d[n - 1]) < PIVOT_FLOOR:
        raise SolverBreakdown(f"tridiagonal pivot {d[n - 1]!r} below floor at row {n - 1}")

    x[n - 1] = x[n - 1] / d[n - 1]
    if n > 1:
        x[n - 2] = (x[n - 2] - u[n - 2] * x[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - u[i] * x[i + 1] - s[i] * x[i + 2]) / d[i]
    return work[3]


def dense_solve(A, rhs):
    """Solve A x = rhs by LU with partial pivoting (LAPACK ``gesv``).

    Raises SolverBreakdown when ``gesv`` meets an exactly zero pivot or
    the solution is not finite.
    """
    A = as_square_matrix(A)
    rhs = as_vector(rhs)
    if len(rhs) != A.shape[0]:
        raise InvalidInput("rhs length does not match the matrix order")
    try:
        x = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverBreakdown(f"gesv: {exc}") from exc
    if not np.isfinite(x).all():
        raise SolverBreakdown("gesv returned a non-finite solution")
    return x
