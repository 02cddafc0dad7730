"""Linear-system solvers backing the inverse/RQI iterations.

Two routes:

- ``tridiag_solve``, LAPACK ``dgtsv`` (elimination with partial
  pivoting between adjacent rows) for real tridiagonal systems, called
  through ``ctypes`` from the LAPACK library numpy's own ``linalg`` is
  linked against.  The symbol is looked up once at import, and
  ``GTSV_SYMBOL`` names the one found.  When the library exports none
  of the names tried, GTSV_SYMBOL is None and a Python loop with the
  same arithmetic takes its place: bitwise the same solutions, 20-50
  times more slowly from order 10^3 up.
- ``dense_solve``, LAPACK ``gesv`` (LU with partial pivoting) through
  ``numpy.linalg.solve`` and numpy's bundled LAPACK, real or complex.

Shifted-inverse iteration deliberately drives these systems toward
singularity, so "nearly singular" is the normal operating regime here
and must not error.  Only an exact hit on an eigenvalue raises
SolverBreakdown, and the iteration driver handles that: a tridiagonal
pivot below an absolute floor or a non-finite tridiagonal solution, or a
dense system on which ``gesv`` meets an exactly zero pivot or returns a
non-finite solution.

Validate once, at the public boundary: ``tridiag_solve`` and
``dense_solve`` check their inputs and then call the private kernels
``_gtsv`` and ``_gesv``.  Iteration loops that build their own
systems from already-checked data call the kernels directly; the
kernels keep every breakdown check (pivot floor, zero pivot,
non-finite solution) and skip only the input checks.

``scipy.linalg`` is deliberately not imported: numpy's LAPACK has the
same routines, and importing scipy would add about 28 MiB of resident
memory and a third of a second to every process that solves a system.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .errors import InvalidInput, SolverBreakdown
from .numat import as_square_matrix, as_vector

__all__ = ["GTSV_SYMBOL", "PIVOT_FLOOR", "dense_solve", "tridiag_solve"]

# Far below any legitimate pivot at desk scale; signals an exact eigenvalue hit.
PIVOT_FLOOR = 1e-30

# dgtsv exports tried in turn, with their LAPACK integer type: numpy's
# bundled OpenBLAS (ILP64, prefixed and suffixed), an older ILP64
# OpenBLAS, then a plain LP64 LAPACK
_GTSV_EXPORTS = (("scipy_dgtsv_64_", ctypes.c_int64), ("dgtsv_64_", ctypes.c_int64),
                 ("dgtsv_", ctypes.c_int32))


def _load_dgtsv():
    """(symbol, dgtsv(dl, d, du, b) -> info) from numpy's LAPACK, or (None, None).

    Opening numpy's ``linalg`` extension by its path reaches the LAPACK
    library it links, and symbol lookup through that handle searches
    its dependencies too.
    """
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError, AttributeError):
        return None, None
    for symbol, int_t in _GTSV_EXPORTS:
        fn = getattr(lib, symbol, None)
        if fn is not None:
            break
    else:
        return None, None
    fn.argtypes = [ctypes.c_void_p] * 8
    fn.restype = None

    def dgtsv(dl, d, du, b):
        n, nrhs, info = int_t(len(d)), int_t(1), int_t(0)
        fn(ctypes.byref(n), ctypes.byref(nrhs), dl.ctypes.data, d.ctypes.data,
           du.ctypes.data, b.ctypes.data, ctypes.byref(n), ctypes.byref(info))
        return info.value

    return symbol, dgtsv


GTSV_SYMBOL, _dgtsv = _load_dgtsv()


def _gtsv_loop(dl, d, du, b):
    """dgtsv's elimination as a Python loop: same arithmetic, same in-place results.

    Plain Python floats are read and written through memoryviews, so no
    step boxes a numpy scalar.  Row i is swapped with row i+1 when the
    sub-diagonal entry is the larger in magnitude; the swap's fill-in on
    the second super-diagonal is left in ``dl``, U's diagonal in ``d``,
    its first super-diagonal in ``du`` and the solution in ``b``.
    Returns 0, or i+1 when pivot i is exactly zero.
    """
    l, d, u, x = map(memoryview, (dl, d, du, b))
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(l[i]):
            if d[i] == 0.0:
                return i + 1
            f = l[i] / d[i]
            d[i + 1] = d[i + 1] - f * u[i]
            x[i + 1] = x[i + 1] - f * x[i]
            if i < n - 2:
                l[i] = 0.0
        else:
            f = d[i] / l[i]
            d[i] = l[i]
            t = d[i + 1]
            d[i + 1] = u[i] - f * t
            if i < n - 2:
                l[i] = u[i + 1]
                u[i + 1] = -f * l[i]
            u[i] = t
            t = x[i]
            x[i] = x[i + 1]
            x[i + 1] = t - f * x[i + 1]
    if d[n - 1] == 0.0:
        return n
    x[n - 1] = x[n - 1] / d[n - 1]
    if n > 1:
        x[n - 2] = (x[n - 2] - u[n - 2] * x[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - u[i] * x[i + 1] - l[i] * x[i + 2]) / d[i]
    return 0


def tridiag_solve(lower, diag, upper, rhs):
    """Solve a tridiagonal system by elimination with adjacent-row pivoting.

    ``lower[i]`` couples row i+1 to column i, ``upper[i]`` row i to
    column i+1.  Row swaps between adjacent rows create fill-in on a
    second super-diagonal; this keeps the solve stable on the shifted,
    nearly singular systems RQI produces, where the pivot-free forward
    recurrence can fail.  The solve is LAPACK ``dgtsv`` (see the module
    docstring) and returns a new array.

    The three diagonals are ``dgtsv``'s work space: contiguous, writable
    float64 arrays are overwritten, so a caller that solves many systems
    refills one set of arrays; any other input is copied first.  ``rhs``
    is always copied.

    Raises InvalidInput for complex input or mismatched lengths, and
    SolverBreakdown when a pivot falls below PIVOT_FLOOR or the solution
    is not finite.
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
    return _gtsv(*(np.require(a, np.float64, "CW") for a in (lower, diag, upper)), rhs)


def _gtsv(dl, d, du, rhs):
    """tridiag_solve without its input checks; raises SolverBreakdown as it does.

    ``dl``, ``d`` and ``du`` are contiguous, writable float64 arrays of
    lengths n-1, n, n-1 and are overwritten; ``rhs``, finite and real of
    length n, is copied.
    """
    x = np.array(rhs, dtype=np.float64)
    info = (_dgtsv or _gtsv_loop)(dl, d, du, x)
    if info:
        raise SolverBreakdown(f"tridiagonal pivot at row {info - 1} is exactly zero")
    pivots = np.abs(d, out=d)  # U's diagonal; d is work space
    if pivots.min() < PIVOT_FLOOR:
        row = int(pivots.argmin())
        raise SolverBreakdown(f"tridiagonal pivot {pivots[row]!r} below floor at row {row}")
    if not np.isfinite(x).all():
        raise SolverBreakdown("tridiagonal solve returned a non-finite solution")
    return x


def dense_solve(A, rhs):
    """Solve A x = rhs by LU with partial pivoting (LAPACK ``gesv``).

    Raises SolverBreakdown when ``gesv`` meets an exactly zero pivot or
    the solution is not finite.
    """
    A = as_square_matrix(A)
    rhs = as_vector(rhs)
    if len(rhs) != A.shape[0]:
        raise InvalidInput("rhs length does not match the matrix order")
    return _gesv(A, rhs)


def _gesv(A, rhs):
    """dense_solve without its input checks, for a finite square A and a fitting rhs."""
    try:
        x = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverBreakdown(f"gesv: {exc}") from exc
    if not np.isfinite(x).all():
        raise SolverBreakdown("gesv returned a non-finite solution")
    return x
