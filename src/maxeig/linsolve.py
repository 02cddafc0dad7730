"""Linear-system solvers backing the inverse/RQI iterations.

Three routes:

- ``tridiag_solve``, LAPACK ``dgtsv`` (elimination with partial
  pivoting between adjacent rows) for real tridiagonal systems.  When
  the LAPACK library exports no ``dgtsv``, GTSV_SYMBOL is None and a
  Python loop with the same arithmetic takes its place: bitwise the
  same solutions, 20-50 times more slowly from order 10^3 up.
- ``dense_solve`` on a real system whose matrix has its nonzeros in a
  narrow enough band: LAPACK ``dgbsv`` (banded LU with partial
  pivoting).  The band (kl sub- and ku super-diagonals) is read from the
  nonzeros once per matrix; when reversing the order, P A P, lowers kl,
  the solve runs on the reversed system, which turns lower Hessenberg
  into upper Hessenberg.  The band is taken when a cost rule says it
  pays (see _BAND_FIXED).  The rule counts packing the band once per
  matrix, so a run of shifted solves takes it sooner than a single
  solve: tridiagonal matrices from order 44 (single solves from 55), the
  grid Laplacian (kl = ku = sqrt(n)) from 81 (144) and Hessenberg ones
  from 160 (608).  Full matrices, complex ones or complex right-hand
  sides and shifts, small matrices, and every system when the library
  exports no ``dgbsv`` (GBSV_SYMBOL is None) take the next route, which
  gives the same numbers to roundoff.
- ``dense_solve`` otherwise: LAPACK ``gesv`` (LU with partial pivoting)
  through ``numpy.linalg.solve``, real or complex.

``dgtsv`` and ``dgbsv`` are called through ``ctypes`` from the LAPACK
library numpy's own ``linalg`` is linked against, looked up once at
import by one loader; ``GTSV_SYMBOL`` and ``GBSV_SYMBOL`` name the
symbols found.

Shifted-inverse iteration deliberately drives these systems toward
singularity, so "nearly singular" is the normal operating regime here
and must not error.  Only an exact hit on an eigenvalue raises
SolverBreakdown, and the iteration driver handles that: a tridiagonal
pivot below an absolute floor or a non-finite tridiagonal solution, or a
dense or banded system on which ``gesv`` or ``dgbsv`` meets an exactly
zero pivot or returns a non-finite solution.

Validate once, at the public boundary: ``tridiag_solve`` and
``dense_solve`` check their inputs and then call the private kernels
``_gtsv`` and ``_solve`` (which picks ``_gbsv`` or ``_gesv``).
Iteration loops that build their own systems from already-checked data
call the kernels directly, and the dense shifted-inverse iterations take
their solver from ``_shifted_solver``, which picks the route once per
run; the kernels keep every breakdown check (pivot floor, zero pivot,
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

__all__ = ["GBSV_SYMBOL", "GTSV_SYMBOL", "PIVOT_FLOOR", "dense_solve", "tridiag_solve"]

# Far below any legitimate pivot at desk scale; signals an exact eigenvalue hit.
PIVOT_FLOOR = 1e-30

# The band route's rule, in flops with gesv's 2n^3/3 doubled to n^3, so
# that the band must cost at most half of gesv: dgbsv's elimination costs
# 6n kl (kl + ku) flops and each call a fixed _BAND_FIXED, half an order-40
# gesv.  On top, _BAND_ENTRY per band entry, n (kl + ku + 1) of them,
# charged once per matrix: it covers packing the band and, as fitted,
# dgbsv's memory traffic on wide bands, which the flop count misses.  A
# shifted run shares that charge among its solves
# (_RUN_SOLVES; runs made 4.5 solves per problem on perfbench's `tiny`
# workload and 5.5 on `dense`).  The constants were fitted, with one BLAS
# thread, to where single solves and whole runs measured even (README,
# "Shifted solves").
_BAND_FIXED = 40**3
_BAND_ENTRY = 600
_RUN_SOLVES = 4

# LAPACK exports tried in turn for a routine, with their integer type:
# numpy's bundled OpenBLAS (ILP64, prefixed and suffixed), an older ILP64
# OpenBLAS, then a plain LP64 LAPACK
_LAPACK_EXPORTS = (("scipy_{}_64_", ctypes.c_int64), ("{}_64_", ctypes.c_int64),
                   ("{}_", ctypes.c_int32))


def _load_lapack(name, bind):
    """(symbol, bind(routine, integer type)) for LAPACK ``name``, or (None, None).

    Opening numpy's ``linalg`` extension by its path reaches the LAPACK
    library it links, and symbol lookup through that handle searches
    its dependencies too.
    """
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError, AttributeError):
        return None, None
    for pattern, int_t in _LAPACK_EXPORTS:
        symbol = pattern.format(name)
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = None
            return symbol, bind(fn, int_t)
    return None, None


def _bind_dgtsv(fn, int_t):
    """dgtsv(dl, d, du, b) -> info, overwriting all four arrays."""
    fn.argtypes = [ctypes.c_void_p] * 8

    def dgtsv(dl, d, du, b):
        n, nrhs, info = int_t(len(d)), int_t(1), int_t(0)
        fn(ctypes.byref(n), ctypes.byref(nrhs), dl.ctypes.data, d.ctypes.data,
           du.ctypes.data, b.ctypes.data, ctypes.byref(n), ctypes.byref(info))
        return info.value

    return dgtsv


def _bind_dgbsv(fn, int_t):
    """dgbsv(kl, ku, ab, b) -> info, overwriting the band ``ab`` and ``b``."""
    fn.argtypes = [ctypes.c_void_p] * 10
    ipiv_dtype = np.dtype(int_t)

    def dgbsv(kl, ku, ab, b):
        ldab, n = ab.shape
        # LAPACK reads and writes through these pointers unchecked
        if not (ab.flags.f_contiguous and ab.dtype == b.dtype == np.float64
                and b.flags.c_contiguous and len(b) == n and ldab > 2 * kl + ku):
            raise ValueError("dgbsv needs a float64 Fortran-order band of 2kl+ku+1 rows "
                             "and a contiguous float64 rhs of its order")
        ipiv = np.empty(n, ipiv_dtype)
        n_, kl_, ku_, nrhs, ldab_, info = map(int_t, (n, kl, ku, 1, ldab, 0))
        fn(ctypes.byref(n_), ctypes.byref(kl_), ctypes.byref(ku_), ctypes.byref(nrhs),
           ab.ctypes.data, ctypes.byref(ldab_), ipiv.ctypes.data, b.ctypes.data,
           ctypes.byref(n_), ctypes.byref(info))
        return info.value

    return dgbsv


GTSV_SYMBOL, _dgtsv = _load_lapack("dgtsv", _bind_dgtsv)
GBSV_SYMBOL, _dgbsv = _load_lapack("dgbsv", _bind_dgbsv)


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
    """Solve A x = rhs by LU with partial pivoting: LAPACK ``dgbsv`` when A is
    banded enough to pay (see the module docstring), ``gesv`` otherwise.

    Raises SolverBreakdown when the elimination meets an exactly zero
    pivot or the solution is not finite.
    """
    A = as_square_matrix(A)
    rhs = as_vector(rhs)
    if len(rhs) != A.shape[0]:
        raise InvalidInput("rhs length does not match the matrix order")
    return _solve(A, rhs)


def _gesv(A, rhs):
    """_solve's gesv route, for a finite square A, real or complex, and a fitting rhs."""
    try:
        x = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverBreakdown(f"gesv: {exc}") from exc
    if not np.isfinite(x).all():
        raise SolverBreakdown("gesv returned a non-finite solution")
    return x


def _bandwidths(A):
    """(kl, ku): the farthest sub- and super-diagonal of A holding a nonzero, 0 if none.

    Nonzeros in both off corners make the band the whole matrix, found
    without a scan, so dense input pays two reads.  Otherwise each row's
    first and last nonzero are read from a boolean mask of A, an eighth
    of A's size; no index array of the nonzeros is made.
    """
    n = A.shape[0]
    if A[-1, 0] and A[0, -1]:
        return n - 1, n - 1
    nonzero = A != 0
    rows = nonzero.any(axis=1)
    i = np.arange(n)
    kl = np.max(i - nonzero.argmax(axis=1), initial=0, where=rows)
    ku = np.max((n - 1 - i) - nonzero[:, ::-1].argmax(axis=1), initial=0, where=rows)
    return int(kl), int(ku)


def _band_route(A, solves):
    """(kl, ku, reverse) when dgbsv pays for ``solves`` solves with the
    square matrix A, or None for gesv.

    ``reverse`` means the solve runs on P A P, A with its order reversed,
    whose bandwidths (kl, ku) are A's swapped: this turns lower Hessenberg
    into upper Hessenberg.
    """
    n = A.shape[0]

    def pays(kl, ku):
        band = 6 * n * kl * (kl + ku) + _BAND_FIXED + _BAND_ENTRY * n * (kl + ku + 1) / solves
        return band <= n**3

    # the rule for a diagonal first, so small input skips the probe
    if _dgbsv is None or np.iscomplexobj(A) or not pays(0, 0):
        return None
    kl, ku = _bandwidths(A)
    reverse = ku < kl
    if reverse:
        kl, ku = ku, kl
    return (kl, ku, reverse) if pays(kl, ku) else None


def _band_storage(A, kl, ku, reverse):
    """A, or P A P with ``reverse``, in dgbsv's band storage.

    Fortran order, 2kl+ku+1 rows: row kl+ku+i-j of column j holds entry
    (i, j), so the diagonal is row kl+ku, and the first kl rows are
    zero, left for the fill-in of row interchanges.
    """
    if reverse:
        A = A[::-1, ::-1]
    n = A.shape[0]
    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    for k in range(-kl, ku + 1):
        ab[kl + ku - k, max(k, 0):n + min(k, 0)] = A.diagonal(k)
    return ab


def _gbsv(ab, kl, ku, rhs):
    """Solve the banded system held in ``ab`` (see _band_storage) by LAPACK ``dgbsv``.

    ``ab`` is overwritten with the factors; ``rhs``, finite and real, is
    copied.  Raises SolverBreakdown on an exactly zero pivot or a
    non-finite solution, as _gesv does.
    """
    x = np.array(rhs, dtype=np.float64)
    info = _dgbsv(kl, ku, ab, x)
    if info:
        raise SolverBreakdown(f"gbsv: pivot at row {info - 1} is exactly zero")
    if not np.isfinite(x).all():
        raise SolverBreakdown("gbsv returned a non-finite solution")
    return x


def _band_solver(A, solves):
    """solve(z, v) = (A - z I)^{-1} v by dgbsv for real z and v, or None
    when gesv pays for ``solves`` solves with the checked square A.

    This is the one function that knows the band layout: it packs A
    once, and as dgbsv overwrites its band, each solve refills one work
    band and subtracts z from its diagonal row.
    """
    route = _band_route(A, solves)
    if route is None:
        return None
    kl, ku, reverse = route
    band = _band_storage(A, kl, ku, reverse)
    work = np.empty_like(band)   # its first kl rows are fill-in space dgbsv need not find set
    step = -1 if reverse else 1

    def solve(z, v):
        np.copyto(work[kl:], band[kl:])
        work[kl + ku] -= z
        return _gbsv(work, kl, ku, v[::step])[::step]

    return solve


def _solve(A, rhs):
    """dense_solve without its input checks: dgbsv when A's band pays, else gesv."""
    band_solve = None if np.iscomplexobj(rhs) else _band_solver(A, 1)
    if band_solve is None:
        return _gesv(A, rhs)
    return band_solve(0.0, rhs)


def _shifted_solver(A):
    """solve(z, v) = (z I - A)^{-1} v for a checked square A.

    The route is chosen once, for a run of solves.  On the band route a
    complex z or v, which the real band cannot hold, takes gesv; the band
    solves (A - z I) x = v and returns -x, the same bits as solving
    (z I - A) x = v, since negating a matrix negates its factor U and
    nothing else in the elimination.
    """
    n = A.shape[0]
    band_solve = _band_solver(A, _RUN_SOLVES)
    if band_solve is None:
        eye = np.eye(n, dtype=A.dtype)
        return lambda z, v: _gesv(z * eye - A, v)

    def solve(z, v):
        if np.iscomplexobj(z) or np.iscomplexobj(v):
            return _gesv(z * np.eye(n) - A, v)
        return -band_solve(z, v)

    return solve
