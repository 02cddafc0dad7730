"""Linear-system solvers backing the inverse/RQI iterations.

Three routes:

- LAPACK ``dgtsv`` (elimination with partial pivoting between adjacent
  rows) for real tridiagonal systems: ``tridiag_solve``, and the shifted
  solves of a ``TridiagonalSystem``.  Without LAPACK a Python loop with
  the same arithmetic, ``_gtsv_loop``, takes its place: bitwise the same
  solutions, 20-50 times more slowly from order 10^3 up.
- Real dense systems: LU with partial pivoting, factored once and then
  solved, by LAPACK's pairs ``dgbtrf``/``dgbtrs`` on a band and
  ``dgetrf``/``dgetrs`` on a full matrix.  One factory, ``_lu(A,
  solves)``, builds every such solve: it packs -A once and returns
  refactor(z), which factors z I - A and returns solve(rhs, transpose),
  so solves with z I - A and with its transpose share one
  factorisation.  The band (kl sub- and ku super-diagonals) is read from
  the nonzeros once per matrix; when reversing the order, P A P, lowers
  kl, the LU runs on the reversed system, which turns lower Hessenberg
  into upper Hessenberg.  The band is taken when a cost rule says it pays
  for the caller's number of solves (see _BAND_FIXED).  The rule counts
  packing the band once per matrix, so a run of shifted solves takes it
  sooner than a single solve: tridiagonal matrices from order 44 (single
  solves from 55), the grid Laplacian (kl = ku = sqrt(n)) from 81 (144)
  and Hessenberg ones from 160 (608).  Without LAPACK ``gesv`` takes the
  place of both pairs, one LU per solve; the numbers agree to roundoff.
  With one BLAS thread ``dgetrf`` and ``dgetrs`` give the bits of
  numpy's ``gesv``; with more, OpenBLAS threads the two from different
  orders, and orders 100-141 round apart.
- ``gesv`` (LU with partial pivoting) through ``numpy.linalg.solve`` for
  complex matrices, right-hand sides and shifts.

The five routines are called through ``ctypes`` from the LAPACK library
numpy's own ``linalg`` is linked against.  One loader looks them up once,
at import, all from the first export family that has all five;
``LAPACK_EXPORT`` names that family's pattern (``scipy_{}_64_`` in
numpy's bundled OpenBLAS), or is None when no family has all five, and
then every solve takes the fallbacks above.  One binder, ``_prepare``,
converts a call's arguments once, so a run of shifted solves repeats
prepared calls: ``dgtsv`` is bound once per run and given only each
right-hand side's pointer, and ``_lu`` binds its factorisation and its
one-vector solve once per matrix.

Shifted-inverse iteration deliberately drives these systems toward
singularity, so "nearly singular" is the normal operating regime here
and must not error.  Only an exact hit on an eigenvalue raises
SolverBreakdown, and the iteration driver handles that.  One check,
``_checked``, serves every routine: an exactly zero pivot or a
non-finite solution raises SolverBreakdown naming ``dgtsv``,
``dgetrf``, ``dgetrs``, ``dgbtrf``, ``dgbtrs`` or ``gesv``; ``dgtsv``
also raises for a pivot below an absolute floor.

Validate once, at the public boundary: ``tridiag_solve`` and
``dense_solve`` check their inputs, and a caller that solves one system
calls them.  Other modules take their solves from two factories, given
an already-checked matrix.  Iteration loops, which solve (z I - A) x = v
for many shifts z, take theirs from ``_shifted_solver``, the one factory
for every shifted solve.  Every route it builds solves (z I - A) x = v as
it is written, with no negation after the solve: for a
``TridiagonalSystem`` it refills one set of ``dgtsv`` work arrays per
solve for the one call ``_gtsv`` binds, and for a real dense matrix it
refactors ``_lu``'s work array at each z.  ``general_init`` takes its
solves with -Qc, its transpose and the bordered systems from ``_lu`` at
z = 0, and ``dense_solve`` negates the solution it gets there.  No other
module calls a kernel or holds a LAPACK work array.  The kernels keep
every breakdown check and skip only the input checks.

``scipy.linalg`` is deliberately not imported: numpy's LAPACK has the
same routines, and importing scipy would add about 28 MiB of resident
memory and a third of a second to every process that solves a system.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .errors import InvalidInput, SolverBreakdown
from .numat import TridiagonalSystem, as_square_matrix, as_vector

__all__ = [
    "LAPACK_EXPORT",
    "PIVOT_FLOOR",
    "dense_solve",
    "tridiag_solve",
]

# Far below any legitimate pivot at desk scale; signals an exact eigenvalue hit.
PIVOT_FLOOR = 1e-30

# The band route's rule, in flops with the full LU's 2n^3/3 doubled to n^3,
# so that the band must cost at most half of it: the band LU's elimination
# costs 6n kl (kl + ku) flops and each factorisation a fixed _BAND_FIXED,
# half an order-40 full LU.  On top, _BAND_ENTRY per band entry,
# n (kl + ku + 1) of them, charged once per matrix: it covers packing the
# band and, as fitted, the band LU's memory traffic on wide bands, which
# the flop count misses.  Solves that share the packing share that charge
# (_RUN_SOLVES for a shifted run; runs made 4.5 solves per problem on
# perfbench's `tiny` workload and 5.5 on `dense`).  The constants were
# fitted, with one BLAS thread, against dgbsv and gesv, to where single
# solves and whole runs measured even (README, "Shifted solves"); dgbtrf
# then dgbtrs give dgbsv's bits, and dgetrf then dgetrs gesv's.
_BAND_FIXED = 40**3
_BAND_ENTRY = 600
_RUN_SOLVES = 4

# LAPACK exports tried in turn, with their integer type: numpy's bundled
# OpenBLAS (ILP64, prefixed and suffixed), an older ILP64 OpenBLAS, then a
# plain LP64 LAPACK
_LAPACK_EXPORTS = (("scipy_{}_64_", ctypes.c_int64), ("{}_64_", ctypes.c_int64),
                   ("{}_", ctypes.c_int32))
_ROUTINES = ("dgtsv", "dgetrf", "dgetrs", "dgbtrf", "dgbtrs")


def _load_lapack():
    """(the export pattern, (routines by name, integer type)) for the first
    family of _LAPACK_EXPORTS that exports every one of _ROUTINES, or
    (None, None).

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
        routines = {name: getattr(lib, pattern.format(name), None) for name in _ROUTINES}
        if None not in routines.values():
            return pattern, (routines, int_t)
    return None, None


def _prepare(lapack, name, *args):
    """call(array=None) -> info: LAPACK routine ``name`` of ``lapack`` on
    ``args``, converted once, so that a run can repeat the call on refilled
    arrays.

    Arrays pass by their data pointer, bytes (a character flag such as
    b"N") by pointer with its hidden length after ``info``, and integers
    by reference in LAPACK's integer type.  One argument may be None: each
    call then passes its ``array`` there, and keeps only that array's
    address, not the array.  The call keeps the other arrays alive; every
    size must already be checked.
    """
    routines, int_t = lapack
    fn, info = routines[name], int_t(0)
    pointers = [a.ctypes.data if isinstance(a, np.ndarray) else a if a is None or
                isinstance(a, bytes) else ctypes.byref(int_t(a)) for a in args]
    lengths = [1 for a in args if isinstance(a, bytes)]
    if fn.argtypes is None:     # every call of a routine passes as many arguments
        fn.restype = None
        fn.argtypes = [ctypes.c_void_p] * (len(args) + 1) + [ctypes.c_size_t] * len(lengths)
    late = next((i for i, a in enumerate(args) if a is None), None)
    pointers += [ctypes.byref(info), *lengths]

    def call(array=None):
        if late is not None:
            pointers[late] = array.ctypes.data
        fn(*pointers)
        return info.value

    call.arrays = args
    return call


def _check_layout(a, n, band):
    """LAPACK reads and writes through its pointers unchecked: refuse a
    factor array that is not float64 in Fortran order, or a band with too
    few rows for its fill-in."""
    rows = 2 * band[0] + band[1] + 1 if band else n
    if not (a.flags.f_contiguous and a.dtype == np.float64 and a.shape[0] >= max(rows, 1)):
        raise ValueError("LAPACK LU needs a float64 Fortran-order matrix, or a band "
                         "of 2kl+ku+1 rows")


LAPACK_EXPORT, _lapack = _load_lapack()


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
    docstring) on copies of the input and returns a new array; the
    arguments are left as they are.

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
    return _gtsv(*(np.array(a, np.float64) for a in (lower, diag, upper)))(rhs)


def _checked(routine, info, x=None):
    """x, the solution ``routine`` returned with LAPACK's ``info`` (None after a
    factorisation); the one place a zero pivot (info > 0) or a non-finite
    solution raises SolverBreakdown."""
    if info:
        raise SolverBreakdown(f"{routine}: pivot at row {info - 1} is exactly zero")
    if x is not None and not np.isfinite(x).all():
        raise SolverBreakdown(f"{routine} returned a non-finite solution")
    return x


def _gtsv(dl, d, du):
    """solve(rhs): tridiag_solve without its input checks, on the system
    held in ``dl``, ``d`` and ``du``; raises SolverBreakdown as it does.

    The three are contiguous, writable float64 arrays of lengths n-1, n,
    n-1, and each solve overwrites them, so a caller that solves again
    refills them first.  ``dgtsv`` is bound to them once, here; each solve
    passes it only the right-hand side, ``rhs`` (finite and real of
    length n) copied into a new array that becomes the solution, so a run
    of solves holds no solution buffer between them.
    """
    n, lapack = len(d), _lapack
    call = _prepare(lapack, "dgtsv", n, 1, dl, d, du, None, n) if lapack else None

    def solve(rhs):
        x = np.array(rhs, dtype=np.float64)
        if x.shape != d.shape:
            raise ValueError("dgtsv needs a right-hand side of the system's order")
        info = call(x) if call else _gtsv_loop(dl, d, du, x)
        if not info:
            pivots = np.abs(d, out=d)  # U's diagonal; d is work space
            if pivots.min() < PIVOT_FLOOR:
                row = int(pivots.argmin())
                raise SolverBreakdown(f"dgtsv: pivot {float(pivots[row])!r} below floor "
                                      f"at row {row}")
        return _checked("dgtsv", info, x)

    return solve


def dense_solve(A, rhs):
    """Solve A x = rhs by LU with partial pivoting: LAPACK ``dgbtrf``/``dgbtrs``
    when A is banded enough to pay, ``dgetrf``/``dgetrs`` otherwise, and
    ``gesv`` for complex input (see the module docstring).

    Raises SolverBreakdown when the elimination meets an exactly zero
    pivot or the solution is not finite.
    """
    A = as_square_matrix(A)
    rhs = as_vector(rhs)
    if len(rhs) != A.shape[0]:
        raise InvalidInput("rhs length does not match the matrix order")
    if np.iscomplexobj(A) or np.iscomplexobj(rhs):
        return _gesv(A, rhs)
    return -_lu(A, 1)(0.0)(rhs)     # -A^{-1} rhs, negated exactly


def _gesv(A, rhs):
    """The gesv route, ``numpy.linalg.solve``, for a finite square A and a
    fitting rhs: complex input, and real input without LAPACK."""
    try:
        x = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverBreakdown(f"gesv: {exc}") from exc
    return _checked("gesv", 0, x)


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
    """(kl, ku, reverse) when the band LU pays for ``solves`` solves with the
    square matrix A, or None for the full one.

    ``reverse`` means the solve runs on P A P, A with its order reversed,
    whose bandwidths (kl, ku) are A's swapped: this turns lower Hessenberg
    into upper Hessenberg.
    """
    n = A.shape[0]

    def pays(kl, ku):
        band = 6 * n * kl * (kl + ku) + _BAND_FIXED + _BAND_ENTRY * n * (kl + ku + 1) / solves
        return band <= n**3

    # the rule for a diagonal first, so small input skips the probe
    if np.iscomplexobj(A) or not pays(0, 0):
        return None
    kl, ku = _bandwidths(A)
    reverse = ku < kl
    if reverse:
        kl, ku = ku, kl
    return (kl, ku, reverse) if pays(kl, ku) else None


def _band_storage(A, kl, ku, reverse):
    """A, or P A P with ``reverse``, in LAPACK's band storage for dgbtrf.

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


def _lu(A, solves):
    """refactor(z) -> solve(rhs, transpose=False), from LU factorisations of
    z I - A for the checked real square A.

    refactor(z) factors z I - A, in place of the previous factorisation,
    and returns solve, which gives (z I - A)^{-1} rhs, or (z I - A)^{-T}
    rhs with ``transpose``, for a finite real vector or matrix of
    right-hand sides (copied), until the next refactor.  ``solves``, the
    number of solves the caller expects to make, enters only the choice
    of the band (see _band_route).  -A is packed once: on its band when
    _band_route says the band pays for ``solves`` solves, with the order
    reversed where it says so, and in full Fortran order otherwise.  Each
    refactor refills one work array from it and adds z to its diagonal.
    The packed copy costs a matrix, but it keeps each refill a contiguous
    copy: refilled straight from a C-order A, ``np.negative(A, out=work)``
    transposes, which took 0.35 ms against 0.08 ms at order 400 and 11 ms
    against 1.9 ms at 1600 (one BLAS thread), at every factorisation.
    The factorisation and the solve of one vector are prepared once.
    Without LAPACK, solve is gesv on z I - A or its transpose.
    """
    n, lapack = A.shape[0], _lapack
    if lapack is None:
        def refactor_gesv(z):
            shifted = z * np.eye(n) - A
            return lambda rhs, transpose=False: _gesv(shifted.T if transpose else shifted, rhs)

        return refactor_gesv
    route = _band_route(A, solves)
    if route is None:
        kl, band, step, trf, trs = 0, (), 1, "dgetrf", "dgetrs"
        packed = np.array(A, dtype=np.float64, order="F")
    else:
        kl, ku, reverse = route
        band, step, trf, trs = (kl, ku), -1 if reverse else 1, "dgbtrf", "dgbtrs"
        packed = _band_storage(A, kl, ku, reverse)
    np.negative(packed, out=packed)
    work = np.empty_like(packed)
    _check_layout(work, n, band)
    ld = len(work)
    diagonal = work[sum(band)] if band else work.ravel(order="F")[::n + 1]
    ipiv, x = np.empty(n, lapack[1]), np.empty(n)
    factor = _prepare(lapack, trf, n, n, *band, work, ld, ipiv)
    solve_x = _prepare(lapack, trs, b"N", n, *band, 1, work, ld, ipiv, x, n)

    def solve(rhs, transpose=False):
        if len(rhs) != n:
            raise ValueError("the right-hand side does not match the factored order")
        if rhs.ndim == 1 and not transpose:
            x[:] = rhs[::step]
            return _checked(trs, solve_x(), x)[::step].copy()
        b = np.array(rhs[::step], dtype=np.float64, order="F")
        call = _prepare(lapack, trs, b"T" if transpose else b"N", n, *band, b.size // n,
                        work, ld, ipiv, b, n)
        return _checked(trs, call(), b)[::step]

    def refactor(z):
        # the first kl rows of a band are fill-in space dgbtrf need not find set
        np.copyto(work[kl:], packed[kl:])
        np.add(diagonal, z, out=diagonal)
        _checked(trf, factor())
        return solve

    return refactor


def _shifted_solver(A):
    """solve(z, v) = (z I - A)^{-1} v for a TridiagonalSystem or a checked square A.

    The route is chosen once, for a run of solves.  Each LAPACK route
    overwrites its arrays, so the run allocates one set of work arrays and
    refills them before each solve.  A TridiagonalSystem takes dgtsv, bound
    once to its work arrays, its diagonal refilled as z minus A's.  A real
    dense A takes _lu, refactored at each real z and solved for a real v.
    A complex A, z or v, which the real work array cannot hold, takes gesv
    on z I - A.
    """
    if isinstance(A, TridiagonalSystem):
        dl, d, du = np.empty(A.order - 1), np.empty(A.order), np.empty(A.order - 1)
        solve = _gtsv(dl, d, du)

        def solve_tridiagonal(z, v):
            np.negative(A.a[1:], out=dl)
            np.negative(A.b[:-1], out=du)
            np.subtract(z, A.diagonal, out=d)
            return solve(v)

        return solve_tridiagonal
    n = A.shape[0]

    def solve_complex(z, v):
        return _gesv(z * np.eye(n, dtype=A.dtype) - A, v)

    if np.iscomplexobj(A):
        return solve_complex
    refactor = _lu(A, _RUN_SOLVES)

    def solve(z, v):
        if v.dtype.kind == "c" or np.iscomplexobj(z):
            return solve_complex(z, v)
        return refactor(z)(v)

    return solve
