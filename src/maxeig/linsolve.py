"""Linear-system solvers backing the inverse/RQI iterations.

Three routes:

- LAPACK ``dgtsv`` (elimination with partial pivoting between adjacent
  rows) for real tridiagonal systems: ``tridiag_solve``, and the shifted
  solves of a ``TridiagonalSystem``.  When the LAPACK library exports no
  ``dgtsv``, GTSV_SYMBOL is None and a Python loop with the same
  arithmetic takes its place: bitwise the same solutions, 20-50 times
  more slowly from order 10^3 up.
- Real dense systems: LU with partial pivoting, factored once and then
  solved, by LAPACK's pairs ``dgbtrf``/``dgbtrs`` on a band and
  ``dgetrf``/``dgetrs`` on a full matrix.  ``_lu_solver(A, solves)``
  factors A once and returns solve(rhs, transpose), so solves with A and
  with A^T share one factorisation (``general_rqi`` draws its three
  sequences from one LU of Qc); ``dense_solve`` makes one solve with it.
  The band (kl sub- and ku super-diagonals) is read from the nonzeros once
  per matrix; when reversing the order, P A P, lowers kl, the LU runs on
  the reversed system, which turns lower Hessenberg into upper
  Hessenberg.  The band is taken when a cost rule says it pays (see
  _BAND_FIXED).  The rule counts packing the band once per matrix, so a
  run of shifted solves takes it sooner than a single solve: tridiagonal
  matrices from order 44 (single solves from 55), the grid Laplacian
  (kl = ku = sqrt(n)) from 81 (144) and Hessenberg ones from 160 (608).
  Without ``dgbtrf``/``dgbtrs`` every matrix takes the full pair, and
  without ``dgetrf``/``dgetrs`` the full pair is replaced by ``gesv``,
  one LU per solve; the numbers agree to roundoff.  With one BLAS thread
  ``dgetrf`` and ``dgetrs`` give the bits of numpy's ``gesv``; with more,
  OpenBLAS threads the two from different orders, and orders 100-141
  round apart.
- ``gesv`` (LU with partial pivoting) through ``numpy.linalg.solve`` for
  complex matrices, right-hand sides and shifts.

``dgtsv``, ``dgetrf``, ``dgetrs``, ``dgbtrf`` and ``dgbtrs`` are called
through ``ctypes`` from the LAPACK library numpy's own ``linalg`` is
linked against, looked up once at import by one loader; ``GTSV_SYMBOL``,
``GETRF_SYMBOL``, ``GETRS_SYMBOL``, ``GBTRF_SYMBOL`` and ``GBTRS_SYMBOL``
name the symbols found (``scipy_dgetrf_64_`` and so on in numpy's bundled
OpenBLAS), or are None.

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
solve for ``_gtsv``, and for a real dense matrix it packs -A once, on its
band or in full, and refills one work array per solve, adding z to its
diagonal before the LU.  ``general_rqi``'s initials take solves with Qc
and Qc^T from ``_lu_solver``.  No other module calls a kernel or holds a
LAPACK work array.  The kernels keep every breakdown check and skip only
the input checks.

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
    "GBTRF_SYMBOL",
    "GBTRS_SYMBOL",
    "GETRF_SYMBOL",
    "GETRS_SYMBOL",
    "GTSV_SYMBOL",
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


def _bind_trf(fn, int_t):
    """trf(a, *band) -> (factor, ipiv) for LAPACK's LU with partial pivoting.

    ``a`` is a float64 Fortran-order square matrix for dgetrf, or, with
    ``band`` = (kl, ku), a band in _band_storage's layout for dgbtrf.
    factor() overwrites ``a`` with the LU of what it holds, and ``ipiv``
    with the pivots, and returns LAPACK's info; a run of shifted solves
    refills ``a`` and calls it again.
    """
    ipiv_dtype = np.dtype(int_t)

    def trf(a, *band):
        ld, n = a.shape
        _check_layout(a, n, band)
        ipiv, info = np.empty(n, ipiv_dtype), int_t(0)
        args = (*_refs(int_t, n, n, *band), _ptr(a), *_refs(int_t, ld), _ptr(ipiv),
                ctypes.byref(info))
        fn.argtypes = [ctypes.c_void_p] * len(args)   # 6 for dgetrf, 8 for dgbtrf

        def factor():
            fn(*args)
            return info.value

        return factor, ipiv

    return trf


def _bind_trs(fn, int_t):
    """trs(a, ipiv, b, transpose, *band) -> solve for LAPACK's solve from trf's factors.

    solve() overwrites ``b``, a float64 Fortran-order vector or matrix of
    right-hand sides, with the solution of A x = b, or of A^T x = b with
    ``transpose``, where ``a`` and ``ipiv`` hold trf's factors of A, and
    returns LAPACK's info.
    """
    ipiv_dtype = np.dtype(int_t)

    def trs(a, ipiv, b, transpose, *band):
        ld, n = a.shape
        _check_layout(a, n, band)
        if not (b.flags.f_contiguous and b.dtype == np.float64 and len(b) == n
                and ipiv.dtype == ipiv_dtype and len(ipiv) == n):
            raise ValueError("LAPACK trs needs a contiguous float64 rhs and pivots of the order")
        info = int_t(0)
        args = (b"T" if transpose else b"N", *_refs(int_t, n, *band, b.size // n), _ptr(a),
                *_refs(int_t, ld), _ptr(ipiv), _ptr(b), *_refs(int_t, n), ctypes.byref(info),
                1)
        # the last is the hidden length of the character argument
        fn.argtypes = [ctypes.c_void_p] * (len(args) - 1) + [ctypes.c_size_t]

        def solve():
            fn(*args)
            return info.value

        return solve

    return trs


def _refs(int_t, *values):
    """Each value by reference as LAPACK's integer type."""
    return [ctypes.byref(int_t(v)) for v in values]


def _ptr(array):
    """The data pointer of ``array``, typed so ctypes passes all 64 bits; it
    keeps the array alive."""
    return array.ctypes.data_as(ctypes.c_void_p)


def _check_layout(a, n, band):
    """LAPACK reads and writes through its pointers unchecked: refuse a
    factor array that is not float64 in Fortran order, or a band with too
    few rows for its fill-in."""
    rows = 2 * band[0] + band[1] + 1 if band else n
    if not (a.flags.f_contiguous and a.dtype == np.float64 and a.shape[0] >= max(rows, 1)):
        raise ValueError("LAPACK LU needs a float64 Fortran-order matrix, or a band "
                         "of 2kl+ku+1 rows")


GTSV_SYMBOL, _dgtsv = _load_lapack("dgtsv", _bind_dgtsv)
GETRF_SYMBOL, _dgetrf = _load_lapack("dgetrf", _bind_trf)
GETRS_SYMBOL, _dgetrs = _load_lapack("dgetrs", _bind_trs)
GBTRF_SYMBOL, _dgbtrf = _load_lapack("dgbtrf", _bind_trf)
GBTRS_SYMBOL, _dgbtrs = _load_lapack("dgbtrs", _bind_trs)


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
    return _gtsv(*(np.array(a, np.float64) for a in (lower, diag, upper)), rhs)


def _checked(routine, info, x=None):
    """x, the solution ``routine`` returned with LAPACK's ``info`` (None after a
    factorisation); the one place a zero pivot (info > 0) or a non-finite
    solution raises SolverBreakdown."""
    if info:
        raise SolverBreakdown(f"{routine}: pivot at row {info - 1} is exactly zero")
    if x is not None and not np.isfinite(x).all():
        raise SolverBreakdown(f"{routine} returned a non-finite solution")
    return x


def _gtsv(dl, d, du, rhs):
    """tridiag_solve without its input checks; raises SolverBreakdown as it does.

    ``dl``, ``d`` and ``du`` are contiguous, writable float64 arrays of
    lengths n-1, n, n-1 and are overwritten; ``rhs``, finite and real of
    length n, is copied.
    """
    x = np.array(rhs, dtype=np.float64)
    info = (_dgtsv or _gtsv_loop)(dl, d, du, x)
    if not info:
        pivots = np.abs(d, out=d)  # U's diagonal; d is work space
        if pivots.min() < PIVOT_FLOOR:
            row = int(pivots.argmin())
            raise SolverBreakdown(f"dgtsv: pivot {float(pivots[row])!r} below floor at row {row}")
    return _checked("dgtsv", info, x)


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
    return _lu_solver(A, 1)(rhs)


def _gesv(A, rhs):
    """The gesv route, ``numpy.linalg.solve``, for a finite square A and a
    fitting rhs: complex input, and real input without LAPACK's LU pair."""
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
    if _dgbtrf is None or _dgbtrs is None or np.iscomplexobj(A) or not pays(0, 0):
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


def _lu_routines(band):
    """(trf, trs, the prefix of their names): the band pair when ``band`` is
    (kl, ku), the full pair when it is ()."""
    return (_dgbtrf, _dgbtrs, "dgb") if band else (_dgetrf, _dgetrs, "dge")


def _packed(A, solves):
    """(a, band, step): a copy of the checked square A that its LU takes,
    or None where gesv takes A.

    ``a`` holds A on its band, with ``band`` = (kl, ku) and ``step`` -1
    when the order is reversed, when _band_route says the band pays for
    ``solves`` solves; otherwise A in Fortran order, with ``band`` = ()
    and ``step`` 1.  Complex A, and real A where LAPACK's dgetrf or dgetrs
    is missing, take gesv.
    """
    route = _band_route(A, solves)
    if route is not None:
        kl, ku, reverse = route
        return _band_storage(A, kl, ku, reverse), (kl, ku), -1 if reverse else 1
    if np.iscomplexobj(A) or _dgetrf is None or _dgetrs is None:
        return None
    return np.array(A, dtype=np.float64, order="F"), (), 1


def _lu_solver(A, solves):
    """solve(rhs, transpose=False) = A^{-1} rhs, or A^{-T} rhs, from one LU of
    the checked real square A, factored here (see _packed), or from gesv on
    A or A^T for each solve where LAPACK's dgetrf or dgetrs is missing.

    ``rhs`` is a finite real vector or matrix of right-hand sides, copied.
    """
    packed = _packed(A, solves)
    if packed is None:
        return lambda rhs, transpose=False: _gesv(A.T if transpose else A, rhs)
    a, band, step = packed
    trf, trs, kind = _lu_routines(band)
    factor, ipiv = trf(a, *band)
    _checked(kind + "trf", factor())

    def solve(rhs, transpose=False):
        x = np.array(rhs[::step], dtype=np.float64, order="F")
        return _checked(kind + "trs", trs(a, ipiv, x, transpose, *band)(), x)[::step]

    return solve


def _shifted_solver(A):
    """solve(z, v) = (z I - A)^{-1} v for a TridiagonalSystem or a checked square A.

    The route is chosen once, for a run of solves.  Each LAPACK route
    overwrites its arrays, so the run allocates one set of work arrays and
    refills them before each solve.  A TridiagonalSystem takes dgtsv, its
    diagonal refilled as z minus A's.  A real dense A is packed as -A once
    (_packed), and each solve copies it to the work array, adds z to the
    diagonal and factors and solves in place, for real z and v.  A complex
    A, z or v, which the real work array cannot hold, takes gesv on
    z I - A, as every dense solve does where LAPACK's dgetrf or dgetrs is
    missing.
    """
    if isinstance(A, TridiagonalSystem):
        dl, d, du = np.empty(A.order - 1), np.empty(A.order), np.empty(A.order - 1)

        def solve_tridiagonal(z, v):
            np.negative(A.a[1:], out=dl)
            np.negative(A.b[:-1], out=du)
            np.subtract(z, A.diagonal, out=d)
            return _gtsv(dl, d, du, v)

        return solve_tridiagonal
    n = A.shape[0]

    def solve_complex(z, v):
        return _gesv(z * np.eye(n, dtype=A.dtype) - A, v)

    packed = _packed(A, _RUN_SOLVES)
    if packed is None:
        return solve_complex
    packed, band, step = packed
    np.negative(packed, out=packed)
    work = np.empty_like(packed)
    if band:
        kl = band[0]     # the first kl rows are fill-in space dgbtrf need not find set
        diagonal = work[sum(band)]
    else:
        kl, diagonal = 0, work.ravel(order="F")[::n + 1]
    trf, trs, kind = _lu_routines(band)
    factor, ipiv = trf(work, *band)
    x = np.empty(n)
    solve_x = trs(work, ipiv, x, False, *band)

    def solve(z, v):
        if np.iscomplexobj(z) or np.iscomplexobj(v):
            return solve_complex(z, v)
        np.copyto(work[kl:], packed[kl:])
        np.add(diagonal, z, out=diagonal)
        _checked(kind + "trf", factor())
        x[:] = v[::step]
        return _checked(kind + "trs", solve_x(), x)[::step].copy()

    return solve
