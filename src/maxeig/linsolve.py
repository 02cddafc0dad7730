"""Linear-system solvers backing the inverse/RQI iterations, and the
tridiagonal product A v of those iterations.

Three routes for the solves:

- LAPACK ``dgtsv`` (elimination with partial pivoting between adjacent
  rows) for real tridiagonal systems: ``tridiag_solve``, and the shifted
  solves of a ``TridiagonalSystem``.
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
  and Hessenberg ones from 160 (608).  With one BLAS thread ``dgetrf``
  and ``dgetrs`` give the bits of numpy's ``gesv``; with more, OpenBLAS
  threads the two from different orders, and orders 100-141 round apart.
- ``gesv`` (LU with partial pivoting) through ``numpy.linalg.solve`` for
  complex matrices, right-hand sides and shifts, which the real LAPACK
  work arrays cannot hold: ``_gesv``, the one solve not bound here.

The product of a ``TridiagonalSystem`` with a real vector is LAPACK
``dlagtm`` (B := A X, alpha = 1, beta = 0), which ``_product`` binds once
per run to the system's three read-only diagonals: one pass and one new
array per product, where numpy's five passes made two.  Fortran sums each
row in ``numat._apply``'s order, so the bits are _apply's but for the sign
of a zero row (see ``_product``).  _apply stays the product of a dense
matrix and of a complex vector.  On a 2-core
Intel Xeon host, one BLAS thread, best of 7 batches in each of several
runs, a product of order 10^6 took 2.85-2.90 ms against 9.6-11.4 for
_apply, and one of order 10^5 0.20-0.26 against 0.44-1.29.

The six routines, ``dgtsv``, ``dgetrf``, ``dgetrs``, ``dgbtrf``,
``dgbtrs`` and ``dlagtm``, are called through ``ctypes`` from the LAPACK
library numpy's own ``linalg`` is linked against.  They are a
requirement: one loader looks them up once, at import, all from the
first export family that has all six, and binds them there;
``LAPACK_EXPORT`` names that family's pattern (``scipy_{}_64_`` in
numpy's bundled OpenBLAS).  When no family has all six the import
raises ImportError, naming each pattern tried and the routines it
lacks, so every solve and product has one code path.  One binder,
``_prepare``, converts a call's arguments once, so a run repeats prepared
calls: ``dgtsv`` and ``dlagtm`` are bound once per run and given only the
addresses of each call's one or two vectors, and ``_lu`` binds its
factorisation and its one-vector solve once per matrix.  The binder takes
arrays, read-only ones included, integers, doubles and character flags,
and routines with or without LAPACK's INFO; it converts each argument to
the ctypes object the call passes, so no call converts through
``argtypes``.  A writable array's address comes from ctypes' view of its
buffer (``_address``), 0.4 microseconds against the 1.4 of numpy's
``.ctypes`` helper, which builds an object on every read; a read-only
one's from the array interface.  The pivot array is allocated with the
family's integer type as a numpy dtype (``_INT_DTYPE``), 0.2
microseconds against 3.0 with the ctypes type, which numpy converts anew
on every call.  On the same host, building ``_lu`` at order 22 takes
about 18 microseconds, a tridiagonal run's solve (``_shifted_solver``)
about 8 and ``_product`` about 11, five of them for the read-only
addresses; a shifted ``dgtsv`` solve of order 36, with its refill and
checks, takes about 7 microseconds, 9.6 through ``argtypes`` and the
solve check's ``isfinite``.

Shifted-inverse iteration deliberately drives these systems toward
singularity, so "nearly singular" is the normal operating regime here
and must not error.  Only an exact hit on an eigenvalue raises
SolverBreakdown, and the iteration driver handles that.  One check,
``_checked``, serves every solve: an exactly zero pivot or a non-finite
solution raises SolverBreakdown naming ``dgtsv``, ``dgetrf``,
``dgetrs``, ``dgbtrf``, ``dgbtrs`` or ``gesv``; ``dgtsv`` also raises
for a pivot below an absolute floor.  A solution is found finite by its
dot product with itself, with no temporary of its size, and scanned only
when that is not finite.

Validate once, at the public boundary: ``tridiag_solve`` and
``dense_solve`` check their inputs, and a caller that solves one system
calls them.  Other modules take their solves from two factories, and
their products from ``_product``, given an already-checked matrix.
Iteration loops, which solve (z I - A) x = v for many shifts z, take
theirs from ``_shifted_solver``, the one factory for every shifted
solve.  Every route it builds solves (z I - A) x = v as
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

import cmath
import ctypes
from functools import partial

import numpy as np

from .errors import InvalidInput, SolverBreakdown
from .numat import TridiagonalSystem, _apply, _dot, as_square_matrix, as_vector

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
_ROUTINES = ("dgtsv", "dgetrf", "dgetrs", "dgbtrf", "dgbtrs", "dlagtm")
# the hidden length of a character flag, which Fortran takes by value after the arguments
_LENGTH = ctypes.c_size_t(1)
# the dtype of a real vector, numpy's one instance of it, which is compared by identity
_FLOAT64 = np.dtype(np.float64)


def _load_lapack():
    """(the export pattern, the routines by name, the integer type) of the
    first family of _LAPACK_EXPORTS that exports every one of _ROUTINES.

    Opening numpy's ``linalg`` extension by its path reaches the LAPACK
    library it links, and symbol lookup through that handle searches
    its dependencies too.  Raises ImportError when that library cannot
    be opened, or when no family exports all of _ROUTINES; the message
    names each pattern tried and the routines it lacks.
    """
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError, AttributeError) as exc:
        raise ImportError(f"maxeig needs the LAPACK library numpy.linalg links: {exc}") from exc
    lacking = []
    for pattern, int_t in _LAPACK_EXPORTS:
        routines = {name: getattr(lib, pattern.format(name), None) for name in _ROUTINES}
        if None not in routines.values():
            return pattern, routines, int_t
        lacking.append(f"{pattern} lacks " + ", ".join(k for k in _ROUTINES if routines[k] is None))
    raise ImportError(f"maxeig needs LAPACK's {', '.join(_ROUTINES)} from one export family "
                      f"of the library numpy.linalg links; " + "; ".join(lacking))


LAPACK_EXPORT, _LAPACK, _INT = _load_lapack()
# the integer type as a numpy dtype, for the pivot arrays: numpy converts a
# ctypes type to a dtype anew on every allocation, at ten times the cost
_INT_DTYPE = np.dtype(_INT)


def _address(a):
    """A pointer to the data of an array in C or Fortran order, as ctypes
    passes it, or None (a null pointer, which LAPACK never reads) when the
    array is empty.

    A writable array is pointed to through ctypes' own view of its buffer,
    ``a.T`` being C-contiguous for either order, as the view requires: a
    third of the time numpy's ``a.ctypes.data`` takes, which builds a
    helper object on every read.  The pointer keeps the array alive.  The
    view refuses a read-only array, such as a ``TridiagonalSystem``'s
    diagonals, whose address the array interface gives, once its order is
    checked: in a run, faster than ``a.ctypes.data``, whose helper runs
    Python code."""
    if not a.size:
        return None
    if a.flags.writeable:
        return ctypes.byref(ctypes.c_char.from_buffer(a.T))
    interface = a.__array_interface__
    if interface["strides"] is not None and not a.flags.f_contiguous:
        raise ValueError("LAPACK needs an array in C or Fortran order")
    return ctypes.c_void_p(interface["data"][0])


def _prepare(name, *args, info=True):
    """call(*vectors) -> info: LAPACK routine ``name`` on ``args``,
    converted once, so that a run can repeat the call on refilled arrays.

    Every argument is converted to the ctypes object the call passes, so
    the routine is called without ``argtypes``, whose per-argument
    conversion took half the time of a small call: arrays as pointers to
    their data (_address), bytes (a character flag such as b"N") as
    pointers with their hidden lengths after the last argument, floats by
    reference as doubles and integers by reference in LAPACK's integer
    type.  Up to two arguments may be None: each call then passes its
    ``vectors`` there, in order, and keeps no pointer to them once it
    returns.  The call keeps the other arrays alive; every size must
    already be checked.  ``info`` says the routine ends with LAPACK's
    INFO, which the call returns; a routine without one (dlagtm) returns
    None.
    """
    fn, status = _LAPACK[name], _INT(0)
    fn.restype = None
    pointers, late, lengths = [], [], []
    for a in args:
        kind = type(a)      # compared by identity: isinstance took a third of the bind
        if a is None:
            late.append(len(pointers))
        elif kind is np.ndarray:
            a = _address(a)
        elif kind is float:
            a = ctypes.byref(ctypes.c_double(a))
        elif kind is bytes:
            lengths.append(_LENGTH)
        else:       # an integer; ctypes raises TypeError for anything else
            a = ctypes.byref(_INT(a))
        pointers.append(a)
    if info:
        pointers.append(ctypes.byref(status))
    pointers += lengths

    # One closure per number of vectors: a loop over them, a function per
    # address and a.T took two fifths of a small call.  A vector is nearly
    # always writable and contiguous, as ctypes' view needs it without a.T;
    # any other goes to _address.
    byref, view = ctypes.byref, ctypes.c_char.from_buffer
    if not late:
        def call():
            fn(*pointers)
            return status.value if info else None
    elif len(late) == 1:
        (i,) = late

        def call(x):
            try:
                pointers[i] = byref(view(x))
            except (TypeError, ValueError):
                pointers[i] = _address(x)
            fn(*pointers)
            pointers[i] = None
            return status.value if info else None
    else:
        i, j = late

        def call(x, y):
            try:
                pointers[i], pointers[j] = byref(view(x)), byref(view(y))
            except (TypeError, ValueError):
                pointers[i], pointers[j] = _address(x), _address(y)
            fn(*pointers)
            pointers[i] = pointers[j] = None
            return status.value if info else None

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
    solution raises SolverBreakdown.

    x . x is finite when every entry is and no square overflows, so only
    when it is not are the entries scanned one by one: the usual check
    makes no temporary of x's size and is twice as fast."""
    if info:
        raise SolverBreakdown(f"{routine}: pivot at row {info - 1} is exactly zero")
    if x is not None and not (cmath.isfinite(_dot(x, x)) or np.isfinite(x).all()):
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
    call = _prepare("dgtsv", len(d), 1, dl, d, du, None, len(d))

    def solve(rhs):
        x = np.array(rhs, dtype=np.float64)
        if x.shape != d.shape:
            raise ValueError("dgtsv needs a right-hand side of the system's order")
        info = call(x)
        if not info:
            pivots = np.abs(d, out=d)  # U's diagonal; d is work space
            if pivots.min() < PIVOT_FLOOR:
                row = int(pivots.argmin())
                raise SolverBreakdown(f"dgtsv: pivot {float(pivots[row])!r} below floor "
                                      f"at row {row}")
        return _checked("dgtsv", info, x)

    return solve


def _product(A):
    """product(v) = A v, for the operator of a run: a TridiagonalSystem or a
    checked square matrix.

    On a TridiagonalSystem LAPACK ``dlagtm`` (B := alpha A X + beta B,
    with alpha = 1 and beta = 0) is bound once, here, to the system's
    three diagonals; each product passes it only v, real of the system's
    order, and the new array it fills.  With beta = 0 Fortran sums row i
    as ((0 + a v[i-1]) + diagonal v[i]) + b v[i+1], numat._apply's order,
    so the bits are _apply's, but for a row whose three terms are all
    -0.0: ``dlagtm`` gives +0.0 there, and _apply -0.0.  A dense A and a
    v that is not float64 (complex, say) take _apply.
    """
    if not isinstance(A, TridiagonalSystem):
        return partial(_apply, A)
    n, d = A.order, A.diagonal
    # the system's read-only diagonals, contiguous (see TridiagonalSystem)
    call = _prepare("dlagtm", b"N", n, 1, 1.0, A.a[1:], d, A.b[:-1], None, n, 0.0, None, n,
                    info=False)

    def product(v):
        if v.dtype is not _FLOAT64:
            return _apply(A, v)
        if v.shape != d.shape:
            raise ValueError("dlagtm needs a vector of the system's order")
        out = np.empty(n)
        call(v, out)
        return out

    return product


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
    fitting rhs: the route of complex input, which the real LAPACK work
    arrays cannot hold."""
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
    """
    n = A.shape[0]
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
    ipiv, x = np.empty(n, _INT_DTYPE), np.empty(n)
    factor = _prepare(trf, n, n, *band, work, ld, ipiv)
    solve_x = _prepare(trs, b"N", n, *band, 1, work, ld, ipiv, x, n)

    def solve(rhs, transpose=False):
        if len(rhs) != n:
            raise ValueError("the right-hand side does not match the factored order")
        if rhs.ndim == 1 and not transpose:
            x[:] = rhs[::step]
            return _checked(trs, solve_x(), x)[::step].copy()
        b = np.array(rhs[::step], dtype=np.float64, order="F")
        call = _prepare(trs, b"T" if transpose else b"N", n, *band, b.size // n, work, ld,
                        ipiv, b, n)
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
    A complex A, z or v, which the real work array cannot hold, takes
    _gesv on z I - A, the one solve that is not a LAPACK call bound here.
    """
    if isinstance(A, TridiagonalSystem):
        dl, d, du = np.empty(A.order - 1), np.empty(A.order), np.empty(A.order - 1)
        solve = _gtsv(dl, d, du)
        sub, diagonal, sup = A.a[1:], A.diagonal, A.b[:-1]

        def solve_tridiagonal(z, v):
            np.negative(sub, out=dl)
            np.negative(sup, out=du)
            np.subtract(z, diagonal, out=d)
            return solve(v)

        return solve_tridiagonal

    def solve_complex(z, v):
        return _gesv(z * np.eye(len(A), dtype=A.dtype) - A, v)

    if np.iscomplexobj(A):
        return solve_complex
    refactor = _lu(A, _RUN_SOLVES)

    def solve(z, v):
        if v.dtype.kind == "c" or np.iscomplexobj(z):
            return solve_complex(z, v)
        return refactor(z)(v)

    return solve
