"""Core numeric value types and matrix/vector primitives.

Vectors and dense matrices are plain numpy arrays in IEEE double
precision; the dtype (float64 vs complex128) is the real/complex kind
tag and is never promoted silently.  Tridiagonal systems get a small
dataclass because their diagonal is implicit.

Validate once, at the public boundary.  Every public function checks
its operands at entry.  Only iteration loops, which apply one
already-checked operand many times, call private kernels: ``_apply``
(matvec's arithmetic, which ``linsolve._product`` takes to LAPACK for a
real tridiagonal run), ``_scale`` (matrix_scale's, in row blocks), ``_check_length``,
``_require_finite``, ``_largest_ratio`` and ``_nonnegative_off_diagonal``
(``shift_to_qc``'s sign test, which ``run_shifted_iteration`` makes once
per run, in row blocks, without a copy of the matrix; on
``general_rqi``'s dense route ``shift_to_qc`` has tested the input once
before); each new iterate is checked
once per step, where it is made, so no check is skipped and none
repeats.  Functions called once per run have no private twin; where such
a function is called on input a caller has just built, its checks are
made cheap instead.  A ``TridiagonalSystem`` tests valid rates in one pass
of four reductions (the minima of a, b and c, and the finiteness of the
diagonal it forms anyway), in about two thirds of the time checking each
vector with ``as_vector`` took, and only rates that fail the test are
checked one fault at a time, so every fault raises the error it raised
before.

The mu-weighted inner product and norm of the RQI runs are not here:
``tridiag`` owns them, as the weighted Rayleigh quotient and mu-norm
it hands the iteration driver and ``tridiag._unit`` for the start.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput

__all__ = [
    "TridiagonalSystem",
    "as_vector",
    "as_square_matrix",
    "matvec",
    "max_ratio",
    "shift_to_qc",
    "matrix_scale",
    "is_positive_vector",
]


# entries in one row block of an n^2 temporary taken a block at a time (256 KiB
# of doubles): ``_scale`` and ``general_init.h_transform_general``
_BLOCK = 2**15


# the dot product of two arrays, read flat: numpy's vdot without its dispatch, as
# fast as ndarray.dot on a vector and with the same bits, and, unlike it, with no
# RuntimeWarning when the sum overflows
_dot = getattr(np.vdot, "_implementation", np.vdot)


def _require_finite(arr, what):
    if not np.isfinite(arr).all():
        raise InvalidInput(f"{what} contains non-finite entries")


def _numeric(values, dtype, what):
    """values as a float or complex numpy array; InvalidInput when it holds no numbers."""
    if isinstance(values, TridiagonalSystem):
        raise InvalidInput(f"expected a {what}, got a TridiagonalSystem; pass its .dense()")
    try:
        arr = np.asarray(values, dtype=dtype)
        return arr if arr.dtype.kind in "fc" else arr.astype(float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"expected a numeric {what}: {exc}") from None


def as_vector(values, dtype=None):
    """Validate and return a 1-D finite numpy vector of length >= 1."""
    v = _numeric(values, dtype, "vector")
    if v.ndim != 1 or v.size < 1:
        raise InvalidInput("expected a 1-D vector with at least one entry")
    _require_finite(v, "vector")
    return v


def as_square_matrix(values):
    """Validate and return a square finite numpy matrix."""
    m = _numeric(values, None, "square matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    _require_finite(m, "matrix")
    return m


@dataclass(frozen=True)
class TridiagonalSystem:
    """Generator-style tridiagonal matrix held as three sequences.

    Row i of the represented matrix is
        a[i] * e_{i-1}  - (a[i] + b[i] + c[i]) * e_i  + b[i] * e_{i+1}
    with the padding convention a[0] = 0 and b[N] = 0, so the diagonal
    is derived, never passed in; it is computed once, at construction.
    a, b, c and the diagonal are stored as read-only, contiguous views, so
    a system cannot be changed after its checks and LAPACK can read them
    in place; an array the caller still holds must not be modified
    either.  c[i] >= 0 is the killing rate of row
    i (minus the row sum).
    """

    a: np.ndarray  # sub-diagonal, length N+1, a[0] == 0, a[1:] > 0
    b: np.ndarray  # super-diagonal, length N+1, b[N] == 0, b[:-1] > 0
    c: np.ndarray  # killing terms, length N+1, all >= 0
    diagonal: np.ndarray = field(init=False, repr=False, compare=False)  # -(a + b + c)

    def __post_init__(self):
        # Valid rates pass one test (see the module docstring): the diagonal
        # -(a + b + c) is finite exactly when every rate is, short of an
        # overflowing sum.  _checked_rates diagnoses what the test refuses.
        # The diagonal is computed here, with the system, rather than on first
        # use: allocated in the middle of a solve, this long-lived array
        # fragments the heap, which raised the peak memory of repeated solves
        # at order 10^6 by about 10 %.
        diagonal = None
        try:
            a, b, c = (np.ascontiguousarray(x, dtype=float) for x in (self.a, self.b, self.c))
            if (a.ndim == b.ndim == c.ndim == 1 and len(a) == len(b) == len(c) >= 2
                    and a[0] == 0.0 and b[-1] == 0.0 and a[1:].min() > 0 and b[:-1].min() > 0
                    and c.min() >= 0):
                diagonal = -(a + b + c)
        except (TypeError, ValueError):
            pass
        if diagonal is None or not np.isfinite(diagonal).all():
            # raises, unless every rate is valid and only their sum overflowed
            a, b, c = _checked_rates(self.a, self.b, self.c)
        for name, values in (("a", a), ("b", b), ("c", c), ("diagonal", diagonal)):
            # read-only views: the checks above and the diagonal stay true
            view = values.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @classmethod
    def from_rates(cls, a, b, c):
        """Build from the natural index ranges a_1..a_N, b_0..b_{N-1}, c_0..c_N.

        All three are copied (``a`` and ``b`` into their padded arrays),
        so the caller may change its arrays afterwards.
        """
        a = np.concatenate([[0.0], np.asarray(a, float)])
        b = np.concatenate([np.asarray(b, float), [0.0]])
        return cls(a, b, np.array(c, float))

    @property
    def order(self) -> int:
        return len(self.c)

    @property
    def n_max(self) -> int:
        """Largest index N; the system acts on indices 0..N."""
        return len(self.c) - 1

    def dense(self) -> np.ndarray:
        """Dense expansion, intended for oracle tests and small inputs."""
        n = self.order
        out = np.zeros((n, n))
        idx = np.arange(n)
        out[idx, idx] = self.diagonal
        out[idx[1:], idx[:-1]] = self.a[1:]
        out[idx[:-1], idx[1:]] = self.b[:-1]
        return out


def _checked_rates(a, b, c):
    """a, b, c as float vectors, each fault of a TridiagonalSystem's rates
    raising InvalidInput in turn; the rates of every system pass."""
    a, b, c = (np.ascontiguousarray(as_vector(x, float)) for x in (a, b, c))
    if not (len(a) == len(b) == len(c)) or len(a) < 2:
        raise InvalidInput("a, b, c must share a length of at least 2")
    if a[0] != 0.0 or b[-1] != 0.0:
        raise InvalidInput("padding convention requires a[0] == 0 and b[N] == 0")
    if (a[1:] <= 0).any() or (b[:-1] <= 0).any():
        raise InvalidInput("off-diagonal rates must be strictly positive")
    if (c < 0).any():
        raise InvalidInput("killing rates must be nonnegative")
    return a, b, c


def matvec(A, v):
    """Apply a dense matrix or TridiagonalSystem to a vector.

    For a TridiagonalSystem, row i is (a*v[i-1] + diagonal*v[i]) +
    b*v[i+1], the ascending-column order of the dense-row arithmetic;
    the first sum is formed as diagonal*v[i] + a*v[i-1], which IEEE
    addition makes the same number.  The iteration runs take their
    products from ``linsolve._product``, LAPACK ``dlagtm`` in the same
    order, whose bits are these but for the sign of a zero row.
    """
    v = as_vector(v)
    if not isinstance(A, TridiagonalSystem):
        A = as_square_matrix(A)
    _check_length(A, v)
    return _apply(A, v)


def _check_length(A, v):
    """Raise InvalidInput unless vector v fits the order of the validated operand A."""
    if isinstance(A, TridiagonalSystem):
        if len(v) != A.order:
            raise InvalidInput("vector length does not match system order")
    elif A.shape[1] != len(v):
        raise InvalidInput("matrix and vector dimensions do not agree")


def _apply(A, v):
    """matvec's arithmetic without its checks, for operands that already passed them.

    It is the iterations' product of a dense matrix, and of a
    TridiagonalSystem with a complex vector (see ``linsolve._product``);
    it is also the bitwise reference for LAPACK's tridiagonal product,
    which differs only in a row whose three terms are all -0.0: -0.0
    here, +0.0 there."""
    if isinstance(A, TridiagonalSystem):
        # the diagonal term first, then both neighbours through one temporary
        out = A.diagonal * v
        term = A.a[1:] * v[:-1]
        out[1:] += term
        out[:-1] += np.multiply(A.b[:-1], v[1:], out=term)
        return out
    return A @ v


def is_positive_vector(v, imag_tol=0.0) -> bool:
    """True when every entry has positive real part and (near) zero imaginary part."""
    v = np.asarray(v)
    if v.dtype.kind == "c":
        if np.abs(v.imag).max() > imag_tol * max(1.0, np.abs(v).max()):
            return False
        v = v.real
    return bool((v > 0).all())


def max_ratio(A, v):
    """max_i (Av)_i / v_i for a strictly positive real vector v."""
    v = as_vector(v)
    if not is_positive_vector(v):
        raise InvalidInput("max_ratio requires a strictly positive real vector")
    av = matvec(A, v)
    if np.iscomplexobj(av):
        raise InvalidInput("max_ratio is undefined for complex matrices")
    return _largest_ratio(av, v)


def _largest_ratio(av, v) -> float:
    """max_i av_i / v_i; ties resolve to the lowest index by argmax, for determinism."""
    ratios = av / v
    return float(ratios[ratios.argmax()])


def _nonnegative_off_diagonal(A) -> bool:
    """True when no off-diagonal entry of A, a TridiagonalSystem or a checked
    real matrix, is negative.  A system's are its positive rates.  A matrix
    of any layout is read in row blocks, each as the mask of its negative
    entries with the diagonal cleared, so A is never copied."""
    if isinstance(A, TridiagonalSystem):
        return True
    rows = _rows_per_block(A)
    for i in range(0, len(A), rows):
        negative = A[i:i + rows] < 0
        np.fill_diagonal(negative[:, i:], False)
        if negative.any():
            return False
    return True


def shift_to_qc(A):
    """Shift a matrix to generator form: Qc = A - mI with m the max row sum.

    Qc has nonpositive row sums with at least one zero.  A must be real
    with nonnegative off-diagonal entries; anything else raises
    InvalidInput.
    """
    A = as_square_matrix(A)
    if A.dtype.kind == "c" or not _nonnegative_off_diagonal(A):
        raise InvalidInput("shift_to_qc requires real nonnegative off-diagonal entries")
    qc = A.copy()
    m = float(A.sum(axis=1).max())
    np.subtract(A.diagonal(), m, out=qc.reshape(-1)[::len(qc) + 1])    # qc's diagonal, a view
    return qc, m


def matrix_scale(A) -> float:
    """Max absolute row sum; the scale used in relative residuals."""
    return _scale(A if isinstance(A, TridiagonalSystem) else as_square_matrix(A))


def _rows_per_block(A) -> int:
    """How many rows of the matrix A make one row block: _BLOCK entries, one row at least."""
    return max(1, _BLOCK // A.shape[1])


def _scale(A) -> float:
    """matrix_scale's arithmetic without its check, for an operand that passed it.

    A dense matrix is summed in row blocks, so |A| is never formed whole;
    each row is still reduced on its own, so the bits are those of
    ``np.abs(A).sum(axis=1).max()``, which a matrix of one block takes as
    it is, with no loop.
    """
    if isinstance(A, TridiagonalSystem):
        # (a + b + c) + |diagonal| is exactly twice a + b + c, as the diagonal
        # is -(a + b + c): one pass over the diagonal, no temporaries
        return -2.0 * float(A.diagonal.min())
    rows = _rows_per_block(A)
    if rows >= len(A):
        return float(np.abs(A).sum(axis=1).max())
    return max(float(np.abs(A[i:i + rows]).sum(axis=1).max()) for i in range(0, len(A), rows))
