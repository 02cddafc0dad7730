"""Core numeric value types and matrix/vector primitives.

Vectors and dense matrices are plain numpy arrays in IEEE double
precision; the dtype (float64 vs complex128) is the real/complex kind
tag and is never promoted silently.  Tridiagonal systems get a small
dataclass because their diagonal is implicit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

__all__ = [
    "TridiagonalSystem",
    "as_vector",
    "as_square_matrix",
    "as_measure",
    "matvec",
    "weighted_inner",
    "weighted_norm",
    "max_ratio",
    "row_sums",
    "shift_to_qc",
    "matrix_scale",
    "is_positive_vector",
]


def _require_finite(arr, what):
    if not np.isfinite(arr).all():
        raise InvalidInput(f"{what} contains non-finite entries")


def as_vector(values, dtype=None):
    """Validate and return a 1-D finite numpy vector of length >= 1."""
    v = np.asarray(values, dtype=dtype)
    if v.dtype.kind not in "fc":
        v = v.astype(float)
    if v.ndim != 1 or v.size < 1:
        raise InvalidInput("expected a 1-D vector with at least one entry")
    _require_finite(v, "vector")
    return v


def as_square_matrix(values, dtype=None):
    """Validate and return a square finite numpy matrix."""
    m = np.asarray(values, dtype=dtype)
    if m.dtype.kind not in "fc":
        m = m.astype(float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    _require_finite(m, "matrix")
    return m


def as_measure(weights):
    """Validate a weight sequence: strictly positive with first weight 1."""
    mu = as_vector(weights)
    if mu.dtype.kind == "c":
        raise InvalidInput("measure weights must be real")
    if (mu <= 0).any():
        raise InvalidInput("measure weights must be strictly positive")
    if abs(mu[0] - 1.0) > 1e-14:
        raise InvalidInput("measure must be normalized with first weight 1")
    return mu


@dataclass(frozen=True)
class TridiagonalSystem:
    """Generator-style tridiagonal matrix held as three sequences.

    Row i of the represented matrix is
        a[i] * e_{i-1}  - (a[i] + b[i] + c[i]) * e_i  + b[i] * e_{i+1}
    with the padding convention a[0] = 0 and b[N] = 0, so the diagonal
    is always derived, never stored.  c[i] >= 0 is the killing rate of
    row i (minus the row sum).
    """

    a: np.ndarray  # sub-diagonal, length N+1, a[0] == 0, a[1:] > 0
    b: np.ndarray  # super-diagonal, length N+1, b[N] == 0, b[:-1] > 0
    c: np.ndarray  # killing terms, length N+1, all >= 0

    def __post_init__(self):
        a = as_vector(self.a, float)
        b = as_vector(self.b, float)
        c = as_vector(self.c, float)
        if not (len(a) == len(b) == len(c)) or len(a) < 2:
            raise InvalidInput("a, b, c must share a length of at least 2")
        if a[0] != 0.0 or b[-1] != 0.0:
            raise InvalidInput("padding convention requires a[0] == 0 and b[N] == 0")
        if (a[1:] <= 0).any() or (b[:-1] <= 0).any():
            raise InvalidInput("off-diagonal rates must be strictly positive")
        if (c < 0).any():
            raise InvalidInput("killing rates must be nonnegative")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @classmethod
    def from_rates(cls, a, b, c):
        """Build from the natural index ranges a_1..a_N, b_0..b_{N-1}, c_0..c_N."""
        a = np.concatenate([[0.0], np.asarray(a, float)])
        b = np.concatenate([np.asarray(b, float), [0.0]])
        return cls(a, b, np.asarray(c, float))

    @property
    def order(self) -> int:
        return len(self.c)

    @property
    def n_max(self) -> int:
        """Largest index N; the system acts on indices 0..N."""
        return len(self.c) - 1

    @property
    def diagonal(self) -> np.ndarray:
        return -(self.a + self.b + self.c)

    def dense(self) -> np.ndarray:
        """Dense expansion, intended for oracle tests and small inputs."""
        n = self.order
        out = np.zeros((n, n))
        idx = np.arange(n)
        out[idx, idx] = self.diagonal
        out[idx[1:], idx[:-1]] = self.a[1:]
        out[idx[:-1], idx[1:]] = self.b[:-1]
        return out


def matvec(A, v):
    """Apply a dense matrix or TridiagonalSystem to a vector.

    For a TridiagonalSystem, row i accumulates a*v[i-1], then the
    diagonal term, then b*v[i+1], matching the ascending-column order
    of the dense-row arithmetic exactly.
    """
    v = as_vector(v)
    if isinstance(A, TridiagonalSystem):
        if len(v) != A.order:
            raise InvalidInput("vector length does not match system order")
        out = np.zeros(len(v), dtype=v.dtype)
        out[1:] = A.a[1:] * v[:-1]
        out += A.diagonal * v
        out[:-1] += A.b[:-1] * v[1:]
        return out
    A = as_square_matrix(A)
    if A.shape[1] != len(v):
        raise InvalidInput("matrix and vector dimensions do not agree")
    return A @ v


def weighted_inner(u, v, mu):
    """Weighted inner product sum_i mu_i * conj(u_i) * v_i."""
    u = as_vector(u)
    v = as_vector(v)
    mu = as_measure(mu)
    if not (len(u) == len(v) == len(mu)):
        raise InvalidInput("weighted_inner operands must share one length")
    return (mu * np.conj(u) * v).sum()


def weighted_norm(v, mu):
    return float(np.sqrt(weighted_inner(v, v, mu).real))


def is_positive_vector(v, imag_tol=0.0) -> bool:
    """True when every entry has positive real part and (near) zero imaginary part."""
    v = np.asarray(v)
    if np.iscomplexobj(v):
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
    return float(ratios[int(np.argmax(ratios))])


def row_sums(A):
    if isinstance(A, TridiagonalSystem):
        return -A.c.copy()
    return as_square_matrix(A).sum(axis=1)


def shift_to_qc(A):
    """Shift a matrix to generator form: Qc = A - mI with m the max row sum.

    Qc has nonpositive row sums with at least one zero.  A must be real
    with nonnegative off-diagonal entries; anything else raises
    InvalidInput.
    """
    A = as_square_matrix(A)
    off = A - np.diag(np.diag(A))
    if np.iscomplexobj(off) or (off < 0).any():
        raise InvalidInput("shift_to_qc requires real nonnegative off-diagonal entries")
    m = float(A.sum(axis=1).max())
    return A - m * np.eye(A.shape[0], dtype=A.dtype), m


def matrix_scale(A) -> float:
    """Max absolute row sum; the scale used in relative residuals."""
    if isinstance(A, TridiagonalSystem):
        return float((A.a + A.b + A.c + np.abs(A.diagonal)).max())
    A = as_square_matrix(A)
    return float(np.abs(A).sum(axis=1).max())
