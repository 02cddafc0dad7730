"""Built-in matrix families used by the reproduction suite and the CLI.

Every generator is deterministic and total on its stated domain.  The
generator-type families (bd_squares, triangular, branching) produce
nonnegative off-diagonals with nonpositive row sums; toeplitz and
poisson produce exactly symmetric matrices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .matrixio import parse_error
from .numat import TridiagonalSystem

__all__ = [
    "ModelSpec",
    "MODEL_NAMES",
    "bd_squares",
    "poisson_block",
    "toeplitz_linear",
    "triangular_model",
    "branching_model",
    "negative3",
    "complex3",
]

TRIANGULAR_RULES = {
    "inv_kp1": lambda k: 1.0 / (k + 1),
    "one": lambda k: 1.0,
    "k": lambda k: float(k),
    "k2": lambda k: float(k) ** 2,
}


def bd_squares(N: int) -> TridiagonalSystem:
    """Birth-death generator driven by the squares: b_k = (k+1)^2, a_k = k^2.

    Every row sums to zero except the last, which carries the killing
    rate (N+1)^2; the truncation of the infinite chain whose decay rate
    tends to 1/4 from above.
    """
    if N < 1:
        raise InvalidInput("bd_squares needs N >= 1")
    k = np.arange(N + 1, dtype=float)
    a = k**2
    b = (k + 1.0) ** 2
    b[N] = 0.0
    c = np.zeros(N + 1)
    c[N] = (N + 1.0) ** 2
    return TridiagonalSystem(a, b, c)


def triangular_model(N: int, rule="inv_kp1") -> np.ndarray:
    """Lower-triangular-plus-superdiagonal generator.

    Column 0 holds the return rates a_k, the superdiagonal holds k+1,
    and the diagonal closes each row (row N sums to -(N+1)).  ``rule``
    names the a_k family in TRIANGULAR_RULES.
    """
    if N < 1:
        raise InvalidInput("triangular_model needs N >= 1")
    a_of = TRIANGULAR_RULES[rule]
    n = N + 1
    Q = np.zeros((n, n))
    for kk in range(n):
        ak = 0.0 if kk == 0 else float(a_of(kk))
        if kk >= 1:
            Q[kk, 0] = ak
        if kk < N:
            Q[kk, kk + 1] = kk + 1.0
        Q[kk, kk] = -ak - (kk + 1.0)
    return Q


def branching_model(N: int, alpha: float = 1.75) -> np.ndarray:
    """Truncated branching generator on states 1..N (order N).

    Offspring law p_0 = alpha/2, p_1 = 0, p_n = (2-alpha)/2^n; the last
    column absorbs the exact geometric tail sums (2-alpha)/2^(m-1), so
    each row closes in closed form.  Subcritical iff alpha > 4/3.
    """
    if N < 2:
        raise InvalidInput("branching_model needs N >= 2")
    if not 0.0 < alpha < 2.0:
        raise InvalidInput("alpha must lie in (0, 2)")
    p0 = alpha / 2.0
    # p[k] = (2-alpha)/2^k, exact powers of two (2.0**k overflows from k = 1024,
    # and p underflows to 0 instead); the tail sum from m >= 2 is p[m-1]
    p = np.ldexp(2.0 - alpha, -np.arange(N + 1))
    Q = np.zeros((N, N))
    for i in range(1, N):
        row = i - 1
        if i >= 2:
            Q[row, row - 1] = i * p0
        Q[row, row] = -float(i)
        Q[row, i:N - 1] = i * p[2:N - i + 1]   # k = 2..N-i offspring: state i to i + k - 1
        Q[row, N - 1] = i * p[N - i]           # k > N - i offspring: truncated to state N
    Q[N - 1, N - 2] = N * p0
    Q[N - 1, N - 1] = -N * p0
    return Q


def toeplitz_linear(n: int) -> np.ndarray:
    """Symmetric Toeplitz matrix with entries |i - j| + 1."""
    if n < 2:
        raise InvalidInput("toeplitz_linear needs n >= 2")
    idx = np.arange(n)
    return (np.abs(idx[:, None] - idx[None, :]) + 1).astype(float)


def poisson_block(grid: int, block_size: int | None = None) -> np.ndarray:
    """Block-tridiagonal matrix with identity off-diagonal blocks.

    The diagonal blocks are tridiagonal with -4 on the diagonal and 1
    beside it: the five-point grid Laplacian with absorbing boundary,
    order grid * block_size.
    """
    if grid < 2:
        raise InvalidInput("poisson_block needs grid >= 2")
    bs = grid if block_size is None else block_size
    if bs < 2:
        raise InvalidInput("poisson_block needs block_size >= 2")
    blk = np.zeros((bs, bs))
    ii = np.arange(bs)
    blk[ii, ii] = -4.0
    blk[ii[:-1], ii[1:]] = 1.0
    blk[ii[1:], ii[:-1]] = 1.0
    n = grid * bs
    out = np.zeros((n, n))
    eye = np.eye(bs)
    for B in range(grid):
        s = B * bs
        out[s:s + bs, s:s + bs] = blk
        if B + 1 < grid:
            out[s:s + bs, s + bs:s + 2 * bs] = eye
            out[s + bs:s + 2 * bs, s:s + bs] = eye
    return out


def negative3() -> np.ndarray:
    """The fixed 3x3 example with several negative entries."""
    return np.array([[-1.0, 8.0, -1.0],
                     [8.0, 8.0, 8.0],
                     [-1.0, 8.0, 8.0]])


def complex3() -> np.ndarray:
    """The fixed complex 3x3 example (coefficients exact to four decimals)."""
    return np.array([
        [0.75 - 1.125j, 0.5882 - 0.1471j, 1.0735 + 1.4191j],
        [-0.5 - 1.0j, 2.1765 + 0.7059j, 2.1471 - 0.4118j],
        [2.75 - 0.125j, 0.5882 - 0.1471j, -0.9265 + 0.4191j],
    ])


# name -> (constructor, whether its first argument is the size, the
# keyword parameters it takes: name -> (type, the type's name in messages))
_MODELS = {
    "bd_squares": (bd_squares, True, {}),
    "poisson_block": (poisson_block, True, {"block_size": (int, "an integer")}),
    "toeplitz": (toeplitz_linear, True, {}),
    "triangular": (triangular_model, True, {"rule": (str, "a string")}),
    "branching": (branching_model, True, {"alpha": ((int, float), "a real number")}),
    "negative3": (negative3, False, {}),
    "complex3": (complex3, False, {}),
}
MODEL_NAMES = tuple(_MODELS)


def _has_type(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class ModelSpec:
    """A serializable description of one built-in model instance.

    ``params`` holds only the parameters that were given; the constructor's
    own defaults fill in the rest.  Raises ``matrixio.parse_error`` (the
    description itself is malformed) for an unknown model name; a size
    that is missing, not an int, or given to a model that takes none;
    params that are not a dict; a parameter the model does not take or
    of the wrong type (see ``_MODELS``); or an unknown triangular rule.
    """

    name: str
    size: int | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in _MODELS:
            raise parse_error(f"unknown model {self.name!r}; choose from {MODEL_NAMES}")
        _, sized, takes = _MODELS[self.name]
        if sized and self.size is None:
            raise parse_error(f"model {self.name!r} needs a size (--n)")
        if not sized and self.size is not None:
            raise parse_error(f"model {self.name!r} takes no size, got {self.size!r}")
        if self.size is not None and not _has_type(self.size, int):
            raise parse_error(f"model size must be an integer, got {self.size!r}")
        if not isinstance(self.params, dict):
            raise parse_error(f"model params must be an object, got {self.params!r}")
        unknown = sorted(map(str, set(self.params) - set(takes)))
        if unknown:
            raise parse_error(f"model {self.name!r} takes no parameter {', '.join(unknown)}")
        for key, value in self.params.items():
            kind, what = takes[key]
            if not _has_type(value, kind):
                raise parse_error(f"model parameter {key} must be {what}, got {value!r}")
        if "rule" in self.params and self.params["rule"] not in TRIANGULAR_RULES:
            raise parse_error(f"unknown triangular rule {self.params['rule']!r}; "
                              f"choose from {', '.join(TRIANGULAR_RULES)}")

    def render(self):
        """Materialize the concrete matrix or tridiagonal system."""
        make, sized, _ = _MODELS[self.name]
        return make(self.size, **self.params) if sized else make()

    def to_json(self) -> str:
        return json.dumps({"name": self.name, "size": self.size, "params": self.params})

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        try:
            doc = json.loads(text)
            name, size, params = doc["name"], doc.get("size"), doc.get("params") or {}
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise parse_error(f"malformed model spec: {exc!r}") from None
        return cls(name=name, size=size, params=params)
