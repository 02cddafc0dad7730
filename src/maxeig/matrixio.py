"""Matrix file formats and trace output.

Two text formats, both round-tripping bit-exactly via shortest repr:

coordinate  -- header ``coordinate <order> <entries> <real|complex>``,
               then one 0-indexed entry per line: ``i j value`` or
               ``i j re im``;
TRIDIAG     -- header ``TRIDIAG <N>``, then three lines holding the
               rate sequences a_1..a_N, b_0..b_{N-1}, c_0..c_N.

The reader sniffs the header and returns a dense array or a
TridiagonalSystem accordingly.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import InvalidInput
from .numat import TridiagonalSystem, as_square_matrix

__all__ = ["write_matrix", "read_matrix", "write_trace_csv", "parse_error"]


class parse_error(InvalidInput):
    """Raised when a matrix file (with a line number) or a model spec cannot be parsed."""


def _fmt(x: float) -> str:
    return repr(float(x))


def write_matrix(path, matrix, fmt=None):
    """Write a matrix file; fmt defaults to the natural format of the object."""
    if fmt is None:
        fmt = "tridiag" if isinstance(matrix, TridiagonalSystem) else "coord"
    with open(path, "w") as fh:
        if fmt == "tridiag":
            if not isinstance(matrix, TridiagonalSystem):
                raise InvalidInput("tridiag format needs a TridiagonalSystem")
            fh.write(f"TRIDIAG {matrix.n_max}\n")
            for x in (matrix.a[1:], matrix.b[:-1], matrix.c):
                fh.write(" ".join(map(repr, x.tolist())) + "\n")   # _fmt on Python floats
            return
        if isinstance(matrix, TridiagonalSystem):
            fh.write(f"coordinate {matrix.order} {3 * matrix.n_max + 1} real\n")
            fh.writelines(f"{i} {j} {_fmt(v)}\n" for i, j, v in _tridiagonal_entries(matrix))
            return
        dense = as_square_matrix(matrix)
        order = dense.shape[0]
        complex_field = bool(np.iscomplexobj(dense))
        rows, cols = np.nonzero(dense)
        fh.write(f"coordinate {order} {len(rows)} {'complex' if complex_field else 'real'}\n")
        for i, j in zip(rows, cols):
            v = dense[i, j]
            if complex_field:
                fh.write(f"{i} {j} {_fmt(v.real)} {_fmt(v.imag)}\n")
            else:
                fh.write(f"{i} {j} {_fmt(v)}\n")


def _tridiagonal_entries(system):
    """(i, j, value) for each of a TridiagonalSystem's 3N+1 entries, row by row
    in column order: np.nonzero's order on its dense form, as all are nonzero."""
    a, d, b = (x.tolist() for x in (system.a, system.diagonal, system.b))
    N = system.n_max
    for i in range(N + 1):
        if i > 0:
            yield i, i - 1, a[i]
        yield i, i, d[i]
        if i < N:
            yield i, i + 1, b[i]


def read_matrix(path):
    """Read a coordinate or TRIDIAG matrix file."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise parse_error(f"{path}: empty file")
    head = lines[0].split()
    if not head:
        raise parse_error(f"{path}:1: blank header line")
    if head[0].upper() == "TRIDIAG":
        return _read_tridiag(path, head, lines)
    if head[0].lower() == "coordinate":
        return _read_coordinate(path, head, lines)
    raise parse_error(f"{path}:1: unknown header {lines[0]!r}")


def _read_tridiag(path, head, lines):
    if len(head) != 2:
        raise parse_error(f"{path}:1: TRIDIAG header needs exactly one size field")
    try:
        N = int(head[1])
    except ValueError:
        raise parse_error(f"{path}:1: bad size {head[1]!r}") from None
    if N < 1:
        raise parse_error(f"{path}:1: TRIDIAG size must be at least 1, got {N}")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != 3:
        raise parse_error(f"{path}: TRIDIAG body needs 3 data lines, found {len(body)}")
    seqs = []
    for offset, (ln, want) in enumerate(zip(body, (N, N, N + 1)), start=2):
        try:
            # numpy's parser reads the line in one call and refuses any token it
            # cannot read; it also takes "nan(...)", which float() refuses
            vals = np.fromstring(ln, sep=" ")
            if len(vals) != want or np.isnan(vals).any():
                raise ValueError
        except ValueError:
            # float()'s grammar ("1_0", other scripts' digits) and the messages
            # are the token-by-token parse's, which numpy makes without boxing
            # a float per entry
            try:
                vals = np.array(ln.split(), dtype=float)
            except ValueError:
                raise parse_error(f"{path}:{offset}: non-numeric token") from None
        if len(vals) != want:
            raise parse_error(f"{path}:{offset}: expected {want} values, found {len(vals)}")
        seqs.append(vals)
    return TridiagonalSystem.from_rates(*seqs)


def _read_coordinate(path, head, lines):
    if len(head) != 4:
        raise parse_error(f"{path}:1: coordinate header needs order, count and field")
    try:
        order, count = int(head[1]), int(head[2])
    except ValueError:
        raise parse_error(f"{path}:1: bad order/count") from None
    if order < 1 or count < 0:
        raise parse_error(f"{path}:1: order must be at least 1 and count nonnegative, "
                          f"got {order} and {count}")
    field = head[3].lower()
    if field not in ("real", "complex"):
        raise parse_error(f"{path}:1: field must be real or complex, got {head[3]!r}")
    dtype = np.dtype(complex if field == "complex" else float)
    try:
        out = np.zeros((order, order), dtype=dtype)
    except MemoryError:
        gib = order * order * dtype.itemsize / 2**30
        raise parse_error(f"{path}:1: a coordinate file is read into a dense matrix, and one "
                          f"of order {order} ({gib:.1f} GiB) could not be allocated; "
                          f"write a tridiagonal generator in the TRIDIAG format") from None
    seen = 0
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        toks = ln.split()
        want = 4 if field == "complex" else 3
        if len(toks) != want:
            raise parse_error(f"{path}:{lineno}: expected {want} fields, found {len(toks)}")
        try:
            i, j = int(toks[0]), int(toks[1])
            if field == "complex":
                val = complex(float(toks[2]), float(toks[3]))
            else:
                val = float(toks[2])
        except ValueError:
            raise parse_error(f"{path}:{lineno}: non-numeric token") from None
        if not (0 <= i < order and 0 <= j < order):
            raise parse_error(f"{path}:{lineno}: index ({i},{j}) outside order {order}")
        out[i, j] = val
        seen += 1
    if seen != count:
        raise parse_error(f"{path}: header declared {count} entries, found {seen}")
    return out


def write_trace_csv(path, trace):
    """Dump an IterationTrace as CSV with columns k,z,residual,seconds."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "z", "residual", "seconds"])
        for step in trace.steps:
            z = step.z
            zs = repr(complex(z)) if isinstance(z, complex) or np.iscomplexobj(z) else repr(float(z))
            writer.writerow([step.k, zs, repr(float(step.residual)), f"{step.seconds:.6f}"])
