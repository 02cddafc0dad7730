"""Reproduction of the bundled reference tables.

Each table id has one entry in ``_TABLES``: given a row's size it
recomputes that row with this library and returns a function from cell
id to computed value (None when the library has no such value).
``run_table`` picks the rows, calls the entry once per row and pairs
each cell with its bundled reference value, in file order.  Gated cells decide the exit status of ``maxeig reproduce``; ungated
cells are shown for side-by-side comparison only (initial shifts that
depend on policy, traces of variant algorithms, and rows the source
printed before stabilizing).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import models
from .general_init import general_rqi
from .iterengine import algorithm1, algorithm2, rqi
from .numat import matvec
from .tridiag import recover_original, tridiag_rqi

__all__ = ["CellReport", "TABLE_IDS", "load_reference", "run_table"]

_reference_cache = None


def load_reference() -> dict:
    global _reference_cache
    if _reference_cache is None:
        text = resources.files("maxeig").joinpath("data/reference_tables.json").read_text()
        _reference_cache = json.loads(text)
    return _reference_cache


@dataclass(frozen=True)
class CellReport:
    table: str
    row: str
    cell: str
    computed: float | complex | None
    reference: float | complex
    atol: float
    gated: bool
    note: str = ""

    @property
    def passed(self) -> bool | None:
        """True/False for gated cells with a computed value, else None."""
        if not self.gated:
            return None
        if self.computed is None:
            return False
        return bool(abs(self.computed - self.reference) <= self.atol)


def _ref_value(cell):
    v = cell["value"]
    if isinstance(v, list):  # [re, im]
        return complex(v[0], v[1])
    return float(v)


def _pair(table, row_label, cell, computed):
    return CellReport(
        table=table,
        row=row_label,
        cell=cell["id"],
        computed=computed,
        reference=_ref_value(cell),
        atol=float(cell["atol"]),
        gated=bool(cell["gated"]),
        note=cell.get("note", ""),
    )


def _trace_value(zs, cell_id):
    """Value for a cell named z<k> or final, or None when unavailable."""
    if cell_id == "final":
        return float(zs[-1].real if np.iscomplexobj(zs) else zs[-1])
    k = int(cell_id.lstrip("z"))
    if k >= len(zs):
        return None
    val = zs[k]
    return complex(val) if np.iscomplexobj(zs) else float(val)


def _trace_table(solve):
    """Entry of a table of shift traces: the cells of solve(size)'s trace."""

    def row(size):
        zs = solve(size)[1].zs()
        return lambda cid: _trace_value(zs, cid)

    return row


def _t6_row(size):
    A = models.negative3()
    traces = {"alg1": algorithm1(A)[1].zs(), "alg2": algorithm2(A)[1].zs()}

    def value(cid):
        which, zid = cid.split(".")
        return _trace_value(traces[which], zid)

    return value


def _t7_row(size):
    result, _ = algorithm1(models.complex3())
    g = result.eigenvector / np.linalg.norm(result.eigenvector)
    lam = complex(result.eigenvalue)
    # no y<k> entry: the y-trace comes from an undefined variant, so it reads None
    return {"eigenvalue": lam, "eigenvalue_nominal": lam,
            **{f"g{i}": complex(x) for i, x in enumerate(g)}}.get


def _e11_row(size):
    result, _ = tridiag_rqi(models.bd_squares(size - 1))
    g = recover_original(result).eigenvector
    return {"eigenvalue": float(result.eigenvalue),
            **{f"g{i}": float(x) for i, x in enumerate(g)}}.get


def _e13_row(size):
    # RQI on -Q from the uniform seed and its Rayleigh quotient, run on Q from
    # the negated shift, reporting -Q's shifts
    system = models.bd_squares(size - 1)
    v0 = np.ones(size) / np.sqrt(size)
    result, trace = rqi(system, v0, float(v0 @ matvec(system, v0)), "rayleigh", negate=True)
    safe, _ = algorithm2(system, negate=True)
    flagged = (not result.eigenvector_positive) and (
        abs(result.eigenvalue - safe.eigenvalue) > 1e-3 * abs(safe.eigenvalue)
    )
    zs = trace.zs()

    def value(cid):
        if cid == "non_maximal_flagged":
            return 1.0 if flagged else 0.0
        return _trace_value(zs, cid)

    return value


# table id -> entry: row size -> (cell id -> computed value).  The lambdas
# look the solvers up at call time, so a patched module binding takes effect.
_TABLES = {
    "t1": _trace_table(lambda size: tridiag_rqi(models.bd_squares(size - 1))),
    "t3": _trace_table(lambda size: general_rqi(models.toeplitz_linear(size))),
    "t4": _trace_table(lambda size: algorithm2(models.triangular_model(size - 1, "inv_kp1"),
                                               negate=True)),
    "t5": _trace_table(lambda size: algorithm2(models.branching_model(size, 7.0 / 4.0),
                                               negate=True)),
    "t6": _t6_row,
    "t7": _t7_row,
    "e11": _e11_row,
    "e12": _trace_table(lambda size: tridiag_rqi(models.bd_squares(size - 1), z0="rayleigh")),
    "e13": _e13_row,
}
TABLE_IDS = tuple(_TABLES)


def run_table(table: str, max_size=None) -> list[CellReport]:
    """Recompute one reference table; deterministic cell order.

    Rows larger than ``max_size`` (default: the table's
    ``default_max_size``, else every row) are skipped.
    """
    if table not in _TABLES:
        raise KeyError(f"unknown table {table!r}; choose from {TABLE_IDS}")
    doc = load_reference()["tables"][table]
    limit = doc.get("default_max_size") if max_size is None else max_size
    reports = []
    for row in doc["rows"]:
        if limit is None or row["size"] <= limit:
            value = _TABLES[table](row["size"])
            reports += [_pair(table, f"size={row['size']}", cell, value(cell["id"]))
                        for cell in row["cells"]]
    return reports
