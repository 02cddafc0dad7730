"""The reproduction contract: run_table against the bundled reference tables."""

from dataclasses import replace

import numpy as np
import pytest

from maxeig import reference

# the solver each table's entry calls first
SOLVERS = {"t1": "tridiag_rqi", "t3": "general_rqi", "t4": "algorithm2", "t5": "algorithm2",
           "t6": "algorithm1", "t7": "algorithm1", "e11": "tridiag_rqi", "e12": "tridiag_rqi",
           "e13": "rqi"}


def _rows(table):
    return reference.load_reference()["tables"][table]["rows"]


def test_every_bundled_table_has_an_entry_in_file_order():
    assert reference.TABLE_IDS == tuple(reference.load_reference()["tables"])
    assert set(SOLVERS) == set(reference.TABLE_IDS)


@pytest.mark.parametrize("table", reference.TABLE_IDS)
def test_smallest_row_pairs_every_cell_in_order_and_passes(table):
    smallest = min(row["size"] for row in _rows(table))
    reports = reference.run_table(table, max_size=smallest)
    expected = [(f"size={row['size']}", cell["id"])
                for row in _rows(table) if row["size"] <= smallest for cell in row["cells"]]
    assert [(rep.row, rep.cell) for rep in reports] == expected
    assert all(rep.table == table for rep in reports)
    assert all(rep.passed for rep in reports if rep.gated)


def test_max_size_below_a_fixed_tables_only_row_is_empty():
    (row,) = _rows("e11")
    assert reference.run_table("e11", max_size=row["size"] - 1) == []


def test_a_cell_passes_only_when_gated_and_computed_within_its_tolerance():
    cell = reference.CellReport("t1", "size=8", "z1", 1.0, 1.0, 1e-6, gated=True)
    assert cell.passed is True
    assert replace(cell, computed=1.1).passed is False
    assert replace(cell, computed=None).passed is False
    assert replace(cell, gated=False).passed is None
    assert replace(cell, computed=None, gated=False).passed is None


def test_a_trace_cell_past_the_trace_has_no_value():
    zs = np.array([0.5, 0.25])
    assert reference._trace_value(zs, "z1") == 0.25
    assert reference._trace_value(zs, "z2") is None
    assert reference._trace_value(zs, "final") == 0.25


def test_unknown_table_is_a_key_error():
    with pytest.raises(KeyError):
        reference.run_table("t2")


@pytest.mark.parametrize("table, solver", SOLVERS.items())
def test_entries_reach_the_solver_through_the_module_binding(monkeypatch, table, solver):
    # perfbench's tracer patches module bindings; an entry holding the
    # function object itself would drop the solver from the traced run
    class Reached(Exception):
        pass

    def stub(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(reference, solver, stub)
    with pytest.raises(Reached):
        reference.run_table(table)
