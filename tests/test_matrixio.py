"""Matrix file formats and the trace CSV."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxeig import models
from maxeig.errors import InvalidInput
from maxeig.iterengine import IterationTrace, TraceStep
from maxeig.matrixio import parse_error, read_matrix, write_matrix, write_trace_csv
from maxeig.numat import TridiagonalSystem


class TestRefusedExport:
    """A format or matrix write_matrix refuses is refused before the path is
    opened, so an existing file keeps its bytes."""

    @pytest.mark.parametrize("matrix, fmt", [
        (models.negative3(), "tridiag"),
        (models.bd_squares(3), "bogus"),
        (models.negative3(), "bogus"),
        (np.ones((2, 3)), None),
        (np.ones((2, 3)), "coord"),
        ([[1.0, np.nan], [0.0, 1.0]], None),
    ], ids=["dense-tridiag", "system-bogus", "dense-bogus", "not-square", "not-square-coord",
            "nan"])
    def test_leaves_an_existing_file_unchanged(self, tmp_path, matrix, fmt):
        path = tmp_path / "kept.txt"
        path.write_bytes(b"an earlier export\n")
        with pytest.raises(InvalidInput):
            write_matrix(path, matrix, fmt=fmt)
        assert path.read_bytes() == b"an earlier export\n"


class TestCoordinateFormat:
    def test_small_generator_entries(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix(path, models.bd_squares(1), fmt="coord")
        lines = path.read_text().splitlines()
        assert lines[0] == "coordinate 2 4 real"
        assert len(lines) == 5
        back = read_matrix(path)
        assert np.array_equal(back, [[-1.0, 1.0], [1.0, -5.0]])

    def test_a_tridiagonal_system_writes_the_bytes_of_its_dense_form(self, tmp_path, rng,
                                                                     monkeypatch):
        systems = [TridiagonalSystem.from_rates(rng.uniform(0.5, 2.0, N), rng.uniform(0.5, 2.0, N),
                                                rng.uniform(0.0, 2.0, N + 1)) for N in (1, 2, 9)]
        expected = []
        for system in systems:
            write_matrix(tmp_path / "d.txt", system.dense(), fmt="coord")
            expected.append((tmp_path / "d.txt").read_bytes())
        # written without the O(N^2) dense form
        monkeypatch.setattr(TridiagonalSystem, "dense", None)
        for system, want in zip(systems, expected):
            write_matrix(tmp_path / "s.txt", system, fmt="coord")
            assert (tmp_path / "s.txt").read_bytes() == want

    def test_round_trip_bit_exact(self, tmp_path, rng):
        A = rng.normal(size=(7, 7))
        A[rng.uniform(size=(7, 7)) < 0.3] = 0.0
        path = tmp_path / "a.txt"
        write_matrix(path, A)
        assert np.array_equal(read_matrix(path), A)

    def test_complex_round_trip_preserves_coefficients(self, tmp_path):
        path = tmp_path / "c.txt"
        write_matrix(path, models.complex3())
        back = read_matrix(path)
        assert back.dtype.kind == "c"
        assert np.array_equal(back, models.complex3())

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("coordinate 2 1 real\n0 0 1.0 extra\n")
        with pytest.raises(parse_error, match=":2"):
            read_matrix(p)
        p.write_text("coordinate 2 1 real\n5 0 1.0\n")
        with pytest.raises(parse_error, match="outside"):
            read_matrix(p)
        p.write_text("coordinate 2 3 real\n0 0 1.0\n")
        with pytest.raises(parse_error, match="declared"):
            read_matrix(p)
        p.write_text("who knows\n")
        with pytest.raises(parse_error, match="unknown header"):
            read_matrix(p)
        for header in ("\ncoordinate 2 0 real", "   ", "coordinate -2 0 real",
                       "coordinate 0 0 real", "coordinate 2 -1 real"):
            p.write_text(header + "\n")
            with pytest.raises(parse_error, match=":1:"):
                read_matrix(p)
        for header, message in (("coordinate 2 1", "coordinate header needs order, count and field"),
                                ("coordinate two 1 real", "bad order/count"),
                                ("coordinate 2 1 integer", "field must be real or complex")):
            p.write_text(header + "\n0 0 1.0\n")
            with pytest.raises(parse_error, match=f":1: {message}"):
                read_matrix(p)
        p.write_text("coordinate 2 1 real\n0 0 one\n")
        with pytest.raises(parse_error, match=":2: non-numeric token"):
            read_matrix(p)
        p.write_text("")
        with pytest.raises(parse_error, match="empty file"):
            read_matrix(p)

    def test_blank_data_lines_are_skipped(self, tmp_path):
        p = tmp_path / "blank.txt"
        p.write_text("coordinate 2 2 real\n\n0 0 1.5\n   \n1 1 -2.0\n\n")
        assert np.array_equal(read_matrix(p), [[1.5, 0.0], [0.0, -2.0]])

    def test_an_order_too_large_to_densify_is_a_parse_error(self, tmp_path):
        # 8e16 bytes lie beyond any address space, so the allocation fails at once
        p = tmp_path / "huge.coord"
        p.write_text("coordinate 100000000 0 real\n")
        with pytest.raises(parse_error, match=r":1: .*order 100000000 \(74505806\.0 GiB\).*TRIDIAG"):
            read_matrix(p)


class TestTridiagFormat:
    def test_round_trip(self, tmp_path, rng):
        system = TridiagonalSystem.from_rates(
            rng.uniform(0.5, 2.0, 6), rng.uniform(0.5, 2.0, 6), rng.uniform(0.0, 2.0, 7))
        path = tmp_path / "t.txt"
        write_matrix(path, system)
        back = read_matrix(path)
        assert isinstance(back, TridiagonalSystem)
        assert np.array_equal(back.a, system.a)
        assert np.array_equal(back.b, system.b)
        assert np.array_equal(back.c, system.c)

    def test_header_and_body_validation(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("TRIDIAG 2\n1.0 1.0\n1.0 1.0\n")
        with pytest.raises(parse_error, match="3 data lines"):
            read_matrix(p)
        p.write_text("TRIDIAG 2\n1.0\n1.0 1.0\n0.0 0.0 4.0\n")
        with pytest.raises(parse_error, match="expected 2 values"):
            read_matrix(p)
        p.write_text("TRIDIAG 2\n1.0 x\n1.0 1.0\n0.0 0.0 4.0\n")
        with pytest.raises(parse_error, match="non-numeric"):
            read_matrix(p)
        # each line of the body is named, and a token is numeric exactly when float() takes it
        for lineno, text in ((2, "TRIDIAG 2\n0x10 1.0\n1.0 1.0\n0.0 0.0 4.0\n"),
                             (3, "TRIDIAG 2\n1.0 1.0\n1,0 1.0\n0.0 0.0 4.0\n"),
                             (4, "TRIDIAG 2\n1.0 1.0\n1.0 1.0\n0.0 1__0 4.0\n"),
                             (4, "TRIDIAG 2\n1.0 1.0\n1.0 1.0\n0.0 nan(1) 4.0\n")):
            p.write_text(text)
            with pytest.raises(parse_error, match=f":{lineno}: non-numeric token"):
                read_matrix(p)
        p.write_text("TRIDIAG 2\n1_0 \u0661\u0662\n 0.5e1  .5 \n0.0 0.0 +4.\n")
        system = read_matrix(p)
        assert system.a[1:].tolist() == [10.0, 12.0] and system.b[:-1].tolist() == [5.0, 0.5]
        assert system.c.tolist() == [0.0, 0.0, 4.0]
        p.write_text("TRIDIAG 0\n\n\n4.0\n")
        with pytest.raises(parse_error, match=":1: TRIDIAG size"):
            read_matrix(p)
        for header, message in (("TRIDIAG", "TRIDIAG header needs exactly one size field"),
                                ("TRIDIAG 2 3", "TRIDIAG header needs exactly one size field"),
                                ("TRIDIAG two", "bad size 'two'")):
            p.write_text(header + "\n1.0 1.0\n1.0 1.0\n0.0 0.0 4.0\n")
            with pytest.raises(parse_error, match=f":1: {message}"):
                read_matrix(p)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=60))
def test_numpy_parse_is_the_token_parse_bitwise(values):
    # repr'd doubles, subnormal, huge and infinite ones included, read as float() reads them
    line = " ".join(repr(x) for x in values)
    assert np.fromstring(line, sep=" ").tobytes() == np.array(line.split(), dtype=float).tobytes()


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    *(st.lists(st.floats(5e-324, 1e300), min_size=k, max_size=k) for k in (n, n, n + 1)))))
def test_tridiag_reader_takes_the_same_bits_on_either_parse(tmp_path_factory, rates):
    path = tmp_path_factory.mktemp("t") / "r.tridiag"
    write_matrix(path, TridiagonalSystem.from_rates(*rates))
    fast = read_matrix(path)
    with pytest.MonkeyPatch.context() as patch:
        # numpy giving no values: every line goes to the token-by-token parse
        patch.setattr(np, "fromstring", lambda *args, **kwargs: np.array(()))
        slow = read_matrix(path)
    for x, y in ((fast.a, slow.a), (fast.b, slow.b), (fast.c, slow.c)):
        assert x.tobytes() == y.tobytes()
    assert [x.tolist() for x in (fast.a[1:], fast.b[:-1], fast.c)] == [list(r) for r in rates]


class TestTraceCsv:
    def test_columns(self, tmp_path):
        trace = IterationTrace(steps=[
            TraceStep(0, 1.5, 0.25, 0.001),
            TraceStep(1, complex(2.0, -0.5), 0.125, 0.002),
        ])
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,z,residual,seconds"
        assert lines[1].startswith("0,1.5,0.25,")
        assert "(2-0.5j)" in lines[2]
