"""Command-line interface: solve, model, reproduce, exit codes, outputs."""

import copy
import csv
import json

import numpy as np
import pytest

import maxeig
from maxeig import errors, reference
from maxeig.cli import METHODS, main
from maxeig.numat import TridiagonalSystem


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SPEC_FILES = {
    "bd7.json": '{"name": "bd_squares", "size": 7, "params": {}}',
    "bad.json": '{"name": "bd_squares", "size": 7',
    "foo.json": '{"name": "poisson_block", "size": 3, "params": {"foo": 1}}',
    "zzz.json": '{"name": "triangular", "size": 3, "params": {"rule": "zzz"}}',
    "size_str.json": '{"name": "bd_squares", "size": "7"}',
    "size_bool.json": '{"name": "bd_squares", "size": true}',
    "mystery.json": '{"name": "mystery", "size": 3}',
    "alpha_str.json": '{"name": "branching", "size": 50, "params": {"alpha": "x"}}',
    "block_float.json": '{"name": "poisson_block", "size": 4, "params": {"block_size": 2.5}}',
    "params_int.json": '{"name": "bd_squares", "size": 3, "params": 5}',
    "params_list.json": '{"name": "branching", "size": 3, "params": [["alpha", 2]]}',
    "order1.coord": "coordinate 1 1 real\n0 0 2.0\n",
    "zeros.coord": "coordinate 3 0 real\n",
    "nilpotent.coord": "coordinate 2 1 real\n0 1 1.0\n",
    "blank_header.coord": "\ncoordinate 2 0 real\n",
    "negative_order.coord": "coordinate -2 0 real\n",
    "order0.coord": "coordinate 0 0 real\n",
}
BD7 = ("solve", "--model", "bd_squares", "--n", "7")

# argv -> exit code; "{tmp}" is a directory holding SPEC_FILES
EXIT_TABLE = [
    (BD7 + ("--method", "rqi-tridiag"), 0),
    (BD7 + ("--method", "power", "--steps", "10", "--norm", "l2"), 0),
    (("solve", "--spec", "{tmp}/bd7.json", "--method", "rqi-tridiag"), 0),
    (("model", "--name", "negative3"), 0),
    (("reproduce", "e11"), 0),
    # input errors
    (("solve", "--model", "bd_squares", "--method", "rqi-tridiag"), 2),
    (("model", "--name", "bd_squares"), 2),
    (("solve", "--input", "{tmp}"), 2),
    (("solve", "--spec", "{tmp}/bad.json"), 2),
    (("solve", "--spec", "{tmp}/foo.json"), 2),
    (("solve", "--spec", "{tmp}/zzz.json"), 2),
    (("solve", "--spec", "{tmp}/size_str.json", "--method", "rqi-tridiag"), 2),
    (("solve", "--spec", "{tmp}/size_bool.json", "--method", "rqi-tridiag"), 2),
    (("solve", "--spec", "{tmp}/mystery.json"), 2),
    (("solve", "--spec", "{tmp}/alpha_str.json"), 2),
    (("solve", "--spec", "{tmp}/block_float.json"), 2),
    (("solve", "--spec", "{tmp}/params_int.json"), 2),
    (("solve", "--spec", "{tmp}/params_list.json"), 2),
    (("model", "--name", "negative3", "--n", "5"), 2),
    (BD7 + ("--method", "power", "--steps", "-3"), 2),
    *[(("solve", "--input", f"{{tmp}}/{name}.coord"), 2)
      for name in ("blank_header", "negative_order", "order0")],
    # tolerances and budgets that can never be met
    *[(BD7 + ("--method", m, flag, value), 2) for m in ("rqi-tridiag", "alg2")
      for flag, value in (("--tol", "nan"), ("--tol", "-1"), ("--res-tol", "-1"),
                          ("--res-tol", "nan"), ("--max-iter", "-1"), ("--max-iter", "0"))],
    (BD7 + ("--method", "rqi-tridiag", "--tol", "0", "--max-iter", "1"), 3),
    (("reproduce", "t1", "--max-size", "-5"), 2),
    # model flags the model (or a non-model input) does not take
    (BD7 + ("--alpha", "1.9", "--rule", "k2", "--block-size", "5"), 2),
    *[(BD7 + (flag, value), 2)
      for flag, value in (("--alpha", "1.9"), ("--rule", "k2"), ("--block-size", "5"))],
    (("solve", "--spec", "{tmp}/bd7.json", "--n", "7", "--method", "rqi-tridiag"), 2),
    # flags the method cannot use
    (BD7 + ("--method", "rqi-tridiag", "--z0", "nan"), 2),
    (BD7 + ("--method", "rqi-tridiag", "--z0", "inf"), 2),
    (BD7 + ("--method", "alg2", "--z0=-inf"), 2),
    (BD7 + ("--method", "power", "--z0", "bogus"), 2),
    (BD7 + ("--method", "power", "--z0", "0.5"), 2),
    *[(BD7 + ("--method", m, "--norm", "l1"), 2) for m in METHODS if m != "power"],
    (BD7 + ("--method", "power", "--norm", "l2mu"), 2),
    *[(BD7 + ("--method", m, "--negate"), 2) for m in METHODS if m not in ("alg1", "alg2")],
    (BD7 + ("--method", "alg2", "--negate"), 0),
    (("solve", "--model", "toeplitz", "--n", "3", "--method", "power", "--v0", "uniform"), 2),
    (BD7 + ("--method", "power", "--steps", "10", "--v0", "uniform"), 0),
    (("solve", "--model", "bd_squares", "--n", "99999", "--method", "power", "--steps", "10"), 0),
    *[(BD7 + ("--method", "power", flag, value), 2)
      for flag, value in (("--tol", "0.5"), ("--res-tol", "0.5"), ("--max-iter", "1"))],
    *[(BD7 + ("--method", m, "--steps", "5"), 2) for m in METHODS if m != "power"],
    *[(BD7 + ("--method", m, "--v0", "uniform"), 2) for m in ("alg1", "alg2")],
    # convergence failure
    (("solve", "--model", "bd_squares", "--n", "30", "--method", "rqi-tridiag",
      "--z0", "rayleigh", "--max-iter", "1"), 3),
    # values the library rejects
    (("solve", "--model", "bd_squares", "--n", "0", "--method", "rqi-tridiag"), 4),
    (("solve", "--model", "poisson_block", "--n", "3", "--block-size", "0", "--method", "alg2"), 4),
    (("solve", "--model", "complex3", "--method", "rqi-tridiag"), 4),
    (("solve", "--model", "negative3", "--method", "rqi-general"), 4),
    *[(("solve", "--input", "{tmp}/order1.coord", "--method", "rqi-general", "--z0", z0), 4)
      for z0 in ("safe", "rayleigh")],
    *[(("solve", "--input", "{tmp}/zeros.coord", "--method", m), 0) for m in ("alg1", "alg2")],
    *[(("solve", "--input", f"{{tmp}}/{name}.coord", "--method", "power"), 4)
      for name in ("zeros", "nilpotent")],
]


@pytest.mark.parametrize("argv, expected", EXIT_TABLE, ids=[" ".join(a) for a, _ in EXIT_TABLE])
def test_exit_code_table(capsys, tmp_path, argv, expected):
    for name, text in SPEC_FILES.items():
        (tmp_path / name).write_text(text)
    try:
        code = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    except SystemExit as exc:  # argparse rejects a choice
        code = exc.code
    assert code == expected
    if expected:
        assert "error" in capsys.readouterr().err


def test_error_tree():
    defined = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert defined == {"MaxeigError", "InvalidInput", "NonPositiveSequence",
                       "SolverBreakdown", "MaxIterationsExceeded"}
    assert issubclass(errors.InvalidInput, ValueError)
    for gone in ("DimensionMismatch", "NonFiniteInput", "NonPositiveIterate", "BreakdownError",
                 "SingularError", "DenominatorBreakdown", "SafeFormulaUnavailable"):
        assert not hasattr(maxeig, gone)
    assert issubclass(errors.NonPositiveSequence, errors.InvalidInput)


class TestSolve:
    def test_tridiagonal_example(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--model", "bd_squares", "--n", "7",
                               "--method", "rqi-tridiag")
        assert code == 0
        assert "0.525268" in out
        assert "stabilized at iteration 1" in out

    def test_negative_entries_example(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--model", "negative3", "--method", "alg2")
        assert code == 0
        assert "17.5124" in out

    def test_pitfall_run_is_flagged(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--model", "bd_squares", "--n", "7",
                               "--method", "rqi-general", "--z0", "rayleigh",
                               "--v0", "uniform")
        assert code == 0
        assert "5.91867" in out
        assert "WARNING: non-maximal capture" in out

    def test_json_record_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--model", "bd_squares", "--n", "5",
                               "--method", "rqi-tridiag", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "rqi-tridiag"
        assert doc["version"]
        assert doc["result"]["stabilized_at"] <= 2
        assert len(doc["trace"]) >= 3
        assert doc["result"]["tol_z"] == 1e-10
        assert json.loads(json.dumps(doc)) == doc

    def test_json_record_carries_the_clamped_tolerance(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--model", "bd_squares", "--n", "5",
                               "--method", "rqi-tridiag", "--tol", "0", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["options"]["tol_z"] == 0.0
        assert doc["result"]["tol_z"] == 4.0 * 6 * np.finfo(float).eps

    def test_json_record_carries_the_bracket_of_a_certified_stop(self, capsys):
        argv = ("solve", "--model", "branching", "--n", "60", "--method", "alg2", "--negate")
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        result = json.loads(out)["result"]
        lo, hi = result["bracket"]
        assert lo <= result["eigenvalue"] <= hi
        assert hi - lo <= result["tol_z"] * abs(result["eigenvalue"])
        # the human-readable output does not show it
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and "bracket" not in out and "8 solves" in out

    def test_json_record_bracket_is_null_after_a_repeat(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--model", "bd_squares", "--n", "9999",
                               "--method", "rqi-tridiag", "--json")
        assert code == 0
        assert '"bracket":null' in out and json.loads(out)["result"]["bracket"] is None

    @pytest.mark.parametrize("method, keys", [
        ("power", {"steps", "norm", "v0"}),
        ("rqi-tridiag", {"tol_z", "tol_residual", "max_iterations", "z0", "v0"}),
        ("alg2", {"tol_z", "tol_residual", "max_iterations", "z0", "negate"}),
    ])
    def test_json_record_lists_the_options_the_method_read(self, capsys, method, keys):
        code, out, _ = run_cli(capsys, "solve", "--model", "bd_squares", "--n", "5",
                               "--method", method, "--json")
        assert code == 0
        assert set(json.loads(out)["options"]) == keys

    def test_trace_csv_figure_shape(self, capsys, tmp_path):
        # fast initial drop, then a long plateau: still unconverged at 1000
        path = tmp_path / "power.csv"
        code, out, _ = run_cli(capsys, "solve", "--model", "bd_squares", "--n", "7",
                               "--method", "power", "--steps", "1000",
                               "--trace-out", str(path))
        assert code == 0
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 1001
        lam = 0.525268
        err0 = abs(float(rows[0]["z"]) - lam)
        err10 = abs(float(rows[10]["z"]) - lam)
        err1000 = abs(float(rows[1000]["z"]) - lam)
        assert err10 < min(0.5, err0 / 3.0)
        assert err1000 > 10 * 1e-10

    # the uniform start is still short of the maximal pair's 0.525268 after 1000 steps
    @pytest.mark.parametrize("v0, value", [("efficient", "0.525268"), ("uniform", "0.52527")])
    def test_power_on_tridiagonal_input_reports_the_decay_rate(self, capsys, v0, value):
        code, out, _ = run_cli(capsys, *BD7, "--method", "power", "--steps", "1000",
                               "--v0", v0)
        assert code == 0
        assert out == f"power iteration: z = {value} after 1000 steps\n"

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        code, out, _ = run_cli(capsys, "model", "--name", "bd_squares", "--n", "1",
                               "--emit", str(path), "--format", "coord")
        assert code == 0
        code, out, _ = run_cli(capsys, "solve", "--input", str(path),
                               "--method", "rqi-tridiag")
        assert code == 0
        assert "0.763932" in out

    def test_rqi_general_solves_a_tridiag_file_without_densifying(self, capsys, tmp_path,
                                                                    monkeypatch):
        path = tmp_path / "q.tridiag"
        code, _, _ = run_cli(capsys, "model", "--name", "bd_squares", "--n", "9999",
                             "--emit", str(path))
        assert code == 0
        monkeypatch.setattr(TridiagonalSystem, "dense", lambda self: pytest.fail("densified"))
        code, out, _ = run_cli(capsys, "solve", "--input", str(path), "--method", "rqi-general")
        assert code == 0
        assert "lambda_min(-Qc) = 0.302561" in out

    def test_spec_file_input(self, capsys, tmp_path):
        spath = tmp_path / "spec.json"
        spath.write_text('{"name": "bd_squares", "size": 7, "params": {}}')
        code, out, _ = run_cli(capsys, "solve", "--spec", str(spath),
                               "--method", "rqi-tridiag")
        assert code == 0
        assert "0.525268" in out

    def test_complex_routes_to_alg1(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--model", "complex3", "--method", "alg2")
        assert code == 0
        assert "complex input routes to alg1" in err
        assert "2.99997" in out


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--input", "/nonexistent/file.txt")
        assert code == 2
        code, _, err = run_cli(capsys, "solve", "--method", "alg2")  # no input selected
        assert code == 2

    def test_coordinate_file_too_large_to_densify_is_2(self, capsys, tmp_path):
        path = tmp_path / "huge.coord"
        path.write_text("coordinate 100000000 0 real\n")
        code, _, err = run_cli(capsys, "solve", "--input", str(path), "--method", "rqi-tridiag")
        assert code == 2
        assert "order 100000000" in err and "TRIDIAG" in err

    def test_convergence_failure_is_3(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--model", "bd_squares", "--n", "30",
                               "--method", "rqi-tridiag", "--z0", "rayleigh",
                               "--max-iter", "1")
        assert code == 3

    def test_domain_error_is_4(self, capsys, tmp_path):
        p = tmp_path / "conservative.txt"
        p.write_text("TRIDIAG 2\n1.0 1.0\n1.0 1.0\n0.0 0.0 0.0\n")
        code, _, err = run_cli(capsys, "solve", "--input", str(p), "--method", "rqi-tridiag")
        assert code == 4

    def test_non_positive_sequence_is_4(self, capsys, tmp_path):
        p = tmp_path / "bidiagonal.txt"
        p.write_text("coordinate 3 2 real\n0 1 1.0\n1 2 1.0\n")
        code, _, err = run_cli(capsys, "solve", "--input", str(p), "--method", "rqi-general")
        assert code == 4
        assert "phi" in err

    @pytest.mark.parametrize("method, z0", [("rqi-general", "combination"),
                                            ("rqi-tridiag", "max-ratio"),
                                            ("alg2", "safe")])
    def test_z0_outside_the_method_set_is_2(self, capsys, method, z0):
        code, _, err = run_cli(capsys, "solve", "--model", "bd_squares", "--n", "7",
                               "--method", method, "--z0", z0)
        assert code == 2
        assert "--z0" in err

    def test_rqi_tridiag_takes_the_safe_shift(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--model", "bd_squares", "--n", "7",
                               "--method", "rqi-tridiag", "--z0", "safe")
        assert code == 0
        assert "0.525268" in out

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--model", "mystery"])
        assert exc.value.code == 2


class TestModelCommand:
    def test_emit_and_spec(self, capsys, tmp_path):
        mpath = tmp_path / "toeplitz.txt"
        spath = tmp_path / "toeplitz.json"
        code, out, _ = run_cli(capsys, "model", "--name", "toeplitz", "--n", "4",
                               "--emit", str(mpath), "--spec-out", str(spath))
        assert code == 0
        from maxeig.matrixio import read_matrix
        from maxeig.models import ModelSpec

        A = read_matrix(mpath)
        spec = ModelSpec.from_json(spath.read_text())
        assert np.array_equal(A, spec.render())

    def test_spec_records_only_the_parameters_given(self, capsys):
        _, out, _ = run_cli(capsys, "model", "--name", "branching", "--n", "5")
        assert json.loads(out.split("  (")[0]) == {"name": "branching", "size": 5, "params": {}}
        _, out, _ = run_cli(capsys, "model", "--name", "branching", "--n", "5", "--alpha", "1.5")
        assert '"params": {"alpha": 1.5}' in out

    def test_complex_round_trip(self, capsys, tmp_path):
        from maxeig.matrixio import read_matrix
        from maxeig.models import complex3

        path = tmp_path / "c3.txt"
        code, _, _ = run_cli(capsys, "model", "--name", "complex3", "--emit", str(path))
        assert code == 0
        assert np.array_equal(read_matrix(path), complex3())


class TestReproduce:
    def test_gated_table_passes(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "t6")
        assert code == 0
        assert out.count("PASS") == 5
        assert "FAIL" not in out
        assert "gated cells: 5 passed, 0 failed" in out

    def test_report_is_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "reproduce", "e12")
        _, out2, _ = run_cli(capsys, "reproduce", "e12")
        assert out1 == out2

    def test_pitfall_table(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "e13")
        assert code == 0
        assert "non_maximal_flagged" in out

    def test_gated_failure_exits_1(self, capsys, monkeypatch):
        doc = copy.deepcopy(reference.load_reference())
        doc["tables"]["t6"]["rows"][0]["cells"][0]["value"] = 99.0
        monkeypatch.setattr(reference, "_reference_cache", doc)
        code, out, _ = run_cli(capsys, "reproduce", "t6")
        assert code == 1
        assert "FAIL" in out

    def test_max_size_limits_rows(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "t1", "--max-size", "8")
        assert code == 0
        assert "size=8" in out and "size=100" not in out
