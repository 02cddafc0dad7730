"""Command-line front end: solve, model, reproduce.

Exit codes: 0 success, 1 gated reproduction mismatch, 2 input/parse
errors, 3 convergence failure, 4 algorithm-domain errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, general_init, iterengine, matrixio, models, reference, tridiag
from .errors import InvalidInput, MaxeigError, MaxIterationsExceeded
from .general_init import general_rqi, tridiagonal_from_dense
from .iterengine import C_FLOOR, algorithm1, algorithm2, power_iteration
from .numat import TridiagonalSystem
from .tridiag import recover_original, tridiag_rqi

METHODS = ("power", "rqi-tridiag", "rqi-general", "alg1", "alg2")
_SHIFTED = METHODS[1:]
# solve flags only some methods read: argparse dest -> (flag, those methods,
# default); a flag given to any other method exits 2
_METHOD_FLAGS = {
    "tol_z": ("--tol", _SHIFTED, iterengine.DEFAULT_TOL_Z),
    "tol_residual": ("--res-tol", _SHIFTED, iterengine.DEFAULT_TOL_RESIDUAL),
    "max_iterations": ("--max-iter", _SHIFTED, iterengine.DEFAULT_MAX_ITERATIONS),
    "z0": ("--z0", _SHIFTED, None),
    "v0": ("--v0", ("power", "rqi-tridiag", "rqi-general"), "efficient"),
    "steps": ("--steps", ("power",), 1000),
    "norm": ("--norm", ("power",), "l1"),
    "negate": ("--negate", ("alg1", "alg2"), False),
}
# named --z0 policies per method, the default first; every method also takes a number
Z0_NAMES = {
    "rqi-tridiag": tridiag.Z0_POLICIES,
    "rqi-general": general_init.Z0_POLICIES,
    "alg1": ("max-ratio",),
    "alg2": ("max-ratio",),
}

# model parameter flags (argparse dest = ModelSpec param name)
_MODEL_PARAMS = ("alpha", "rule", "block_size")

EXIT_PARSE = 2
EXIT_CONVERGENCE = 3
EXIT_DOMAIN = 4


@dataclass
class RunRecord:
    """Round-trippable record of one solve invocation."""

    input: str
    method: str
    options: dict
    trace: list = field(default_factory=list)
    result: dict = field(default_factory=dict)
    wall_time: float = 0.0
    version: str = __version__

    def to_json(self) -> str:
        # vars, not dataclasses.asdict: asdict deep-copies every nested list;
        # no indent, which would force the pure-Python encoder
        return json.dumps(vars(self), separators=(",", ":"))


def _fmt(x) -> str:
    """Mirror the table convention: 6 significant digits."""
    if isinstance(x, complex) or np.iscomplexobj(x):
        x = complex(x)
        return f"{x.real:.6g}{x.imag:+.6g}i"
    return f"{float(x):.6g}"


def _scalar(x):
    x = complex(x)
    return float(x.real) if x.imag == 0 else [x.real, x.imag]


def _vector_doc(v):
    """JSON form of a vector: its floats, or _scalar per component when complex."""
    return [_scalar(x) for x in v] if np.iscomplexobj(v) else v.tolist()


def _load_input(args):
    """Build the model or read the matrix file named on the command line."""
    sources = sum(1 for s in (args.model, args.input, args.spec) if s)
    if sources != 1:
        raise matrixio.parse_error("exactly one of --model, --input, --spec is required")
    if not args.model and any(getattr(args, key) is not None for key in ("n", *_MODEL_PARAMS)):
        raise matrixio.parse_error("--n, --alpha, --rule and --block-size apply only to --model")
    if args.input:
        return matrixio.read_matrix(args.input), f"file:{args.input}"
    if args.spec:
        with open(args.spec) as fh:
            spec = models.ModelSpec.from_json(fh.read())
    else:
        spec = _model_spec(args.model, args)
    return spec.render(), spec.to_json()


def _model_spec(name, args):
    """ModelSpec of a built-in model from the size and the parameter flags given."""
    params = {key: getattr(args, key) for key in _MODEL_PARAMS if getattr(args, key) is not None}
    return models.ModelSpec(name=name, size=args.n, params=params)


def _parse_z0(text, method):
    names = Z0_NAMES[method]
    if text is None:
        return names[0]
    if text in names:
        return text
    try:
        z0 = float(text)
        if np.isfinite(z0):
            return z0
    except ValueError:
        pass
    raise matrixio.parse_error(f"--z0 for --method {method} must be a finite number or one of "
                               f"{', '.join(names)}, got {text!r}")


def _method_options(args):
    """The _METHOD_FLAGS values the method reads, defaults filled in.

    A flag given explicitly to a method that does not read it raises
    ``parse_error``.
    """
    options = {}
    for dest, (flag, methods, default) in _METHOD_FLAGS.items():
        value = getattr(args, dest)
        if args.method in methods:
            options[dest] = default if value is None else value
        elif value not in (None, False):
            raise matrixio.parse_error(f"{flag} does not apply to --method {args.method}")
    if "z0" in options:
        options["z0"] = _parse_z0(options["z0"], args.method)
    # a tolerance or budget that can never be met; NaN fails the comparison too
    for dest, least in (("tol_z", 0), ("tol_residual", 0), ("max_iterations", 1), ("steps", 0)):
        if dest in options and not options[dest] >= least:
            raise matrixio.parse_error(
                f"{_METHOD_FLAGS[dest][0]} must be at least {least}, got {options[dest]}")
    return options


def cmd_solve(args) -> int:
    options = _method_options(args)
    matrix, descriptor = _load_input(args)
    if args.method == "power" and not isinstance(matrix, TridiagonalSystem):
        if args.v0 is not None:
            raise matrixio.parse_error("--v0 with --method power needs tridiagonal input")
        del options["v0"]
    t0 = time.perf_counter()
    lines = []
    warn = None

    if args.method == "power":
        # tridiagonal input is iterated shifted; the trace holds decay-rate estimates
        v0 = _efficient_seed(matrix) if options.get("v0") == "efficient" else None
        trace = power_iteration(matrix, v0=v0, norm=options["norm"], steps=options["steps"])
        zfinal = trace.steps[-1].z
        lines.append(f"power iteration: z = {_fmt(zfinal)} after {trace.iterations} steps")
        result_doc = {"eigenvalue": _scalar(zfinal), "iterations": trace.iterations}
        result = None
    else:
        result, trace, primary, label = _run_method(args.method, matrix, options)
        stab = trace.stabilized_at()
        lines.append(
            f"{label} = {_fmt(primary)}   ({trace.iterations} solves, stabilized at"
            f" iteration {stab}, residual {trace.steps[-1].residual:.2e})"
        )
        if result.shift_m:
            lines.append(f"rho(A) = {_fmt(result.eigenvalue)}   (shift m = {_fmt(result.shift_m)})")
        positive = bool(result.eigenvector_positive)
        if not np.iscomplexobj(result.eigenvector) and not positive:
            # positivity certifies maximality only on the real path
            warn = ("WARNING: non-maximal capture -- the converged eigenvector changes sign; "
                    "the maximal pair of a generator-type matrix is strictly positive "
                    "(rerun with --method alg2 or the efficient initials)")
        result_doc = {
            "eigenvalue": _scalar(primary),
            "rho": _scalar(result.eigenvalue),
            "iterations": trace.iterations,
            "stabilized_at": stab,
            "residual": float(trace.steps[-1].residual),
            "tol_z": trace.tol_z,
            "bracket": trace.bracket,
            "eigenvector": _vector_doc(result.eigenvector),
            "eigenvector_positive": positive,
            "shift_m": float(result.shift_m),
        }

    wall = time.perf_counter() - t0
    record = RunRecord(
        input=descriptor,
        method=args.method,
        options=options,
        trace=[{"k": s.k, "z": _scalar(s.z), "residual": float(s.residual),
                "seconds": float(s.seconds)} for s in trace.steps],
        result=result_doc,
        wall_time=wall,
    )
    if args.trace_out:
        matrixio.write_trace_csv(args.trace_out, trace)
    if args.json:
        print(record.to_json())
    else:
        for ln in lines:
            print(ln)
        if warn:
            print(warn)
    return 0


def _efficient_seed(system: TridiagonalSystem):
    ht = tridiag.compute_h(system)
    return ht.h * tridiag.compute_initials(ht.transformed).v0_raw


def _run_method(method, matrix, options):
    """Dispatch one solve; returns (result, trace, primary_value, label)."""
    opts = {k: options[k] for k in ("tol_z", "tol_residual", "max_iterations")}
    z0 = options["z0"]
    if method == "rqi-tridiag":
        system = matrix if isinstance(matrix, TridiagonalSystem) else tridiagonal_from_dense(matrix)
        if system is None:
            raise InvalidInput("rqi-tridiag needs tridiagonal generator input")
        result, trace = tridiag_rqi(system, z0=z0, v0=options["v0"], **opts)
        recovered = recover_original(result)
        return recovered, trace, result.eigenvalue, "lambda_min(-Q)"
    if method == "rqi-general":
        result, trace = general_rqi(matrix, z0=z0, v0=options["v0"], **opts)
        primary = float(trace.steps[-1].z)  # lambda_min(-Qc) = m - rho
        return result, trace, primary, "lambda_min(-Qc)"
    dense = matrix.dense() if isinstance(matrix, TridiagonalSystem) else np.asarray(matrix)
    z0 = None if z0 == "max-ratio" else z0
    negate = options["negate"]
    if method == "alg1" or np.iscomplexobj(dense):
        if method == "alg2":
            print("note: complex input routes to alg1 (max-ratio undefined)", file=sys.stderr)
        result, trace = algorithm1(dense, z0=z0, negate=negate, **opts)
    else:
        result, trace = algorithm2(dense, z0=z0, negate=negate, **opts)
    label = "lambda_min(-A)" if negate else "rho(A)"
    return result, trace, result.eigenvalue, label


def cmd_model(args) -> int:
    spec = _model_spec(args.name, args)
    matrix = spec.render()
    if args.emit:
        matrixio.write_matrix(args.emit, matrix, fmt=args.format)
        print(f"wrote {args.emit}")
    if args.spec_out:
        with open(args.spec_out, "w") as fh:
            fh.write(spec.to_json() + "\n")
        print(f"wrote {args.spec_out}")
    if not args.emit and not args.spec_out:
        order = matrix.order if isinstance(matrix, TridiagonalSystem) else matrix.shape[0]
        print(f"{spec.to_json()}  (order {order})")
    return 0


def cmd_reproduce(args) -> int:
    reports = reference.run_table(args.table, max_size=args.max_size)
    if not reports:
        # a reproduction that compared nothing must not read as a pass
        raise matrixio.parse_error(f"--max-size {args.max_size} selects no row of {args.table}")
    gated_pass = gated_fail = 0
    for rep in reports:
        computed = "n/a" if rep.computed is None else _fmt(rep.computed)
        status = "ref-only"
        if rep.gated:
            ok = rep.passed
            status = "PASS" if ok else "FAIL"
            gated_pass += 1 if ok else 0
            gated_fail += 0 if ok else 1
        ref = _fmt(rep.reference)
        line = (f"{rep.table:<4} {rep.row:<11} {rep.cell:<21} computed={computed:<15} "
                f"reference={ref:<15} atol={rep.atol:<8g} {status}")
        if rep.note:
            line += f"  [{rep.note}]"
        print(line)
    print(f"gated cells: {gated_pass} passed, {gated_fail} failed")
    return 1 if gated_fail else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxeig",
        description="Maximal eigenpair solvers: efficient initials and global shifted-inverse iteration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the size and parameter flags of a built-in model; a flag the model
    # does not take exits 2
    model_flags = argparse.ArgumentParser(add_help=False)
    model_flags.add_argument("--n", type=int, help="model size parameter")
    model_flags.add_argument("--alpha", type=float, help="branching offspring parameter "
                             f"(default {models.branching_model.__defaults__[0]:g})")
    model_flags.add_argument("--rule", choices=sorted(models.TRIANGULAR_RULES),
                             help="triangular-model rate rule "
                             f"(default {models.triangular_model.__defaults__[0]})")
    model_flags.add_argument("--block-size", type=int,
                             help="poisson_block block size (default: the grid size)")

    solve = sub.add_parser("solve", parents=[model_flags],
                           help="compute the maximal eigenpair of a model or matrix file")
    solve.add_argument("--model", choices=models.MODEL_NAMES)
    solve.add_argument("--input", help="matrix file (coordinate or TRIDIAG format)")
    solve.add_argument("--spec", help="model spec JSON file")
    solve.add_argument("--method", choices=METHODS, default="alg2")
    default = {dest: spec[2] for dest, spec in _METHOD_FLAGS.items()}
    solve.add_argument("--tol", dest="tol_z", type=float, metavar="TOL",
                       help=f"relative shift-change tolerance (default {default['tol_z']:g}); "
                       f"raised to the roundoff floor {C_FLOOR:g}*n*eps at order n, which "
                       "exceeds the default above order 1e5; not for power")
    solve.add_argument("--res-tol", dest="tol_residual", type=float, metavar="TOL",
                       help=f"relative residual tolerance (default {default['tol_residual']:g}); "
                       "not for power")
    solve.add_argument("--max-iter", dest="max_iterations", type=int, metavar="N",
                       help=f"iteration budget (default {default['max_iterations']}); "
                       "not for power")
    solve.add_argument("--steps", type=int,
                       help=f"power-iteration step count (default {default['steps']}); power only")
    solve.add_argument("--z0", help="number, or for rqi-tridiag combination | delta1 | safe | "
                       "rayleigh, for rqi-general safe | rayleigh, for alg1/alg2 max-ratio; "
                       "not for power")
    solve.add_argument("--v0", choices=tridiag.V0_CHOICES,
                       help="start vector for rqi-tridiag, rqi-general, and power on "
                       "tridiagonal input")
    solve.add_argument("--norm", choices=("l1", "l2"), help="power-iteration norm (default l1)")
    solve.add_argument("--negate", action="store_true",
                       help="alg1/alg2: report lambda_min(-A) for generator-type input")
    solve.add_argument("--trace-out", help="write the iteration trace as CSV")
    solve.add_argument("--json", action="store_true", help="print the RunRecord as JSON")
    solve.set_defaults(fn=cmd_solve)

    model = sub.add_parser("model", parents=[model_flags],
                           help="render a built-in model to a matrix file")
    model.add_argument("--name", required=True, choices=models.MODEL_NAMES)
    model.add_argument("--emit", help="output matrix path")
    model.add_argument("--format", choices=("coord", "tridiag"),
                       help="matrix format (default: natural for the model)")
    model.add_argument("--spec-out", help="write the model spec JSON")
    model.set_defaults(fn=cmd_model)

    repro = sub.add_parser("reproduce", help="recompute a reference table and diff it")
    repro.add_argument("table", choices=reference.TABLE_IDS)
    repro.add_argument("--max-size", type=int, help="largest row size to compute")
    repro.set_defaults(fn=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (matrixio.parse_error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MaxIterationsExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except MaxeigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
