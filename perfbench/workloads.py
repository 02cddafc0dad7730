"""Inputs, problem lists and oracle checks of the benchmark workloads.

Each workload is built in two steps.  ``build_inputs`` imports maxeig
and makes the inputs; it is what ``setup_s`` times.  ``problems`` then
computes an independent oracle for every problem (never timed) and
returns the fixed list a pass solves.  Every problem's ``call`` is one
public call into maxeig; its ``judge`` turns the raw output into a
verdict outside the timed region.

Verdicts:
  ok       the answer agrees with the oracle (and has a positive eigenvector);
  raised   the library raised a MaxeigError (or the CLI exited non-zero);
  flagged  the library returned a pair it marks as non-maximal
           (eigenvector not positive): a failure the caller can see;
  wrong    the library returned an answer it presents as maximal, and the
           oracle disagrees: a silent wrong answer.

Every verdict but ``ok`` counts as failed; only ``wrong`` makes a run
incorrect.  Oracle tolerance: six significant digits (relative 1e-6),
widened to the oracle's own absolute accuracy, eps times the max
absolute row sum, where that is looser.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from maxeig import cli, general_init, iterengine, matrixio, models, reference, tridiag
from maxeig.numat import TridiagonalSystem

WORKLOADS = ("chain", "dense", "tiny")

RTOL = 1e-6            # six significant digits
EPS = np.finfo(float).eps

# Iteration budgets a failed solve is charged in solves_per_problem: the
# default max_iterations of the call at the commit that defined the
# benchmark.  They stay fixed so a failure costs the same on every commit.
BUDGET_TRIDIAG = 50    # tridiag_rqi, general_rqi
BUDGET_RQI = 100       # algorithm1, algorithm2, `maxeig solve`

CHAIN_ORDERS = (10**4, 10**5, 10**6)
CHAIN_REPEAT_ORDER = 10**5
DENSE_ORDER = 400
TINY_GENERATORS = 64
TINY_ORDERS = (8, 64)
TINY_RATES = (0.5, 2.0)
TINY_TABLES = ("t6", "t7", "e11", "e12", "e13")
POWER_STEPS = 1000


@dataclass(frozen=True)
class Verdict:
    status: str          # ok | raised | flagged | wrong
    iterations: int | None
    detail: str = ""


@dataclass(frozen=True)
class Problem:
    name: str
    call: Callable[[], object]
    judge: Callable[[object], Verdict]
    budget: int = 0      # > 0 marks a direct solver call counted in solves_per_problem
    weak: bool = False   # oracle tolerance looser than six significant digits


# ----------------------------------------------------------------------------
# inputs (timed as setup)


def _tiny_orders(rng, count):
    """Stratified orders: one draw from each of ``count`` equal slices of 8..64.

    The slices keep the total work of a pass nearly the same for every
    seed while the orders themselves still come from the seed.
    """
    lo, hi = TINY_ORDERS
    width = (hi - lo + 1) / count
    orders = lo + np.floor((np.arange(count) + rng.random(count)) * width).astype(int)
    return rng.permutation(orders)


def _tiny_generator(rng, n, killing_everywhere):
    a = rng.uniform(*TINY_RATES, n - 1)
    b = rng.uniform(*TINY_RATES, n - 1)
    if killing_everywhere:
        c = rng.uniform(*TINY_RATES, n)
    else:
        c = np.zeros(n)
        c[-1] = rng.uniform(*TINY_RATES)
    return TridiagonalSystem.from_rates(a, b, c)


def build_inputs(workload, seed, workdir):
    """Make the workload's inputs; returns a dict of named inputs."""
    rng = np.random.default_rng(seed)
    if workload == "chain":
        chains = {n: models.bd_squares(n - 1) for n in CHAIN_ORDERS}
        path = os.path.join(workdir, "chain.tridiag")
        matrixio.write_matrix(path, chains[CHAIN_REPEAT_ORDER])
        return {"chains": chains, "tridiag_file": path}
    if workload == "dense":
        n = DENSE_ORDER
        grid = int(round(np.sqrt(n)))
        return {
            "toeplitz": models.toeplitz_linear(n),
            "grid": models.poisson_block(grid),
            "random": rng.uniform(0.01, 1.0, (n, n)),
            "triangular": models.triangular_model(n - 1),
            "branching": models.branching_model(n, 1.75),
        }
    if workload == "tiny":
        half = TINY_GENERATORS // 2
        plan = [(int(n), False) for n in _tiny_orders(rng, half)]
        plan += [(int(n), True) for n in _tiny_orders(rng, half)]
        gens = []
        for n, everywhere in plan:
            system = _tiny_generator(rng, n, everywhere)
            gens.append((system, system.dense(), everywhere))
        return {"generators": gens, "negative3": models.negative3()}
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------------
# oracles and judges (never timed)


def _tridiag_oracle(system):
    """lambda_min(-Q) of a tridiagonal generator and its absolute accuracy.

    -Q is similar to the symmetric tridiagonal with diagonal a+b+c and
    off-diagonal sqrt(a_{i+1} b_i); LAPACK bisection finds its smallest
    eigenvalue in O(N).
    """
    from scipy.linalg import eigvalsh_tridiagonal

    d = system.a + system.b + system.c
    e = np.sqrt(system.a[1:] * system.b[:-1])
    lam = float(eigvalsh_tridiagonal(d, e, select="i", select_range=(0, 0))[0])
    return lam, EPS * float(2.0 * d.max())


def _dense_oracle(A):
    """Max real part of the spectrum of A, and the oracle's absolute accuracy."""
    lam = float(np.linalg.eigvals(A).real.max())
    return lam, EPS * float(np.abs(A).sum(axis=1).max())


def _eigen_judge(expected, oracle_atol, read):
    """Judge built from an oracle value; ``read(raw)`` gives (value, positive, iterations)."""
    atol = max(RTOL * abs(expected), oracle_atol)

    def judge(raw):
        value, positive, iterations = read(raw)
        if positive is False:
            return Verdict("flagged", iterations,
                           f"eigenvector not positive; value {value:.9g}, oracle {expected:.9g}")
        if abs(value - expected) > atol:
            return Verdict("wrong", iterations,
                           f"value {value:.9g}, oracle {expected:.9g}, atol {atol:.2g}")
        return Verdict("ok", iterations)

    return judge, atol > RTOL * abs(expected)


def _pair(sign=1.0):
    """Reader for (result, trace) returns; ``sign`` maps the value to the oracle's scale."""
    def read(raw):
        result, trace = raw
        return sign * float(np.real(result.eigenvalue)), result.eigenvector_positive, trace.iterations
    return read


def _read_cli(text):
    doc = json.loads(text)["result"]
    return float(doc["eigenvalue"]), bool(doc["eigenvector_positive"]), int(doc["iterations"])


def _exit_code_judge(judge):
    """Judge of a CLI run, which returns (exit code, stdout) instead of raising."""
    def check(raw):
        code, text = raw
        if code != 0:
            return Verdict("raised", None, f"exit code {code}")
        return judge(text)
    return check


def _table_judge(raw):
    bad = [f"{r.table}.{r.row}.{r.cell}" for r in raw if r.gated and not r.passed]
    if bad:
        return Verdict("wrong", None, "gated cells failed: " + ", ".join(bad))
    return Verdict("ok", None)


def _problem(name, call, oracle, read, budget, wrap=lambda judge: judge):
    expected, oracle_atol = oracle
    judge, weak = _eigen_judge(expected, oracle_atol, read)
    return Problem(name, call, wrap(judge), budget, weak)


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def problems(workload, inputs):
    """The fixed problem list of one pass, with oracles computed."""
    if workload == "chain":
        chains = inputs["chains"]
        out = []
        for n in CHAIN_ORDERS:
            s = chains[n]
            out.append(_problem(f"tridiag_rqi bd_squares order={n}",
                                lambda s=s: tridiag.tridiag_rqi(s),
                                _tridiag_oracle(s), _pair(), BUDGET_TRIDIAG))
        s = chains[CHAIN_REPEAT_ORDER]
        oracle = _tridiag_oracle(s)
        out.append(_problem(f"tridiag_rqi bd_squares order={CHAIN_REPEAT_ORDER} solver=generic",
                            lambda s=s: tridiag.tridiag_rqi(s, solver="generic"),
                            oracle, _pair(), BUDGET_TRIDIAG))
        argv = ["solve", "--input", inputs["tridiag_file"], "--method", "rqi-tridiag", "--json"]
        out.append(_problem(f"cli solve TRIDIAG order={CHAIN_REPEAT_ORDER}",
                            lambda argv=argv: _run_cli(argv), oracle, _read_cli, BUDGET_RQI,
                            wrap=_exit_code_judge))
        return out
    if workload == "dense":
        out = []
        for key in ("toeplitz", "grid", "random"):
            A = inputs[key]
            out.append(_problem(f"general_rqi {key} order={A.shape[0]}",
                                lambda A=A: general_init.general_rqi(A),
                                _dense_oracle(A), _pair(), BUDGET_TRIDIAG))
        A = inputs["random"]
        out.append(_problem(f"algorithm1 random order={A.shape[0]}",
                            lambda A=A: iterengine.algorithm1(A), _dense_oracle(A), _pair(), BUDGET_RQI))
        for key in ("triangular", "branching"):
            A = inputs[key]
            # negate reports lambda_min(-A) = -rho(A)
            out.append(_problem(f"algorithm2 negate {key} order={A.shape[0]}",
                                lambda A=A: iterengine.algorithm2(A, negate=True),
                                _dense_oracle(A), _pair(-1.0), BUDGET_RQI))
        return out
    if workload == "tiny":
        out = [Problem(f"run_table {t}", lambda t=t: reference.run_table(t), _table_judge)
               for t in TINY_TABLES]
        for i, (system, dense, everywhere) in enumerate(inputs["generators"]):
            tag = f"gen{i:02d} order={system.order} killing={'every' if everywhere else 'last'}"
            lam, lam_atol = _dense_oracle(dense)      # lam = rho(Q) < 0
            out.append(_problem(f"tridiag_rqi {tag}", lambda s=system: tridiag.tridiag_rqi(s),
                                (-lam, lam_atol), _pair(), BUDGET_TRIDIAG))
            out.append(_problem(f"general_rqi {tag}", lambda d=dense: general_init.general_rqi(d),
                                (lam, lam_atol), _pair(), BUDGET_TRIDIAG))
            out.append(_problem(f"algorithm2 {tag}", lambda d=dense: iterengine.algorithm2(d),
                                (lam, lam_atol), _pair(), BUDGET_RQI))
        A = inputs["negative3"]

        def read_power(trace):
            return float(trace.steps[-1].z), None, None

        # power iteration is the baseline, not a shifted solve: no budget
        out.append(_problem(f"power_iteration negative3 steps={POWER_STEPS}",
                            lambda A=A: iterengine.power_iteration(A, steps=POWER_STEPS),
                            _dense_oracle(A), read_power, 0))
        return out
    raise ValueError(f"unknown workload {workload!r}")
