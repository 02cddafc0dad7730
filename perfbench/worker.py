"""One benchmark run of one workload, in its own process.

run.py starts this file with PYTHONPATH=src and BLAS pinned to one
thread.  The run:

1. builds the inputs here and computes the oracle of every problem;
2. solves the problem list in passes until ``--seconds`` have passed,
   timing only the public calls, and judges each answer against its
   oracle after the timed call;
3. between passes, times ``SETUP_PROBES`` set-ups, each in a fresh
   interpreter that imports maxeig and builds the workload's inputs
   (``setup_s`` is their median, so the import cost of maxeig and its
   dependencies shows);
4. prints one line per metric, the problems that failed, and as its
   last line the JSON result.

With ``--trace 1`` the passes alternate between untraced and traced
(see tracer.py), and the result holds the per-layer metrics of the
traced passes and the tracing overhead.  One caller, no threads: a
closed loop in which each call starts when the previous one returned.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60

# Per-layer metrics: traced function -> the per-pass stats reported for it.
LAYER_STATS = {
    "linsolve.lu_factor": ("calls", "self_s"),
    "linsolve.lu_solve": ("self_s",),
    "linsolve.tridiag_solve": ("calls", "self_s"),
    "tridiag.explicit_rqi_solve": ("calls", "self_s"),
    "tridiag.compute_h": ("self_s",),
    "tridiag.compute_initials": ("self_s",),
    "general_init.solve_h_general": ("self_s",),
    "general_init.solve_phi_general": ("self_s",),
    "general_init.solve_mu_general": ("self_s",),
    "general_init.tridiagonal_from_dense": ("self_s",),
    "general_init.initials_general": ("self_s",),
    "iterengine.run_shifted_iteration": ("self_s",),
    "numat.as_vector": ("calls", "self_s"),
    "numat.as_square_matrix": ("calls", "self_s"),
    "numat.matvec": ("calls", "self_s"),
    "numat.weighted_norm": ("calls", "self_s"),
    "matrixio.read_matrix": ("self_s",),
    "cli.main": ("self_s",),
    "cli.cmd_solve": ("self_s",),  # builds and prints the RunRecord JSON
    "reference.run_table": ("self_s",),
}
STAT_UNITS = {"calls": "count", "self_s": "s"}
# Counts observed or computed from the trace (computed ones say so in README.md).
LAYER_COUNTS = {
    "linsolve.lu_factor.gflop_rate": "GFLOP/s",
    "linsolve.breakdowns": "count",
    "tridiag.explicit_rqi_solve.breakdowns": "count",
    "general_init.z0_fallbacks": "count",
    "iterengine.solves": "count",
    "iterengine.retries": "count",
    "iterengine.max_iterations_exceeded": "count",
    "iterengine.useful_solve_ratio": "ratio",
    "matrixio.read_matrix.bytes": "bytes",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("chain", "dense", "tiny"))
    parser.add_argument("--seed", type=int, default=20170608)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKDIR",
                        help="time one set-up in this process and print the seconds")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------------
# set-up


def setup_probe(args):
    start = time.perf_counter()
    import workloads  # imports numpy and maxeig

    workloads.build_inputs(args.workload, args.seed, args.setup_probe)
    print(repr(time.perf_counter() - start))


def setup_prober(args, workdir):
    """Return probe(): the set-up time of one fresh interpreter."""
    probe_dir = os.path.join(workdir, "probe")  # keeps the run's own input files untouched
    os.mkdir(probe_dir)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", probe_dir]

    def probe():
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"set-up probe exited with {done.returncode}")
        return float(done.stdout.strip().splitlines()[-1])

    return probe


# ----------------------------------------------------------------------------
# passes


def run_pass(problems, tracer=None):
    """Solve every problem once; returns (seconds of each public call, verdicts)."""
    from maxeig.errors import MaxeigError
    from workloads import Verdict

    gc.collect()
    seconds = []
    verdicts = []
    for problem in problems:
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            raw = problem.call()
            error = None
        except MaxeigError as exc:
            error = exc
        seconds.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        if error is None:
            verdicts.append(problem.judge(raw))
        else:
            verdicts.append(Verdict("raised", None, f"{type(error).__name__}: {error}"))
    return seconds, verdicts


def layer_metrics(tracer):
    """Per-layer metrics of the traced pass that just ran."""
    from maxeig.errors import SolverBreakdown

    stats, raised, counts = tracer.drain()
    out = {}
    for fn, wanted in LAYER_STATS.items():
        calls, _, self_s = stats.get(fn, (0, 0.0, 0.0))
        for stat in wanted:
            out[f"{fn}.{stat}"] = calls if stat == "calls" else self_s
    lu_busy = stats.get("linsolve.lu_factor", (0, 0.0, 0.0))[1]
    flops = counts.get("linsolve.lu_factor.flops", 0.0)
    out["linsolve.lu_factor.gflop_rate"] = flops / lu_busy / 1e9 if lu_busy > 0 else 0.0
    out["linsolve.breakdowns"] = sum(
        issubclass(exc, SolverBreakdown)
        for fn, excs in raised.items() if fn.startswith("linsolve.") for exc in excs)
    out["tridiag.explicit_rqi_solve.breakdowns"] = sum(
        issubclass(exc, SolverBreakdown) for exc in raised.get("tridiag.explicit_rqi_solve", ()))
    out["general_init.z0_fallbacks"] = counts.get("general_init.z0_fallbacks", 0)
    solves = counts.get("iterengine.solves", 0)
    iterations = counts.get("iterengine.iterations", 0)
    out["iterengine.solves"] = solves
    out["iterengine.retries"] = solves - iterations
    out["iterengine.max_iterations_exceeded"] = counts.get("iterengine.max_iterations_exceeded", 0)
    useful = counts.get("iterengine.useful_iterations", 0)
    out["iterengine.useful_solve_ratio"] = useful / iterations if iterations else 0.0
    out["matrixio.read_matrix.bytes"] = counts.get("matrixio.read_matrix.bytes", 0)
    return out, stats


# ----------------------------------------------------------------------------
# reporting


def environment():
    import numpy
    import scipy

    info = {"nproc": os.cpu_count(), "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache_dir)):
            if not index.startswith("index"):
                continue
            with open(os.path.join(cache_dir, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(cache_dir, index, "size")) as fh:
                info[f"L{level}"] = fh.read().strip()  # last index of a level wins: L1 is data+instr
    except OSError:
        pass
    return info


def best_pass(runs):
    """Time of one pass with every problem at its fastest over the passes.

    The host's speed drifts: it can stay 30-60 % slower for a minute,
    longer than a run, and then every pass of the run is slow and so is
    their median.  A call's time is only ever raised by such drift, so
    each problem's fastest call is the steadiest estimate of its cost.
    """
    return sum(min(times) for times in zip(*runs))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report_failures(problems, passes):
    """Print each failed problem once, with how often and how it first failed."""
    seen = Counter()
    first = {}
    for verdicts in passes:
        for problem, verdict in zip(problems, verdicts):
            if verdict.status != "ok":
                seen[problem.name] += 1
                first.setdefault(problem.name, verdict)
    for name, count in seen.items():
        v = first[name]
        print(f"  FAILED {v.status:<7} {name} ({count}/{len(passes)} passes): {v.detail}")


def run_passes(problems, seconds, tracer, probe):
    """Solve passes until ``seconds`` of passes have run; with a tracer,
    alternate untraced and traced passes and run at least one of each.

    The ``SETUP_PROBES`` set-up probes run between passes, spread over the
    run: this machine's speed drifts over tens of seconds, and probes
    taken at one moment would all share that moment's speed.  Probe time
    does not count towards ``seconds``.
    """
    plain, traced, layers, verdicts, setups, last_stats = [], [], [], [], [], None
    start = time.perf_counter()
    paused = 0.0

    def probe_until(count):
        nonlocal paused
        while len(setups) < count:
            begin = time.perf_counter()
            setups.append(probe())
            paused += time.perf_counter() - begin

    while True:
        if tracer is not None and len(plain) > len(traced):
            tracer.install()
            try:
                elapsed, outcome = run_pass(problems, tracer)
            finally:
                tracer.uninstall()
            per_pass, last_stats = layer_metrics(tracer)
            layers.append(per_pass)
            traced.append(elapsed)
        else:
            elapsed, outcome = run_pass(problems)
            plain.append(elapsed)
        verdicts.append(outcome)
        measured = time.perf_counter() - start - paused
        probe_until(min(SETUP_PROBES, math.ceil(SETUP_PROBES * measured / seconds)))
        if (tracer is None or traced) and measured >= seconds:
            probe_until(SETUP_PROBES)
            return plain, traced, layers, verdicts, setups, last_stats


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        probe = setup_prober(args, workdir)
        import workloads

        inputs = workloads.build_inputs(args.workload, args.seed, workdir)
        problems = workloads.problems(args.workload, inputs)
        print(f"env: {json.dumps(environment(), sort_keys=True)}")
        print(f"workload {args.workload}: {len(problems)} problems per pass, seed {args.seed}, "
              f"{args.seconds:g} s, trace {args.trace}")
        weak = [p.name for p in problems if p.weak]
        if weak:
            print("  weakly certified (tolerance set by the oracle's own accuracy, "
                  "looser than six digits): " + "; ".join(weak))
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        plain_times, traced_times, layer_runs, passes, setups, last_stats = run_passes(
            problems, args.seconds, tracer, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # attempted and failed count problems, not calls: every pass repeats the
    # same deterministic calls, so the counts must not depend on how many
    # passes fit in the run.  A problem fails if any pass failed it.
    calls = sum(len(run) for run in passes)
    attempted = len(problems)
    failed = sum(any(run[i].status != "ok" for run in passes) for i in range(attempted))
    wrong = sum(any(run[i].status == "wrong" for run in passes) for i in range(attempted))
    # a solver call that raised left no trace: charge its iteration budget
    charged = [p.budget if v.status == "raised" else v.iterations
               for run in passes for p, v in zip(problems, run) if p.budget]
    pass_s = best_pass(plain_times)
    setup_s = statistics.median(setups)
    solves = statistics.fmean(charged)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    totals = [sum(run) for run in plain_times]
    q1, q3 = quartiles(totals)
    print(f"pass_s: {pass_s:.6g} s, each problem at its best over {len(plain_times)} untraced "
          f"passes (whole passes: median {statistics.median(totals):.6g}, q1 {q1:.6g}, "
          f"q3 {q3:.6g}, min {min(totals):.6g})")
    print(f"setup_s: {setup_s:.6g} s median over {len(setups)} fresh processes "
          f"(min {min(setups):.6g}, max {max(setups):.6g})")
    print(f"solves_per_problem: {solves:.6g} count ({len(charged)} solver calls; "
          f"one that raised counts its max_iterations budget)")
    print(f"failed_frac: {failed / attempted:.6g} ratio ({failed} of {attempted} problems; "
          f"{wrong} silently wrong; {calls} calls over {len(passes)} passes)")
    print(f"peak_rss_mib: {peak:.6g} MiB")
    report_failures(problems, passes)

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "solves_per_problem": {"value": solves, "unit": "count"},
            "peak_rss_mib": {"value": peak, "unit": "MiB"},
        }
    else:
        units = {f"{fn}.{stat}": STAT_UNITS[stat]
                 for fn, stats in LAYER_STATS.items() for stat in stats}
        units.update(LAYER_COUNTS)
        metrics = {name: {"value": statistics.median(r[name] for r in layer_runs), "unit": unit}
                   for name, unit in units.items()}
        overhead = best_pass(traced_times) / pass_s - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        print(f"traced passes: {len(traced_times)}; per-layer values are per pass, "
              f"median over traced passes")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        print("  self time by function, last traced pass (top 12):")
        top = sorted(last_stats.items(), key=lambda kv: -kv[1][2])[:12]
        for fn, (calls, total, self_s) in top:
            print(f"    {fn:<40} calls {calls:>7}  self {self_s:.6f} s  total {total:.6f} s")

    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
