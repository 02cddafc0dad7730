"""Benchmark entry point: run one workload in a fresh, pinned process.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is not installed, so the
worker gets PYTHONPATH=src; BLAS is pinned to one thread so that a run
measures one caller on one core.  The last line of standard output is
the JSON result; every earlier line is for people.  Exits non-zero,
without a result, when the source tree or the worker is missing or the
worker fails.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("chain", "dense", "tiny")
TIMEOUT_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv=None):
    parser = argparse.ArgumentParser(description="maxeig benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20170608)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to keep solving passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "maxeig", "__init__.py")):
        print(f"error: no maxeig source tree under {src}", file=sys.stderr)
        return 2

    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # own process group, so a timeout also stops the worker's set-up probes
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"error: worker exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
