"""Per-layer tracing of maxeig from outside the package.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records a span (name, parent span, start, end, the
exception it raised).  Modules copy names from each other (``from
.numat import as_vector``), so every binding of the original function
in every loaded ``maxeig`` module is patched, and ``uninstall`` puts
the originals back.  Spans are kept in memory only while ``active`` is
set, which the benchmark does around each timed call, so its own
oracle checks never show up as layer time.

A few wrappers also observe arguments or results to count work where it
happens: solver calls and iterations of the shifted-inverse driver,
z0 fallbacks, the order of each dense LU, and the bytes of each matrix
file read.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

TRACED_MODULES = ("numat", "linsolve", "tridiag", "general_init", "iterengine",
                  "matrixio", "cli", "reference")


def _public_functions(module):
    """Module-level functions the module defines whose names have no leading underscore."""
    for name, value in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield name, value


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []          # [name, parent index, start, end, exception class]
        self.counts = Counter()  # observed counts, keyed by metric name
        self._stack = []
        self._patches = []       # (module, attribute, original)
        self._observers = {      # functions whose calls also update a count
            "iterengine.run_shifted_iteration": self._observe_driver,
            "general_init.general_rqi": self._observe_general_rqi,
            "linsolve.lu_factor": self._observe_lu_factor,
            "matrixio.read_matrix": self._observe_read_matrix,
        }

    # -- patching ------------------------------------------------------

    def install(self):
        packages = {name: mod for name, mod in sys.modules.items()
                    if mod is not None and (name == "maxeig" or name.startswith("maxeig."))}
        wrappers = {}
        for short in TRACED_MODULES:
            module = packages[f"maxeig.{short}"]
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for module in packages.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        observe = self._observers.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if observe is not None:
                return observe(fn, name, args, kwargs)
            return tracer._span(name, fn, args, kwargs)

        return traced

    def _span(self, name, fn, args, kwargs):
        index = len(self.spans)
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(index)
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span[4] = type(exc)
            raise
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    # -- observers: span plus a count taken at the same boundary --------

    def _observe_driver(self, fn, name, args, kwargs):
        from maxeig.errors import MaxIterationsExceeded

        bound = inspect.signature(fn).bind(*args, **kwargs)
        solve = bound.arguments["solve_shifted"]
        done = [0, 0]  # solver calls, solver calls that returned

        def counted(z, v):
            done[0] += 1
            w = solve(z, v)
            done[1] += 1
            return w

        bound.arguments["solve_shifted"] = counted
        try:
            out = self._span(name, fn, bound.args, bound.kwargs)
        except MaxIterationsExceeded as exc:
            self.counts["iterengine.max_iterations_exceeded"] += 1
            self._count_run(done, exc.trace, converged=False)
            raise
        except BaseException:
            self._count_run(done, None, converged=False)
            raise
        self._count_run(done, out[2], converged=True)
        return out

    def _count_run(self, done, trace, converged):
        """Solver calls, iterations and useful iterations of one driver run.

        Iterations come from the trace; a run that raised without one
        (a breakdown after its retry) is charged its successful solves.
        Only a converged run's steps up to stabilisation count as useful.
        """
        iterations = trace.iterations if trace is not None else done[1]
        self.counts["iterengine.solves"] += done[0]
        self.counts["iterengine.iterations"] += iterations
        if converged:
            self.counts["iterengine.useful_iterations"] += trace.stabilized_at()

    def _observe_general_rqi(self, fn, name, args, kwargs):
        out = self._span(name, fn, args, kwargs)
        self.counts["general_init.z0_fallbacks"] += int(bool(out[0].z0_fallback))
        return out

    def _observe_lu_factor(self, fn, name, args, kwargs):
        out = self._span(name, fn, args, kwargs)
        n = out.order
        self.counts["linsolve.lu_factor.flops"] += 2.0 * n**3 / 3.0
        return out

    def _observe_read_matrix(self, fn, name, args, kwargs):
        path = args[0] if args else kwargs["path"]
        self.counts["matrixio.read_matrix.bytes"] += os.path.getsize(path)
        return self._span(name, fn, args, kwargs)

    # -- aggregation ----------------------------------------------------

    def drain(self):
        """Aggregate and clear the spans and counts.

        Returns ({name: [calls, total_s, self_s]}, {name: [exception
        classes raised]}, {count name: value}).
        """
        child = defaultdict(float)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        raised = defaultdict(list)
        for i, (name, parent, start, end, exc) in enumerate(self.spans):
            s = stats[name]
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - child[i]
            if exc is not None:
                raised[name].append(exc)
        self.spans.clear()
        counts = dict(self.counts)
        self.counts.clear()
        return stats, raised, counts
