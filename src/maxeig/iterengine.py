"""Iteration algorithms: power iteration, RQI, and the two global algorithms.

All shifted-inverse variants share one driver that records a uniform
trace and applies the same convergence control: the iteration stops
when the relative shift change and the relative eigen-residual are both
below tolerance, or, a solve sooner, when its Collatz-Wielandt bracket
certifies the pair.  The shift-change tolerance has a roundoff floor that
grows with the order n: a shifted solve of order n accumulates about
n*eps of rounding, so two converged iterates jitter by that much and a
tighter test only passes when they land close by luck.  The driver
stops on max(tol_z, C_FLOOR * n * eps), records it as the trace's
``tol_z``, and so clamps a smaller tol_z up to the floor.  With the
default tol_z = 1e-10 the floor only takes over above order 10^5.

The certified stop (``_bracket_test``) needs no option: a run decides
from A itself.  On a real run whose operator has no negative
off-diagonal entry (every TridiagonalSystem; a dense A is tested once
per run, in row blocks, and on general_rqi's dense route once more, as
shift_to_qc tests its input), step k stops when v_k is positive, the
residual passes and max(A v / v) - min(A v / v) <= tol_z |z_k|, with
tol_z after its floor.  For such an A and a positive v that bracket
holds the maximal eigenvalue and z_k, and bounds the residual entry by
entry, |A v - z v| <= (hi - lo) v, so it certifies the pair; the trace
records it, on the reported scale, as ``bracket``.  The test only ends
a run: every step a run keeps is the step it took before, and a run the
bracket cannot certify (a sign-changing iterate, a complex run, a matrix
with a negative off-diagonal entry, or a scale so large against z that
A v rounds past the tolerance, as on t1 from about order 10^3) stops on
the repeat as it did.

Each caller hands the driver the operator A (a dense matrix or a
TridiagonalSystem, which ``rqi``, ``algorithm1`` and ``algorithm2`` take
alike, through ``numat._operand``), a solve of (z I - A), and its shift
update and norm as functions: ``rqi`` the Rayleigh or max-ratio update
in the l2 norm, ``tridiag`` the weighted Rayleigh update in the mu-norm.
The driver
applies A through ``linsolve._product``, one LAPACK ``dlagtm`` binding
per run on a TridiagonalSystem, takes its scale for the relative
residual, and owns the
orientation: with ``negate`` it reports every shift negated, which is
how both ``algorithm2(negate=True)`` and ``tridiag`` (lambda_min(-Q))
report a decay rate.  ``_result`` makes every shifted run's
EigenpairResult.  The driver owns the run's one scratch array of order
n and lends it to the update and the norm; it forms each residual
there and normalises each solve's output in place, so beyond the
caller's start and solver a run holds the iterate and the scratch, plus
a solve's output or A v while it is made.  An exactly singular solve
(SolverBreakdown: the shift landed on an eigenvalue to machine
precision) is accepted as convergence when the current residual
already passes, otherwise the shift is perturbed once, moving the
reported value up by 1e-12 (1 + |z|), and the solve retried; a second
breakdown raises SolverBreakdown, carrying the run's trace as
MaxIterationsExceeded does.  Each solve checks its own output once
(``linsolve._checked``, on every LAPACK route and the closed form
alike) and raises SolverBreakdown for a non-finite one, which the same
retry covers; the driver scans no iterate, and its norm check is the
backstop.

The norms are plain: the l2 norm and ``tridiag``'s mu-norm are the root
of a sum of squares, which is inf where the squares overflow (an entry
past about 1.3e154) and 0 where they all underflow (entries all below
about 1.5e-154).  A norm that leaves the range of doubles on a finite,
nonzero vector is not an error, and one rule, here, takes it again on
the vector scaled by 2^600 or 2^-600: ``_normalised`` for the start and
each solve's output, ``_relative_residual`` for each residual, and
power iteration's ||A v|| at each step, so none reads 0 on a vector
that is not zero, nor inf on one whose norm is finite, and no numpy
warning is raised.  No bit of a run inside the range moves.

A step takes its iterate's norm once.  The Rayleigh updates return
||v|| with the shift, the root of the quotient's denominator, which is
the norm's own sum of squares bit for bit (the l2 norm of a real run,
``tridiag``'s mu-norm), and the relative residual shares it; the
max-ratio update and a complex run's quotient return the shift alone,
and the residual takes ||v|| itself.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import linsolve
from .errors import InvalidInput, MaxIterationsExceeded, SolverBreakdown
from .numat import (
    TridiagonalSystem,
    _check_length,
    _dot,
    _largest_ratio,
    _nonnegative_off_diagonal,
    _require_finite,
    _operand,
    _scale,
    as_vector,
    is_positive_vector,
)

__all__ = [
    "TraceStep",
    "IterationTrace",
    "EigenpairResult",
    "power_iteration",
    "rqi",
    "algorithm1",
    "algorithm2",
]

DEFAULT_TOL_Z = 1e-10
DEFAULT_TOL_RESIDUAL = 1e-8
DEFAULT_MAX_ITERATIONS = 100
_EPS = float(np.finfo(float).eps)
# Roundoff floor of the shift-change test, in units of n*eps.  At orders
# 3e5 and 1e6 (bd_squares, both tridiagonal solvers) consecutive settled
# shifts differ by at most 1.7 n*eps; 4 leaves a margin over that and is
# the largest integer that keeps the floor below DEFAULT_TOL_Z up to 1e5.
C_FLOOR = 4.0
# the real numbers a run takes as a tolerance or a real shift, Python's and numpy's
# scalars, named by their concrete types: a test against numbers.Real takes several
# times as long, and a run makes the test up to three times
_REAL = (int, float, np.integer, np.floating)
# the powers of two that bring a norm which left the range of doubles back into
# it: an entry below 2^1024 scaled by _TINY has a square below 2^848, and a
# nonzero one scaled by _HUGE a square above 2^-948
_TINY, _HUGE = 2.0**-600, 2.0**600


@dataclass(frozen=True)
class TraceStep:
    k: int
    z: float | complex
    residual: float
    seconds: float


@dataclass
class IterationTrace:
    """Ordered record of shift estimates and residuals for one run."""

    steps: list[TraceStep] = field(default_factory=list)
    termination: str = "running"
    tol_z: float | None = None    # the shift-change tolerance a shifted-inverse run stops on
    # the Collatz-Wielandt bracket (lo, hi) on the reported scale of a run that stopped on it
    bracket: tuple[float, float] | None = None

    def record(self, k, z, residual, seconds):
        self.steps.append(TraceStep(k, z, residual, seconds))

    def zs(self) -> np.ndarray:
        return np.array([s.z for s in self.steps])

    def residuals(self) -> np.ndarray:
        return np.array([s.residual for s in self.steps])

    @property
    def iterations(self) -> int:
        return self.steps[-1].k if self.steps else 0

    def stabilized_at(self, rtol=5e-6) -> int:
        """First step k from which every later z agrees with the final one.

        Agreement is relative to the final value; this is the step at
        which the printed-table value of the run stops changing, which
        can precede the stopping test by the one confirming iterate the
        repeat test needs (a run stopped on its bracket needs none).
        """
        zs = self.zs()
        zfinal = zs[-1]
        scale = max(abs(zfinal), 1e-300)
        k = len(zs) - 1
        while k > 0 and abs(zs[k - 1] - zfinal) <= rtol * scale:
            k -= 1
        return self.steps[k].k


@dataclass
class EigenpairResult:
    """A converged eigenpair plus recovery metadata."""

    eigenvalue: float | complex
    eigenvector: np.ndarray
    iterations: int
    residual: float
    shift_m: float = 0.0
    h_scaling: np.ndarray | None = None
    z0_fallback: bool = False

    @property
    def eigenvector_positive(self) -> bool:
        """True when the converged eigenvector is strictly positive.

        The maximal (Perron) eigenvector of an irreducible matrix with
        nonnegative off-diagonals is positive; a sign-changing vector
        therefore signals capture of a non-maximal pair.
        """
        return is_positive_vector(self.eigenvector, imag_tol=1e-10)


def _sign_fix(v, work):
    """Rotate/flip v in place so its largest-magnitude component is positive
    real; returns v.  That component is argmax(|v|)'s: on a complex v the
    magnitudes are formed in work; on a real v it is the larger in magnitude
    of v's largest and smallest entries, the lower index on a tie, found with
    no array formed."""
    if v.dtype.kind == "c":
        pivot = v[np.abs(v, out=work).argmax()]
        return v if pivot == 0 else np.multiply(v, np.conj(pivot) / abs(pivot), out=v)
    top, bottom = v.argmax(), v.argmin()
    pivot = v[top] if v[top] > -v[bottom] or v[top] == -v[bottom] and top < bottom else v[bottom]
    return v if pivot >= 0 else np.negative(v, out=v)


# A norm takes the vector and the run's scratch array, which it may use.
def _l1_norm(v, work):
    """sum |v|, formed in work on a real run.  A complex run's scratch is
    complex, so there |v| is a new array: numpy's complex abs into the
    scratch's real part, a strided view, can round otherwise."""
    return float(np.add.reduce(np.abs(v, out=None if work.dtype.kind == "c" else work)))


def _l2_norm(v, work):
    """numpy.linalg.norm(v)'s arithmetic without its dispatch: sqrt(v . v),
    summed over the real and imaginary parts, on v as a contiguous vector
    (ravel copies a strided one, whose dot product rounds otherwise).

    A plain norm: a sum of squares that overflows, from an entry beyond
    about 1.3e154, makes it inf, and one that underflows 0, with no
    warning (numat._dot); its callers take such a norm again at scale
    (_normalised, _relative_residual and power_iteration)."""
    v = v.ravel(order="K")
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return math.sqrt(_dot(re, re) + _dot(im, im))
    return math.sqrt(_dot(v, v))


_POWER_NORMS = {"l1": _l1_norm, "l2": _l2_norm}


def _relative_residual(norm, av, z, v, scale, work, size=None):
    """||A v - z v|| / (scale ||v||) in the run's norm; absolute for a zero matrix, scale 0.
    ``size`` is ||v|| where the caller has it, else the norm is taken here.
    A v - z v is formed in work, the run's scratch array.  A norm of 0 or
    inf, which a norm gives where every square underflowed or their sum
    overflowed, is taken again on A v - z v formed anew (the mu-norm
    squares it in place) and scaled by 2^600 or 2^-600, so a residual is
    0 only where A v - z v is, and inf only where its norm is."""
    np.multiply(z, v, out=work)
    np.subtract(av, work, out=work)
    top = norm(work, work)
    if top == 0.0 or top == math.inf:
        np.multiply(z, v, out=work)
        np.subtract(av, work, out=work)
        factor = _HUGE if top == 0.0 else _TINY
        top = norm(np.multiply(work, factor, out=work), work) / factor
    return top / ((scale or 1.0) * (norm(v, work) if size is None else size))


def _normalised(norm, vec, work, what, out=None):
    """vec / norm(vec, work), formed in ``out``: vec itself to normalise it
    in place, or None for a new array.  InvalidInput unless that norm is
    finite and positive, so no iterate is ever normalised by 0 or inf.

    A norm of 0 or inf on a finite vec that is not zero left the range of
    doubles (the l2 norm or the mu-norm of entries all below about
    1.5e-154, or of an entry beyond about 1.3e154, as a closed-form solve
    can return): it is taken again on vec scaled by
    2^600 or 2^-600, which changes no bit of the normalised vector but
    for entries that leave the normal range.  A vector with a non-finite
    entry has a non-finite norm, so only then are its entries scanned, to
    name that case."""
    size = norm(vec, work)
    if not 0.0 < size < math.inf:
        _require_finite(vec, "vector")
        vec = np.multiply(vec, _HUGE if size == 0.0 else _TINY, out=out)
        size = norm(vec, work)
        if not 0.0 < size < math.inf:
            raise InvalidInput(f"{what} has norm {size}: it is zero, or its norm overflowed")
    return np.divide(vec, size, out=out)


def _check_run(z0, tol_z, tol_residual, max_iterations):
    """InvalidInput for a tolerance that is NaN, negative or not a real number
    and a budget that is not an integer of at least one iteration, which no
    run can meet, and for a z0 that is not a finite real or complex number:
    a value of the wrong type (a string, None, a numpy array) is an input
    error, not a TypeError."""
    if not (isinstance(max_iterations, (int, np.integer)) and max_iterations >= 1
            and isinstance(tol_z, _REAL) and isinstance(tol_residual, _REAL)
            and tol_z >= 0 and tol_residual >= 0):
        raise InvalidInput("tolerances must be nonnegative and max_iterations an integer of at "
                           f"least 1, got {tol_z=}, {tol_residual=}, {max_iterations=}")
    if not (isinstance(z0, (int, float, complex, np.number)) and cmath.isfinite(z0)):
        raise InvalidInput(f"z0 must be finite, got {z0!r}")


def _shift_tolerance(tol_z, n):
    """tol_z, raised to the roundoff floor C_FLOOR * n * eps of an order-n solve."""
    return max(tol_z, C_FLOOR * n * _EPS)


# An update takes the iterate, A times it and the run's scratch array, which
# it may use, and returns the next shift, or the pair of it and ||v|| in the
# run's norm where forming the shift gave that; the two here need no scratch,
# and may be called without it.
def _rayleigh_update(v, av, work=None):
    """The Rayleigh quotient; on a real run also ||v||_2, the root of its
    denominator v . v, which is _l2_norm's sum of squares bit for bit."""
    if av.dtype.kind == "c":
        vh = v.conj()
        return (vh @ av) / (vh @ v)
    square = v @ v
    return float((v @ av) / square), math.sqrt(square)


def _max_ratio_update(v, av, work=None):
    if not is_positive_vector(v):
        raise InvalidInput("max-ratio update met a non-positive iterate")
    return _largest_ratio(av, v)


_RQI_UPDATES = {"rayleigh": _rayleigh_update, "max_ratio": _max_ratio_update}


def _bracket_test(A, scale, tol_z, tol_residual):
    """The Collatz-Wielandt stop of a run on A, of scale ``scale`` and with the
    shift-change tolerance tol_z after its floor: bracket(v, av, z, residual,
    work) is (min(A v / v), max(A v / v)) when that bracket is no wider than
    tol_z |z| and certifies the pair (z, v), else None.

    It certifies only a real run whose residual passes, on a positive v and
    an A with no negative off-diagonal entry.  Then the bracket holds the
    maximal eigenvalue, every Rayleigh quotient and the max ratio lie in it,
    and |A v - z v| <= (hi - lo) v entry by entry.  Two scalar tests rule a
    narrow bracket out for free: its width w bounds the relative residual by
    w / scale in the l2 norm and the mu-norm alike, and A v rounds by about
    eps * scale.  A's sign is tested once, by the first step past the other
    tests (``numat._nonnegative_off_diagonal``), and the ratios are formed in
    work, the run's scratch array."""
    certifiable = None

    def bracket(v, av, z, residual, work):
        nonlocal certifiable
        bound = tol_z * abs(z)
        if not (_EPS * scale <= bound and residual * scale <= bound and residual <= tol_residual
                and work.dtype.kind == "f" and v.min() > 0.0):
            return None
        if certifiable is None:
            certifiable = _nonnegative_off_diagonal(A)
        if not certifiable:
            return None
        ratios = np.divide(av, v, out=work)
        lo, hi = float(ratios.min()), float(ratios.max())
        return (lo, hi) if hi - lo <= bound else None

    return bracket


def run_shifted_iteration(
    A,
    solve_shifted,
    v0,
    z0,
    *,
    z_update,
    norm,
    tol_z=DEFAULT_TOL_Z,
    tol_residual=DEFAULT_TOL_RESIDUAL,
    max_iterations=DEFAULT_MAX_ITERATIONS,
    negate=False,
    product=None,
):
    """Shared shifted-inverse driver on the operator A; returns (z, v, trace).

    ``A`` is a dense matrix or a TridiagonalSystem the caller has
    validated; the driver applies it through ``product``, the run's
    ``linsolve._product(A)`` (built here unless the caller, which may
    have applied A already, hands over its own), and measures the
    relative residual against its scale, numat.matrix_scale(A), taken
    without checking A again.  ``solve_shifted(z, v)`` must return any
    nonzero multiple of (z I - A)^{-1} v as a new, finite array, or
    raise SolverBreakdown: the driver normalises and sign-fixes it in
    place.  ``z_update(v, av, work)`` gives the next shift from the
    normalized iterate v and av = A v, or the pair of it and ||v|| in
    the run's norm, which the relative residual then shares; ``norm(vec,
    work)`` normalizes the iterates and measures the relative residual.  Both
    may form their products in ``work``, the run's one scratch array,
    which a norm is also handed as vec (the residual).  The scratch is
    real or complex as the run is: complex when v0, z0 or A v0 is, as a
    real run stays real.  A v is dropped once its residual and the
    bracket test have read it.
    The shift-change test uses tol_z clamped up to
    the roundoff floor of order len(v0), recorded as ``trace.tol_z``.
    A step that fails the repeat test but whose pair its
    Collatz-Wielandt bracket certifies (``_bracket_test``) ends the run
    too; the trace then records the bracket as ``bracket``, negated with
    the shifts under ``negate``.
    The driver owns the orientation: with ``negate`` the run shifts A
    from z0 as given and reports every shift negated (lambda_min(-A) for
    generator-type input, from z0 = -lambda); the arithmetic is the same
    either way.  The perturb-and-retry moves the reported value up, by
    1e-12 (1 + |z|), whichever way the run is oriented.  A NaN or
    negative tolerance, or a budget below one iteration, can never be
    met and raises InvalidInput; so do a non-finite z0 and any of them
    of the wrong type, a budget that is not an integer included.
    ``rqi``, ``algorithm1`` and ``algorithm2`` check the same options
    at entry, before they read their matrix.

    The driver checks z0 once, here (``_check_run``, with the
    tolerances), and each new shift once, where it is made; each new
    iterate is checked once, by the solve that made it, so
    ``solve_shifted`` is only ever given finite values and need not
    check them again.  v0 is a vector its caller built or checked (a
    sequence of numbers is taken as an array), and the norm checks it:
    the driver divides by no norm that is zero or not finite, and a
    start or a solve's output with such a norm raises InvalidInput,
    which names non-finite entries when there are some.  The caller
    vouches that v0's length fits A.  ``_result`` turns what the driver
    returns into the run's (EigenpairResult, trace).
    """
    _check_run(z0, tol_z, tol_residual, max_iterations)
    sign = -1.0 if negate else 1.0
    scale = _scale(A)
    apply = linsolve._product(A) if product is None else product

    t0 = time.perf_counter()
    v = np.asarray(v0)
    tol_z = _shift_tolerance(tol_z, len(v))
    trace = IterationTrace(tol_z=tol_z)
    work = np.empty(len(v), np.result_type(v, z0))
    v = _sign_fix(_normalised(norm, v, work, "start vector v0"), work)
    z = z0
    bracket = _bracket_test(A, scale, tol_z, tol_residual)
    av = apply(v)
    # a complex A on a real start and shift shows first in A v0; no later step
    # turns a real run complex
    work = work.astype(np.result_type(work, av), copy=False)
    residual = _relative_residual(norm, av, z, v, scale, work)
    del av
    trace.record(0, sign * z, residual, time.perf_counter() - t0)

    for k in range(1, max_iterations + 1):
        try:
            w = solve_shifted(z, v)
        except SolverBreakdown:
            if residual <= tol_residual:
                trace.termination = "converged"
                return sign * z, v, trace
            # one perturb-and-retry, standard practice at an exact eigenvalue hit
            z_pert = z + sign * 1e-12 * (1.0 + abs(z))
            try:
                w = solve_shifted(z_pert, v)
            except SolverBreakdown as exc:
                trace.termination = "breakdown"
                raise SolverBreakdown(f"{exc} (iteration {k}, after one retry)",
                                      trace=trace) from exc
        _normalised(norm, w, work, f"the shifted solve's output at iteration {k}", out=w)
        v = _sign_fix(w, work)
        av = apply(v)
        z_new = z_update(v, av, work)
        z_new, size = z_new if isinstance(z_new, tuple) else (z_new, None)
        if not cmath.isfinite(z_new):
            raise InvalidInput(f"shift update gave a non-finite z at iteration {k}: {z_new!r}")
        residual = _relative_residual(norm, av, z_new, v, scale, work, size)
        trace.record(k, sign * z_new, residual, time.perf_counter() - t0)
        if abs(z_new - z) <= tol_z * max(1.0, abs(z_new)) and residual <= tol_residual:
            trace.termination = "converged"
            return sign * z_new, v, trace
        certified = bracket(v, av, z_new, residual, work)
        del av
        if certified:
            lo, hi = certified
            trace.bracket = (lo, hi) if sign > 0 else (-hi, -lo)
            trace.termination = "converged"
            return sign * z_new, v, trace
        z = z_new

    trace.termination = "max_iterations"
    raise MaxIterationsExceeded(
        f"no convergence within {max_iterations} iterations", trace=trace
    )


def _result(z, v, trace, **recovery):
    """(EigenpairResult, trace) of a converged run_shifted_iteration; the one
    place a shifted run's result is made.  ``recovery`` sets the h-scaling
    and z0-fallback fields of a weighted run."""
    return EigenpairResult(z, v, trace.iterations, trace.steps[-1].residual, **recovery), trace


def power_iteration(A, v0=None, norm="l1", steps=100):
    """Power iteration v_k = A v_{k-1} / ||A v_{k-1}||, z_k = ||A v_k||, in the l1 or l2 norm.

    Runs exactly ``steps`` iterations.  Convergence requires the dominant
    eigenvalue to be the target; slow convergence, not divergence, is
    the failure mode.  Each step checks the scalar z = ||A v||, not the
    iterate: v = A v / z holds entries of magnitude at most 1 when z is
    finite, so a z that is zero or not finite raises InvalidInput.  A
    TridiagonalSystem Q is iterated as m I + Q with m = max(a + b + c), a
    nonnegative matrix whose dominant pair is Q's maximal pair, without
    forming it, through the run's one ``linsolve._product``; the trace
    then records the decay-rate estimates m - z_k in O(N) memory.
    ``steps`` must be an integer (``int`` or ``np.integer``) of at least
    0, or InvalidInput is raised.
    """
    if not (isinstance(norm, str) and norm in _POWER_NORMS):
        raise InvalidInput(f"unknown norm {norm!r}")
    if not (isinstance(steps, (int, np.integer)) and steps >= 0):
        raise InvalidInput(f"steps must be a nonnegative integer, got {steps!r}")
    norm_fn = _POWER_NORMS[norm]
    t0 = time.perf_counter()
    trace = IterationTrace()
    A = _operand(A)
    product = linsolve._product(A)
    if isinstance(A, TridiagonalSystem):
        m = -float(A.diagonal.min())                # max(a + b + c), exactly
        n, scale, kind = A.order, m - float(A.c.min()), np.float64  # max |row| sum of m I + Q
    else:
        m = None
        n, scale, kind = A.shape[0], _scale(A), A.dtype
    v = as_vector(v0) if v0 is not None else np.ones(n)
    _check_length(A, v)
    work = np.empty(n, np.result_type(v, kind))
    v = _normalised(norm_fn, v, work, "start vector v0")

    def step(k, v):
        """A v (m I + Q on a system) and z = ||A v||, recorded as step k; a
        ||A v|| of 0 or inf is taken again on A v scaled by 2^600 or 2^-600,
        as the driver takes a norm (_normalised)."""
        av = product(v) if m is None else m * v + product(v)
        z = norm_fn(av, work)
        if z == 0.0 or z == math.inf:
            factor = _HUGE if z == 0.0 else _TINY
            z = norm_fn(av * factor, work) / factor
        residual = _relative_residual(norm_fn, av, z, v, scale, work)
        trace.record(k, z if m is None else m - z, residual, time.perf_counter() - t0)
        return av, z

    av, z = step(0, v)
    for k in range(1, steps + 1):
        if z == 0:
            raise InvalidInput(f"A v_{k - 1} = 0 at step {k - 1}: power iteration cannot go on")
        if not z < math.inf:
            raise InvalidInput(f"||A v_{k - 1}|| = {z} at step {k - 1}: the iterate overflowed")
        v = av
        v /= z      # in place: A v_{k-1} is not needed again
        av, z = step(k, v)
    trace.termination = "steps_exhausted"
    return trace


def rqi(A, v0, z0, z_update="rayleigh", *, negate=False,
        tol_z=DEFAULT_TOL_Z, tol_residual=DEFAULT_TOL_RESIDUAL,
        max_iterations=DEFAULT_MAX_ITERATIONS):
    """Rayleigh quotient iteration on a dense matrix or a TridiagonalSystem, in the l2 norm.

    v_k = (z_{k-1} I - A)^{-1} v_{k-1} normalized, with the shift update
    selected by ``z_update`` (rayleigh | max_ratio; the latter realizes
    shifted inverse iteration).  A TridiagonalSystem runs in O(N), through
    ``dgtsv`` and ``dlagtm``, so it equals the run on its ``.dense()``
    matrix only to rounding; it is real, and takes a real v0 and z0.  The
    options are checked first, before A is read.
    """
    _check_run(z0, tol_z, tol_residual, max_iterations)
    if not (isinstance(z_update, str) and z_update in _RQI_UPDATES):
        raise InvalidInput(f"unknown z_update {z_update!r}")
    A = _operand(A)
    v0 = as_vector(v0)
    _check_length(A, v0)
    return _rqi(A, v0, z0, _RQI_UPDATES[z_update], negate=negate, tol_z=tol_z,
                tol_residual=tol_residual, max_iterations=max_iterations)


def _rqi(A, v0, z0, z_update, **opts):
    """rqi on a checked operand A and a start v0 of its order, with the update
    function; InvalidInput for a complex v0 or z0 on a TridiagonalSystem,
    whose solve is real."""
    if isinstance(A, TridiagonalSystem) and not (v0.dtype.kind == "f" and isinstance(z0, _REAL)):
        raise InvalidInput("a TridiagonalSystem is real: its run takes a real v0 and z0")
    return _result(*run_shifted_iteration(A, linsolve._shifted_solver(A), v0, z0,
                                          z_update=z_update, norm=_l2_norm, **opts))


def _uniform_start(A, product):
    """The uniform start v0, of A's dtype on a dense A, and z0 = max(A v0 / v0),
    with A v0 from the run's ``product``; on a complex A, whose ratios have
    no maximum, z0 is the largest real part of a row sum."""
    n, dtype = (A.order, float) if isinstance(A, TridiagonalSystem) else (len(A), A.dtype)
    v0 = np.ones(n, dtype=dtype) / np.sqrt(n)
    if np.iscomplexobj(A):
        return v0, float(A.sum(axis=1).real.max())
    return v0, _largest_ratio(product(v0), v0)


def _global(A, z0, negate, z_update, tol_z, tol_residual, max_iterations):
    """The one body of algorithm1 and algorithm2: the options are checked
    (``_check_run``; z0 None is the automatic shift) before A is read, and
    the uniform start's quotient and every step of the run share one
    ``linsolve._product(A)``."""
    _check_run(0.0 if z0 is None else z0, tol_z, tol_residual, max_iterations)
    A = _operand(A)
    if z_update is _max_ratio_update and np.iscomplexobj(A):
        raise InvalidInput("the max-ratio update is undefined for complex input; use algorithm1")
    product = linsolve._product(A)
    v0, z0_auto = _uniform_start(A, product)
    return _rqi(A, v0, z0_auto if z0 is None else z0, z_update, negate=negate, product=product,
                tol_z=tol_z, tol_residual=tol_residual, max_iterations=max_iterations)


def algorithm1(A, z0=None, negate=False, *, tol_z=DEFAULT_TOL_Z,
               tol_residual=DEFAULT_TOL_RESIDUAL, max_iterations=DEFAULT_MAX_ITERATIONS):
    """Global specific RQI: uniform start, z0 = max(A v0 / v0), Rayleigh updates.

    ``A`` is a real or complex square matrix or a TridiagonalSystem, which
    runs in O(N) and equals the run on its ``.dense()`` matrix only to
    rounding (see ``rqi``).  Guaranteed for matrices with the
    Perron-Frobenius property (up to a shift); in practice it converges on
    a much wider class, complex input included, but it can capture a
    non-maximal pair, so check ``eigenvector_positive`` on the result.
    Under interior killing that is no rare event: with ``negate`` on
    killing-everywhere chains (rates U(0.5, 2), seeds 1-3, orders 64 and
    500, as a system and as its dense form) it captured a flagged
    non-maximal pair on every chain tried, where algorithm2 found the
    maximal one.  The options are checked first, before A is read.
    """
    return _global(A, z0, negate, _rayleigh_update, tol_z, tol_residual, max_iterations)


def algorithm2(A, z0=None, negate=False, *, tol_z=DEFAULT_TOL_Z,
               tol_residual=DEFAULT_TOL_RESIDUAL, max_iterations=DEFAULT_MAX_ITERATIONS):
    """Global shifted inverse iteration: like algorithm1 but z_k = max(A v_k / v_k).

    The max ratio stays above the Perron root for positive iterates, so
    the shift approaches it from the safe side.  Real input only: a real
    square matrix or a TridiagonalSystem, in O(N) (see ``rqi``).  The
    options are checked first, before A is read.

    Known defect: on ``bd_squares(99999)`` as a system, with ``negate``,
    the run does not converge, even in 1000 iterations: from step 100 on
    the max-ratio shifts jitter between 0.288224 and 0.288228, a relative
    2e-5 to 4e-5 below tridiag_rqi's 0.288234.  At order 9999 it
    converges, in 74 solves.
    """
    return _global(A, z0, negate, _max_ratio_update, tol_z, tol_residual, max_iterations)
