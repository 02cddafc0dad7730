"""Efficient initials and the O(N) RQI pipeline for tridiagonal generators.

Pipeline for a system Qc built from rates (a, b, c) with c not
identically zero:

1. the near-harmonic vector h via a one-step recurrence; the similarity
   transform Diag(h)^-1 Qc Diag(h) zeroes every killing rate except the
   last one, which is then treated as the right-endpoint exit rate b_N;
2. the weight sequence mu and the decreasing tail sequence phi, whose
   square root seeds the initial vector; the variational quantity
   delta_1 seeds the initial shift from below, directly or through the
   safe shift of the general case, which needs phi_1 < phi_0;
3. weighted RQI, where every shifted system is solved either by the
   generic banded solver (LAPACK ``dgtsv``, the default, which
   ``linsolve._shifted_solver`` builds for the transformed system) or by
   the paper's closed-form O(N) representation;
4. recovery of the original eigenpair by undoing the h-scaling.

``general_init.general_rqi`` hands tridiagonal input to this pipeline
(banded solver, safe shift) and its dense route, with h, phi and mu
from one LU of Qc (h = phi = 1 exactly on conservative Qc), to the same
body, ``_efficient_rqi``: it picks the start vector from its name
(``v0``: "efficient" or "uniform") and the initial shift from its name
or value (``z0``), then builds the solve and runs weighted RQI with the
same weighted Rayleigh quotient.  delta_1 is computed only where a z0
policy reads it, as ``InitialData.delta1`` is a property on
``_delta1_peak``.  The options are checked once, at the public entries,
``tridiag_rqi`` and ``general_rqi``, before any O(N) work, by one
helper, ``_check_options``: z0 a name from the caller's policies or a
real number, v0 a known start, and the run's numbers through the
driver's ``iterengine._check_run``.  The body checks none of them.
Both routes hand it their system q itself; the solve of (z I - q) is
the one ``linsolve`` builds or, on tridiagonal q, the closed form,
which ``_closed_form_solver`` builds once per run in the same
orientation.  The driver
(``iterengine.run_shifted_iteration``) applies q, takes its scale, and,
started from -z_start with ``negate``, reports the decay rates; nothing
here negates q, a solve or a shift by hand.  The module owns the
mu-weighting: the weighted Rayleigh quotient and the mu-norm, which the
driver lends its scratch array, and ``_unit`` for the start vectors.
The quotient returns the mu-norm of the iterate with the shift, the
root of its denominator, so the driver takes each iterate's norm once
per step.

A run is unweighted when mu is all ones, which it is exactly when the
transformed chain is symmetric (b_{n-1} = a_n, as in t1's
``bd_squares``): every ratio of mu's product is then exactly 1.
``compute_initials`` tests that equality and makes mu a read-only view
of one 1.0, with no divide or product, and ``_efficient_rqi`` decides
once per run, from mu alone (``_weights``: every entry exactly 1.0),
to hand the quotient, the mu-norm, ``_unit`` and ``_delta1_peak`` mu
None.  Each then skips its multiplications by mu, which by an exact 1.0
are the identity, so an unweighted run's bits are the weighted run's.
The closed form keeps its mu, a view of one 1.0 on such a chain.

The O(N) arrays of a ``tridiag_rqi`` run, and who holds them: the
input's a, b, c and diagonal; h and r (``compute_h``; read-only views
of one 1.0 when the transform is the identity) and the transformed
system, which then is the input; mu, phi and the seed sqrt(phi)
(``compute_initials``), and ``_delta1_peak``'s two work arrays while a
policy reads delta_1; the start vector; the solver's work arrays (three
for ``dgtsv``, or the closed form's kappa and two sequences per solve); and
the driver's iterate and scratch array, plus a solve's output or A v,
which ``dlagtm`` forms in one array, as they are made.  On a symmetric
chain mu is no array.
``tridiag_rqi`` hands the initials to ``_efficient_rqi`` inline, and
the body drops phi and the seed once it has picked the shift and the
start, which it builds after the shift unless the shift is the start's
quotient, so at order 10^6 a t1 run holds seven arrays of N doubles
beyond its input at its peak, for every z0 and v0 (see README, "Memory").  The body binds the run's one
product, ``linsolve._product(q)``, and lends it to the driver, so the
start's quotient and every step share one ``dlagtm`` binding.

Everything works on the positive spectrum side: eigenvalues reported by
this module are lambda_min(-Qc), the decay rate of the associated
chain, so all shifts and table entries stay positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import iterengine, linsolve
from .errors import InvalidInput, NonPositiveSequence, SolverBreakdown
from .iterengine import EigenpairResult, _result, run_shifted_iteration
from .numat import TridiagonalSystem, as_vector

__all__ = [
    "HTransform",
    "InitialData",
    "compute_h",
    "compute_initials",
    "z0_combination",
    "safe_z0",
    "explicit_rqi_solve",
    "tridiag_rqi",
    "recover_original",
]

# initial-shift policies tridiag_rqi accepts besides a number, and the start vectors
Z0_POLICIES = ("combination", "delta1", "safe", "rayleigh")
V0_CHOICES = ("efficient", "uniform")

# the safe shift needs phi_1 below phi_0 by more than roundoff, relative to
# phi_0: at a tie (phi_1 = phi_0 in exact arithmetic) the last bit would
# decide, and the shift, (1 - phi_1) / peak, would carry no information
_PHI_TIE = 32 * np.finfo(float).eps

# the identity transform's h and r: stride-0 read-only views of this one 1.0
_ONE = np.ones(1)
_ONE.flags.writeable = False


@dataclass(frozen=True)
class HTransform:
    """The near-harmonic vector h and the transformed system it produces."""

    h: np.ndarray                     # h[0] == 1, positive
    r: np.ndarray                     # one-step ratios, length N
    transformed: TridiagonalSystem    # killing only at the right endpoint


def compute_h(system: TridiagonalSystem) -> HTransform:
    """Build h with (Qc h)_i = 0 on every row except the last.

    r_0 = 1 + c_0/b_0,  r_n = 1 + (a_n + c_n)/b_n - a_n/(b_n r_{n-1}),
    h_0 = 1,  h_n = h_{n-1} r_{n-1}.  When c vanishes below the last row
    the ratios are all 1 and the transform is the identity.
    """
    a, b, c = system.a, system.b, system.c
    N = system.n_max
    if not c[:-1].any():
        # no interior killing: the transform is the exact identity, which
        # keeps such runs bit-stable; h and r are read-only views of one 1.0,
        # so an order-N run holds no array of ones
        return HTransform(h=np.ndarray(N + 1, buffer=_ONE, strides=(0,)),
                          r=np.ndarray(N, buffer=_ONE, strides=(0,)), transformed=system)
    r = np.empty(N)
    r[0] = 1.0 + c[0] / b[0]
    # plain Python floats through memoryviews, so no step boxes a numpy scalar
    r_out = memoryview(r)
    r_n = r_out[0]
    for n, (a_n, b_n, c_n) in enumerate(zip(*(memoryview(x)[1:N] for x in (a, b, c))), 1):
        r_n = r_out[n] = 1.0 + (a_n + c_n) / b_n - a_n / (b_n * r_n)
        if r_n <= 0.0:
            raise NonPositiveSequence(
                "r", f"r[{n}] = {r_n} <= 0; input violates positivity assumptions")
    h = np.empty(N + 1)
    h[0] = 1.0
    np.multiply.accumulate(r, out=h[1:])

    # a_n h_{n-1} / h_n and b_n h_{n+1} / h_n, formed in the new arrays
    new_a, new_b = np.empty(N + 1), np.empty(N + 1)
    new_a[0], new_b[N] = a[0], b[N]
    np.multiply(a[1:], h[:-1], out=new_a[1:])
    new_a[1:] /= h[1:]
    np.multiply(b[:-1], h[1:], out=new_b[:-1])
    new_b[:-1] /= h[:-1]
    # rows below N lose their killing term by harmonicity; row N keeps
    # the diagonal defect since the transform preserves the diagonal
    new_c = np.zeros(N + 1)
    new_c[N] = a[N] + c[N] - new_a[N]
    transformed = TridiagonalSystem(new_a, new_b, new_c)
    return HTransform(h=h, r=r, transformed=transformed)


@dataclass(frozen=True)
class InitialData:
    """The weight/tail sequences and the initials they define.

    After the transform the right-endpoint killing rate plays the role
    of b_N, so the effective exit-rate sequence is b_0..b_{N-1}, c_N.
    ``v0_raw`` is the efficient seed sqrt(phi).  ``delta1`` is a
    read-only property, evaluated by _delta1_peak from phi, mu and that
    seed each time it is read, so a run whose z0 policy does not read it
    never computes it.  1/delta_1 is the "delta1" initial shift; see
    z0_combination for the blend used by the reproduction tables.
    """

    mu: np.ndarray
    phi: np.ndarray
    v0_raw: np.ndarray

    @property
    def delta1(self) -> float:
        """delta_1 of phi and mu (_delta1_peak), an O(N) pass at each read."""
        return _delta1_peak(self.phi, self.mu, self.v0_raw)

    @property
    def v0(self) -> np.ndarray:
        """The efficient seed scaled to unit mu-norm."""
        return _unit(self.v0_raw, self.mu)


def _unit(v, mu):
    """Real v scaled to unit mu-norm (mu None: the l2 norm, summed pairwise);
    the one place the start vectors are weighted."""
    if mu is None:
        weighted = v * v
    else:
        weighted = mu * v
        weighted *= v
    return v / math.sqrt(np.add.reduce(weighted))


def _weights(mu):
    """mu, or None when every entry is exactly 1.0: a symmetric chain's
    weights, by which multiplying is the identity, so a run skips it.
    compute_initials' ones, a stride-0 view, are read at one entry."""
    ones = mu[0] == 1.0 and (mu.strides == (0,) or mu.min() == 1.0 == mu.max())
    return None if ones else mu


def compute_initials(transformed: TridiagonalSystem) -> InitialData:
    """Compute mu, phi and the seed sqrt(phi) for a transformed system.

    The sequences are built in place, through ``out=``, in the arrays
    returned, so the call holds three arrays of order N: mu, phi and the
    seed.  On a symmetric chain, b_{n-1} = a_n exactly, mu is all ones
    and a read-only view of one 1.0, and phi is the same without it.
    delta_1 is left to the record's property.
    """
    a, b, c = transformed.a, transformed.b, transformed.c
    N = transformed.n_max
    if c[:-1].any():
        raise InvalidInput("compute_initials expects killing only at the right endpoint")
    if c[N] <= 0:
        raise InvalidInput("the right-endpoint rate must be positive (c must not vanish)")

    # phi starts as b_eff and becomes 1/(mu b_eff), then its suffix sums, in place
    phi = b.copy()
    phi[N] = c[N]
    if np.array_equal(phi[:-1], a[1:]):
        # a symmetric chain, b_{n-1} = a_n: every ratio, so every mu_n, is
        # exactly 1, and mu is a read-only view of one 1.0
        mu = np.ndarray(N + 1, buffer=_ONE, strides=(0,))
    else:
        mu = np.empty(N + 1)
        mu[0] = 1.0
        np.divide(phi[:-1], a[1:], out=mu[1:])
        np.multiply.accumulate(mu[1:], out=mu[1:])
        phi *= mu
    np.divide(1.0, phi, out=phi)
    np.add.accumulate(phi[::-1], out=phi[::-1])
    return InitialData(mu=mu, phi=phi, v0_raw=np.sqrt(phi))


def _delta1_peak(phi, mu, sqrt_phi) -> float:
    """delta_1 = max_n [ sqrt(phi_n) sum_{k<=n} mu_k sqrt(phi_k)
                        + (1/sqrt(phi_n)) sum_{j>n} mu_j phi_j^{3/2} ]

    evaluated with prefix/suffix sums, O(N) overall, in two work arrays;
    ``sqrt_phi`` is sqrt(phi), which the caller keeps, and mu None is
    all ones (_weights).
    """
    if mu is None:
        terms = phi * sqrt_phi
    else:
        terms = mu * phi
        terms *= sqrt_phi
    np.add.accumulate(terms[::-1], out=terms[::-1])
    # the suffix sums over j > n over sqrt(phi_n); there are none past the end
    tail = terms[1:] / sqrt_phi[:-1]
    np.add.accumulate(sqrt_phi if mu is None else np.multiply(mu, sqrt_phi, out=terms),
                      out=terms)
    terms *= sqrt_phi
    terms[:-1] += tail
    return float(terms.max())


def z0_combination(delta1: float, rayleigh_quotient: float) -> float:
    """Initial shift blending the delta_1 bound with the Rayleigh quotient.

    The fixed convex combination 7/8 : 1/8 reproduces the reference
    tables at every size; the weighting does not vary with the order.
    """
    if delta1 <= 0:
        raise InvalidInput("delta1 must be positive")
    return (7.0 / delta1 + rayleigh_quotient) / 8.0


def safe_z0(phi, mu):
    """The safer initial shift for phi with phi_0 = 1; requires phi_1 < 1.

    z0^{-1} = 1/(1 - phi_1) * max_n [ sqrt(phi_n) sum_{k<=n} mu_k sqrt(phi_k)
              + (1/sqrt(phi_n)) sum_{j>n} mu_j phi_j^{3/2} ],
    the delta_1 peak of compute_initials with a 1/(1 - phi_1) correction.
    Raises InvalidInput when phi_1 >= 1.
    """
    phi = as_vector(phi)
    mu = as_vector(mu)
    if len(phi) < 2 or phi[1] >= 1.0:
        raise InvalidInput(f"safe shift needs phi_1 < 1, got {phi[1] if len(phi) > 1 else 'n/a'}")
    return (1.0 - float(phi[1])) / _delta1_peak(phi, _weights(mu), np.sqrt(phi))


def _check_options(policies, z0, v0, tol_z, tol_residual, max_iterations):
    """The one check of a weighted run's options, made by tridiag_rqi and
    general_rqi at entry, before any O(N) work.  The routes below check
    none of them; the driver checks the shift it is handed, with the
    tolerances, as it does on every run.

    Raises InvalidInput unless ``z0`` is a name in ``policies`` or a real
    number (``iterengine._REAL``), ``v0`` names a start in V0_CHOICES, and
    the run's numbers pass the driver's ``iterengine._check_run``.
    """
    if not (z0 in policies if isinstance(z0, str) else isinstance(z0, iterengine._REAL)):
        raise InvalidInput(f"unknown z0 choice {z0!r}")
    if not (isinstance(v0, str) and v0 in V0_CHOICES):
        raise InvalidInput(f"unknown v0 choice {v0!r}")
    iterengine._check_run(0.0 if isinstance(z0, str) else z0, tol_z, tol_residual, max_iterations)


def _efficient_rqi(q, h, init, z0, v0, solver="generic", **opts):
    """Weighted RQI on -q, in the mu-norm, from the efficient initials; the
    one body of both routes.

    ``q`` is a TridiagonalSystem or a dense matrix the route has already
    validated, ``h`` its h-scaling and ``init`` its mu, phi and seed
    sqrt(phi).  The options are the ones the public entry checked
    (``_check_options``); the body checks none of them.  ``v0`` is
    "efficient", the seed, or "uniform"; either is scaled to unit
    mu-norm.  ``z0`` is a number, "safe", "rayleigh" (the start's
    weighted Rayleigh quotient), "delta1" (1/delta1) or "combination"
    (z0_combination of delta1 and that quotient); only the last two
    read ``init.delta1``, and general_rqi admits neither.  When phi_1 is
    not below phi_0 by more than roundoff (_PHI_TIE), the safe shift is
    ruled out: the run starts from the seed's quotient and is flagged
    (``z0_fallback``).  The start is built once the shift is chosen,
    unless the shift is its quotient, so that no start is held while
    safe_z0 forms its arrays.  Then phi and the seed are dropped, as the
    run needs neither; a caller that passes ``init`` inline leaves this
    the last reference to them.

    ``solver`` is "generic", the solve ``linsolve._shifted_solver(q)``
    builds, or "explicit", the closed form (q tridiagonal).  The driver
    runs on q itself from the shift -z_start and, with negate, reports
    the decay rates lambda_min(-q): it applies q, takes q's scale and
    owns the sign, so a perturb-and-retry moves the decay rate up.  It
    applies q through the run's one product, bound here
    (``linsolve._product``), which the start's quotient shares.  The
    weighted Rayleigh quotient and the mu-norm are formed in the
    driver's scratch array, unweighted when mu is all ones (``_weights``).  The result holds lambda_min(-q) and the
    eigenvector in the h-scaled coordinates; recover_original maps it
    back.
    """
    mu, phi = init.mu, init.phi
    weights = _weights(mu)      # None on a symmetric chain: the run is unweighted
    fallback, quoted, seed = False, None, None
    product = linsolve._product(q)
    if not isinstance(z0, str):
        z_start = float(z0)
    elif z0 == "safe" and phi[1] < (1.0 - _PHI_TIE) * phi[0]:
        z_start = safe_z0(phi / phi[0], mu)
    elif z0 == "delta1":
        z_start = 1.0 / _delta1_peak(phi, weights, init.v0_raw)
    else:
        # the safe shift's fallback takes the seed's quotient whatever the start
        fallback = z0 == "safe"
        quoted = "efficient" if fallback else v0
        seed = _start(quoted, init.v0_raw, weights)
        z_start = -_rayleigh(weights, seed, product(seed), np.empty(len(mu)))[0]
        if z0 == "combination":
            z_start = z0_combination(_delta1_peak(phi, weights, init.v0_raw), z_start)
    # built once the shift is chosen, so that no start is held while safe_z0 works
    start = seed if quoted == v0 else _start(v0, init.v0_raw, weights)
    del init, phi, seed
    solve = (linsolve._shifted_solver(q) if solver == "generic"
             else _peak_one(_closed_form_solver(q, mu)))
    return _result(*run_shifted_iteration(q, solve, start, -z_start,
                                          z_update=partial(_rayleigh, weights),
                                          norm=partial(_mu_norm, weights), negate=True,
                                          product=product, **opts),
                   h_scaling=h, z0_fallback=fallback)


def _start(v0, seed, mu):
    """The start vector ``v0`` names, the seed sqrt(phi) ("efficient") or
    the ones ("uniform"), scaled to unit mu-norm.

    Scaled here although run_shifted_iteration normalises again: the
    roundings differ, and starting from bare sqrt(phi) loses some
    interior-killing runs."""
    return _unit(seed if v0 == "efficient" else np.ones(len(seed)), mu)


def _rayleigh(mu, v, av, work):
    """The weighted Rayleigh quotient (mu v . av) / (mu v . v), formed in work,
    and the mu-norm of v, the root of its denominator, for the driver to share."""
    if mu is None:
        np.multiply(v, av, out=work)
    else:
        np.multiply(mu, v, out=work)
        work *= av
    numerator = np.add.reduce(work)
    square = _mu_square(mu, v, work)
    return float(numerator / square), math.sqrt(square)


def _mu_square(mu, vec, work):
    """mu vec . vec, summed pairwise in work, which may be vec itself; mu None is all ones."""
    np.multiply(vec, vec, out=work)
    if mu is not None:
        work *= mu
    return np.add.reduce(work)


def _mu_norm(mu, vec, work):
    """The mu-norm sqrt(mu vec . vec), formed in work, which may be vec itself."""
    return math.sqrt(_mu_square(mu, vec, work))


def _peak_one(solve):
    """solve with each output checked, and scaled in place by a power of two
    to a peak in [0.5, 1).

    The driver takes any nonzero multiple of the solution, and a power of
    two changes no bit of the normalised iterate unless an entry leaves
    the normal range; but the closed form's output can be finite and
    still too large to square in the mu-norm (order 10^5 from the
    uniform start's quotient: a peak of 3.8e200).  Its loop runs on
    Python floats, which overflow to inf and then NaN without a warning:
    a peak that is not finite raises SolverBreakdown, as a LAPACK route's
    non-finite solution does, so the driver retries it once.
    """
    def scaled(z, v):
        w = solve(z, v)
        peak = max(w.max(), -w.min())
        if not peak < np.inf:
            raise SolverBreakdown("the closed form returned a non-finite solution")
        return np.ldexp(w, -np.frexp(peak)[1], out=w)

    return scaled


def explicit_rqi_solve(transformed: TridiagonalSystem, mu, z, v):
    """Closed-form O(N) solve of (-Q - z I) w = v for a transformed system.

    Checks its operands and runs the closed form once; see
    _closed_form_solver for the method and its accuracy limit.  Raises
    SolverBreakdown when the closed-form denominator vanishes (z is an
    eigenvalue to machine precision) or the solution overflows.
    """
    mu = as_vector(mu, dtype=np.float64)
    v = as_vector(v, dtype=np.float64)
    z = float(z)
    if len(v) != transformed.order or len(mu) != transformed.order:
        raise InvalidInput("mu and v must match the system order")
    return linsolve._checked("the closed form", 0, _closed_form_solver(transformed, mu)(-z, v))


def _closed_form_solver(transformed, mu):
    """solve(z, v) = (z I - Q)^{-1} v by the paper's closed form, for a
    transformed system Q and its weights mu, both already checked.  The
    paper writes it for (-Q - lambda I); here lambda = -z, so every z
    term carries the opposite sign.

    Uses the running-sum factorization M_{s,j} = mu_j (kappa_s -
    kappa_{j-1}) with kappa_s the prefix sums of 1/(mu_k b_k), so the
    triangular kernel is never materialized; kappa is summed once per
    run.  Each solve raises SolverBreakdown when the closed-form
    denominator vanishes.

    Accuracy limit: the running sums cancel, so the error grows with
    the span max(mu) / min(mu), and more for shifts near an eigenvalue.
    Past a span of about 1/sqrt(eps), 7e7, half the digits or more are
    gone: against a dense solve on killing-everywhere generators of
    orders 8 to 30, with shifts 1e-4 to 1e-1 below the eigenvalue, the
    relative error was 1e-7 to 8e-5 at spans of 1.6e9 to 2.8e9 and 7e-5
    to 0.15 at 7.8e12 to 8.3e12, while the banded solve stayed below
    2e-12.
    On t1 (bd_squares) mu is constant.
    """
    N = transformed.n_max
    b_eff = transformed.b.copy()
    b_eff[N] = transformed.c[N]
    kappa = np.cumsum(1.0 / (mu * b_eff))
    mb = mu[N] * b_eff[N]

    def solve(z, v):
        A_seq = np.zeros(N + 1)
        B_seq = np.zeros(N + 1)
        B_seq[0] = 1.0
        # The loop reads and writes plain Python floats through memoryviews, so
        # no step boxes a numpy scalar.  a_s, b_s carry A_seq[s-1], B_seq[s-1]
        # and km1 is kappa_{j-1}, j = s-1; sa*, sb* are running sums over
        # j <= s-1 of mu_j * (term_j) and mu_j * kappa_{j-1} * (term_j).
        A_out, B_out = memoryview(A_seq), memoryview(B_seq)
        a_s, b_s, km1 = 0.0, 1.0, 0.0
        sa1 = sa2 = sb1 = sb2 = 0.0
        terms = zip(memoryview(mu), memoryview(v), memoryview(kappa)[:N])
        for s, (mu_j, v_j, k_j) in enumerate(terms, 1):
            ta = mu_j * (v_j - z * a_s)
            tb = mu_j * b_s
            sa1 += ta
            sa2 += km1 * ta
            sb1 += tb
            sb2 += km1 * tb
            a_s = A_out[s] = -(k_j * sa1 - sa2)
            b_s = B_out[s] = 1.0 + z * (k_j * sb1 - sb2)
            km1 = k_j

        # the sequences can reach the overflow threshold, and numpy would warn
        # where a product with them overflows: the result is then not finite,
        # which the caller's check raises as a breakdown
        with np.errstate(over="ignore", invalid="ignore"):
            numer = float(np.sum(mu * (v - z * A_seq))) - mb * A_seq[N]
            denom = mb * B_seq[N] + z * float(np.sum(mu * B_seq))
            scale = max(1.0, abs(mb * B_seq[N]), abs(z) * float(np.abs(mu * B_seq).sum()))
            if abs(denom) < linsolve.PIVOT_FLOOR * scale:
                raise SolverBreakdown(f"closed-form denominator {denom} vanished")
            x = numer / denom
            return A_seq + x * B_seq

    return solve


def tridiag_rqi(
    system: TridiagonalSystem,
    *,
    solver="generic",
    z0="combination",
    v0="efficient",
    tol_z=iterengine.DEFAULT_TOL_Z,
    tol_residual=iterengine.DEFAULT_TOL_RESIDUAL,
    max_iterations=iterengine.DEFAULT_MAX_ITERATIONS,
):
    """Full pipeline: transform, initials, weighted RQI on the transformed system.

    Returns (result, trace) where the result holds the converged pair
    (z, v) for the transformed system: the eigenvalue is
    lambda_min(-Qc) and the eigenvector lives in the h-scaled
    coordinates.  Map back with recover_original.

    ``solver`` is "generic", the banded solve (LAPACK ``dgtsv``), or
    "explicit", the paper's closed form explicit_rqi_solve, which loses
    accuracy on a wide mu span (see there).

    ``z0`` is "combination" (the table initial), "delta1" (its
    reciprocal-bound part alone), "safe" (general_rqi's default; falls
    back to the seed's Rayleigh quotient with the result flagged when
    phi_1 is not below phi_0 by more than roundoff, which a tridiagonal
    phi, strictly decreasing, meets only through rounding), "rayleigh",
    or a number.  ``v0`` is
    "efficient", the sqrt(phi) seed, or "uniform".  The options are
    checked here, before any O(N) work (``_check_options``); a
    ``system`` that is not a TridiagonalSystem, a matrix say, is an
    InvalidInput that names ``general_rqi``.
    """
    if not isinstance(system, TridiagonalSystem):
        raise InvalidInput(f"tridiag_rqi takes a TridiagonalSystem, not "
                           f"{type(system).__name__}; pass a matrix to general_rqi")
    if not (isinstance(solver, str) and solver in ("generic", "explicit")):
        raise InvalidInput(f"unknown solver {solver!r}")
    _check_options(Z0_POLICIES, z0, v0, tol_z, tol_residual, max_iterations)
    if not system.c.any():
        raise InvalidInput("tridiag_rqi requires some killing rate (c not identically zero)")
    ht = compute_h(system)
    transformed = ht.transformed
    return _efficient_rqi(transformed, ht.h, compute_initials(transformed), z0, v0, solver,
                          tol_z=tol_z, tol_residual=tol_residual, max_iterations=max_iterations)


def recover_original(result: EigenpairResult, m=0.0):
    """Map a transformed-system eigenpair back to the original matrix.

    Returns the maximal pair (m - z, Diag(h) v) with h the result's
    ``h_scaling``, the eigenvector rescaled so its last component is 1
    (the display convention).  The new eigenvector is the one array it
    makes: the product, or a copy, divided in place; the result's own
    eigenvector is left as it is.
    """
    h = result.h_scaling
    g = result.eigenvector.copy() if h is None else h * result.eigenvector
    g /= g[-1]
    return replace(result, eigenvalue=m - result.eigenvalue, eigenvector=g, shift_m=m)
