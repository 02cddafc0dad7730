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
   generic banded solver (LAPACK ``dgtsv``, the default) or by the
   paper's closed-form O(N) representation;
4. recovery of the original eigenpair by undoing the h-scaling.

``general_init.general_rqi`` hands tridiagonal input to this pipeline
(banded solver, safe shift) and its dense route, with h, phi and mu from
three linear solves, to the same body ``_efficient_rqi``: start vector,
initial shift, weighted RQI with one weighted Rayleigh quotient.  The
body picks the start from its name (``v0``: "efficient" or "uniform")
and the initial shift from its name or value (``z0``) and the route's
delta_1, which the dense route does not have.

Everything works on the positive spectrum side: eigenvalues reported by
this module are lambda_min(-Qc), the decay rate of the associated
chain, so all shifts and table entries stay positive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import iterengine, linsolve
from .errors import InvalidInput, NonPositiveSequence, SolverBreakdown
from .iterengine import EigenpairResult, run_shifted_iteration
from .numat import TridiagonalSystem, _apply, _scale, as_vector, weighted_norm

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
    if (c[:-1] == 0).all():
        # no interior killing: the transform is the exact identity, which
        # keeps such runs bit-stable
        return HTransform(h=np.ones(N + 1), r=np.ones(N), transformed=system)
    r = np.ones(N)
    r[0] = 1.0 + c[0] / b[0]
    # plain Python floats through memoryviews, so no step boxes a numpy scalar
    r_out = memoryview(r)
    r_n = r_out[0]
    for n, (a_n, b_n, c_n) in enumerate(zip(*(memoryview(x)[1:N] for x in (a, b, c))), 1):
        r_n = r_out[n] = 1.0 + (a_n + c_n) / b_n - a_n / (b_n * r_n)
        if r_n <= 0.0:
            raise NonPositiveSequence(
                "r", f"r[{n}] = {r_n} <= 0; input violates positivity assumptions")
    if r[0] <= 0.0:
        raise NonPositiveSequence("r", f"r[0] = {r[0]} <= 0")
    h = np.ones(N + 1)
    h[1:] = np.cumprod(r)

    new_a = a.copy()
    new_a[1:] = a[1:] * h[:-1] / h[1:]
    new_b = b.copy()
    new_b[:-1] = b[:-1] * h[1:] / h[:-1]
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
    1/delta_1 is the "delta1" initial shift; see z0_combination for the
    blend used by the reproduction tables.
    """

    mu: np.ndarray
    phi: np.ndarray
    delta1: float

    @property
    def v0_raw(self) -> np.ndarray:
        """The efficient seed sqrt(phi)."""
        return np.sqrt(self.phi)

    @property
    def v0(self) -> np.ndarray:
        """The efficient seed scaled to unit mu-norm."""
        return _unit(self.v0_raw, self.mu)


def _unit(v, mu):
    """v scaled to unit mu-norm."""
    return v / weighted_norm(v, mu)


def compute_initials(transformed: TridiagonalSystem) -> InitialData:
    """Compute mu, phi and delta_1 for a transformed system; the seed derives from phi."""
    a, b, c = transformed.a, transformed.b, transformed.c
    N = transformed.n_max
    if (c[:-1] != 0).any():
        raise InvalidInput("compute_initials expects killing only at the right endpoint")
    if c[N] <= 0:
        raise InvalidInput("the right-endpoint rate must be positive (c must not vanish)")

    b_eff = b.copy()
    b_eff[N] = c[N]

    mu = np.ones(N + 1)
    mu[1:] = np.cumprod(b_eff[:-1] / a[1:])

    inv = 1.0 / (mu * b_eff)
    phi = np.cumsum(inv[::-1])[::-1]

    return InitialData(mu=mu, phi=phi, delta1=_delta1_peak(phi, mu))


def _delta1_peak(phi, mu) -> float:
    """delta_1 = max_n [ sqrt(phi_n) sum_{k<=n} mu_k sqrt(phi_k)
                        + (1/sqrt(phi_n)) sum_{j>n} mu_j phi_j^{3/2} ]

    evaluated with prefix/suffix sums, O(N) overall.
    """
    sqrt_phi = np.sqrt(phi)
    prefix = np.cumsum(mu * sqrt_phi)
    tail_terms = mu * phi * sqrt_phi
    suffix = np.concatenate([np.cumsum(tail_terms[::-1])[::-1][1:], [0.0]])
    return float(np.max(sqrt_phi * prefix + suffix / sqrt_phi))


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
    return (1.0 - float(phi[1])) / _delta1_peak(phi, mu)


def _efficient_rqi(q, solve, h, mu, phi, delta1, z0, v0, **opts):
    """Start vector, initial shift and weighted RQI on -q, in the mu-norm.

    ``v0`` is "efficient", the seed sqrt(phi), or "uniform"; either is
    scaled to unit mu-norm.  ``z0`` is a number, "safe", "rayleigh" (the
    start's weighted Rayleigh quotient), or, where the route has a
    ``delta1``, "delta1" (1/delta1) or "combination" (z0_combination of
    delta1 and that quotient).  The dense route passes delta1 None, and
    general_rqi admits only "safe", "rayleigh" or a number there.  When
    phi_1 >= phi_0 rules out the safe shift, the run starts from the
    seed's quotient and is flagged.

    ``q`` is a TridiagonalSystem or a dense matrix the route has already
    validated.  The result holds lambda_min(-q) and the eigenvector in
    the h-scaled coordinates; recover_original maps it back.
    """
    if isinstance(z0, str) and z0 not in Z0_POLICIES:
        raise InvalidInput(f"unknown z0 choice {z0!r}")
    if not (isinstance(v0, str) and v0 in V0_CHOICES):
        raise InvalidInput(f"unknown v0 choice {v0!r}")

    def rayleigh(v, av):
        return float((mu * v * av).sum() / (mu * (v * v)).sum())

    # scaled here although run_shifted_iteration normalises again: the roundings
    # differ, and starting from bare sqrt(phi) loses some interior-killing runs
    seed = _unit(np.sqrt(phi), mu)
    start = seed if v0 == "efficient" else _unit(np.ones(len(mu)), mu)
    fallback = False
    if not isinstance(z0, str):
        z_start = float(z0)
    elif z0 == "safe" and phi[1] < phi[0]:
        z_start = safe_z0(phi / phi[0], mu)
    elif z0 == "delta1":
        z_start = 1.0 / delta1
    else:
        # the safe shift's fallback takes the seed's quotient whatever the start
        fallback = z0 == "safe"
        v = seed if fallback else start
        z_start = rayleigh(v, -_apply(q, v))
        if z0 == "combination":
            z_start = z0_combination(delta1, z_start)

    z, v, trace = run_shifted_iteration(
        lambda vec: -_apply(q, vec),
        solve,
        start,
        z_start,
        z_update=rayleigh,
        norm=lambda vec: float(np.sqrt((mu * (vec * vec)).sum())),
        scale=_scale(q),
        **opts,
    )
    result = EigenpairResult(
        eigenvalue=z,
        eigenvector=v,
        iterations=trace.iterations,
        residual=trace.steps[-1].residual,
        h_scaling=h,
        z0_fallback=fallback,
    )
    return result, trace


def explicit_rqi_solve(transformed: TridiagonalSystem, mu, z, v):
    """Closed-form O(N) solve of (-Q - z I) w = v for a transformed system.

    Uses the running-sum factorization M_{s,j} = mu_j (kappa_s -
    kappa_{j-1}) with kappa_s the prefix sums of 1/(mu_k b_k), so the
    triangular kernel is never materialized.  Raises SolverBreakdown
    when the closed-form denominator vanishes (z is an eigenvalue to
    machine precision).

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
    mu = as_vector(mu, dtype=np.float64)
    v = as_vector(v, dtype=np.float64)
    z = float(z)
    N = transformed.n_max
    if len(v) != N + 1 or len(mu) != N + 1:
        raise InvalidInput("mu and v must match the system order")
    b_eff = transformed.b.copy()
    b_eff[N] = transformed.c[N]

    kappa = np.cumsum(1.0 / (mu * b_eff))
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
        ta = mu_j * (v_j + z * a_s)
        tb = mu_j * b_s
        sa1 += ta
        sa2 += km1 * ta
        sb1 += tb
        sb2 += km1 * tb
        a_s = A_out[s] = -(k_j * sa1 - sa2)
        b_s = B_out[s] = 1.0 - z * (k_j * sb1 - sb2)
        km1 = k_j

    mb = mu[N] * b_eff[N]
    numer = float(np.sum(mu * (v + z * A_seq))) - mb * A_seq[N]
    denom = mb * B_seq[N] - z * float(np.sum(mu * B_seq))
    scale = max(1.0, abs(mb * B_seq[N]), abs(z) * float(np.abs(mu * B_seq).sum()))
    if abs(denom) < linsolve.PIVOT_FLOOR * scale:
        raise SolverBreakdown(f"closed-form denominator {denom} vanished")
    x = numer / denom
    return A_seq + x * B_seq


def _shifted_solver(transformed: TridiagonalSystem, mu, choice):
    """Return solve(z, v) giving a multiple of (z I - (-Q))^{-1} v."""
    if choice == "explicit":
        return lambda z, v: explicit_rqi_solve(transformed, mu, z, v)
    if choice == "generic":
        a, b, diag = transformed.a, transformed.b, transformed.diagonal
        # dgtsv overwrites its diagonals: one set of work arrays per run,
        # refilled before each solve
        dl, d, du = np.empty(len(a) - 1), np.empty(len(a)), np.empty(len(a) - 1)

        def solve(z, v):
            np.negative(a[1:], out=dl)
            np.negative(b[:-1], out=du)
            # -(diag + z) is (a + b + c) - z rounded, negation being exact
            np.add(diag, z, out=d)
            np.negative(d, out=d)
            return linsolve._gtsv(dl, d, du, v)

        return solve
    raise InvalidInput(f"unknown solver {choice!r}")


def tridiag_rqi(
    system: TridiagonalSystem,
    *,
    solver="generic",
    z0="combination",
    v0="efficient",
    tol_z=iterengine.DEFAULT_TOL_Z,
    tol_residual=iterengine.DEFAULT_TOL_RESIDUAL,
    max_iterations=50,
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
    phi_1 >= phi_0, which a tridiagonal phi, strictly decreasing, meets
    only through rounding), "rayleigh", or a number.  ``v0`` is
    "efficient", the sqrt(phi) seed, or "uniform".
    """
    if (system.c == 0).all():
        raise InvalidInput("tridiag_rqi requires some killing rate (c not identically zero)")
    ht = compute_h(system)
    transformed = ht.transformed
    init = compute_initials(transformed)
    return _efficient_rqi(
        transformed,
        _shifted_solver(transformed, init.mu, solver),
        ht.h,
        init.mu,
        init.phi,
        init.delta1,
        z0,
        v0,
        tol_z=tol_z,
        tol_residual=tol_residual,
        max_iterations=max_iterations,
    )


def recover_original(result: EigenpairResult, m=0.0):
    """Map a transformed-system eigenpair back to the original matrix.

    Returns the maximal pair (m - z, Diag(h) v) with h the result's
    ``h_scaling``, the eigenvector rescaled so its last component is 1
    (the display convention).
    """
    h = result.h_scaling
    g = result.eigenvector if h is None else h * result.eigenvector
    return replace(result, eigenvalue=m - result.eigenvalue, eigenvector=g / g[-1], shift_m=m)
