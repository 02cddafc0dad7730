"""Shared oracle helpers: dense eigensolver checks independent of the library."""

import numpy as np
import pytest

from maxeig.numat import TridiagonalSystem


def oracle_eigenvalues(A):
    """All eigenvalues via the dense LAPACK oracle."""
    A = A.dense() if isinstance(A, TridiagonalSystem) else np.asarray(A)
    return np.linalg.eigvals(A)


def oracle_max_pair(A):
    """(eigenvalue, eigenvector) of the maximal-real-part eigenvalue, last entry 1."""
    A = A.dense() if isinstance(A, TridiagonalSystem) else np.asarray(A)
    w, V = np.linalg.eig(A)
    i = int(np.argmax(w.real))
    g = V[:, i]
    g = g / g[-1]
    if not np.iscomplexobj(A):
        w, g = w.real, g.real
    return w[i], g


def oracle_min_neg(A):
    """lambda_min(-Q) for a generator-type matrix: -max Re eigenvalue."""
    w = oracle_eigenvalues(A)
    return float(-np.max(w.real))


@pytest.fixture
def rng():
    return np.random.default_rng(20170608)


def random_system(rng, N, low=0.5, high=2.0, with_killing="last"):
    """Random TridiagonalSystem with entries in [low, high]."""
    a = rng.uniform(low, high, N)
    b = rng.uniform(low, high, N)
    c = np.zeros(N + 1)
    if with_killing == "last":
        c[N] = rng.uniform(low, high)
    elif with_killing == "all":
        c = rng.uniform(0.0, high, N + 1)
        c[N] = rng.uniform(low, high)
    return TridiagonalSystem.from_rates(a, b, c)


def scaled(system, k):
    """The TridiagonalSystem of ``system``'s rates times 2^-k, each exactly."""
    return TridiagonalSystem(*(np.ldexp(r, -k) for r in (system.a, system.b, system.c)))


def count_calls(monkeypatch, module, name):
    """Wrap module.name for the test so each call is counted; returns the list
    that one entry per call is appended to."""
    calls = []
    function = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def fail_if_called(monkeypatch, module, *names):
    """Make each module.name raise AssertionError for the test: work that an
    option check must come before."""
    for name in names:
        def fail(*args, name=name, **kwargs):
            raise AssertionError(f"{module.__name__}.{name} ran before the options were checked")

        monkeypatch.setattr(module, name, fail)
