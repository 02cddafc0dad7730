"""Typed exceptions shared by the solver modules."""


class MaxeigError(Exception):
    """Base class for every library-specific error."""


class DimensionMismatch(MaxeigError, ValueError):
    """Operand shapes do not agree."""


class NonFiniteInput(MaxeigError, ValueError):
    """A stored matrix or vector would contain NaN or Inf."""


class SolverBreakdown(MaxeigError):
    """A shifted solve hit an (almost) exactly singular system.

    This is the normal endgame of Rayleigh quotient iteration once the
    shift lands on an eigenvalue to machine precision; the iteration
    driver catches it and either accepts the converged pair or perturbs
    the shift and retries once.
    """


class BreakdownError(SolverBreakdown):
    """Tridiagonal elimination met a pivot below the hard threshold."""


class SingularError(SolverBreakdown):
    """The dense LU (LAPACK gesv) met an exactly zero pivot or gave a non-finite solution."""


class DenominatorBreakdown(SolverBreakdown):
    """The closed-form tridiagonal solve divided by a vanishing denominator."""


class NonPositiveSequence(MaxeigError, ValueError):
    """One of the sequences r, h, phi or mu has a non-positive entry (invalid input).

    ``sequence`` names which one: "r", "h", "phi" or "mu".
    """

    def __init__(self, sequence, message):
        super().__init__(message)
        self.sequence = sequence


class NonPositiveIterate(MaxeigError):
    """A max-ratio update met an iterate with a non-positive component."""


class SafeFormulaUnavailable(MaxeigError):
    """The safe initial-shift formula requires phi_1 < 1."""


class MaxIterationsExceeded(MaxeigError):
    """Iteration budget exhausted before the convergence test passed."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
