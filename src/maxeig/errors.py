"""Typed exceptions shared by the solver modules.

The hierarchy is no wider than its handlers need.  The CLI maps
``matrixio.parse_error`` (an InvalidInput) to exit 2,
MaxIterationsExceeded to exit 3 and every other MaxeigError to exit 4;
the iteration driver catches SolverBreakdown.  The remaining
subclasses carry data.
"""


class MaxeigError(Exception):
    """Base class for every library-specific error."""


class InvalidInput(MaxeigError, ValueError):
    """An operand has the wrong shape, a non-finite or out-of-domain value, or an unknown name.

    Also raised by the max-ratio update when an iterate is not strictly
    positive.
    """


class NonPositiveSequence(InvalidInput):
    """One of the sequences r, h, phi or mu has a non-positive entry.

    ``sequence`` names which one: "r", "h", "phi" or "mu".
    """

    def __init__(self, sequence, message):
        super().__init__(message)
        self.sequence = sequence


class SolverBreakdown(MaxeigError):
    """A shifted solve hit an (almost) exactly singular system.

    Raised by the tridiagonal elimination (pivot below the floor), the
    dense LU (zero pivot or non-finite solution) and the closed-form
    tridiagonal solve (vanishing denominator).  This is the normal
    endgame of Rayleigh quotient iteration once the shift lands on an
    eigenvalue to machine precision; the iteration driver catches it and
    either accepts the converged pair or perturbs the shift and retries
    once.  A breakdown the driver could not handle carries the run's
    ``trace`` (termination "breakdown").
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class MaxIterationsExceeded(MaxeigError):
    """Iteration budget exhausted before the convergence test passed."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
