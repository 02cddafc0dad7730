"""maxeig: maximal eigenpair (Perron root and positive eigenvector) solvers.

Three routes to the maximal pair of a matrix with nonnegative
off-diagonal elements (and of many more general matrices):

* ``tridiag.tridiag_rqi`` -- O(N) pipeline for tridiagonal generators
  with analytically constructed initials; typically two iterations;
* ``general_init.general_rqi`` -- the same initials built by solving
  three linear systems, for any irreducible nonnegative-off-diagonal
  matrix;
* ``iterengine.algorithm1`` / ``algorithm2`` -- global methods from a
  uniform start, valid well beyond generator-type input (complex
  matrices included for algorithm1).
"""

__version__ = "0.1.0"

from .errors import (
    InvalidInput,
    MaxeigError,
    MaxIterationsExceeded,
    NonPositiveSequence,
    SolverBreakdown,
)
from .general_init import general_rqi
from .iterengine import (
    EigenpairResult,
    IterationTrace,
    algorithm1,
    algorithm2,
    power_iteration,
    rqi,
)
from .numat import (
    TridiagonalSystem,
    matvec,
    max_ratio,
    shift_to_qc,
)
from .tridiag import (
    HTransform,
    InitialData,
    compute_h,
    compute_initials,
    explicit_rqi_solve,
    recover_original,
    tridiag_rqi,
    z0_combination,
)

__all__ = [
    "__version__",
    "TridiagonalSystem",
    "EigenpairResult",
    "IterationTrace",
    "HTransform",
    "InitialData",
    "matvec",
    "max_ratio",
    "shift_to_qc",
    "compute_h",
    "compute_initials",
    "explicit_rqi_solve",
    "z0_combination",
    "tridiag_rqi",
    "recover_original",
    "general_rqi",
    "power_iteration",
    "rqi",
    "algorithm1",
    "algorithm2",
    "MaxeigError",
    "InvalidInput",
    "NonPositiveSequence",
    "SolverBreakdown",
    "MaxIterationsExceeded",
]
