"""Constrained max-plus (tropical) optimization in closed form.

The grid oracle that the tests compare with lives in ``tropopt.oracle``
and needs numpy; nothing here imports it.
"""

from .applications import (
    ApproximationProblem,
    LocationProblem,
    approximate,
    locate,
    reduced_matrix_lower,
    reduced_two_sided,
)
from .certificate import OracleReport, VerificationFailedError, certify
from .linalg import (
    NotColumnRegularError,
    NotRegularError,
    ShapeMismatchError,
    TropMatrix,
    TropVector,
    ZeroVectorError,
    conjugate,
    mat_mul,
    max_solution_leq,
    vec_leq,
)
from .semifield import (
    MAX_PLUS,
    NEG_INF,
    InvalidScalarError,
    MaxPlus,
    ScalarOverflowError,
    TropicalError,
    UndefinedPowerError,
    ZeroInverseError,
)
from .solvers import (
    BestUnderProblem,
    InfeasibleBoundsError,
    IntervalSolution,
    MatrixLowerProblem,
    PointSolution,
    PrecisionLossError,
    TwoSidedProblem,
    best_underestimator,
    matrix_lower_terms,
    objective_best_under,
    objective_matrix,
    objective_two_sided,
    solve_matrix_lower,
    solve_two_sided,
    two_sided_terms,
)

__version__ = "0.1.0"

__all__ = [
    "ApproximationProblem",
    "BestUnderProblem",
    "InfeasibleBoundsError",
    "IntervalSolution",
    "InvalidScalarError",
    "LocationProblem",
    "MAX_PLUS",
    "MatrixLowerProblem",
    "MaxPlus",
    "NEG_INF",
    "NotColumnRegularError",
    "NotRegularError",
    "OracleReport",
    "PointSolution",
    "PrecisionLossError",
    "ScalarOverflowError",
    "ShapeMismatchError",
    "TropMatrix",
    "TropVector",
    "TropicalError",
    "TwoSidedProblem",
    "UndefinedPowerError",
    "VerificationFailedError",
    "ZeroInverseError",
    "ZeroVectorError",
    "approximate",
    "best_underestimator",
    "certify",
    "conjugate",
    "locate",
    "mat_mul",
    "matrix_lower_terms",
    "max_solution_leq",
    "objective_best_under",
    "objective_matrix",
    "objective_two_sided",
    "reduced_matrix_lower",
    "reduced_two_sided",
    "solve_matrix_lower",
    "solve_two_sided",
    "two_sided_terms",
    "vec_leq",
]
