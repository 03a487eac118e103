"""Constrained max-plus (tropical) optimization in closed form.

The grid oracle's names are resolved on first use, so importing the
package does not import numpy.
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
    distance,
    mat_add,
    mat_leq,
    mat_mul,
    max_solution_leq,
    scalar_mul,
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

_ORACLE_NAMES = (
    "GRID_POINT_CAP",
    "BestUnderObjective",
    "GridSpec",
    "GridTooLargeError",
    "MatrixLowerObjective",
    "TwoSidedObjective",
    "best_under_box",
    "grid_min",
    "matrix_lower_box",
    "two_sided_box",
    "verify_interval",
    "verify_point",
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    "distance",
    "locate",
    "mat_add",
    "mat_leq",
    "mat_mul",
    "matrix_lower_terms",
    "max_solution_leq",
    "objective_best_under",
    "objective_matrix",
    "objective_two_sided",
    "reduced_matrix_lower",
    "reduced_two_sided",
    "scalar_mul",
    "solve_matrix_lower",
    "solve_two_sided",
    "two_sided_terms",
    "vec_leq",
    *_ORACLE_NAMES,
]
