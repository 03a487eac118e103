"""Constrained max-plus (tropical) optimization in closed form.

The root exports what ``solve``, ``eval`` and ``verify`` offer a library
caller: the problems, their solvers and objectives, ``certify``, and the
errors.  The grid oracle (``tropopt.oracle``, which needs numpy), the
scalar reference ``semifield.MaxPlus`` and ``linalg.mat_mul`` and
``conjugate`` stay in the package only because the benchmark in
``perfbench/`` imports or times them.  Once it stops (ROADMAP item 1),
they move to ``tests/reference.py`` (item 2), through which the tests
already import them.  The root exports none of them.
"""

from .applications import (
    ApproximationProblem,
    LocationProblem,
    approximate,
    locate,
    reduced_matrix_lower,
    reduced_two_sided,
)
from .certificate import (
    OracleReport,
    VerificationFailedError,
    certify,
    objective_best_under,
    objective_matrix,
    objective_two_sided,
)
from .linalg import (
    NotColumnRegularError,
    NotRegularError,
    ShapeMismatchError,
    TropMatrix,
    TropVector,
    ZeroVectorError,
    max_solution_leq,
    vec_leq,
)
from .semifield import (
    NEG_INF,
    InvalidScalarError,
    ScalarOverflowError,
    TropicalError,
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
    "MatrixLowerProblem",
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
    "VerificationFailedError",
    "ZeroVectorError",
    "approximate",
    "best_underestimator",
    "certify",
    "locate",
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
