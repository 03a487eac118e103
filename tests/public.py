"""The library front on a problem file: each kind's problem class built
from a decoded document with the public constructors, its core problem,
and its public solver, as a library caller would use them."""

from tropopt import (
    NEG_INF,
    ApproximationProblem,
    BestUnderProblem,
    LocationProblem,
    MatrixLowerProblem,
    TropMatrix,
    TropVector,
    TwoSidedProblem,
    approximate,
    best_underestimator,
    locate,
    solve_matrix_lower,
    solve_two_sided,
)

CLASSES = {
    "two_sided": TwoSidedProblem,
    "matrix_lower": MatrixLowerProblem,
    "locate": LocationProblem,
    "approximate": ApproximationProblem,
    "best_under": BestUnderProblem,
}

SOLVERS = {
    TwoSidedProblem: solve_two_sided,
    MatrixLowerProblem: solve_matrix_lower,
    LocationProblem: locate,
    ApproximationProblem: approximate,
    BestUnderProblem: lambda prob: best_underestimator(prob.A, prob.p),
}


def _floats(tokens):
    return tuple(NEG_INF if t == "-inf" else t for t in tokens)


def problem(doc):
    """The problem class of ``doc``'s kind, built from its payload keys."""
    cls = CLASSES[doc["kind"]]
    return cls(**{
        key: TropMatrix(tuple(map(_floats, doc[key]))) if key == "A" else TropVector(_floats(doc[key]))
        for key in cls._fields
        if key in doc
    })


def core(prob):
    """The two-sided, matrix or best-underestimator problem behind ``prob``."""
    return getattr(prob, "reduced", prob)


def solve(prob):
    """The public solution of ``prob``."""
    return SOLVERS[type(prob)](prob)
