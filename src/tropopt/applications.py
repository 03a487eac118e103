"""Chebyshev location and approximation front ends.

Both applications are substitutions into the core solvers: the two-point
location problem reduces to the two-sided bounded problem with
``p = r + s`` and ``q~ = r~ + s~``, and the approximation problem is the
matrix problem with ``q = p``.  Each problem checks its arguments
through ``solvers._enter`` with its kind's data function,
``location_data`` or ``approximation_data``, which the command line
calls on a file's float tuples, and keeps those data, its reduced
problem's, in ``_data``.  It builds its reduced instance once, on
construction, into ``reduced``; its class names the reduced class in
``reduces_to``, so that the reduced problem's solver, objective and
``certify`` take the application problem itself (``certificate.RULES``
maps each class to its reduced problem's rule).
"""

from __future__ import annotations

from .linalg import NotRegularError, ShapeMismatchError, TropMatrix, TropVector, _vector
from .semifield import NEG_INF, Record, _store
from .solvers import (
    IntervalSolution, MatrixLowerProblem, PointSolution, TwoSidedProblem, _enter, _require_box,
    _require_problem, matrix_data, solve_matrix_lower, solve_two_sided,
)


def _require_points(r, s) -> None:
    """The two points must be regular and of one dimension."""
    if NEG_INF in r:
        raise NotRegularError("r must be regular")
    if NEG_INF in s:
        raise NotRegularError("s must be regular")
    if len(s) != len(r):
        raise ShapeMismatchError(f"s must have dimension {len(r)}, got {len(s)}")


def _reduce(r, s) -> tuple:
    """``p = r + s`` and ``q = (r~ + s~)~``: the entrywise max and min,
    one comparison per element, each an element of ``r`` or ``s``."""
    return (
        tuple([x if x >= y else y for x, y in zip(r, s)]),
        tuple([x if x <= y else y for x, y in zip(r, s)]),
    )


def location_data(r, s, g=None, h=None) -> tuple:
    """The two-sided data of a location problem given as float tuples.
    Every element of ``p`` and ``q`` is one of the checked ``r`` or ``s``,
    so of ``two_sided_data``'s checks only the box's (``_require_box``) run."""
    _require_points(r, s)
    _require_box(len(r), g, h)
    return (*_reduce(r, s), g, h)


def approximation_data(A, p, g) -> tuple:
    """The matrix data of an approximation problem given as float tuples: ``q = p``."""
    return matrix_data(A, p, p, g)


class LocationProblem(Record):
    """Place x to minimize the larger Chebyshev distance to r and s,
    within the optional box ``g <= x <= h``.  ``reduced`` and ``_data``,
    not fields, stay out of ``repr`` and comparisons."""

    __slots__ = ("r", "s", "g", "h", "reduced", "_data")
    reduces_to = TwoSidedProblem

    def __init__(
        self, r: TropVector, s: TropVector, g: TropVector | None = None, h: TropVector | None = None
    ) -> None:
        _enter(self, location_data, r, s, g, h)
        _store(self, "reduced", reduced_two_sided(self))


class ApproximationProblem(Record):
    """Approximate p by A x in Chebyshev distance, subject to ``x >= g``,
    with ``reduced`` as in ``LocationProblem``."""

    __slots__ = ("A", "p", "g", "reduced", "_data")
    reduces_to = MatrixLowerProblem

    def __init__(self, A: TropMatrix, p: TropVector, g: TropVector) -> None:
        _enter(self, approximation_data, A, p, g)
        _store(self, "reduced", reduced_matrix_lower(self))


def reduced_two_sided(prob: LocationProblem) -> TwoSidedProblem:
    """Two-sided instance whose objective equals the larger of the two
    Chebyshev distances at every regular point (``_reduce``, which
    ``location_data`` has applied)."""
    p, q, _, _ = _require_problem(prob, LocationProblem)
    return TwoSidedProblem(_vector(p), _vector(q), prob.g, prob.h)


def locate(prob: LocationProblem) -> IntervalSolution:
    """Complete solution of the constrained two-point location problem.

    The returned value is the least achievable max distance and the
    interval is the full set of optimal placements.
    """
    _require_problem(prob, LocationProblem)
    return solve_two_sided(prob.reduced)


def reduced_matrix_lower(prob: ApproximationProblem) -> MatrixLowerProblem:
    _require_problem(prob, ApproximationProblem)
    return MatrixLowerProblem(prob.A, prob.p, prob.p, prob.g)


def approximate(prob: ApproximationProblem) -> PointSolution:
    """Least Chebyshev error of ``A x`` against ``p`` over ``x >= g``,
    with a vector attaining it."""
    _require_problem(prob, ApproximationProblem)
    return solve_matrix_lower(prob.reduced)
