"""Chebyshev location and approximation front ends.

Both applications are substitutions into the core solvers: the two-point
location problem reduces to the two-sided bounded problem with
``p = r + s`` and ``q~ = r~ + s~``, and the approximation problem is the
matrix problem with ``q = p``.  Each problem builds its reduced instance
once, on construction, and keeps it in ``reduced``; the command line
reduces a location file's float tuples by ``location_data``, through the
same point and box checks and the same ``_reduce``.
"""

from __future__ import annotations

from .linalg import NotRegularError, ShapeMismatchError, TropMatrix, TropVector, _vector
from .semifield import NEG_INF, Record, _store
from .solvers import (
    IntervalSolution, MatrixLowerProblem, PointSolution, TwoSidedProblem, _require_box,
    _require_column, solve_matrix_lower, solve_two_sided,
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


class LocationProblem(Record):
    """Place x to minimize the larger Chebyshev distance to r and s,
    within the optional box ``g <= x <= h``.  ``reduced``, not a field,
    stays out of ``repr`` and comparisons."""

    __slots__ = ("r", "s", "g", "h", "reduced")

    def __init__(
        self, r: TropVector, s: TropVector, g: TropVector | None = None, h: TropVector | None = None
    ) -> None:
        _require_points(_require_column(r, "r"), _require_column(s, "s"))
        self._init(r, s, g, h)
        # bound invariants match the reduced problem
        _store(self, "reduced", reduced_two_sided(self))


class ApproximationProblem(Record):
    """Approximate p by A x in Chebyshev distance, subject to ``x >= g``,
    with ``reduced`` as in ``LocationProblem``."""

    __slots__ = ("A", "p", "g", "reduced")

    def __init__(self, A: TropMatrix, p: TropVector, g: TropVector) -> None:
        self._init(A, p, g)
        _store(self, "reduced", reduced_matrix_lower(self))


def reduced_two_sided(prob: LocationProblem) -> TwoSidedProblem:
    """Two-sided instance whose objective equals the larger of the two
    Chebyshev distances at every regular point (``_reduce``)."""
    p, q = _reduce(prob.r.elements, prob.s.elements)
    return TwoSidedProblem(_vector(p), _vector(q), prob.g, prob.h)


def locate(prob: LocationProblem) -> IntervalSolution:
    """Complete solution of the constrained two-point location problem.

    The returned value is the least achievable max distance and the
    interval is the full set of optimal placements.
    """
    return solve_two_sided(prob.reduced)


def reduced_matrix_lower(prob: ApproximationProblem) -> MatrixLowerProblem:
    return MatrixLowerProblem(prob.A, prob.p, prob.p, prob.g)


def approximate(prob: ApproximationProblem) -> PointSolution:
    """Least Chebyshev error of ``A x`` against ``p`` over ``x >= g``,
    with a vector attaining it."""
    return solve_matrix_lower(prob.reduced)
