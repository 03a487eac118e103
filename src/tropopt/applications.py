"""Chebyshev location and approximation front ends.

Both applications are substitutions into the core solvers: the two-point
location problem reduces to the two-sided bounded problem with
``p = r + s`` and ``q~ = r~ + s~``, and the approximation problem is the
matrix problem with ``q = p``.  Callers needing the general ``q`` should
use ``solve_matrix_lower`` directly.  Each problem builds its reduced
instance once, on construction, and keeps it in ``reduced``.
"""

from __future__ import annotations

from .linalg import NotRegularError, ShapeMismatchError, TropMatrix, TropVector, _vector
from .semifield import NEG_INF, Record, _store
from .solvers import (
    IntervalSolution,
    MatrixLowerProblem,
    PointSolution,
    TwoSidedProblem,
    solve_matrix_lower,
    solve_two_sided,
)


class LocationProblem(Record):
    """Place x to minimize the larger Chebyshev distance to r and s,
    within the optional box ``g <= x <= h``.  ``reduced``, not a field,
    stays out of ``repr`` and comparisons."""

    __slots__ = ("r", "s", "g", "h", "reduced")

    def __init__(
        self, r: TropVector, s: TropVector, g: TropVector | None = None, h: TropVector | None = None
    ) -> None:
        for name, v in (("r", r), ("s", s)):
            if v.orientation != "col":
                raise ShapeMismatchError(f"{name} must be a column vector")
            if NEG_INF in v.elements:
                raise NotRegularError(f"{name} must be regular")
        if len(s.elements) != len(r.elements):
            raise ShapeMismatchError(f"s must have dimension {r.dim}, got {s.dim}")
        _store(self, "r", r)
        _store(self, "s", s)
        _store(self, "g", g)
        _store(self, "h", h)
        # bound invariants match the reduced problem
        _store(self, "reduced", reduced_two_sided(self))


class ApproximationProblem(Record):
    """Approximate p by A x in Chebyshev distance, subject to ``x >= g``,
    with ``reduced`` as in ``LocationProblem``."""

    __slots__ = ("A", "p", "g", "reduced")

    def __init__(self, A: TropMatrix, p: TropVector, g: TropVector) -> None:
        _store(self, "A", A)
        _store(self, "p", p)
        _store(self, "g", g)
        _store(self, "reduced", reduced_matrix_lower(self))


def reduced_two_sided(prob: LocationProblem) -> TwoSidedProblem:
    """Two-sided instance whose objective equals the larger of the two
    Chebyshev distances at every regular point: ``p = r + s`` is the
    entrywise max and ``q = (r~ + s~)~`` the entrywise min, each one
    comparison per element, bit for bit ``max``/``min`` on these non-NaN
    floats.  Each is an element of ``r`` or ``s``, so a carrier scalar
    already."""
    r, s = prob.r.elements, prob.s.elements
    p = _vector(tuple([x if x >= y else y for x, y in zip(r, s)]))
    q = _vector(tuple([x if x <= y else y for x, y in zip(r, s)]))
    return TwoSidedProblem(p, q, prob.g, prob.h)


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
