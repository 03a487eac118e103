"""Closed-form solvers for bounded tropical optimization.

Three problems are solved, all in direct form with no iteration:

* the two-sided bounded vector problem, minimizing ``q~ x + x~ p`` over
  ``g <= x <= h``, for which the complete minimizer set is an interval;
* the matrix problem with a lower bound, minimizing ``q~ A x + (A x)~ p``
  over ``x >= g``, which yields the optimum and one attaining vector;
* the best-underestimator problem, maximizing ``A x`` subject to
  ``A x <= p``, solved by residuation.

Here ``v~`` denotes the multiplicative conjugate transpose of ``v``.  Each
solver evaluates the paper's formulas as a few passes of ``max``, ``min``
and float arithmetic over the data's tuples, and builds only the
containers it returns.  A value computed from valid data can still
overflow; each pass whose result the formulas would hold in a container
is tested for that, and raises ``ScalarOverflowError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, sub

from .linalg import (
    NotRegularError,
    ShapeMismatchError,
    TropMatrix,
    TropVector,
    conjugate,
    mat_mul,
    max_solution_leq,
    vec_leq,
)
from .semifield import NEG_INF, POS_INF, ScalarOverflowError, TropicalError, _leq


class InfeasibleBoundsError(TropicalError):
    """Lower bound exceeds upper bound somewhere; the feasible set is empty."""

    reason = "infeasible_bounds"


class PrecisionLossError(TropicalError):
    """Rounding broke an invariant of the closed form by more than the tolerance."""

    reason = "precision_loss"


class IntervalOrderError(TropicalError):
    """A solution interval whose lower endpoint exceeds its upper one."""


def _require_regular_column(v: TropVector, name: str, dim: int | None = None) -> None:
    if v.orientation != "col":
        raise ShapeMismatchError(f"{name} must be a column vector")
    if dim is not None and v.dim != dim:
        raise ShapeMismatchError(f"{name} must have dimension {dim}, got {v.dim}")
    if not v.is_regular:
        raise NotRegularError(f"{name} must be regular (no zero elements)")


@dataclass(frozen=True)
class TwoSidedProblem:
    """Minimize ``q~ x + x~ p`` subject to ``g <= x <= h``.

    ``g`` and ``h`` are each optional; an absent bound means that side is
    unconstrained.  ``p``, ``q``, and a present ``h`` must be regular; ``g``
    may contain zero elements (a zero entry leaves that coordinate free
    from below).
    """

    p: TropVector
    q: TropVector
    g: TropVector | None = None
    h: TropVector | None = None

    def __post_init__(self) -> None:
        _require_regular_column(self.p, "p")
        _require_regular_column(self.q, "q", self.p.dim)
        n = self.p.dim
        if self.g is not None and (self.g.orientation != "col" or self.g.dim != n):
            raise ShapeMismatchError(f"g must be a column vector of dimension {n}")
        if self.h is not None:
            _require_regular_column(self.h, "h", n)
        if self.g is not None and self.h is not None and not vec_leq(self.g, self.h):
            raise InfeasibleBoundsError("lower bound g exceeds upper bound h")

    @property
    def dim(self) -> int:
        return self.p.dim


@dataclass(frozen=True)
class MatrixLowerProblem:
    """Minimize ``q~ A x + (A x)~ p`` subject to ``x >= g``.

    ``A`` must be regular in both senses and ``p``, ``q`` regular of the
    row dimension; ``g`` is an arbitrary vector of the column dimension
    and may contain zero elements (use the all-zero vector for the
    unconstrained problem).
    """

    A: TropMatrix
    p: TropVector
    q: TropVector
    g: TropVector

    def __post_init__(self) -> None:
        if not self.A.is_regular:
            raise NotRegularError("A must be row- and column-regular")
        _require_regular_column(self.p, "p", self.A.rows)
        _require_regular_column(self.q, "q", self.A.rows)
        if self.g.orientation != "col" or self.g.dim != self.A.cols:
            raise ShapeMismatchError(f"g must be a column vector of dimension {self.A.cols}")


@dataclass(frozen=True)
class BestUnderProblem:
    """Maximize ``A x`` subject to ``A x <= p``."""

    A: TropMatrix
    p: TropVector

    def __post_init__(self) -> None:
        if self.p.orientation != "col" or self.A.rows != self.p.dim:
            raise ShapeMismatchError("A and p dimensions do not conform")


def _require_finite_optimum(mu: float) -> None:
    if not math.isfinite(mu):
        raise ScalarOverflowError(f"optimum {mu!r} exceeds the float range")


@dataclass(frozen=True)
class IntervalSolution:
    """Optimum value plus the complete minimizer box [lower, upper].

    ``g_term`` and ``h_term`` are the bound-driven terms of the optimum
    (``None`` for an absent bound); they are diagnostics and take no part
    in comparisons.
    """

    mu: float
    lower: TropVector
    upper: TropVector
    delta: float
    g_term: float | None = field(default=None, compare=False)
    h_term: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        _require_finite_optimum(self.mu)
        if not vec_leq(self.lower, self.upper):
            # an upper endpoint short by no more than the tolerance is raised
            lower, upper = self.lower.elements, self.upper.elements
            if not all(map(_leq, lower, upper)):
                raise IntervalOrderError("solution interval has lower > upper")
            object.__setattr__(self, "upper", TropVector(tuple(map(max, lower, upper))))
        if not self.upper.is_regular:
            raise NotRegularError("solution interval upper endpoint must be regular")
        if not self.delta <= self.mu:
            raise TropicalError("optimum cannot be below its intrinsic bound")


@dataclass(frozen=True)
class PointSolution:
    """Optimum value plus one attaining vector, with the same diagnostic
    terms as ``IntervalSolution``."""

    mu: float
    x: TropVector
    delta: float
    g_term: float | None = field(default=None, compare=False)
    h_term: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        _require_finite_optimum(self.mu)
        if not self.x.is_regular:
            raise NotRegularError("attaining vector must be regular")


def _no_overflow(values):
    """Return computed ``values`` unless one overflowed to +inf: the test,
    and the message, of a validated container."""
    if POS_INF in values:
        raise ScalarOverflowError("value exceeds the float range")
    return values


def _objective(x, q, p) -> float:
    """``q~ x + x~ p`` over float sequences: ``max_i max(x_i - q_i, p_i - x_i)``."""
    value = max(max(map(sub, x, q)), max(map(sub, p, x)))
    return _no_overflow((value,))[0]


def objective_two_sided(prob: TwoSidedProblem, x: TropVector) -> float:
    """Evaluate ``q~ x + x~ p`` at a regular column vector."""
    _require_regular_column(x, "x", prob.dim)
    return _objective(x.elements, prob.q.elements, prob.p.elements)


def two_sided_terms(prob: TwoSidedProblem) -> dict[str, float | None]:
    """The three lower bounds whose maximum is the optimum: the intrinsic
    bound ``delta = sqrt(q~ p)``, the g-driven bound ``q~ g``, and the
    h-driven bound ``h~ p``.  Absent bounds yield ``None`` entries."""
    p, q = prob.p.elements, prob.q.elements
    return {
        "delta": 0.5 * max(map(sub, p, q)) + 0.0,
        "g_term": None if prob.g is None else max(map(sub, prob.g.elements, q)),
        "h_term": None if prob.h is None else max(map(sub, p, prob.h.elements)),
    }


def solve_two_sided(prob: TwoSidedProblem) -> IntervalSolution:
    """Solve the two-sided bounded problem in closed form.

    The optimum is ``mu = delta + q~ g + h~ p`` (terms for absent bounds
    drop out) and the minimizers are exactly the regular vectors in
    ``[mu^-1 p + g, (mu^-1 q~ + h~)~]``, again with the reduced forms
    ``mu^-1 p`` and ``mu q`` when a bound is absent.  The interval is
    never empty in exact arithmetic; one that rounding empties by more
    than the tolerance raises ``PrecisionLossError``.
    """
    terms = two_sided_terms(prob)
    mu = max(t for t in terms.values() if t is not None)
    lower = map(sub, prob.p.elements, repeat(mu))
    if prob.g is not None:
        lower = map(max, lower, prob.g.elements)
    upper = map(add, prob.q.elements, repeat(mu))
    if prob.h is not None:
        upper = map(min, upper, prob.h.elements)
    try:
        return IntervalSolution(mu, TropVector(tuple(lower)), TropVector(tuple(upper)), **terms)
    except IntervalOrderError:
        raise PrecisionLossError("rounding put lower above upper by more than the tolerance") from None


def objective_matrix(prob: MatrixLowerProblem, x: TropVector) -> float:
    """Evaluate ``q~ A x + (A x)~ p`` at a regular column vector."""
    _require_regular_column(x, "x", prob.A.cols)
    # an overflow in A x also overflows the objective
    ax = [max(map(add, row, x.elements)) for row in prob.A.entries]
    return _objective(ax, prob.q.elements, prob.p.elements)


def _q_a(prob: MatrixLowerProblem) -> list[float]:
    """The row ``q~ A``: column maxima of ``a_kl - q_k`` over one
    transposition of ``A``."""
    return _no_overflow([max(map(sub, col, prob.q.elements)) for col in zip(*prob.A.entries)])


def matrix_lower_terms(prob: MatrixLowerProblem, qa: list[float] | None = None) -> dict[str, float]:
    """The two lower bounds for the matrix problem: the intrinsic bound
    ``delta = sqrt((A (q~ A)~)~ p)`` and the g-driven bound ``q~ A g``.
    ``qa`` is the row ``q~ A``, when the caller has already computed it."""
    if qa is None:
        qa = _q_a(prob)
    # an entry of q~A that overflowed to -inf, in a column that A's
    # regularity keeps finite somewhere, makes this +inf as well
    res = _no_overflow([max(map(sub, row, qa)) for row in prob.A.entries])
    return {
        "delta": 0.5 * max(map(sub, prob.p.elements, res)) + 0.0,
        "g_term": max(map(add, qa, prob.g.elements)),
    }


def solve_matrix_lower(prob: MatrixLowerProblem) -> PointSolution:
    """Solve the lower-bounded matrix problem in closed form.

    The optimum is ``mu = delta + q~ A g`` and it is attained at
    ``x = mu (q~ A)~``, which satisfies ``x >= g`` in exact arithmetic;
    an ``x`` that rounding puts below ``g`` by more than the tolerance
    raises ``PrecisionLossError``.
    """
    qa = _q_a(prob)
    terms = matrix_lower_terms(prob, qa)
    mu = max(terms["delta"], terms["g_term"])
    sol = PointSolution(mu, TropVector(tuple(map(sub, repeat(mu), qa))), **terms)
    if not (vec_leq(prob.g, sol.x) or all(map(_leq, prob.g.elements, sol.x.elements))):
        raise PrecisionLossError("rounding put x below g by more than the tolerance")
    return sol


def best_underestimator(A: TropMatrix, p: TropVector) -> PointSolution:
    """Best approximation of ``p`` from below by ``A x``.

    Returns the residuation maximizer ``x = (p~ A)~`` together with the
    approximation defect ``mu = (A x)~ p``; no feasible regular vector
    achieves a smaller defect and none exceeds ``x`` componentwise.
    """
    x = max_solution_leq(A, p)
    ax = _no_overflow([max(map(add, row, x.elements)) for row in A.entries])
    # a row where A x is the zero element bounds nothing
    mu = max(pk - axk if axk != NEG_INF else NEG_INF for pk, axk in zip(p.elements, ax))
    return PointSolution(mu=mu, x=x, delta=0.5 * mu + 0.0)


def objective_best_under(prob: BestUnderProblem, x: TropVector) -> float:
    """Evaluate the approximation defect ``(A x)~ p`` at a column vector."""
    value = mat_mul(conjugate(mat_mul(prob.A, x)), prob.p)
    return _no_overflow((value,))[0]
