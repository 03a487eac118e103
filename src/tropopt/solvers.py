"""Closed-form solvers for bounded tropical optimization.

Three problems are solved, all in direct form with no iteration:

* the two-sided bounded vector problem, minimizing ``q~ x + x~ p`` over
  ``g <= x <= h``, for which the complete minimizer set is an interval;
* the matrix problem with a lower bound, minimizing ``q~ A x + (A x)~ p``
  over ``x >= g``, which yields the optimum and one attaining vector;
* the best-underestimator problem, maximizing ``A x`` subject to
  ``A x <= p``, solved by residuation.

Here ``v~`` denotes the multiplicative conjugate transpose of ``v``.  The
solvers use only the semifield's operations, through the vector and
matrix passes of ``linalg``, so they are valid for any shipped instance,
although the package tests pin down max-plus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .linalg import (
    NotRegularError,
    ShapeMismatchError,
    TropMatrix,
    TropVector,
    conjugate,
    mat_add,
    mat_mul,
    max_solution_leq,
    scalar_mul,
    vec_leq,
)
from .semifield import ScalarOverflowError, TropicalError


class InfeasibleBoundsError(TropicalError):
    """Lower bound exceeds upper bound somewhere; the feasible set is empty."""

    reason = "infeasible_bounds"


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
        sf = self.lower.sf
        if not vec_leq(self.lower, self.upper):
            raise TropicalError("solution interval has lower > upper")
        if not self.upper.is_regular:
            raise NotRegularError("solution interval upper endpoint must be regular")
        if not sf.leq(self.delta, self.mu):
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


def objective_two_sided(prob: TwoSidedProblem, x: TropVector) -> float:
    """Evaluate ``q~ x + x~ p`` at a regular column vector."""
    _require_regular_column(x, "x", prob.dim)
    sf = prob.p.sf
    return sf.add(mat_mul(conjugate(prob.q), x), mat_mul(conjugate(x), prob.p))


def two_sided_terms(
    prob: TwoSidedProblem, qc: TropVector | None = None
) -> dict[str, float | None]:
    """The three lower bounds whose maximum is the optimum: the intrinsic
    bound ``delta = sqrt(q~ p)``, the g-driven bound ``q~ g``, and the
    h-driven bound ``h~ p``.  Absent bounds yield ``None`` entries.
    ``qc`` is ``q~``, when the caller has already computed it."""
    sf = prob.p.sf
    if qc is None:
        qc = conjugate(prob.q)
    delta = sf.sqrt(mat_mul(qc, prob.p))
    g_term = None if prob.g is None else mat_mul(qc, prob.g)
    h_term = None if prob.h is None else mat_mul(conjugate(prob.h), prob.p)
    return {"delta": delta, "g_term": g_term, "h_term": h_term}


def solve_two_sided(prob: TwoSidedProblem) -> IntervalSolution:
    """Solve the two-sided bounded problem in closed form.

    The optimum is ``mu = delta + q~ g + h~ p`` (terms for absent bounds
    drop out) and the minimizers are exactly the regular vectors in
    ``[mu^-1 p + g, (mu^-1 q~ + h~)~]``, again with the reduced forms
    ``mu^-1 p`` and ``mu q`` when a bound is absent.
    """
    sf = prob.p.sf
    qc = conjugate(prob.q)
    terms = two_sided_terms(prob, qc)
    mu = terms["delta"]
    if terms["g_term"] is not None:
        mu = sf.add(mu, terms["g_term"])
    if terms["h_term"] is not None:
        mu = sf.add(mu, terms["h_term"])

    inv_mu = sf.inv(mu)
    lower = scalar_mul(inv_mu, prob.p)
    if prob.g is not None:
        lower = mat_add(lower, prob.g)
    if prob.h is not None:
        upper = conjugate(mat_add(scalar_mul(inv_mu, qc), conjugate(prob.h)))
    else:
        upper = scalar_mul(mu, prob.q)
    return IntervalSolution(mu, lower, upper, terms["delta"], terms["g_term"], terms["h_term"])


def objective_matrix(prob: MatrixLowerProblem, x: TropVector) -> float:
    """Evaluate ``q~ A x + (A x)~ p`` at a regular column vector."""
    _require_regular_column(x, "x", prob.A.cols)
    sf = prob.p.sf
    ax = mat_mul(prob.A, x)
    return sf.add(mat_mul(conjugate(prob.q), ax), mat_mul(conjugate(ax), prob.p))


def matrix_lower_terms(
    prob: MatrixLowerProblem, qa: TropVector | None = None
) -> dict[str, float]:
    """The two lower bounds for the matrix problem: the intrinsic bound
    ``delta = sqrt((A (q~ A)~)~ p)`` and the g-driven bound ``q~ A g``.
    ``qa`` is the row ``q~ A``, when the caller has already computed it."""
    sf = prob.p.sf
    if qa is None:
        qa = mat_mul(conjugate(prob.q), prob.A)
    residual = mat_mul(prob.A, conjugate(qa))
    delta = sf.sqrt(mat_mul(conjugate(residual), prob.p))
    return {"delta": delta, "g_term": mat_mul(qa, prob.g)}


def solve_matrix_lower(prob: MatrixLowerProblem) -> PointSolution:
    """Solve the lower-bounded matrix problem in closed form.

    The optimum is ``mu = delta + q~ A g`` and it is attained at
    ``x = mu (q~ A)~``, which automatically satisfies ``x >= g``.
    """
    sf = prob.p.sf
    qa = mat_mul(conjugate(prob.q), prob.A)
    terms = matrix_lower_terms(prob, qa)
    mu = sf.add(terms["delta"], terms["g_term"])
    x = scalar_mul(mu, conjugate(qa))
    return PointSolution(mu=mu, x=x, delta=terms["delta"], g_term=terms["g_term"])


def best_underestimator(A: TropMatrix, p: TropVector) -> PointSolution:
    """Best approximation of ``p`` from below by ``A x``.

    Returns the residuation maximizer ``x = (p~ A)~`` together with the
    approximation defect ``mu = (A x)~ p``; no feasible regular vector
    achieves a smaller defect and none exceeds ``x`` componentwise.
    """
    x = max_solution_leq(A, p)
    ax = mat_mul(A, x)
    mu = mat_mul(conjugate(ax), p)
    return PointSolution(mu=mu, x=x, delta=p.sf.sqrt(mu))
