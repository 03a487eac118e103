"""Closed-form solvers for bounded tropical optimization.

Three problems are solved, all in direct form with no iteration:

* the two-sided bounded vector problem, minimizing ``q~ x + x~ p`` over
  ``g <= x <= h``, for which the complete minimizer set is an interval;
* the matrix problem with a lower bound, minimizing ``q~ A x + (A x)~ p``
  over ``x >= g``, which yields the optimum and one attaining vector;
* the best-underestimator problem, maximizing ``A x`` subject to
  ``A x <= p``, solved by residuation.

Here ``v~`` denotes the multiplicative conjugate transpose of ``v``.  Each
solver evaluates the paper's formulas as a few passes over the data's
tuples, and builds only the containers it returns.  A reduction is a
builtin ``max`` or ``min`` over a ``map`` of float arithmetic.  The
elementwise max or min of two vectors is the comprehension
``[x if x >= y else y for x, y in zip(a, b)]`` (``<=`` for min): on
non-NaN floats it is ``max(x, y)`` (``min(x, y)``) bit for bit, signed
zeros included, at a quarter of the cost of a builtin call per element.
The data are validated when they enter the program, so a solver checks
nothing of them again.  A value computed from them can still overflow,
which ``_no_overflow``, the one test a computed vector gets, raises as
``ScalarOverflowError`` before the vector is built.
Rounding can also move a returned point off the optimum: the two-sided
and matrix solvers end by evaluating the objective at their points, and
raise ``PrecisionLossError`` unless each attains ``mu`` within the
certificate's tolerance.  Each problem's objective and feasibility test
are defined here once, for the solvers, ``eval`` and ``verify`` alike;
``certificate.RULES`` pairs them with the proofs.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, le, sub

from .linalg import (
    NotRegularError,
    ShapeMismatchError,
    TropMatrix,
    TropVector,
    ZeroVectorError,
    _no_overflow,
    _vector,
    max_solution_leq,
    vec_leq,
)
from .semifield import NEG_INF, POS_INF, Record, ScalarOverflowError, TropicalError, _close, _leq, _store


class InfeasibleBoundsError(TropicalError):
    """Lower bound exceeds upper bound somewhere; the feasible set is empty."""

    reason = "infeasible_bounds"


class PrecisionLossError(TropicalError):
    """Rounding broke an invariant of the closed form by more than the tolerance."""

    reason = "precision_loss"


def _require_column(v: TropVector, name: str, dim: int | None = None, regular: bool = False) -> None:
    if v.orientation != "col":
        raise ShapeMismatchError(f"{name} must be a column vector")
    if dim is not None and len(v.elements) != dim:
        raise ShapeMismatchError(f"{name} must have dimension {dim}, got {len(v.elements)}")
    if regular and NEG_INF in v.elements:
        raise NotRegularError(f"{name} must be regular (no zero elements)")


class TwoSidedProblem(Record):
    """Minimize ``q~ x + x~ p`` subject to ``g <= x <= h``.

    ``g`` and ``h`` are each optional; an absent bound means that side is
    unconstrained.  ``p``, ``q``, and a present ``h`` must be regular; ``g``
    may contain zero elements (a zero entry leaves that coordinate free
    from below).
    """

    __slots__ = ("p", "q", "g", "h")

    def __init__(
        self, p: TropVector, q: TropVector, g: TropVector | None = None, h: TropVector | None = None
    ) -> None:
        _require_column(p, "p", regular=True)
        n = len(p.elements)
        _require_column(q, "q", n, regular=True)
        if g is not None and (g.orientation != "col" or len(g.elements) != n):
            raise ShapeMismatchError(f"g must be a column vector of dimension {n}")
        if h is not None:
            _require_column(h, "h", n, regular=True)
        # both bounds are columns of dimension n by now
        if g is not None and h is not None and not all(map(le, g.elements, h.elements)):
            raise InfeasibleBoundsError("lower bound g exceeds upper bound h")
        _store(self, "p", p)
        _store(self, "q", q)
        _store(self, "g", g)
        _store(self, "h", h)

    @property
    def dim(self) -> int:
        return self.p.dim


class MatrixLowerProblem(Record):
    """Minimize ``q~ A x + (A x)~ p`` subject to ``x >= g``.

    ``A`` must be regular in both senses and ``p``, ``q`` regular of the
    row dimension; ``g`` is an arbitrary vector of the column dimension
    and may contain zero elements (use the all-zero vector for the
    unconstrained problem).
    """

    __slots__ = ("A", "p", "q", "g")

    def __init__(self, A: TropMatrix, p: TropVector, q: TropVector, g: TropVector) -> None:
        if not A.is_regular:
            raise NotRegularError("A must be row- and column-regular")
        m = len(A.entries)
        _require_column(p, "p", m, regular=True)
        _require_column(q, "q", m, regular=True)
        if g.orientation != "col" or len(g.elements) != len(A.entries[0]):
            raise ShapeMismatchError(f"g must be a column vector of dimension {A.cols}")
        _store(self, "A", A)
        _store(self, "p", p)
        _store(self, "q", q)
        _store(self, "g", g)


class BestUnderProblem(Record):
    """Maximize ``A x`` subject to ``A x <= p``."""

    __slots__ = ("A", "p")

    def __init__(self, A: TropMatrix, p: TropVector) -> None:
        if p.orientation != "col" or len(A.entries) != len(p.elements):
            raise ShapeMismatchError("A and p dimensions do not conform")
        _store(self, "A", A)
        _store(self, "p", p)


def _require_finite_optimum(mu: float) -> None:
    if not math.isfinite(mu):
        raise ScalarOverflowError(f"optimum {mu!r} exceeds the float range")


class IntervalSolution(Record):
    """Optimum value plus the complete minimizer box [lower, upper], which
    must hold ``lower <= upper`` exactly: the constructor repairs nothing.

    ``g_term`` and ``h_term``, the bound-driven terms of the optimum
    (``None`` for an absent bound), are diagnostics outside comparisons.
    """

    __slots__ = ("mu", "lower", "upper", "delta", "g_term", "h_term")
    _compare = ("mu", "lower", "upper", "delta")

    def __init__(
        self, mu: float, lower: TropVector, upper: TropVector, delta: float,
        g_term: float | None = None, h_term: float | None = None,
    ) -> None:
        _require_finite_optimum(mu)
        if not vec_leq(lower, upper):
            raise TropicalError("solution interval has lower > upper")
        self._fill(mu, lower, upper, delta, g_term, h_term)

    @classmethod
    def _ordered(cls, mu, lower, upper, delta, g_term=None, h_term=None) -> "IntervalSolution":
        """The solution for endpoints that the caller has already found in
        order, ``lower <= upper``: every other check of ``__init__``."""
        _require_finite_optimum(mu)
        sol = object.__new__(cls)
        sol._fill(mu, lower, upper, delta, g_term, h_term)
        return sol

    def _fill(self, mu, lower, upper, delta, g_term, h_term) -> None:
        if NEG_INF in upper.elements:
            raise NotRegularError("solution interval upper endpoint must be regular")
        if not delta <= mu:
            raise TropicalError("optimum cannot be below its intrinsic bound")
        _store(self, "mu", mu)
        _store(self, "lower", lower)
        _store(self, "upper", upper)
        _store(self, "delta", delta)
        _store(self, "g_term", g_term)
        _store(self, "h_term", h_term)


class PointSolution(Record):
    """Optimum value plus one attaining vector, with the same diagnostic
    terms as ``IntervalSolution``."""

    __slots__ = ("mu", "x", "delta", "g_term", "h_term")
    _compare = ("mu", "x", "delta")

    def __init__(
        self, mu: float, x: TropVector, delta: float,
        g_term: float | None = None, h_term: float | None = None,
    ) -> None:
        _require_finite_optimum(mu)
        if NEG_INF in x.elements:
            raise NotRegularError("attaining vector must be regular")
        _store(self, "mu", mu)
        _store(self, "x", x)
        _store(self, "delta", delta)
        _store(self, "g_term", g_term)
        _store(self, "h_term", h_term)


def _objective(x, q, p) -> float:
    """``q~ x + x~ p`` over float sequences: ``max_i max(x_i - q_i, p_i - x_i)``."""
    value = max(max(map(sub, x, q)), max(map(sub, p, x)))
    if value == POS_INF:
        raise ScalarOverflowError("value exceeds the float range")
    return value


def _ax(A, x) -> list[float]:
    """``A x`` over the tuples of ``A``'s rows and of ``x``, one pass per row."""
    return _no_overflow([max(map(add, row, x)) for row in A])


def _defect(p, ax) -> list[float]:
    """``p_k - (A x)_k`` per row; a row where ``A x`` is -inf bounds nothing."""
    return [pk - axk if axk != NEG_INF else NEG_INF for pk, axk in zip(p, ax)]


def _require_attained(mu: float, what: str, value: float) -> None:
    """Raise ``PrecisionLossError`` unless ``value`` is ``_close`` to ``mu``."""
    if not _close(value, mu):
        raise PrecisionLossError(
            f"rounding made {what} attain {value}, not the optimum {mu}, "
            "by more than the tolerance"
        )


def objective_two_sided(prob: TwoSidedProblem, x: TropVector) -> float:
    """Evaluate ``q~ x + x~ p`` at a regular column vector."""
    p = prob.p.elements
    _require_column(x, "x", len(p), regular=True)
    return _objective(x.elements, prob.q.elements, p)


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
    ``mu^-1 p`` and ``mu q`` when a bound is absent.  In exact arithmetic
    the interval is never empty and both endpoints attain ``mu``.  Each
    is compared exactly first, then with the certificate's tolerance: an
    upper endpoint below the lower one by no more than the tolerance is
    raised to it, and a greater shortfall, or an endpoint whose objective
    rounding moves off ``mu``, raises ``PrecisionLossError``.
    """
    terms = two_sided_terms(prob)
    delta, g_term, h_term = terms["delta"], terms["g_term"], terms["h_term"]
    # an absent bound's term is None, and -inf leaves the max as it is
    mu = max(delta, NEG_INF if g_term is None else g_term, NEG_INF if h_term is None else h_term)
    p, q = prob.p.elements, prob.q.elements
    lower = map(sub, p, repeat(mu))
    if prob.g is not None:
        lower = [x if x >= y else y for x, y in zip(lower, prob.g.elements)]
    upper = map(add, q, repeat(mu))
    if prob.h is not None:
        upper = [x if x <= y else y for x, y in zip(upper, prob.h.elements)]
    lower, upper = _no_overflow(tuple(lower)), _no_overflow(tuple(upper))
    if not all(map(le, lower, upper)):
        if not all(map(_leq, lower, upper)):
            raise PrecisionLossError("rounding put lower above upper by more than the tolerance")
        upper = tuple([x if x >= y else y for x, y in zip(lower, upper)])
    sol = IntervalSolution._ordered(mu, _vector(lower), _vector(upper), delta, g_term, h_term)
    _require_attained(mu, "an endpoint", _objective(lower, q, p))
    _require_attained(mu, "an endpoint", _objective(upper, q, p))
    return sol


def objective_matrix(prob: MatrixLowerProblem, x: TropVector) -> float:
    """Evaluate ``q~ A x + (A x)~ p`` at a regular column vector."""
    A = prob.A.entries
    _require_column(x, "x", len(A[0]), regular=True)
    return _objective(_ax(A, x.elements), prob.q.elements, prob.p.elements)


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
    ``x = mu (q~ A)~``, which satisfies ``x >= g`` in exact arithmetic.
    An ``x`` that rounding puts below ``g``, or off ``mu`` (one more pass
    over ``A``), by more than the tolerance raises ``PrecisionLossError``.
    """
    qa = _q_a(prob)
    terms = matrix_lower_terms(prob, qa)
    delta, g_term = terms["delta"], terms["g_term"]
    mu = max(delta, g_term)
    sol = PointSolution(mu, _vector(_no_overflow(tuple(map(sub, repeat(mu), qa)))), delta, g_term)
    if not _above_g(prob, sol.x):
        raise PrecisionLossError("rounding put x below g by more than the tolerance")
    _require_attained(mu, "x", objective_matrix(prob, sol.x))
    return sol


def best_underestimator(A: TropMatrix, p: TropVector) -> PointSolution:
    """Best approximation of ``p`` from below by ``A x``.

    Returns the residuation maximizer ``x = (p~ A)~`` together with the
    approximation defect ``mu = (A x)~ p``; no feasible regular vector
    achieves a smaller defect and none exceeds ``x`` componentwise.
    """
    x = max_solution_leq(A, p)
    mu = max(_defect(p.elements, _ax(A.entries, x.elements)))
    return PointSolution(mu, x, 0.5 * mu + 0.0)


def objective_best_under(prob: BestUnderProblem, x: TropVector) -> float:
    """Evaluate the approximation defect ``(A x)~ p`` (a zero as 0.0) at a column vector."""
    A = prob.A.entries
    _require_column(x, "x", len(A[0]))
    ax = _ax(A, x.elements)
    if ax.count(NEG_INF) == len(ax):
        raise ZeroVectorError("the zero vector has no conjugate")
    value = max(_defect(prob.p.elements, ax)) + 0.0
    if value == POS_INF:
        raise ScalarOverflowError("value exceeds the float range")
    return value


# the feasibility tests, which `solve`, `eval` and `verify` share, compare
# exactly first, then within the tolerance; an absent bound bounds nothing
def _all_leq(a, b) -> bool:
    return all(map(le, a, b)) or all(map(_leq, a, b))


def _in_box(prob: TwoSidedProblem, x: TropVector) -> bool:
    above = prob.g is None or _all_leq(prob.g.elements, x.elements)
    return above and (prob.h is None or _all_leq(x.elements, prob.h.elements))


def _above_g(prob: MatrixLowerProblem, x: TropVector) -> bool:
    return _all_leq(prob.g.elements, x.elements)


def _limit(prob: BestUnderProblem) -> list[float]:
    """The greatest ``x`` with ``A x <= p``: ``x_l = min_k(p_k - a_kl)`` over
    the ``a_kl > -inf`` (an ``a_kl = -inf`` bounds nothing), else ``+inf``."""
    return [min((pk - a for pk, a in zip(prob.p.elements, col) if a != NEG_INF), default=POS_INF)
            for col in zip(*prob.A.entries)]


def _under_p(prob: BestUnderProblem, x: TropVector) -> bool:
    return _all_leq(x.elements, _limit(prob))
