"""Exact optimality certificates for the solvers' answers.

Each check follows the paper's two steps.  A lower bound that holds for
every feasible x is computed from the raw problem data, as the greatest
of per-index terms that are each valid by one line of arithmetic; the
returned point must then be feasible and attain that bound.  Interval
solutions are also checked for completeness coordinate by coordinate,
against the sublevel set of the optimum, which is a box.  Every check
is a pass over the data, so the cost is linear in the problem size, for
any real data and any dimension.  Failures raise
``VerificationFailedError`` with a counterexample vector.  This module
holds the bounds and the proofs; the objectives and the feasibility
tests are those of ``solvers``, and ``RULES`` pairs them.

Floats are compared with the relative tolerance ``_TOL`` of
``semifield``, scaled by the magnitude of the values compared; on
integer data every value compared is exact.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import repeat
from operator import add, sub

from .linalg import TropVector
from .semifield import NEG_INF, POS_INF, Record, TropicalError, _close, _leq
from .solvers import (
    BestUnderProblem,
    IntervalSolution,
    MatrixLowerProblem,
    PointSolution,
    TwoSidedProblem,
    objective_best_under,
    objective_matrix,
    objective_two_sided,
)
from .solvers import _above_g, _ax, _defect, _in_box, _limit, _require_column, _under_p

class VerificationFailedError(TropicalError):
    """Solver output fails its optimality check."""

    reason = "verification_failed"

    def __init__(self, message: str, counterexample: TropVector | None = None):
        super().__init__(message)
        self.counterexample = counterexample


class OracleReport(Record):
    """Outcome of a check: the certified (or grid) minimum, a point
    attaining it, and how many objective evaluations were made.

    ``binding`` names the term of the bound that attains the minimum and
    the first index attaining it: an int for a vector problem, a
    ``(row, col)`` pair for a matrix problem.  The grid oracle leaves it
    ``None``.
    """

    __slots__ = (
        "min_value", "argmin", "points_evaluated", "agrees_with_solver", "max_discrepancy", "binding"
    )

    def __init__(
        self, min_value: float, argmin: TropVector, points_evaluated: int,
        agrees_with_solver: bool = True, max_discrepancy: float = 0.0,
        binding: tuple[str, int | tuple[int, int]] | None = None,
    ) -> None:
        if points_evaluated < 1:
            raise TropicalError("an oracle report must cover at least one point")
        self._set(min_value, argmin, points_evaluated, agrees_with_solver, max_discrepancy, binding)


def _fail(message: str, point) -> VerificationFailedError:
    return VerificationFailedError(message, counterexample=TropVector(tuple(point)))


def _bound(terms: dict[str, list[float]]) -> tuple[float, str, int]:
    """The greatest value over all terms, and the first term and index
    attaining it."""
    bound = max(map(max, terms.values()))
    name = next(name for name, values in terms.items() if bound in values)
    return bound, name, terms[name].index(bound)


def _check_attains(prob, sol, objective, points) -> float:
    """Evaluate the objective at each returned point; each must attain
    the claimed optimum.  Returns the largest discrepancy."""
    gap = 0.0
    for x in points:
        value = objective(prob, x)
        if not _close(value, sol.mu):
            raise _fail(f"returned vector attains {value}, not the claimed {sol.mu}", x)
        gap = max(gap, abs(value - sol.mu))
    return gap


def _check_bound(bound: float, sol, witness) -> None:
    """The claimed optimum must equal the bound; ``witness`` is a
    feasible point attaining the bound."""
    if not _close(bound, sol.mu):
        raise _fail(f"the optimum is {bound}, not the claimed {sol.mu}", witness)


def _interval(prob: TwoSidedProblem, sol: IntervalSolution) -> OracleReport:
    # every feasible x has x_i - q_i >= each of (p_i - q_i)/2, g_i - q_i,
    # and p_i - x_i >= p_i - h_i; an absent bound is -inf or +inf
    p, q = prob.p.elements, prob.q.elements
    g = (NEG_INF,) * len(p) if prob.g is None else prob.g.elements
    h = (POS_INF,) * len(p) if prob.h is None else prob.h.elements
    bound, term, index = _bound({
        "delta": [(pi - qi) / 2 for pi, qi in zip(p, q)],
        "g_term": list(map(sub, g, q)),
        "h_term": list(map(sub, p, h)),
    })
    # {x feasible : obj(x) <= bound} is the box [lo, hi]
    # x if x >= y else y is max(x, y) on these non-NaN floats, and cheaper
    lo = tuple([x if x >= y else y for x, y in zip(map(sub, p, repeat(bound)), g)])
    hi = tuple([x if x <= y else y for x, y in zip(map(add, q, repeat(bound)), h)])

    for x in (sol.lower, sol.upper):
        if not _in_box(prob, x):
            raise _fail("returned interval leaves the feasible box", x)
    gap = _check_attains(prob, sol, objective_two_sided, (sol.lower, sol.upper))
    _check_bound(bound, sol, lo)
    for i in range(len(p)):
        for claimed, true in ((sol.lower.elements, lo), (sol.upper.elements, hi)):
            if not _close(claimed[i], true[i]):
                # a returned endpoint moved to the true one: a minimizer it misses
                point = claimed[:i] + (true[i],) + claimed[i + 1:]
                raise _fail(f"the minimizer set differs from the interval at coordinate {i}", point)
    return OracleReport(
        bound, sol.lower, 2, max_discrepancy=max(gap, abs(bound - sol.mu)), binding=(term, index)
    )


def _matrix_lower(prob: MatrixLowerProblem, sol: PointSolution) -> OracleReport:
    # r = q~A: obj >= (A x)_k - q_k forces x_l <= obj - r_l, so
    # (A x)_k <= obj + res_k and obj >= p_k - (A x)_k gives (p_k - res_k)/2;
    # x >= g gives obj >= (A x)_i - q_i >= a_ij - q_i + g_j
    A, p, q, g = prob.A.entries, prob.p.elements, prob.q.elements, prob.g.elements
    r = [max(map(sub, col, q)) for col in zip(*A)]
    res = [max(map(sub, row, r)) for row in A]
    bound, term, index = _bound({
        "delta": [(pk - rk) / 2 for pk, rk in zip(p, res)],
        "g_term": [a - qi + gj for row, qi in zip(A, q) for a, gj in zip(row, g)],
    })
    if term == "delta":
        index = (index, list(map(sub, A[index], r)).index(res[index]))
    else:
        index = divmod(index, len(g))

    if not _above_g(prob, sol.x):
        raise _fail("returned vector violates the lower bound", sol.x)
    gap = _check_attains(prob, sol, objective_matrix, (sol.x,))
    # x_l = bound - r_l is feasible and attains the bound
    _check_bound(bound, sol, (bound - rl for rl in r))
    return OracleReport(
        bound, sol.x, 1, max_discrepancy=max(gap, abs(bound - sol.mu)), binding=(term, index)
    )


def _best_under(prob: BestUnderProblem, sol: PointSolution) -> OracleReport:
    # the returned x must equal the limit, the greatest feasible x, so
    # every feasible x' has A x' <= A x and a defect no smaller
    A, p, x = prob.A.entries, prob.p.elements, sol.x.elements
    _require_column(sol.x, "x", prob.A.cols)
    for l, (xl, top) in enumerate(zip(x, _limit(prob))):
        if not _leq(xl, top):
            raise _fail(f"returned vector violates A x <= p in column {l}", x)
        if not _close(xl, top):
            raise _fail(
                f"column {l} is slack: a greater vector is feasible",
                (top if j == l else xj for j, xj in enumerate(x)),
            )
    ax = _ax(A, x)
    defect = _defect(p, ax)
    value = max(defect)
    k = defect.index(value)
    if not _close(value, sol.mu):
        raise _fail(f"returned vector attains {value}, not the claimed {sol.mu}", x)
    return OracleReport(
        value, sol.x, 1, max_discrepancy=abs(value - sol.mu),
        binding=("delta", (k, list(map(add, A[k], x)).index(ax[k]))),
    )


# per core problem class, the objective and the feasibility test at a
# point, which `eval` reads, and the check that `verify` runs
Rule = namedtuple("Rule", "objective feasible check")
RULES = {
    TwoSidedProblem: Rule(objective_two_sided, _in_box, _interval),
    MatrixLowerProblem: Rule(objective_matrix, _above_g, _matrix_lower),
    BestUnderProblem: Rule(objective_best_under, _under_p, _best_under),
}


def certify(prob, sol) -> OracleReport:
    """Prove ``sol`` optimal for the two-sided, matrix or
    best-underestimator problem ``prob``, or raise
    ``VerificationFailedError`` with a counterexample.

    ``min_value`` of the report is the certified minimum, ``argmin`` the
    returned point that attains it (an interval's lower endpoint), and
    ``points_evaluated`` the number of objective evaluations.
    """
    return RULES[type(prob)].check(prob, sol)
