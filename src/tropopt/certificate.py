"""Exact optimality certificates for the solvers' answers.

Each check follows the paper's two steps.  A lower bound that holds for
every feasible x is computed from the raw problem data, as the greatest
of per-index terms that are each valid by one line of arithmetic; the
returned point must then be feasible and attain that bound.  Interval
solutions are also checked for completeness coordinate by coordinate,
against the sublevel set of the optimum, which is a box.  Every check
is a few passes over the data, so the cost is linear in the problem
size, for any real data and any dimension.  A claim that holds is
decided from exact identities: the two-sided check makes three passes
for its bound's terms, one or two for the binding and two for the box,
then compares the endpoints with the box and makes one order pass and
two or three objective passes (``solvers._endpoint_objectives``); the matrix
check makes two O(m n) passes for its bound (``q~A`` and ``A (q~A)~``;
the g-term's top is ``max(q~A + g)``), an order pass over ``x`` and one
O(m n) pass for ``A x``, which it keeps though the solver proves
attainment without it (``solvers._attainment_proved``):
``max_discrepancy`` reports ``|F(x) - mu|`` bit for bit.  Only a claim
that fails one of those identities takes the checks one by one, in
their order, for the error and the counterexample.  Failures raise
``VerificationFailedError`` with a counterexample vector; one that
would overflow raises the error that the solver raises on the data.

Like the solvers, a check is a function of a problem's data tuple and
the core's answer (``solvers.Interval`` or ``solvers.Point``), and
returns a ``Report``; ``certify(prob, sol)``, the library's front, runs
it on the classes and returns an ``OracleReport``.  The bound comes from
the raw data alone, never from the solver's values (the matrix check
computes ``q~A`` again).
``RULES`` pairs each problem class's solver, objective and feasibility
test, all from ``solvers``, with its check; an application problem
takes its reduced problem's.  ``certify`` looks the class up there, and
refuses any other; the public objectives test it as the public solvers
do (``solvers._require_problem``).

Floats are compared with the relative tolerance ``_TOL`` of
``semifield``, scaled by the magnitude of the values compared; on
integer data every value compared is exact.
"""

from __future__ import annotations

from itertools import repeat
from math import isfinite, isnan
from operator import add, itemgetter, le, sub

from .applications import ApproximationProblem, LocationProblem
from .linalg import NotColumnRegularError, ShapeMismatchError, TropVector
from .semifield import NEG_INF, POS_INF, Record, ScalarOverflowError, TropicalError, _close, _leq, _record
from .solvers import (
    BestUnderProblem, Interval, IntervalSolution, MatrixLowerProblem, Point, PointSolution,
    TwoSidedProblem, _above_g, _ax, _best_under_value, _defect, _endpoint_objectives, _halves, _in_box,
    _limit, _matrix_value, _objective, _require_column, _require_dim, _require_problem, _top_half,
    _two_sided_value, _under_p, best_under, matrix_lower, two_sided,
)


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
    its first index, an int or a ``(row, col)`` pair; the grid oracle
    leaves it ``None``."""

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
        self._init(min_value, argmin, points_evaluated, agrees_with_solver, max_discrepancy, binding)


# the outcome of a core check: ``OracleReport``'s fields, the argmin a float tuple
Report = _record("Report", "min_value argmin points_evaluated agrees_with_solver max_discrepancy binding")


def _fail(message: str, point) -> VerificationFailedError:
    """The error with the counterexample ``point``.  A coordinate that
    overflowed to +inf, or to NaN as ``inf - inf``, is the overflow that
    the solver meets on the same data, and raises its error."""
    point = tuple(point)
    if POS_INF in point or any(map(isnan, point)):
        raise ScalarOverflowError("value exceeds the float range")
    return VerificationFailedError(message, counterexample=TropVector(point))


def _check_attains(data, mu: float, value, points) -> float:
    """The largest discrepancy of the objective ``value`` from the claimed
    ``mu`` at the returned points, each of which must attain it."""
    gap = 0.0
    for x in points:
        v = value(data, x)
        if v != mu and not _close(v, mu):
            raise _fail(f"returned vector attains {v}, not the claimed {mu}", x)
        gap = max(gap, abs(v - mu))
    return gap


def _interval(data, sol: Interval) -> Report:
    # every feasible x has x_i - q_i >= each of (p_i - q_i)/2, g_i - q_i,
    # and p_i - x_i >= p_i - h_i; an absent bound is -inf or +inf
    p, q, g, h = data
    g = (NEG_INF,) * len(p) if g is None else g
    h = (POS_INF,) * len(p) if h is None else h
    # the bound is the greatest term, and the first term attaining it
    # binds at its first index attaining it; (p_i - q_i)/2 is _half's, and
    # its top is _top_half's, one pass over p - q
    top_delta, top_g, top_h = _top_half(p, q), max(map(sub, g, q)), max(map(sub, p, h))
    bound = max(top_delta, top_g, top_h)
    if top_delta == bound:
        term, values = "delta", _halves(p, q, top_delta)
    elif top_g == bound:
        term, values = "g_term", list(map(sub, g, q))
    else:
        term, values = "h_term", list(map(sub, p, h))
    index = values.index(bound)
    # {x feasible : obj(x) <= bound} is the box [lo, hi]
    # x if x >= y else y is max(x, y) on these non-NaN floats, and cheaper
    lo = tuple([x if x >= y else y for x, y in zip(map(sub, p, repeat(bound)), g)])
    hi = tuple([x if x <= y else y for x, y in zip(map(add, q, repeat(bound)), h)])

    mu, lower, upper = sol.mu, sol.lower, sol.upper
    # the claim is the bound and the box: the comprehensions give g <= lo
    # and hi <= h, so ordered endpoints are in the box, and objectives
    # close to a finite mu hold no -inf coordinate for _require_dim and
    # no +inf for _objective.  Any other claim takes the checks in order,
    # for their error and counterexample
    if bound == mu and isfinite(mu) and lower == lo and upper == hi and all(map(le, lower, upper)):
        at_lower, at_upper = _endpoint_objectives(lower, upper, q, p)
        if _close(at_lower, mu) and _close(at_upper, mu):
            gap = max(0.0, abs(at_lower - mu), abs(at_upper - mu))
            return Report((bound, lower, 2, True, gap, (term, index)))
    for x in (lower, upper):
        if not _in_box(data, x):
            raise _fail("returned interval leaves the feasible box", x)
    gap = _check_attains(data, mu, _two_sided_value, (lower, upper))
    # the claimed optimum must equal the bound, which lo attains
    if bound != mu and not _close(bound, mu):
        raise _fail(f"the optimum is {bound}, not the claimed {mu}", lo)
    # equal endpoints are close at every coordinate; only unequal ones
    # are walked with the tolerance, to find the first that is not
    if (lower, upper) != (lo, hi):
        for i in range(len(p)):
            for claimed, true in ((lower, lo), (upper, hi)):
                if not _close(claimed[i], true[i]):
                    # a returned endpoint moved to the true one: a minimizer it misses
                    point = claimed[:i] + (true[i],) + claimed[i + 1:]
                    raise _fail(
                        f"the minimizer set differs from the interval at coordinate {i}", point
                    )
    return Report((bound, lower, 2, True, max(gap, abs(bound - mu)), (term, index)))


def _matrix_bound(data) -> tuple:
    """The matrix check's bound, its binding ``(term, (row, col))`` and
    the row ``r = q~A``, from the data alone."""
    # r = q~A: obj >= (A x)_k - q_k forces x_l <= obj - r_l, so
    # (A x)_k <= obj + res_k and obj >= p_k - (A x)_k gives (p_k - res_k)/2;
    # x >= g gives obj >= (A x)_i - q_i >= a_ij - q_i + g_j for every i, j
    A, p, q, g = data
    r = [max(map(sub, col, q)) for col in zip(*A)]
    res = [max(map(sub, row, r)) for row in A]
    # adding g_j is monotone, so the greatest a_ij - q_i + g_j of column j
    # is r_j + g_j, and _top_half is the greatest (p_k - res_k)/2; an r_j
    # that overflowed to +inf makes a free column's r_j + g_j NaN, and such
    # a column bounds nothing
    g_tops = list(map(add, r, g))
    if POS_INF in r and NEG_INF in g:
        g_tops = [NEG_INF if isnan(t) else t for t in g_tops]
    top_delta, top_g = _top_half(p, res), max(g_tops)
    # the greater top binds, delta on a tie, at its first row attaining it
    # and that row's first column; the bound is that term, bit for bit
    if top_delta >= top_g:
        delta = _halves(p, res, top_delta)
        i = delta.index(top_delta)
        bound, term, index = delta[i], "delta", (i, list(map(sub, A[i], r)).index(res[i]))
    else:
        # only the columns whose top is the bound hold a term equal to it
        i, j = min(
            ([(a - qi) + g[j] for a, qi in zip(map(itemgetter(j), A), q)].index(top_g), j)
            for j, t in enumerate(g_tops) if t == top_g
        )
        bound, term, index = (A[i][j] - q[i]) + g[j], "g_term", (i, j)
    return bound, (term, index), r


def _matrix_lower(data, sol: Point) -> Report:
    bound, binding, r = _matrix_bound(data)
    mu, x = sol.mu, sol.x
    # x >= g exactly, of g's length and regular, passes the feasibility
    # test and _require_dim; its objective, of the same A x pass, is
    # finite where it is close to mu.  Any other x takes the checks in order
    A, p, q, g = data
    if bound == mu and len(x) == len(g) and NEG_INF not in x and all(map(le, g, x)):
        value = _objective(_ax(A, x), q, p)
        if _close(value, mu):
            return Report((bound, x, 1, True, abs(value - mu), binding))
    if not _above_g(data, x):
        raise _fail("returned vector violates the lower bound", x)
    gap = _check_attains(data, mu, _matrix_value, (x,))
    # the claimed optimum must equal the bound, which x_l = bound - r_l attains
    if bound != mu and not _close(bound, mu):
        raise _fail(f"the optimum is {bound}, not the claimed {mu}", [bound - rl for rl in r])
    return Report((bound, x, 1, True, max(gap, abs(bound - mu)), binding))


def _best_under(data, sol: Point) -> Report:
    # the returned x must equal the limit, the greatest feasible x, so
    # every feasible x' has A x' <= A x and a defect no smaller
    A, p = data
    mu, x = sol.mu, sol.x
    _require_dim(x, "x", len(A[0]), regular=False)
    limit = _limit(data)
    # a column with no finite entry bounds no x_l, as the solver reports
    if POS_INF in limit and (NEG_INF,) * len(A) in zip(*A):
        raise NotColumnRegularError("matrix must be column-regular")
    # an x equal to the limit is close to it at every column; only an
    # unequal one is walked with the tolerance
    if list(x) != limit:
        for l, (xl, top) in enumerate(zip(x, limit)):
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
    if value != mu and not _close(value, mu):
        raise _fail(f"returned vector attains {value}, not the claimed {mu}", x)
    binding = ("delta", (k, list(map(add, A[k], x)).index(ax[k])))
    return Report((value, x, 1, True, abs(value - mu), binding))


# per problem class: its tuple solver, the objective and the feasibility
# test at a point, which `eval` reads, and the check that `verify` runs,
# each a function of the problem's data tuple; an application problem
# keeps its reduced problem's data, and takes its rule
Rule = _record("Rule", "solve objective feasible check")
RULES = {
    TwoSidedProblem: Rule((two_sided, _two_sided_value, _in_box, _interval)),
    MatrixLowerProblem: Rule((matrix_lower, _matrix_value, _above_g, _matrix_lower)),
    BestUnderProblem: Rule((best_under, _best_under_value, _under_p, _best_under)),
}
RULES[LocationProblem] = RULES[LocationProblem.reduces_to]
RULES[ApproximationProblem] = RULES[ApproximationProblem.reduces_to]


def objective_two_sided(prob: TwoSidedProblem, x: TropVector) -> float:
    """Evaluate ``q~ x + x~ p`` at a regular column vector, for a two-sided
    or a location problem."""
    return _two_sided_value(_require_problem(prob, TwoSidedProblem), _require_column(x, "x"))


def objective_matrix(prob: MatrixLowerProblem, x: TropVector) -> float:
    """Evaluate ``q~ A x + (A x)~ p`` at a regular column vector, for a
    matrix or an approximation problem."""
    return _matrix_value(_require_problem(prob, MatrixLowerProblem), _require_column(x, "x"))


def objective_best_under(prob: BestUnderProblem, x: TropVector) -> float:
    """Evaluate the approximation defect ``(A x)~ p`` (a zero as 0.0) at a column vector."""
    return _best_under_value(_require_problem(prob, BestUnderProblem), _require_column(x, "x"))


def certify(prob, sol) -> OracleReport:
    """Prove ``sol`` optimal for any of the five problems ``prob``, or raise
    ``VerificationFailedError`` with a counterexample; a solution of the
    other shape, or another class of ``prob``, raises
    ``ShapeMismatchError``.  The report's ``argmin`` is the returned point
    that attains the certified minimum (an interval's lower endpoint)."""
    rule = RULES.get(type(prob))
    if rule is None:
        raise ShapeMismatchError(f"{type(prob).__name__} is not a problem")
    interval = rule.check is _interval
    if type(sol) is not (IntervalSolution if interval else PointSolution):
        shape = "an IntervalSolution" if interval else "a PointSolution"
        raise ShapeMismatchError(f"{type(prob).__name__} is solved by {shape}")
    points = (sol.lower, sol.upper) if interval else (sol.x,)
    answer = (sol.mu, *[v.elements for v in points], sol.delta, sol.g_term, sol.h_term)
    report = rule.check(prob._data, (Interval if interval else Point)(answer))
    return OracleReport(report.min_value, points[0], *report[2:])
