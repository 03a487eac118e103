"""Closed-form solvers for bounded tropical optimization.

Three problems are solved, all in direct form with no iteration:

* the two-sided bounded vector problem, minimizing ``q~ x + x~ p`` over
  ``g <= x <= h``, for which the complete minimizer set is an interval;
* the matrix problem with a lower bound, minimizing ``q~ A x + (A x)~ p``
  over ``x >= g``, which yields the optimum and one attaining vector;
* the best-underestimator problem, maximizing ``A x`` subject to
  ``A x <= p``, solved by residuation.

Here ``v~`` denotes the multiplicative conjugate transpose of ``v``.

The core is plain functions of float tuples.  A problem's data are one
tuple: ``(p, q, g, h)`` (an absent bound is ``None``), ``(A, p, q, g)`` or
``(A, p)``, with ``A`` as the tuple of its rows; a pass over its columns
iterates ``zip(*A)``, which holds one column at a time.  The data
functions ``two_sided_data``, ``matrix_data`` and ``best_under_data``
check them in the problem classes' order, and ``two_sided``,
``matrix_lower`` and ``best_under`` solve them into an ``Interval`` or a
``Point``.  The commands call only these.  The problem and solution
classes are the library's front: a problem's constructor takes column
``TropVector``s and a ``TropMatrix`` ``A``, and checks them through
``_enter`` with its kind's data function, whose data it keeps in
``_data``; ``solve_two_sided(prob)`` and the others test the problem's
class (``_require_problem``) and run the core on them.

Each solver is a few passes of builtin ``max``/``min`` over ``map``s of
float arithmetic.  The elementwise max of two vectors is the
comprehension ``[x if x >= y else y for x, y in zip(a, b)]`` (``<=`` for
min), ``max(x, y)`` bit for bit on non-NaN floats at a quarter of the
cost of a call per element.  The data are validated where they enter;
a computed value can still overflow, which ``_no_overflow`` raises as
``ScalarOverflowError``, and rounding can move a returned point off the
optimum, which ``PrecisionLossError`` reports.  A difference halved is
halved first where the difference alone leaves the float range
(``_half``).  Rounding is monotone, which saves passes: the two-sided
answer's ordered endpoints bound each other's objective
(``_endpoint_objectives``), and the matrix answer's objective is within
``3 ulp(4 M)`` of ``mu``, ``M`` the greatest magnitude in play, so an
O(m + n) bound proves that it attains ``mu`` wherever that is within the
tolerance; the O(m n) ``A x`` pass runs only where the bound proves
nothing (``_attainment_proved``).  Each objective and feasibility test
is defined here once, for ``solve``, ``eval`` and ``verify``;
``certificate.RULES`` pairs them with the proofs, and the public
objectives, which test a problem's class as the public solvers do, are
in ``certificate``.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, le, sub

from .linalg import (
    NotRegularError, ShapeMismatchError, TropMatrix, TropVector, ZeroVectorError, _no_overflow,
    _residuate, _vector, vec_leq,
)
from .semifield import (
    NEG_INF, POS_INF, Record, ScalarOverflowError, TropicalError, _TOL, _close, _leq, _record, _store,
    check,
)


class InfeasibleBoundsError(TropicalError):
    """Lower bound exceeds upper bound somewhere; the feasible set is empty."""

    reason = "infeasible_bounds"


class PrecisionLossError(TropicalError):
    """Rounding broke an invariant of the closed form by more than the tolerance."""

    reason = "precision_loss"


# the core's answers, None for an absent bound's term
Interval = _record("Interval", "mu lower upper delta g_term h_term")
Point = _record("Point", "mu x delta g_term h_term")


def _require_column(v: TropVector, name: str) -> tuple[float, ...]:
    if not isinstance(v, TropVector) or v.orientation != "col":
        raise ShapeMismatchError(f"{name} must be a column vector")
    return v.elements


def _enter(prob: Record, data, *values) -> None:
    """Check ``values``, the arguments of ``prob``'s fields in order, and
    store them, with ``_data = data(*elements)``: ``A`` must be a
    ``TropMatrix`` and any other a column ``TropVector``, and only a field
    with a default may be None.  ``data`` is the kind's data function,
    the one that ``cli._KINDS`` calls."""
    elements = [
        None if v is None and i >= prob._required
        else _require_matrix(v) if name == "A" else _require_column(v, name)
        for i, (name, v) in enumerate(zip(prob._fields, values))
    ]
    _store(prob, "_data", data(*elements))
    prob._init(*values)


def _require_matrix(A: TropMatrix) -> tuple:
    if not isinstance(A, TropMatrix):
        raise ShapeMismatchError("A must be a matrix")
    return A.entries


def _require_problem(prob, cls) -> tuple:
    """``prob``'s data, where ``prob`` is a ``cls`` or an application
    problem that reduces to one (its class's ``reduces_to``); any other
    value raises ``ShapeMismatchError``, which names its class and those
    accepted."""
    if cls not in (type(prob), getattr(type(prob), "reduces_to", None)):
        accepted = " or ".join(
            c.__name__ for c in Record.__subclasses__() if cls in (c, getattr(c, "reduces_to", None))
        )
        article = "an" if accepted[0] in "AEIOU" else "a"
        raise ShapeMismatchError(f"{type(prob).__name__} is not {article} {accepted}")
    return prob._data


def _require_dim(v: tuple, name: str, dim: int, regular: bool = True) -> None:
    if len(v) != dim:
        raise ShapeMismatchError(f"{name} must have dimension {dim}, got {len(v)}")
    if regular and NEG_INF in v:
        raise NotRegularError(f"{name} must be regular (no zero elements)")


def two_sided_data(p, q, g=None, h=None) -> tuple:
    """Check the two-sided problem's float tuples; returns its data."""
    if NEG_INF in p:
        raise NotRegularError("p must be regular (no zero elements)")
    _require_dim(q, "q", len(p))
    _require_box(len(p), g, h)
    return p, q, g, h


def _require_box(n: int, g, h) -> None:
    """The box checks of ``two_sided_data``: ``g`` and a regular ``h`` of
    dimension ``n``, with ``g <= h``; an absent bound is None."""
    if g is not None and len(g) != n:
        raise ShapeMismatchError(f"g must be a column vector of dimension {n}")
    if h is not None:
        _require_dim(h, "h", n)
        # both bounds have dimension n by now
        if g is not None and not all(map(le, g, h)):
            raise InfeasibleBoundsError("lower bound g exceeds upper bound h")


def matrix_data(A, p, q, g) -> tuple:
    """Check the matrix problem's rows of ``A`` and float tuples; returns its data."""
    if (NEG_INF,) * len(A[0]) in A or (NEG_INF,) * len(A) in zip(*A):
        raise NotRegularError("A must be row- and column-regular")
    _require_dim(p, "p", len(A))
    _require_dim(q, "q", len(A))
    if len(g) != len(A[0]):
        raise ShapeMismatchError(f"g must be a column vector of dimension {len(A[0])}")
    return A, p, q, g


def best_under_data(A, p) -> tuple:
    """Check that ``A``'s rows and ``p`` conform; returns the data."""
    if len(A) != len(p):
        raise ShapeMismatchError("A and p dimensions do not conform")
    return A, p


class TwoSidedProblem(Record):
    """Minimize ``q~ x + x~ p`` subject to ``g <= x <= h``, either bound
    optional.  ``p``, ``q`` and ``h`` must be regular; a zero element of
    ``g`` leaves that coordinate free from below."""

    __slots__ = ("p", "q", "g", "h", "_data")

    def __init__(
        self, p: TropVector, q: TropVector, g: TropVector | None = None, h: TropVector | None = None
    ) -> None:
        _enter(self, two_sided_data, p, q, g, h)

    @property
    def dim(self) -> int:
        return self.p.dim


class MatrixLowerProblem(Record):
    """Minimize ``q~ A x + (A x)~ p`` subject to ``x >= g``.  ``A`` must be
    row- and column-regular and ``p``, ``q`` regular; ``g`` may hold zero
    elements (the all-zero vector leaves ``x`` unconstrained)."""

    __slots__ = ("A", "p", "q", "g", "_data")

    def __init__(self, A: TropMatrix, p: TropVector, q: TropVector, g: TropVector) -> None:
        _enter(self, matrix_data, A, p, q, g)


class BestUnderProblem(Record):
    """Maximize ``A x`` subject to ``A x <= p``."""

    __slots__ = ("A", "p", "_data")

    def __init__(self, A: TropMatrix, p: TropVector) -> None:
        _enter(self, best_under_data, A, p)


def _require_finite_optimum(mu: float) -> None:
    if not math.isfinite(mu):
        raise ScalarOverflowError(f"optimum {mu!r} exceeds the float range")


def _solution_scalars(mu, delta, *terms) -> tuple:
    """A solution's ``mu``, ``delta`` and bound-driven ``terms`` as floats,
    each checked by ``semifield.check`` (a term may be None), and ``mu``
    finite.  A float ``+inf`` ``mu`` skips ``check``, so that the finite
    test names it as the optimum."""
    mu = mu if isinstance(mu, float) and mu == POS_INF else check(mu)
    delta = check(delta)
    _require_finite_optimum(mu)
    return (mu, delta, *[None if t is None else check(t) for t in terms])


def _interval_checks(mu: float, upper: tuple, delta: float) -> None:
    """The checks of an interval solution but ``lower <= upper``."""
    _require_finite_optimum(mu)
    if NEG_INF in upper:
        raise NotRegularError("solution interval upper endpoint must be regular")
    if not delta <= mu:
        raise TropicalError("optimum cannot be below its intrinsic bound")


def _point_checks(mu: float, x: tuple) -> None:
    _require_finite_optimum(mu)
    if NEG_INF in x:
        raise NotRegularError("attaining vector must be regular")


class IntervalSolution(Record):
    """Optimum value plus the complete minimizer box [lower, upper] of
    column vectors, with ``lower <= upper`` exactly.  ``mu`` and
    ``delta`` are checked scalars, stored as floats, and ``mu`` is finite.
    ``g_term`` and ``h_term``, the optimum's bound-driven terms (``None``
    for an absent bound), are checked and stored alike, and are
    diagnostics outside comparisons."""

    __slots__ = ("mu", "lower", "upper", "delta", "g_term", "h_term")
    _compare = ("mu", "lower", "upper", "delta")

    def __init__(
        self, mu: float, lower: TropVector, upper: TropVector, delta: float,
        g_term: float | None = None, h_term: float | None = None,
    ) -> None:
        mu, delta, g_term, h_term = _solution_scalars(mu, delta, g_term, h_term)
        _require_column(lower, "lower")
        _require_column(upper, "upper")
        if not vec_leq(lower, upper):
            raise TropicalError("solution interval has lower > upper")
        _interval_checks(mu, upper.elements, delta)
        self._init(mu, lower, upper, delta, g_term, h_term)


class PointSolution(Record):
    """Optimum value plus one attaining column vector, with the same checks
    of ``mu``, ``delta`` and the diagnostic terms as ``IntervalSolution``."""

    __slots__ = ("mu", "x", "delta", "g_term", "h_term")
    _compare = ("mu", "x", "delta")

    def __init__(
        self, mu: float, x: TropVector, delta: float,
        g_term: float | None = None, h_term: float | None = None,
    ) -> None:
        mu, delta, g_term, h_term = _solution_scalars(mu, delta, g_term, h_term)
        _point_checks(mu, _require_column(x, "x"))
        self._init(mu, x, delta, g_term, h_term)


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
    if value != mu and not _close(value, mu):
        message = f"rounding made {what} attain {value}, not the optimum {mu}, by more than the tolerance"
        raise PrecisionLossError(message)


# the objectives at a float tuple x, which they check first
def _two_sided_value(data, x) -> float:
    _require_dim(x, "x", len(data[0]))
    return _objective(x, data[1], data[0])


def _matrix_value(data, x) -> float:
    A, p, q, _ = data
    _require_dim(x, "x", len(A[0]))
    return _objective(_ax(A, x), q, p)


def _best_under_value(data, x) -> float:
    """The approximation defect ``(A x)~ p``, a zero as 0.0."""
    A, p = data
    _require_dim(x, "x", len(A[0]), regular=False)
    ax = _ax(A, x)
    if ax.count(NEG_INF) == len(ax):
        raise ZeroVectorError("the zero vector has no conjugate")
    value = max(_defect(p, ax)) + 0.0
    if value == POS_INF:
        raise ScalarOverflowError("value exceeds the float range")
    return value


# the feasibility tests, which `solve`, `eval` and `verify` share, compare
# exactly first, then within the tolerance; an absent bound bounds nothing
def _all_leq(a, b) -> bool:
    return all(map(le, a, b)) or all(map(_leq, a, b))


def _in_box(data, x) -> bool:
    g, h = data[2], data[3]
    return (g is None or _all_leq(g, x)) and (h is None or _all_leq(x, h))


def _above_g(data, x) -> bool:
    return _all_leq(data[3], x)


def _limit(data) -> list[float]:
    """The greatest ``x`` with ``A x <= p``: ``x_l = min_k(p_k - a_kl)`` over
    the ``a_kl > -inf`` (an ``a_kl = -inf`` bounds nothing), else ``+inf``.
    Only a column that holds ``-inf`` is filtered, since a ``-inf`` ``p_k``
    against a ``-inf`` entry gives NaN; any other column is one ``map``."""
    A, p = data
    return [
        min(map(sub, p, col)) if NEG_INF not in col
        else min((pk - a for pk, a in zip(p, col) if a != NEG_INF), default=POS_INF)
        for col in zip(*A)
    ]


def _under_p(data, x) -> bool:
    return _all_leq(x, _limit(data))


def _half(a: float, b: float) -> float:
    """``(a - b) / 2``; where ``a - b`` leaves the float range, ``a/2 - b/2``,
    which may not."""
    d = a - b
    return d / 2 if abs(d) != POS_INF else a / 2 - b / 2


def _top_half(p, q) -> float:
    """The greatest ``_half(p_k, q_k)``.  Halving is monotone, so it is the
    greatest ``p_k - q_k`` halved, bit for bit, where that is finite; only
    an infinite one is taken again element by element by ``_half``."""
    top = max(map(sub, p, q))
    return top / 2 if abs(top) != POS_INF else max(map(_half, p, q))


def _halves(p, q, top: float) -> list[float]:
    """Halves of ``p_k - q_k`` that hold ``top = _top_half(p, q)`` first
    where ``_half`` does, at the same value: each difference halved, in
    one pass, which holds a finite ``top`` unless a difference left the
    float range upward (one that left it downward is below ``top`` as
    ``-inf`` and as ``_half``); only then, or for an infinite ``top``,
    ``_half`` of each."""
    halves = [(a - b) / 2 for a, b in zip(p, q)]
    return halves if math.isfinite(top) and top in halves else list(map(_half, p, q))


def _two_sided_terms(data) -> tuple:
    """The intrinsic bound ``delta = sqrt(q~ p)``, the g-driven bound
    ``q~ g`` and the h-driven bound ``h~ p``; None for an absent bound."""
    p, q, g, h = data
    return (
        _top_half(p, q) + 0.0,
        None if g is None else max(map(sub, g, q)),
        None if h is None else max(map(sub, p, h)),
    )


def two_sided(data) -> Interval:
    """Solve the two-sided bounded problem in closed form.

    The optimum is ``mu = delta + q~ g + h~ p`` (terms for absent bounds
    drop out) and the minimizers are exactly the regular vectors in
    ``[mu^-1 p + g, (mu^-1 q~ + h~)~]``.  An upper endpoint below the
    lower one by no more than the tolerance is raised to it; a greater
    shortfall, or an endpoint off ``mu``, raises ``PrecisionLossError``.
    Endpoints that are ordered and attain a finite ``mu`` are returned
    after one order pass and two or three objective passes
    (``_endpoint_objectives``); only other endpoints take the checks one
    by one, for their error or the repair.
    """
    p, q, g, h = data
    delta, g_term, h_term = _two_sided_terms(data)
    # an absent bound's term is None, and -inf leaves the max as it is
    mu = max(delta, NEG_INF if g_term is None else g_term, NEG_INF if h_term is None else h_term)
    lower = map(sub, p, repeat(mu))
    if g is not None:
        lower = [x if x >= y else y for x, y in zip(lower, g)]
    upper = map(add, q, repeat(mu))
    if h is not None:
        upper = [x if x <= y else y for x, y in zip(upper, h)]
    lower, upper = tuple(lower), tuple(upper)
    # ordered endpoints whose objectives are close to a finite mu pass
    # every check below: a +inf in upper shows in max(upper - q), one in
    # lower is in upper too, and a -inf in upper is in lower too, where it
    # shows in max(p - lower).  Any other answer takes them in order
    if math.isfinite(mu) and delta <= mu and all(map(le, lower, upper)):
        at_lower, at_upper = _endpoint_objectives(lower, upper, q, p)
        if _close(at_lower, mu) and _close(at_upper, mu):
            return Interval((mu, lower, upper, delta, g_term, h_term))
    if POS_INF in lower or POS_INF in upper:
        raise ScalarOverflowError("value exceeds the float range")
    if not all(map(le, lower, upper)):
        if not all(map(_leq, lower, upper)):
            raise PrecisionLossError("rounding put lower above upper by more than the tolerance")
        upper = tuple([x if x >= y else y for x, y in zip(lower, upper)])
    _interval_checks(mu, upper, delta)
    _require_endpoints_attain(mu, lower, upper, q, p)
    return Interval((mu, lower, upper, delta, g_term, h_term))


def _require_endpoints_attain(mu: float, lower, upper, q, p) -> None:
    """``_require_attained`` at ``lower``, then at ``upper``, each after
    ``_objective``'s overflow test, for ``lower <= upper`` exactly."""
    for value in _endpoint_objectives(lower, upper, q, p):
        if value == POS_INF:
            raise ScalarOverflowError("value exceeds the float range")
        _require_attained(mu, "an endpoint", value)


def _endpoint_objectives(lower, upper, q, p) -> tuple[float, float]:
    """``_objective`` at ``lower`` and at ``upper``, bit for bit, for
    ``lower <= upper`` exactly, in two passes where the tops agree and
    three where they differ.

    Rounding is monotone, so ``max(lower - q) <= max(upper - q)`` and
    ``max(p - upper) <= max(p - lower)``: the greater of the tops
    ``max(upper - q)`` and ``max(p - lower)`` is the objective at its own
    endpoint, and equal tops are the objective at both.  ``max`` keeps
    the first of equal values, so a zero top needs the third pass too,
    for the sign that ``max`` would give lower's value.
    """
    top_up, top_lo = max(map(sub, upper, q)), max(map(sub, p, lower))
    if top_up >= top_lo:
        if top_up == top_lo and top_lo:
            return top_lo, top_up
        return max(max(map(sub, lower, q)), top_lo), top_up
    return top_lo, max(top_up, max(map(sub, p, upper)))


def _q_a(data) -> list[float]:
    """The row ``q~ A``: column maxima of ``a_kl - q_k``."""
    A, _, q, _ = data
    return _no_overflow([max(map(sub, col, q)) for col in zip(*A)])


def _matrix_terms(data, qa) -> tuple:
    """The intrinsic bound ``delta = sqrt((A (q~ A)~)~ p)``, the g-driven
    bound ``q~ A g`` and the column ``res = A (q~ A)~``, from the row
    ``qa = q~ A``."""
    A, p, _, g = data
    # an entry of q~A that overflowed to -inf, in a column that A's
    # regularity keeps finite somewhere, makes this +inf as well
    res = _no_overflow([max(map(sub, row, qa)) for row in A])
    return _top_half(p, res) + 0.0, max(map(add, qa, g)), res


def _attainment_proved(mu: float, qa, res, p, q) -> bool:
    """Whether rounding provably keeps the objective at ``x = mu - qa``
    within the tolerance of ``mu``, so that the ``A x`` pass of the
    attainment check cannot fail; O(m + n), no pass over ``A``.

    Rounding is monotone, so it commutes with ``max``: ``(A x)_k`` is
    ``max_l(a_kl + x_l)`` and ``res_k`` is ``max_l(a_kl - qa_l)``, each
    rounded once, and ``x_l`` is ``mu - qa_l`` within half an ulp.  So
    ``max_k(res_k - q_k)`` is within an ulp of 0, ``p_k - res_k`` is at
    most ``2 delta <= 2 mu`` plus half an ulp, and the objective is within
    ``3 ulp(4 M)`` of ``mu``, ``M`` the greatest of ``|mu|``, ``|qa|``,
    ``|res|``, ``|p|`` and ``|q|``; a ``-inf`` entry of ``A`` leaves every
    max as it is.  Where that is within the tolerance, the objective is
    finite and ``_close`` to ``mu``.  An ``M`` whose ``4 M`` overflows
    proves nothing.  No NaN gets here: a ``qa_l`` of ``-inf`` has made
    ``x_l`` overflow already.
    """
    M = max(abs(mu), max(map(abs, qa)), max(map(abs, res)), max(map(abs, p)), max(map(abs, q)))
    return 3 * math.ulp(4 * M) <= _TOL * max(1.0, abs(mu))


def matrix_lower(data) -> Point:
    """Solve the lower-bounded matrix problem in closed form: the optimum
    ``mu = delta + q~ A g`` is attained at ``x = mu (q~ A)~``.  An ``x``
    that rounding puts below ``g``, or off ``mu``, by more than the
    tolerance raises ``PrecisionLossError``.  The objective at ``x`` is
    an O(m n) pass over ``A``, made only where ``_attainment_proved``'s
    O(m + n) rounding bound cannot prove that it attains ``mu``: on
    integer data of moderate size the solve makes two passes over ``A``,
    ``q~ A`` and ``A (q~ A)~``."""
    qa = _q_a(data)
    delta, g_term, res = _matrix_terms(data, qa)
    mu = max(delta, g_term)
    x = _no_overflow(tuple(map(sub, repeat(mu), qa)))
    _point_checks(mu, x)
    if not _above_g(data, x):
        raise PrecisionLossError("rounding put x below g by more than the tolerance")
    if not _attainment_proved(mu, qa, res, data[1], data[2]):
        _require_attained(mu, "x", _matrix_value(data, x))
    return Point((mu, x, delta, g_term, None))


def best_under(data) -> Point:
    """Best approximation of ``p`` from below by ``A x``: the residuation
    maximizer ``x = (p~ A)~``, which no feasible vector exceeds, and its
    defect ``mu = (A x)~ p``, which none improves on."""
    A, p = data
    x = _residuate(A, p)
    mu = max(_defect(p, _ax(A, x)))
    _point_checks(mu, x)
    return Point((mu, x, 0.5 * mu + 0.0, None, None))


# the public solvers take a problem of their class, or one that reduces to it
def two_sided_terms(prob: TwoSidedProblem) -> dict[str, float | None]:
    """The three lower bounds whose maximum is the optimum (``_two_sided_terms``)."""
    terms = _two_sided_terms(_require_problem(prob, TwoSidedProblem))
    return dict(zip(("delta", "g_term", "h_term"), terms))


def matrix_lower_terms(prob: MatrixLowerProblem) -> dict[str, float]:
    """The two lower bounds for the matrix problem: the intrinsic bound
    ``delta = sqrt((A (q~ A)~)~ p)`` and the g-driven bound ``q~ A g``."""
    data = _require_problem(prob, MatrixLowerProblem)
    return dict(zip(("delta", "g_term"), _matrix_terms(data, _q_a(data))))


def solve_two_sided(prob: TwoSidedProblem) -> IntervalSolution:
    """``two_sided`` on the problem's data, as an ``IntervalSolution``."""
    s = two_sided(_require_problem(prob, TwoSidedProblem))
    return IntervalSolution(s.mu, _vector(s.lower), _vector(s.upper), s.delta, s.g_term, s.h_term)


def solve_matrix_lower(prob: MatrixLowerProblem) -> PointSolution:
    """``matrix_lower`` on the problem's data, as a ``PointSolution``."""
    s = matrix_lower(_require_problem(prob, MatrixLowerProblem))
    return PointSolution(s.mu, _vector(s.x), s.delta, s.g_term)


def best_underestimator(A: TropMatrix, p: TropVector) -> PointSolution:
    """``best_under`` on ``A`` and ``p``, checked by ``BestUnderProblem``, as a ``PointSolution``."""
    s = best_under(BestUnderProblem(A, p)._data)
    return PointSolution(s.mu, _vector(s.x), s.delta)


def max_solution_leq(A: TropMatrix, p: TropVector) -> TropVector:
    """Greatest regular vector x with A x <= p (residuation), checked as
    ``best_underestimator`` checks.  Every regular solution of the
    inequality is dominated componentwise by the returned vector."""
    return _vector(_residuate(*BestUnderProblem(A, p)._data))
