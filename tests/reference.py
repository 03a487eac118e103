"""Max-plus algebra that only the tests use: entrywise sums, scaling,
the matrix order, the identity matrix and the tropical distance, kept
here as references for the package's laws and identities; and the
longer forms of checks and passes that the package does in fewer.

The tests import the scalar reference ``MAX_PLUS``, its errors
``UndefinedPowerError`` and ``ZeroInverseError``, and ``mat_mul`` and
``conjugate`` from here, not from the package root, which no longer
exports them; this file imports them from ``tropopt.semifield`` and
``tropopt.linalg``, where the grid oracle and the benchmark's layer
timers still use them."""

from itertools import repeat
from operator import add, le, sub

from tropopt import NEG_INF, NotRegularError, ScalarOverflowError, ShapeMismatchError, TropMatrix, TropVector
from tropopt.applications import _reduce, _require_points
from tropopt.certificate import Report, _check_attains, _fail, _matrix_bound
from tropopt.linalg import _no_overflow, conjugate, mat_mul
from tropopt.semifield import MAX_PLUS, POS_INF, UndefinedPowerError, ZeroInverseError, _close, _leq
from tropopt.solvers import (
    Interval, Point, PrecisionLossError, _above_g, _half, _halves, _in_box, _interval_checks,
    _matrix_terms, _matrix_value, _objective, _point_checks, _q_a, _require_attained,
    _require_endpoints_attain, _top_half, _two_sided_terms, _two_sided_value, two_sided_data,
)


def mat_add(a, b):
    """Entrywise tropical sum of two vectors or two matrices."""
    if isinstance(a, TropVector) and isinstance(b, TropVector):
        if a.orientation != b.orientation or a.dim != b.dim:
            raise ShapeMismatchError("vector sum needs equal length and orientation")
        sums = [x if x >= y else y for x, y in zip(a.elements, b.elements)]
        return TropVector(tuple(sums), a.orientation)
    if isinstance(a, TropMatrix) and isinstance(b, TropMatrix):
        if (a.rows, a.cols) != (b.rows, b.cols):
            raise ShapeMismatchError(
                f"matrix sum needs equal shapes, got {a.rows}x{a.cols} and {b.rows}x{b.cols}"
            )
        return TropMatrix(tuple(
            tuple([x if x >= y else y for x, y in zip(ra, rb)]) for ra, rb in zip(a.entries, b.entries)
        ))
    raise ShapeMismatchError("cannot add a vector to a matrix")


def scalar_mul(c, a):
    """Entrywise tropical scaling by the scalar ``c``."""
    c = MAX_PLUS.check(c)
    if isinstance(a, TropVector):
        return TropVector(tuple(map(add, repeat(c), a.elements)), a.orientation)
    return TropMatrix(tuple(tuple(map(add, repeat(c), row)) for row in a.entries))


def distance(x, y):
    """Tropical distance between regular column vectors.

    In max-plus this is the Chebyshev distance max_i |y_i - x_i|.
    """
    if x.orientation != "col" or y.orientation != "col":
        raise ShapeMismatchError("distance is defined on column vectors")
    if x.dim != y.dim:
        raise ShapeMismatchError(f"dimension mismatch: {x.dim} vs {y.dim}")
    if not (x.is_regular and y.is_regular):
        raise NotRegularError("distance requires regular vectors")
    return max(mat_mul(conjugate(y), x), mat_mul(conjugate(x), y))


def mat_leq(a, b):
    """Componentwise order between matrices of equal shape."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeMismatchError("comparison needs equal shapes")
    return all(all(map(le, ra, rb)) for ra, rb in zip(a.entries, b.entries))


def identity(n):
    """The n x n identity matrix: 0 on the diagonal, the zero elsewhere."""
    return TropMatrix(tuple(tuple(0.0 if i == j else NEG_INF for j in range(n)) for i in range(n)))


# The longer forms of what the solver, the certificate and the location
# parse now do in fewer passes or checks; tests/test_fewer_passes.py
# holds them to the same values bit for bit, bindings and errors.

def endpoint_objectives(lower, upper, q, p):
    """``q~ x + x~ p`` at each endpoint, two whole passes per endpoint."""
    return tuple(max(max(map(sub, x, q)), max(map(sub, p, x))) for x in (lower, upper))


def matrix_bound(data):
    """The matrix certificate's bound and binding from one greatest
    ``a_ij - q_i + g_j`` per row, with that row's terms again for its column."""
    A, p, q, g = data
    r = [max(map(sub, col, q)) for col in zip(*A)]
    res = [max(map(sub, row, r)) for row in A]
    delta = list(map(_half, p, res))
    g_term = [max(map(add, map(sub, row, repeat(qi)), g)) for row, qi in zip(A, q)]
    top_delta, top_g = max(delta), max(g_term)
    if top_delta >= top_g:
        bound, term, i = top_delta, "delta", delta.index(top_delta)
        index = (i, list(map(sub, A[i], r)).index(res[i]))
    else:
        bound, term, i = top_g, "g_term", g_term.index(top_g)
        index = (i, list(map(add, map(sub, A[i], repeat(q[i])), g)).index(bound))
    return bound, (term, index), r


def matrix_lower(data):
    """The matrix solve with its attainment check always made: the
    ``A x`` pass at the returned ``x``, which the solver skips where its
    rounding bound proves the pass cannot fail."""
    qa = _q_a(data)
    delta, g_term, _ = _matrix_terms(data, qa)
    mu = max(delta, g_term)
    x = _no_overflow(tuple(map(sub, repeat(mu), qa)))
    _point_checks(mu, x)
    if not _above_g(data, x):
        raise PrecisionLossError("rounding put x below g by more than the tolerance")
    _require_attained(mu, "x", _matrix_value(data, x))
    return Point((mu, x, delta, g_term, None))


def limit(data):
    """The greatest ``x`` with ``A x <= p``, every column filtered of its ``-inf`` entries."""
    A, p = data
    return [min((pk - a for pk, a in zip(p, col) if a != NEG_INF), default=POS_INF) for col in zip(*A)]


def require_endpoints_attain(mu, lower, upper, q, p):
    """The solver's attainment check by ``_objective`` at each endpoint, lower first."""
    _require_attained(mu, "an endpoint", _objective(lower, q, p))
    _require_attained(mu, "an endpoint", _objective(upper, q, p))


def location_data(r, s, g=None, h=None):
    """A location problem's data through every check of ``two_sided_data``."""
    _require_points(r, s)
    return two_sided_data(*_reduce(r, s), g, h)


# The solver's and the certificate's checks, each made in order, with no
# success path decided first: tests/test_fewer_passes.py holds the
# package's two_sided, _interval and _matrix_lower to the same answers,
# reports and errors.

def two_sided(data):
    """The two-sided solve with every check made in order."""
    p, q, g, h = data
    delta, g_term, h_term = _two_sided_terms(data)
    mu = max(delta, NEG_INF if g_term is None else g_term, NEG_INF if h_term is None else h_term)
    lower = map(sub, p, repeat(mu))
    if g is not None:
        lower = [x if x >= y else y for x, y in zip(lower, g)]
    upper = map(add, q, repeat(mu))
    if h is not None:
        upper = [x if x <= y else y for x, y in zip(upper, h)]
    lower, upper = tuple(lower), tuple(upper)
    if POS_INF in lower or POS_INF in upper:
        raise ScalarOverflowError("value exceeds the float range")
    if not all(map(le, lower, upper)):
        if not all(map(_leq, lower, upper)):
            raise PrecisionLossError("rounding put lower above upper by more than the tolerance")
        upper = tuple([x if x >= y else y for x, y in zip(lower, upper)])
    _interval_checks(mu, upper, delta)
    _require_endpoints_attain(mu, lower, upper, q, p)
    return Interval((mu, lower, upper, delta, g_term, h_term))


def interval_check(data, sol):
    """The two-sided certificate with every check made in order: the box,
    the objective at each endpoint, the bound, the walk."""
    p, q, g, h = data
    g = (NEG_INF,) * len(p) if g is None else g
    h = (POS_INF,) * len(p) if h is None else h
    top_delta, top_g, top_h = _top_half(p, q), max(map(sub, g, q)), max(map(sub, p, h))
    bound = max(top_delta, top_g, top_h)
    if top_delta == bound:
        term, values = "delta", _halves(p, q, top_delta)
    elif top_g == bound:
        term, values = "g_term", list(map(sub, g, q))
    else:
        term, values = "h_term", list(map(sub, p, h))
    index = values.index(bound)
    lo = tuple([x if x >= y else y for x, y in zip(map(sub, p, repeat(bound)), g)])
    hi = tuple([x if x <= y else y for x, y in zip(map(add, q, repeat(bound)), h)])

    mu, lower, upper = sol.mu, sol.lower, sol.upper
    for x in (lower, upper):
        if not _in_box(data, x):
            raise _fail("returned interval leaves the feasible box", x)
    gap = _check_attains(data, mu, _two_sided_value, (lower, upper))
    if bound != mu and not _close(bound, mu):
        raise _fail(f"the optimum is {bound}, not the claimed {mu}", lo)
    if (lower, upper) != (lo, hi):
        for i in range(len(p)):
            for claimed, true in ((lower, lo), (upper, hi)):
                if not _close(claimed[i], true[i]):
                    point = claimed[:i] + (true[i],) + claimed[i + 1:]
                    raise _fail(
                        f"the minimizer set differs from the interval at coordinate {i}", point
                    )
    return Report((bound, lower, 2, True, max(gap, abs(bound - mu)), (term, index)))


def matrix_lower_check(data, sol):
    """The matrix certificate with every check made in order: x >= g, the
    objective at x, the bound."""
    bound, binding, r = _matrix_bound(data)
    mu, x = sol.mu, sol.x
    if not _above_g(data, x):
        raise _fail("returned vector violates the lower bound", x)
    gap = _check_attains(data, mu, _matrix_value, (x,))
    if bound != mu and not _close(bound, mu):
        raise _fail(f"the optimum is {bound}, not the claimed {mu}", [bound - rl for rl in r])
    return Report((bound, x, 1, True, max(gap, abs(bound - mu)), binding))
