"""Max-plus algebra that only the tests use: entrywise sums, scaling,
the matrix order, the identity matrix and the tropical distance, kept
here as references for the package's laws and identities; and the
longer forms of checks and passes that the package does in fewer."""

from itertools import repeat
from operator import add, le, sub

from tropopt import MAX_PLUS, NEG_INF, NotRegularError, ShapeMismatchError, TropMatrix, TropVector
from tropopt.applications import _reduce, _require_points
from tropopt.linalg import _no_overflow, conjugate, mat_mul
from tropopt.semifield import POS_INF
from tropopt.solvers import (
    Point, PrecisionLossError, _above_g, _answer, _half, _matrix_terms, _matrix_value, _objective,
    _point_checks, _q_a, _require_attained, two_sided_data,
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
    return _answer(Point, (mu, x, delta, g_term, None))


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
