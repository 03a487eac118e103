"""Max-plus algebra that only the tests use: entrywise sums, scaling,
the matrix order, the identity matrix and the tropical distance, kept
here as references for the package's laws and identities."""

from itertools import repeat
from operator import add, le

from tropopt import MAX_PLUS, NEG_INF, NotRegularError, ShapeMismatchError, TropMatrix, TropVector
from tropopt.linalg import conjugate, mat_mul


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
