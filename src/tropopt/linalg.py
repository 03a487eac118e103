"""Dense tropical vectors and matrices.

Containers are immutable and every operation returns a fresh value.  Row
and column orientation is tracked explicitly: conjugation flips a column
into a row, and products such as a conjugated vector times a matrix mix
the two, so silent transposition would hide modeling mistakes.

Every operation is a pass of C-implemented builtins over whole rows and
columns: a product entry is ``max(map(add, row, col))``, with no method
call per scalar.  ``max`` keeps the first of equal values, as the scalar
``MaxPlus.add`` does, so results are bit for bit those of the scalar
definitions.  An entrywise sum is ``x if x >= y else y`` per pair, which
is ``MaxPlus.add`` itself and, on non-NaN floats, exactly ``max(x, y)``
without the cost of a builtin call per element.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import repeat
from operator import add, le, sub

from .semifield import MAX_PLUS, NEG_INF, Record, ScalarOverflowError, TropicalError, check_all


class ShapeMismatchError(TropicalError):
    """Operand shapes or orientations do not conform."""

    reason = "shape_mismatch"


class NotRegularError(TropicalError):
    """A vector with zero elements (or a matrix with an all-zero line) was
    passed where a regular one is required."""

    reason = "not_regular"


class NotColumnRegularError(NotRegularError):
    """Matrix has a column consisting entirely of zero elements."""

    reason = "not_column_regular"


class ZeroVectorError(TropicalError):
    """The all-zero vector cannot be conjugated."""

    reason = "zero_vector"


class TropVector(Record):
    """Dense vector of max-plus scalars with a column/row orientation."""

    __slots__ = ("elements", "orientation")

    def __init__(self, elements: tuple[float, ...], orientation: str = "col") -> None:
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "orientation", orientation)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.orientation not in ("col", "row"):
            raise ShapeMismatchError(f"unknown orientation {self.orientation!r}")
        elems = check_all(self.elements)
        if not elems:
            raise ShapeMismatchError("vectors must be nonempty")
        object.__setattr__(self, "elements", elems)

    @classmethod
    def zeros(cls, n: int, orientation: str = "col") -> "TropVector":
        return cls((NEG_INF,) * n, orientation)

    @property
    def dim(self) -> int:
        return len(self.elements)

    @property
    def is_regular(self) -> bool:
        """True when no element is the zero element."""
        return NEG_INF not in self.elements

    @property
    def is_zero(self) -> bool:
        return self.elements.count(NEG_INF) == len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[float]:
        return iter(self.elements)

    def __getitem__(self, i: int) -> float:
        return self.elements[i]


class TropMatrix(Record):
    """Dense row-major matrix of max-plus scalars."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[float, ...], ...]) -> None:
        object.__setattr__(self, "entries", entries)
        self.__post_init__()

    def __post_init__(self) -> None:
        rows = tuple(map(check_all, self.entries))
        if not rows or not rows[0]:
            raise ShapeMismatchError("matrices must be nonempty")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ShapeMismatchError("matrix rows have unequal lengths")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def identity(cls, n: int) -> "TropMatrix":
        return cls(tuple(tuple(0.0 if i == j else NEG_INF for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, m: int, n: int) -> "TropMatrix":
        return cls(((NEG_INF,) * n,) * m)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def is_row_regular(self) -> bool:
        return (NEG_INF,) * self.cols not in self.entries

    @property
    def is_column_regular(self) -> bool:
        return (NEG_INF,) * self.rows not in zip(*self.entries)

    @property
    def is_regular(self) -> bool:
        return self.is_row_regular and self.is_column_regular


MatLike = "TropVector | TropMatrix"


def mat_add(a: MatLike, b: MatLike) -> MatLike:
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


def mat_mul(a: MatLike, b: MatLike):
    """Tropical product; returns a scalar, vector, or matrix as shapes dictate.

    Allowed combinations: row x col (scalar), col x row (matrix), row x
    matrix (row), matrix x col (col), matrix x matrix (matrix).
    """
    if isinstance(a, TropVector) and isinstance(b, TropVector) and a.orientation == b.orientation:
        raise ShapeMismatchError(f"cannot multiply two {a.orientation} vectors")
    if isinstance(a, TropVector) and isinstance(b, TropMatrix) and a.orientation != "row":
        raise ShapeMismatchError("left vector operand of a product must be a row")
    if isinstance(a, TropMatrix) and isinstance(b, TropVector) and b.orientation != "col":
        raise ShapeMismatchError("right vector operand of a product must be a column")

    # the left operand's rows and the right one's columns; a column on the
    # left or a row on the right is an outer-product factor, one
    # single-term line per entry
    if isinstance(a, TropMatrix):
        rows = a.entries
    else:
        rows = (a.elements,) if a.orientation == "row" else tuple(zip(a.elements))
    if isinstance(b, TropMatrix):
        cols = tuple(zip(*b.entries))
    else:
        cols = (b.elements,) if b.orientation == "col" else tuple(zip(b.elements))
    m, k, k2, n = len(rows), len(rows[0]), len(cols[0]), len(cols)
    if k != k2:
        raise ShapeMismatchError(f"cannot multiply {m}x{k} by {k2}x{n}")
    out = tuple(tuple([max(map(add, row, col)) for col in cols]) for row in rows)

    if isinstance(a, TropVector) and isinstance(b, TropVector):
        if a.orientation == "row":
            return out[0][0]
        return TropMatrix(out)
    if isinstance(a, TropVector):
        return TropVector(out[0], "row")
    if isinstance(b, TropVector):
        return TropVector(tuple(r[0] for r in out), "col")
    return TropMatrix(out)


def scalar_mul(c: float, a: MatLike) -> MatLike:
    """Entrywise tropical scaling by the scalar ``c``."""
    c = MAX_PLUS.check(c)
    if isinstance(a, TropVector):
        return TropVector(tuple(map(add, repeat(c), a.elements)), a.orientation)
    return TropMatrix(tuple(tuple(map(add, repeat(c), row)) for row in a.entries))


def conjugate(x: TropVector) -> TropVector:
    """Multiplicative conjugate transpose: elementwise inverse, flipped
    orientation, with zero elements mapped to zero.  Undefined for the
    all-zero vector."""
    if x.is_zero:
        raise ZeroVectorError("the zero vector has no conjugate")
    flipped = "row" if x.orientation == "col" else "col"
    # 0.0 - v is -v + 0.0 bit for bit: the inverse, with -0.0 taken to 0.0
    out = tuple(map(sub, repeat(0.0), x.elements))
    if NEG_INF in x.elements:
        out = tuple(NEG_INF if v == NEG_INF else w for v, w in zip(x.elements, out))
    return TropVector(out, flipped)


def distance(x: TropVector, y: TropVector) -> float:
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


def max_solution_leq(A: TropMatrix, p: TropVector) -> TropVector:
    """Greatest regular vector x with A x <= p (residuation).

    Every regular solution of the inequality is dominated componentwise by
    the returned vector.
    """
    if p.orientation != "col":
        raise ShapeMismatchError("bound must be a column vector")
    if A.rows != p.dim:
        raise ShapeMismatchError(f"matrix has {A.rows} rows but bound has {p.dim}")
    if not p.is_regular:
        raise NotRegularError("bound vector must be regular")
    if not A.is_column_regular:
        raise NotColumnRegularError("matrix must be column-regular")
    # x_l = min_k(p_k - a_kl), the conjugate of p~A, which is -inf only
    # when p~A overflowed to +inf
    x = [min(map(sub, p.elements, col)) for col in zip(*A.entries)]
    if NEG_INF in x:
        raise ScalarOverflowError("value exceeds the float range")
    return TropVector(tuple(x))


def vec_leq(x: TropVector, y: TropVector) -> bool:
    """Componentwise order between vectors of equal shape."""
    if x.orientation != y.orientation or x.dim != y.dim:
        raise ShapeMismatchError("comparison needs equal length and orientation")
    return all(map(le, x.elements, y.elements))


def mat_leq(a: TropMatrix, b: TropMatrix) -> bool:
    """Componentwise order between matrices of equal shape."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeMismatchError("comparison needs equal shapes")
    return all(all(map(le, ra, rb)) for ra, rb in zip(a.entries, b.entries))
