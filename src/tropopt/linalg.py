"""Dense tropical vectors and matrices.

Containers are immutable and every operation returns a fresh value.  Row
and column orientation is tracked explicitly: conjugation flips a column
into a row, and products such as a conjugated vector times a matrix mix
the two, so silent transposition would hide modeling mistakes.

Every operation is a pass of C-implemented builtins over whole rows and
columns: a product entry is ``max(map(add, row, col))``.  ``max`` keeps
the first of equal values, as the scalar ``MaxPlus.add`` does, so results
are bit for bit those of the scalar definitions.

The public ``TropVector(...)`` and ``TropMatrix(...)`` take a sequence
of scalars (of rows of them), not a ``str``, and check every element
with ``check_all``.  The public solvers wrap the float tuples that the
core computes with ``_vector``, which takes them as they are: from valid
data a computed value can leave the carrier only by overflowing to
``+inf``, which ``_no_overflow`` tests.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import repeat
from operator import add, le, sub

from .semifield import (
    NEG_INF, POS_INF, Record, ScalarOverflowError, TropicalError, _store, check_all,
)

_new = object.__new__


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
        self._init(elements, orientation)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.orientation not in ("col", "row"):
            raise ShapeMismatchError(f"unknown orientation {self.orientation!r}")
        elems = check_all(_sequence(self.elements, "vector elements"))
        if not elems:
            raise ShapeMismatchError("vectors must be nonempty")
        _store(self, "elements", elems)

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
        self._init(entries)
        self.__post_init__()

    def __post_init__(self) -> None:
        entries = _sequence(self.entries, "matrix entries")
        rows = tuple([check_all(_sequence(row, "a matrix row")) for row in entries])
        _require_rectangular(rows)
        _store(self, "entries", rows)

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


def _sequence(values, what: str) -> tuple:
    """``values`` as a tuple; a ``str`` or ``bytes``, or what ``tuple``
    refuses, raises ``ShapeMismatchError``."""
    if not isinstance(values, (str, bytes)):
        try:
            return tuple(values)
        except TypeError:
            pass
    raise ShapeMismatchError(f"{what} must be a sequence, not {type(values).__name__}")


def _require_rectangular(rows: tuple[tuple[float, ...], ...]) -> None:
    if not rows or not rows[0]:
        raise ShapeMismatchError("matrices must be nonempty")
    if {*map(len, rows)} != {len(rows[0])}:
        raise ShapeMismatchError("matrix rows have unequal lengths")


def _vector(elements: tuple[float, ...]) -> TropVector:
    """The column of ``elements``, a nonempty tuple of carrier floats that
    the caller has validated or computed, taken as they are."""
    v = _new(TropVector)
    v._init(elements, "col")
    return v


def _no_overflow(values):
    """Return computed ``values`` unless one overflowed to +inf: the test,
    and the message, of a validated container.  Ints, which come from an
    exact file alone (``cli._take``), cannot overflow."""
    if type(values[0]) is not int and POS_INF in values:
        raise ScalarOverflowError("value exceeds the float range")
    return values


MatLike = "TropVector | TropMatrix"


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


def vec_leq(x: TropVector, y: TropVector) -> bool:
    """Componentwise order between vectors of equal shape."""
    vectors = isinstance(x, TropVector) and isinstance(y, TropVector)
    if not vectors or x.orientation != y.orientation or x.dim != y.dim:
        raise ShapeMismatchError("comparison needs two vectors of equal length and orientation")
    return all(map(le, x.elements, y.elements))
