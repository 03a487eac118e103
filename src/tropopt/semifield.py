"""Max-plus scalars.

A scalar is a plain 64-bit float: the reals with ``-inf`` as the zero
element and ``0.0`` as the identity; addition is max and multiplication
is ordinary +.  Because every operation here is a max/min, a float
addition, or a halving, integer and half-integer data stay exact, which
is what makes the regression suite's exact-equality assertions sound.

``MaxPlus`` spells out the operations one scalar at a time.  The
containers and solvers work on whole tuples with ``max``, ``min`` and
float arithmetic instead; the tests keep these methods as the reference
that the vector and matrix passes of ``linalg`` match bit for bit.
"""

from __future__ import annotations

import math

NEG_INF = float("-inf")
POS_INF = float("inf")

# relative tolerance of the comparisons that absorb float rounding,
# scaled by the magnitude of the values compared
_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    # an infinite value is close only to itself
    if a == b:
        return True
    scale = max(1.0, abs(a), abs(b))
    return scale < POS_INF and abs(a - b) <= _TOL * scale


def _leq(a: float, b: float) -> bool:
    return a <= b or _close(a, b)


# sets one slot of a value under construction
_store = object.__setattr__


class Record:
    """Base of the immutable value types: slotted classes, which import
    nothing (a dataclass loads ``dataclasses`` and ``inspect``).  The
    fields are the parameters of ``__init__``, which stores each once,
    one ``_store`` (``object.__setattr__``) per slot, past the
    ``__setattr__`` that refuses every other assignment.  ``repr`` shows
    every field; equality and hashing read those named in ``_compare``,
    all of them by default."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls.__match_args__ = cls._fields = code.co_varnames[1:code.co_argcount]
        cls._compare = cls.__dict__.get("_compare", cls._fields)

    def _values(self, names) -> tuple:
        return tuple([getattr(self, name) for name in names])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self._compare) == other._values(other._compare)

    def __hash__(self) -> int:
        return hash(self._values(self._compare))

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values(self._fields)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return type(self), self._values(self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class TropicalError(Exception):
    """Base class for every error raised by this package; ``reason`` is
    the machine-readable tag that the command line reports for it."""

    reason = "invalid_problem"


class InvalidScalarError(TropicalError):
    """Value lies outside the max-plus carrier (NaN or +inf)."""

    reason = "invalid_scalar"


class ScalarOverflowError(InvalidScalarError):
    """Finite data whose value, or a value computed from it, exceeds the
    float range."""

    reason = "overflow"


class ZeroInverseError(TropicalError):
    """The zero element has no multiplicative inverse."""

    reason = "zero_inverse"


class UndefinedPowerError(TropicalError):
    """Nonpositive powers of the zero element are undefined."""

    reason = "undefined_power"


class MaxPlus:
    """Reals with max as addition and + as multiplication; zero is -inf.

    On the nonzero carrier the inverse is negation and a rational power
    acts by scaling, so ``pow(a, 0.5)`` is the tropical square root
    (halving).  The carrier holds every float except NaN and +inf.
    """

    name = "max-plus"
    zero = NEG_INF
    one = 0.0

    def check(self, a: float) -> float:
        """Validate that ``a`` belongs to the carrier and return it."""
        a = float(a)
        if math.isnan(a):
            raise InvalidScalarError(f"{a!r} is not a max-plus scalar")
        if a == POS_INF:
            raise ScalarOverflowError("value exceeds the float range")
        return a

    def add(self, a: float, b: float) -> float:
        return a if a >= b else b

    def mul(self, a: float, b: float) -> float:
        # float arithmetic already gives the absorbing zero: zero + x = zero
        return a + b

    def inv(self, a: float) -> float:
        if a == self.zero:
            raise ZeroInverseError("the zero element has no inverse")
        return -a + 0.0

    def pow(self, a: float, r: float) -> float:
        """Raise ``a`` to the rational power ``r`` (scaling by ``r``)."""
        r = float(r)
        if a == self.zero:
            if r > 0:
                return self.zero
            raise UndefinedPowerError(f"zero cannot be raised to the power {r}")
        return r * a + 0.0

    def sqrt(self, a: float) -> float:
        return self.pow(a, 0.5)

    def leq(self, a: float, b: float) -> bool:
        """Natural order: a <= b iff a + b = b."""
        return self.add(a, b) == b

    def is_zero(self, a: float) -> bool:
        return a == self.zero


MAX_PLUS = MaxPlus()


def check_all(values) -> tuple[float, ...]:
    """Validate a whole sequence of scalars in two builtin passes, a
    ``float`` conversion and a float ``sum``; returns its elements as a
    tuple of floats.

    A NaN or ``+inf`` element makes the sum NaN or ``+inf``, so a sum
    below ``+inf`` proves every element a carrier scalar.  Any sequence
    the two passes reject, valid data whose sum overflows among them, is
    checked again element by element, so the first bad element raises
    exactly what ``MAX_PLUS.check`` raises.
    """
    values = tuple(values)  # free for a tuple; lets an iterator be checked twice
    try:
        out = tuple(map(float, values))
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or not sum(out) < POS_INF:
        return tuple(map(MAX_PLUS.check, values))
    return out
