"""Max-plus scalars.

A scalar is a plain 64-bit float: the reals with ``-inf`` as the zero
element and ``0.0`` as the identity; addition is max and multiplication
is ordinary +.  Because every operation here is a max/min, a float
addition, or a halving, integer and half-integer data stay exact, which
is what makes the regression suite's exact-equality assertions sound.

``check`` validates one scalar and ``check_all`` a sequence, each
raising a ``TropicalError`` for any bad element.  ``MaxPlus`` spells out
the operations one scalar at a time: the reference that the tuple passes
of ``linalg`` and the core match bit for bit.
"""

from __future__ import annotations

import math
import sys
from operator import itemgetter

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


def _record(name: str, fields: str) -> type:
    """A tuple type whose space-separated ``fields`` read by name, built as
    ``Type((value, ...))``, with no ``exec`` (about 55 us a type at import
    with the ``collections`` factory, Python 3.11 on 2 shared vCPUs)."""
    namespace = {f: property(itemgetter(i)) for i, f in enumerate(fields.split())}
    module = sys._getframe(1).f_globals["__name__"]  # where pickle looks the type up
    return type(name, (tuple,), {**namespace, "__slots__": (), "__module__": module})


class Record:
    """Base of the library's immutable value types: slotted classes, which
    import nothing (a dataclass loads ``dataclasses`` and ``inspect``).
    The fields are the parameters of ``__init__``, which stores them with
    ``_init`` past the ``__setattr__`` that refuses every assignment; the
    first ``_required`` of them have no default.  ``repr`` shows every
    field; equality and hashing read those named in ``_compare``, all of
    them by default."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls.__match_args__ = cls._fields = code.co_varnames[1:code.co_argcount]
        cls._required = len(cls._fields) - len(cls.__init__.__defaults__ or ())
        cls._compare = cls.__dict__.get("_compare", cls._fields)

    def _init(self, *values) -> None:
        """Store ``values`` in the fields, in order."""
        for name, value in zip(self._fields, values):
            _store(self, name, value)

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
    """Value lies outside the max-plus carrier: not a number, NaN or +inf."""

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


def check(a) -> float:
    """Validate that ``a`` is a max-plus scalar and return it as a float.
    What ``float`` refuses, or reads as NaN, raises ``InvalidScalarError``;
    ``+inf``, or an integer beyond the float range, ``ScalarOverflowError``."""
    try:
        a = float(a)
    except OverflowError:
        raise ScalarOverflowError("value exceeds the float range") from None
    except (TypeError, ValueError):
        raise InvalidScalarError(f"{a!r} is not a max-plus scalar") from None
    if math.isnan(a):
        raise InvalidScalarError(f"{a!r} is not a max-plus scalar")
    if a == POS_INF:
        raise ScalarOverflowError("value exceeds the float range")
    return a


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
        return check(a)

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
    """Validate a sequence of scalars; returns them as a tuple of floats.

    A NaN or ``+inf`` element makes the ``sum`` of the floats NaN or
    ``+inf``; a sequence whose sum is not below ``+inf``, or that
    ``float`` refuses, is checked again element by element, so the first
    bad element raises what ``check`` raises."""
    values = tuple(values)  # free for a tuple; lets an iterator be checked twice
    try:
        out = tuple(map(float, values))
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or not sum(out) < POS_INF:
        return tuple(map(check, values))
    return out
