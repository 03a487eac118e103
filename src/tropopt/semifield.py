"""Idempotent semifield scalars.

A scalar is a plain 64-bit float drawn from the carrier of one of two
shipped semifield instances.  The max-plus instance uses the reals with
``-inf`` as its zero element and ``0.0`` as its identity; addition is max
and multiplication is ordinary +.  The min-plus instance is the dual, with
``+inf`` as the zero.  Because every operation here is a max/min, a float
addition, or a halving, integer and half-integer data stay exact, which is
what makes the regression suite's exact-equality assertions sound.
"""

from __future__ import annotations

import math

NEG_INF = float("-inf")
POS_INF = float("inf")


class TropicalError(Exception):
    """Base class for every error raised by this package.

    ``reason`` is the machine-readable tag and ``exit_code`` the process
    exit status that the command line reports for the error.
    """

    reason = "invalid_problem"
    exit_code = 2


class InvalidScalarError(TropicalError):
    """Value lies outside the semifield carrier (NaN or the wrong infinity)."""

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


class Semifield:
    """A linearly ordered, radicable idempotent semifield on floats.

    Subclasses fix the zero element and the idempotent addition, both as
    the scalar ``add`` and as ``reduce``, the builtin that sums a whole
    iterable (``max`` or ``min``; like ``add``, it keeps the first of two
    equal values).  On the nonzero carrier, multiplication is float
    addition, the inverse is negation, and a rational power acts by
    scaling, so ``pow(a, 0.5)`` is the tropical square root (halving).
    The carrier holds every float except NaN and the infinity opposite to
    the zero element.
    """

    name: str = "abstract"
    zero: float = math.nan
    one: float = 0.0
    reduce = None

    def check(self, a: float) -> float:
        """Validate that ``a`` belongs to the carrier and return it."""
        raise NotImplementedError

    def check_all(self, values) -> tuple[float, ...]:
        """Validate a whole sequence in three builtin passes; returns its
        elements as a tuple of floats.

        On any failure the sequence is checked again element by element,
        so the first bad element raises exactly what ``check`` raises.
        """
        values = tuple(values)  # free for a tuple; lets an iterator be checked twice
        try:
            out = tuple(map(float, values))
        except (TypeError, ValueError, OverflowError):
            out = None
        if out is None or -self.zero in out or any(map(math.isnan, out)):
            return tuple(map(self.check, values))
        return out

    def add(self, a: float, b: float) -> float:
        raise NotImplementedError

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
        """Natural order of the semifield: a <= b iff a + b = b."""
        return self.add(a, b) == b

    def is_zero(self, a: float) -> bool:
        return a == self.zero


class MaxPlus(Semifield):
    """Reals with max as addition and + as multiplication; zero is -inf."""

    name = "max-plus"
    zero = NEG_INF
    reduce = max

    def check(self, a: float) -> float:
        a = float(a)
        if math.isnan(a):
            raise InvalidScalarError(f"{a!r} is not a max-plus scalar")
        if a == POS_INF:
            raise ScalarOverflowError("value exceeds the float range")
        return a

    def add(self, a: float, b: float) -> float:
        return a if a >= b else b


class MinPlus(Semifield):
    """Dual instance: min as addition, + as multiplication; zero is +inf."""

    name = "min-plus"
    zero = POS_INF
    reduce = min

    def check(self, a: float) -> float:
        a = float(a)
        if math.isnan(a) or a == NEG_INF:
            raise InvalidScalarError(f"{a!r} is not a min-plus scalar")
        return a

    def add(self, a: float, b: float) -> float:
        return a if a <= b else b


MAX_PLUS = MaxPlus()
MIN_PLUS = MinPlus()
