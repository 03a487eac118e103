import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropopt import (
    MAX_PLUS,
    NEG_INF,
    InvalidScalarError,
    UndefinedPowerError,
    ZeroInverseError,
)

sf = MAX_PLUS

# half-integer lattice scalars keep every assertion exact
lattice = st.integers(-80, 80).map(lambda k: k / 2)
lattice_or_zero = st.one_of(lattice, st.just(NEG_INF))


class TestAdd:
    def test_max_semantics(self):
        assert sf.add(2, 3) == 3

    def test_idempotent(self):
        assert sf.add(5, 5) == 5

    def test_neutral_zero(self):
        assert sf.add(NEG_INF, -4) == -4


class TestMul:
    def test_additive_semantics(self):
        assert sf.mul(2, 3) == 5

    def test_absorbing_zero(self):
        assert sf.mul(NEG_INF, 7) == NEG_INF

    def test_identity(self):
        assert sf.mul(sf.one, -3) == -3


class TestInv:
    def test_negation(self):
        assert sf.inv(3) == -3

    def test_self_inverse_identity(self):
        assert sf.inv(sf.one) == sf.one

    def test_zero_rejected(self):
        with pytest.raises(ZeroInverseError):
            sf.inv(NEG_INF)


class TestPow:
    def test_square_root_halves(self):
        assert sf.pow(4, 0.5) == 2

    def test_square_doubles(self):
        assert sf.pow(-3, 2) == -6

    def test_power_zero_is_identity(self):
        assert sf.pow(7, 0) == sf.one

    def test_zero_to_positive_power(self):
        assert sf.pow(NEG_INF, 2) == NEG_INF

    def test_zero_to_nonpositive_power_rejected(self):
        with pytest.raises(UndefinedPowerError):
            sf.pow(NEG_INF, 0)
        with pytest.raises(UndefinedPowerError):
            sf.pow(NEG_INF, -1)

    def test_accepts_fractions(self):
        from fractions import Fraction

        assert sf.pow(4, Fraction(1, 2)) == 2


class TestOrder:
    def test_numeric_order(self):
        assert sf.leq(2, 3)
        assert not sf.leq(3, 2)

    def test_zero_is_bottom(self):
        assert sf.leq(NEG_INF, -100)

    def test_reflexive(self):
        assert sf.leq(3, 3)


class TestCarrier:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_max_plus_rejects(self, bad):
        with pytest.raises(InvalidScalarError):
            sf.check(bad)

    def test_max_plus_accepts_zero_element(self):
        assert sf.check(NEG_INF) == NEG_INF


@given(lattice_or_zero)
def test_add_idempotent(a):
    assert sf.add(a, a) == a


@given(lattice_or_zero, lattice_or_zero)
def test_add_commutative(a, b):
    assert sf.add(a, b) == sf.add(b, a)


@given(lattice_or_zero, lattice_or_zero, lattice_or_zero)
def test_add_associative(a, b, c):
    assert sf.add(sf.add(a, b), c) == sf.add(a, sf.add(b, c))


@given(lattice_or_zero, lattice_or_zero, lattice_or_zero)
def test_mul_distributes_over_add(a, b, c):
    assert sf.mul(a, sf.add(b, c)) == sf.add(sf.mul(a, b), sf.mul(a, c))


@given(lattice)
def test_inverse_law(a):
    assert sf.mul(sf.inv(a), a) == sf.one


@given(lattice_or_zero, lattice_or_zero, lattice_or_zero, lattice_or_zero)
def test_monotone_in_each_argument(a, u, b, v):
    lo_a, hi_a = (a, u) if sf.leq(a, u) else (u, a)
    lo_b, hi_b = (b, v) if sf.leq(b, v) else (v, b)
    assert sf.leq(sf.add(lo_a, lo_b), sf.add(hi_a, hi_b))
    assert sf.leq(sf.mul(lo_a, lo_b), sf.mul(hi_a, hi_b))


@given(lattice, st.sampled_from([1, 2, 4, -1, -2, 0.5]))
def test_pow_round_trip(a, r):
    assert sf.pow(sf.pow(a, r), 1 / r) == a

