"""The value types: immutable, compared and hashed by their fields (the
diagnostic terms and the reduced instances aside), shown by ``repr`` in
the ``Class(field=value, ...)`` form, and validated on construction."""

import copy
import math
import pickle

import pytest

from tropopt import (
    ApproximationProblem,
    BestUnderProblem,
    InfeasibleBoundsError,
    IntervalSolution,
    InvalidScalarError,
    LocationProblem,
    MatrixLowerProblem,
    NotRegularError,
    OracleReport,
    PointSolution,
    ScalarOverflowError,
    ShapeMismatchError,
    TropicalError,
    TropMatrix,
    TropVector,
    TwoSidedProblem,
)
from tropopt.cli import LoadedProblem

NEG_INF = -math.inf


def v(*elements, orientation="col"):
    return TropVector(elements, orientation)


A = TropMatrix(((1, -1, 1), (3, 1, 0), (0, 0, 2)))

# builders of one value per type, each call a fresh but equal object
VALUES = {
    "TropVector": lambda: v(1, 2),
    "TropMatrix": lambda: TropMatrix(((1, 2), (3, 4))),
    "TwoSidedProblem": lambda: TwoSidedProblem(v(1, 3), v(-3, 1), v(0, 0), v(2, 2)),
    "MatrixLowerProblem": lambda: MatrixLowerProblem(A, v(3, 4, 4), v(3, 4, 4), v(2, 2, 2)),
    "BestUnderProblem": lambda: BestUnderProblem(A, v(3, 4, 4)),
    "IntervalSolution": lambda: IntervalSolution(2.0, v(0, 1), v(1, 3), 1.0, g_term=0.5),
    "PointSolution": lambda: PointSolution(1.0, v(2, 4, 3), 0.5, g_term=1.0),
    "LocationProblem": lambda: LocationProblem(v(-3, 1), v(1, 3), g=v(0, 0)),
    "ApproximationProblem": lambda: ApproximationProblem(A, v(3, 4, 4), v(2, 2, 2)),
    "OracleReport": lambda: OracleReport(1.0, v(2, 4, 3), 1, binding=("delta", (0, 1))),
    "LoadedProblem": lambda: LoadedProblem("best_under", BestUnderProblem(A, v(3, 4, 4)), "x"),
}

# one field of each value, and a different value for it
CHANGES = {
    "TropVector": ("orientation", "row"),
    "TropMatrix": ("entries", ((1, 2), (3, 5))),
    "TwoSidedProblem": ("h", None),
    "MatrixLowerProblem": ("g", v(NEG_INF, 2, 2)),
    "BestUnderProblem": ("p", v(3, 4, 5)),
    "IntervalSolution": ("mu", 2.5),
    "PointSolution": ("delta", 0.0),
    "LocationProblem": ("g", None),
    "ApproximationProblem": ("g", v(2, 2, 3)),
    "OracleReport": ("points_evaluated", 2),
    "LoadedProblem": ("name", None),
}


def fields_of(value) -> dict:
    """The constructor arguments that rebuild ``value``."""
    fields = {
        "TropVector": ("elements", "orientation"),
        "TropMatrix": ("entries",),
        "TwoSidedProblem": ("p", "q", "g", "h"),
        "MatrixLowerProblem": ("A", "p", "q", "g"),
        "BestUnderProblem": ("A", "p"),
        "IntervalSolution": ("mu", "lower", "upper", "delta", "g_term", "h_term"),
        "PointSolution": ("mu", "x", "delta", "g_term", "h_term"),
        "LocationProblem": ("r", "s", "g", "h"),
        "ApproximationProblem": ("A", "p", "g"),
        "OracleReport": (
            "min_value", "argmin", "points_evaluated", "agrees_with_solver", "max_discrepancy",
            "binding",
        ),
        "LoadedProblem": ("kind", "problem", "name"),
    }[type(value).__name__]
    return {name: getattr(value, name) for name in fields}


@pytest.mark.parametrize("name", VALUES)
class TestEveryValueType:
    def test_equal_values_hash_equal(self, name):
        a, b = VALUES[name](), VALUES[name]()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_a_changed_field_is_unequal(self, name):
        a = VALUES[name]()
        field, value = CHANGES[name]
        b = type(a)(**{**fields_of(a), field: value})
        assert a != b and not a == b

    def test_other_types_are_unequal(self, name):
        a = VALUES[name]()
        assert a != tuple(fields_of(a).values())
        assert a != fields_of(a)
        assert a.__eq__(object()) is NotImplemented

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        a = VALUES[name]()
        for field, value in fields_of(a).items():
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(a, field, value)
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(a, field)
            assert getattr(a, field) is value
        with pytest.raises(AttributeError):
            a.extra = 1

    def test_rebuilt_by_its_fields(self, name):
        a = VALUES[name]()
        assert type(a)(**fields_of(a)) == a
        assert copy.copy(a) == a
        assert copy.deepcopy(a) == a
        assert pickle.loads(pickle.dumps(a)) == a

    def test_fields_match_by_position(self, name):
        a = VALUES[name]()
        assert type(a).__match_args__ == tuple(fields_of(a))

    def test_repr_lists_the_fields(self, name):
        a = VALUES[name]()
        shown = ", ".join(f"{field}={value!r}" for field, value in fields_of(a).items())
        assert repr(a) == f"{name}({shown})"


def test_repr_format():
    assert repr(v(1.0, 2.0)) == "TropVector(elements=(1.0, 2.0), orientation='col')"
    assert repr(TropMatrix(((0, NEG_INF),))) == "TropMatrix(entries=((0.0, -inf),))"
    assert repr(PointSolution(1.0, v(2), 0.5)) == (
        "PointSolution(mu=1.0, x=TropVector(elements=(2.0,), orientation='col'), "
        "delta=0.5, g_term=None, h_term=None)"
    )
    assert repr(LocationProblem(v(0), v(1))) == (
        "LocationProblem(r=TropVector(elements=(0.0,), orientation='col'), "
        "s=TropVector(elements=(1.0,), orientation='col'), g=None, h=None)"
    )


def test_solution_scalars_are_stored_as_floats():
    # mu and delta are stored as semifield.check returns them, like a vector's elements
    sol = PointSolution(True, v(2), 0)
    assert repr(sol) == (
        "PointSolution(mu=1.0, x=TropVector(elements=(2.0,), orientation='col'), "
        "delta=0.0, g_term=None, h_term=None)"
    )
    interval = IntervalSolution(3, v(0), v(1), -1)
    assert repr((interval.mu, interval.delta)) == "(3.0, -1.0)"


def test_class_pattern():
    match v(1, 2):
        case TropVector(elements, "col"):
            assert elements == (1.0, 2.0)
        case _:
            pytest.fail("no match")


class TestDiagnosticsAndReducedAreNotCompared:
    def test_interval_terms(self):
        lo, hi = v(0, 1), v(1, 3)
        a = IntervalSolution(2.0, lo, hi, 1.0, g_term=0.5, h_term=2.0)
        b = IntervalSolution(2.0, lo, hi, 1.0)
        assert a == b and hash(a) == hash(b)
        assert a != IntervalSolution(2.0, lo, hi, 0.5, g_term=0.5, h_term=2.0)

    def test_point_terms(self):
        a = PointSolution(1.0, v(2, 4), 0.5, g_term=1.0, h_term=None)
        b = PointSolution(1.0, v(2, 4), 0.5, g_term=-7.0, h_term=3.0)
        assert a == b and hash(a) == hash(b)
        assert a != PointSolution(1.0, v(2, 5), 0.5, g_term=1.0)

    @pytest.mark.parametrize("name", ["LocationProblem", "ApproximationProblem"])
    def test_reduced(self, name):
        a, b = VALUES[name](), VALUES[name]()
        assert a.reduced == b.reduced
        object.__setattr__(b, "reduced", None)
        assert a == b and hash(a) == hash(b)
        assert "reduced" not in repr(a)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: v(1, orientation="diag"), ShapeMismatchError, "unknown orientation 'diag'"),
        (lambda: v(), ShapeMismatchError, "vectors must be nonempty"),
        (lambda: v(1, math.nan), InvalidScalarError, "nan is not a max-plus scalar"),
        (lambda: v(1, math.inf), ScalarOverflowError, "value exceeds the float range"),
        (lambda: v(None), InvalidScalarError, "None is not a max-plus scalar"),
        (lambda: v(1, "a"), InvalidScalarError, "'a' is not a max-plus scalar"),
        (lambda: v(10**400), ScalarOverflowError, "value exceeds the float range"),
        (lambda: TropMatrix(((1, None),)), InvalidScalarError, "None is not a max-plus scalar"),
        (lambda: TropMatrix(((1,), ("a",))), InvalidScalarError, "'a' is not a max-plus scalar"),
        (lambda: TropMatrix(((-(10**400),),)), ScalarOverflowError, "value exceeds the float range"),
        (lambda: TropMatrix(()), ShapeMismatchError, "matrices must be nonempty"),
        (lambda: TropMatrix(((),)), ShapeMismatchError, "matrices must be nonempty"),
        (lambda: TropMatrix(((1, 2), (3,))), ShapeMismatchError, "matrix rows have unequal lengths"),
        (lambda: TwoSidedProblem(v(1, orientation="row"), v(1)), ShapeMismatchError,
         "p must be a column vector"),
        (lambda: TwoSidedProblem(v(NEG_INF), v(1)), NotRegularError,
         "p must be regular (no zero elements)"),
        (lambda: TwoSidedProblem(v(1), v(1, 2)), ShapeMismatchError, "q must have dimension 1, got 2"),
        (lambda: TwoSidedProblem(v(1, 2), v(1, 2), g=v(0)), ShapeMismatchError,
         "g must be a column vector of dimension 2"),
        (lambda: TwoSidedProblem(v(1), v(1), h=v(NEG_INF)), NotRegularError,
         "h must be regular (no zero elements)"),
        (lambda: TwoSidedProblem(v(1), v(1), g=v(2), h=v(1)), InfeasibleBoundsError,
         "lower bound g exceeds upper bound h"),
        (lambda: MatrixLowerProblem(TropMatrix(((1, NEG_INF),)), v(1), v(1), v(0, 0)),
         NotRegularError, "A must be row- and column-regular"),
        (lambda: MatrixLowerProblem(A, v(1), v(1), v(0, 0, 0)), ShapeMismatchError,
         "p must have dimension 3, got 1"),
        (lambda: MatrixLowerProblem(A, v(1, 2, 3), v(1, 2, 3), v(0, 0)), ShapeMismatchError,
         "g must be a column vector of dimension 3"),
        (lambda: BestUnderProblem(A, v(1, 2)), ShapeMismatchError,
         "A and p dimensions do not conform"),
        (lambda: IntervalSolution(math.inf, v(0), v(0), 0.0), ScalarOverflowError,
         "optimum inf exceeds the float range"),
        (lambda: IntervalSolution(1.0, v(1), v(0), 0.0), TropicalError,
         "solution interval has lower > upper"),
        (lambda: IntervalSolution(1.0, v(NEG_INF), v(NEG_INF), 0.0), NotRegularError,
         "solution interval upper endpoint must be regular"),
        (lambda: IntervalSolution(1.0, v(0), v(1), 2.0), TropicalError,
         "optimum cannot be below its intrinsic bound"),
        # a NaN optimum is no scalar, not an overflow
        pytest.param(lambda: PointSolution(math.nan, v(0), 0.0), InvalidScalarError,
                     "nan is not a max-plus scalar", id="point-mu-nan"),
        (lambda: PointSolution(1.0, v(0, NEG_INF), 0.0), NotRegularError,
         "attaining vector must be regular"),
        (lambda: LocationProblem(v(1, orientation="row"), v(1)), ShapeMismatchError,
         "r must be a column vector"),
        (lambda: LocationProblem(v(1), v(NEG_INF)), NotRegularError, "s must be regular"),
        (lambda: LocationProblem(v(1), v(5, 2)), ShapeMismatchError, "s must have dimension 1, got 2"),
        (lambda: LocationProblem(v(1, 2), v(2, 1), h=v(3)), ShapeMismatchError,
         "h must have dimension 2, got 1"),
        (lambda: ApproximationProblem(A, v(1, 2, 3), v(0)), ShapeMismatchError,
         "g must be a column vector of dimension 3"),
        (lambda: OracleReport(1.0, v(0), 0), TropicalError,
         "an oracle report must cover at least one point"),
        # a point count that is no int would end in a builtin TypeError
        pytest.param(lambda: OracleReport(1.0, v(0), "a"), TropicalError,
                     "an oracle report must cover at least one point", id="oracle-count-str"),
        pytest.param(lambda: OracleReport(1.0, v(0), None), TropicalError,
                     "an oracle report must cover at least one point", id="oracle-count-none"),
        pytest.param(lambda: OracleReport(1.0, v(0), 2.0), TropicalError,
                     "an oracle report must cover at least one point", id="oracle-count-float"),
        # a solution's mu and delta are checked scalars, as a vector's elements are
        pytest.param(lambda: IntervalSolution("a", v(0), v(0), 0.0), InvalidScalarError,
                     "'a' is not a max-plus scalar", id="interval-mu-str"),
        pytest.param(lambda: PointSolution(None, v(0), 0.0), InvalidScalarError,
                     "None is not a max-plus scalar", id="point-mu-none"),
        pytest.param(lambda: PointSolution(10**400, v(0), 0.0), ScalarOverflowError,
                     "value exceeds the float range", id="point-mu-big-int"),
        pytest.param(lambda: IntervalSolution(-(10**400), v(0), v(0), 0.0), ScalarOverflowError,
                     "value exceeds the float range", id="interval-mu-big-int"),
        pytest.param(lambda: IntervalSolution(math.nan, v(0), v(0), 0.0), InvalidScalarError,
                     "nan is not a max-plus scalar", id="interval-mu-nan"),
        pytest.param(lambda: PointSolution(1.0, v(0), math.nan), InvalidScalarError,
                     "nan is not a max-plus scalar", id="point-delta-nan"),
        pytest.param(lambda: IntervalSolution(1.0, v(0), v(0), None), InvalidScalarError,
                     "None is not a max-plus scalar", id="interval-delta-none"),
        pytest.param(lambda: PointSolution(1.0, v(0), math.inf), ScalarOverflowError,
                     "value exceeds the float range", id="point-delta-inf"),
        # past the scalar check, an infinite optimum fails the finite test
        pytest.param(lambda: PointSolution(NEG_INF, v(0), 0.0), ScalarOverflowError,
                     "optimum -inf exceeds the float range", id="point-mu-neg-inf"),
        # the diagnostic terms are checked scalars too, or None
        pytest.param(lambda: IntervalSolution(1.0, v(0), v(0), 0.0, g_term="x"), InvalidScalarError,
                     "'x' is not a max-plus scalar", id="interval-g_term-str"),
        pytest.param(lambda: IntervalSolution(1.0, v(0), v(0), 0.0, h_term=math.nan), InvalidScalarError,
                     "nan is not a max-plus scalar", id="interval-h_term-nan"),
        pytest.param(lambda: PointSolution(1.0, v(0), 0.0, g_term=10**400), ScalarOverflowError,
                     "value exceeds the float range", id="point-g_term-big-int"),
        # a solution's points are column vectors
        pytest.param(lambda: IntervalSolution(1.0, None, None, 0.0), ShapeMismatchError,
                     "lower must be a column vector", id="interval-lower-none"),
        pytest.param(lambda: IntervalSolution(1.0, v(0), v(0, orientation="row"), 0.0), ShapeMismatchError,
                     "upper must be a column vector", id="interval-upper-row"),
        pytest.param(lambda: PointSolution(1.0, (0.0, 0.0), 0.0), ShapeMismatchError,
                     "x must be a column vector", id="point-x-tuple"),
        # a problem takes column vectors and a matrix A, and None only for
        # an optional bound; orientation comes before every other check
        pytest.param(lambda: TwoSidedProblem(v(1), None), ShapeMismatchError,
                     "q must be a column vector", id="two_sided-q-none"),
        pytest.param(lambda: TwoSidedProblem(v(1, 2), v(1, 2), g=v(0, 0, orientation="row")),
                     ShapeMismatchError, "g must be a column vector", id="two_sided-g-row"),
        pytest.param(lambda: MatrixLowerProblem(A, v(1, 2, 3), v(1, 2, 3), v(0, 0, 0, orientation="row")),
                     ShapeMismatchError, "g must be a column vector", id="matrix_lower-g-row"),
        pytest.param(lambda: MatrixLowerProblem(None, v(1), v(1), v(0)), ShapeMismatchError,
                     "A must be a matrix", id="matrix_lower-A-none"),
        pytest.param(lambda: MatrixLowerProblem(v(1), v(1), v(1), v(0)), ShapeMismatchError,
                     "A must be a matrix", id="matrix_lower-A-vector"),
        pytest.param(lambda: MatrixLowerProblem(A, A, v(1, 2, 3), v(0, 0, 0)), ShapeMismatchError,
                     "p must be a column vector", id="matrix_lower-p-matrix"),
        pytest.param(lambda: ApproximationProblem(A, v(1, 2, 3), v(0, 0, 0, orientation="row")),
                     ShapeMismatchError, "g must be a column vector", id="approximate-g-row"),
        pytest.param(lambda: ApproximationProblem(A, v(1, 2, 3), None), ShapeMismatchError,
                     "g must be a column vector", id="approximate-g-none"),
        pytest.param(lambda: BestUnderProblem(A, v(1, 2, 3, orientation="row")), ShapeMismatchError,
                     "p must be a column vector", id="best_under-p-row"),
        pytest.param(lambda: LocationProblem(v(0, 0), None), ShapeMismatchError,
                     "s must be a column vector", id="locate-s-none"),
        pytest.param(lambda: LocationProblem(v(1), v(1), g=[0]), ShapeMismatchError,
                     "g must be a column vector", id="locate-g-list"),
        pytest.param(lambda: LocationProblem(v(NEG_INF), v(1), h=v(1, orientation="row")),
                     ShapeMismatchError, "h must be a column vector", id="locate-h-row-before-r-regular"),
        # a container takes a sequence, not a str, of scalars or of rows
        pytest.param(lambda: TropVector(None), ShapeMismatchError,
                     "vector elements must be a sequence, not NoneType", id="vector-none"),
        pytest.param(lambda: TropVector(5), ShapeMismatchError,
                     "vector elements must be a sequence, not int", id="vector-int"),
        pytest.param(lambda: TropVector("12"), ShapeMismatchError,
                     "vector elements must be a sequence, not str", id="vector-str"),
        pytest.param(lambda: TropMatrix(None), ShapeMismatchError,
                     "matrix entries must be a sequence, not NoneType", id="matrix-none"),
        pytest.param(lambda: TropMatrix((1, 2)), ShapeMismatchError,
                     "a matrix row must be a sequence, not int", id="matrix-int-rows"),
        pytest.param(lambda: TropMatrix(("12",)), ShapeMismatchError,
                     "a matrix row must be a sequence, not str", id="matrix-str-row"),
    ],
)
def test_constructor_errors(build, error, message):
    with pytest.raises(TropicalError) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message
