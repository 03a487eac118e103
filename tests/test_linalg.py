import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropopt import (
    MAX_PLUS,
    NEG_INF,
    InvalidScalarError,
    NotColumnRegularError,
    NotRegularError,
    ShapeMismatchError,
    TropMatrix,
    TropVector,
    ZeroVectorError,
    conjugate,
    distance,
    mat_add,
    mat_leq,
    mat_mul,
    max_solution_leq,
    scalar_mul,
    vec_leq,
)
from tropopt.semifield import check_all

regular_vec = st.lists(
    st.integers(-40, 40).map(lambda k: k / 2), min_size=1, max_size=6
).map(lambda xs: TropVector(tuple(xs)))


class TestConstruction:
    def test_empty_vector_rejected(self):
        with pytest.raises(ShapeMismatchError):
            TropVector(())

    def test_nan_rejected(self):
        with pytest.raises(InvalidScalarError):
            TropVector((1.0, math.nan))

    def test_plus_inf_rejected(self):
        with pytest.raises(InvalidScalarError):
            TropVector((math.inf,))

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ShapeMismatchError):
            TropMatrix(((1, 2), (3,)))

    def test_regular_predicates(self):
        assert TropVector((1, 2)).is_regular
        assert not TropVector((1, NEG_INF)).is_regular
        assert TropVector.zeros(3).is_zero
        A = TropMatrix(((1, NEG_INF), (NEG_INF, NEG_INF)))
        assert A.is_row_regular is False
        assert A.is_column_regular is False
        B = TropMatrix(((1, NEG_INF), (NEG_INF, 2)))
        assert B.is_regular


class TestMatAdd:
    def test_idempotent(self):
        A = TropMatrix(((1, 2), (3, 4)))
        assert mat_add(A, A) == A

    def test_zero_matrix_neutral(self):
        A = TropMatrix(((1, 2), (3, 4)))
        assert mat_add(A, TropMatrix.zeros(2, 2)) == A

    def test_entrywise_max(self):
        A = TropMatrix(((1, -1), (0, 2)))
        B = TropMatrix(((0, 3), (-2, 2)))
        assert mat_add(A, B) == TropMatrix(((1, 3), (0, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mat_add(TropMatrix(((1,),)), TropMatrix(((1, 2),)))

    def test_orientation_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mat_add(TropVector((1, 2)), TropVector((1, 2), "row"))


class TestMatMul:
    def test_conjugated_vector_times_matrix(self, approx_data):
        row = mat_mul(conjugate(TropVector((3, 4, 4))), approx_data["A"])
        assert row == TropVector((-1, -3, -2), "row")

    def test_identity_neutral(self):
        x = TropVector((5, -2, 0))
        assert mat_mul(TropMatrix.identity(3), x) == x

    def test_matrix_times_column(self, approx_data):
        g = TropVector((2, 2, 2))
        assert mat_mul(approx_data["A"], g) == TropVector((3, 5, 4))

    def test_row_times_column_is_scalar(self):
        assert mat_mul(TropVector((1, 2), "row"), TropVector((3, 4))) == 6

    def test_column_times_row_is_matrix(self):
        outer = mat_mul(TropVector((1, 2)), TropVector((0, -1), "row"))
        assert outer == TropMatrix(((1, 0), (2, 1)))

    def test_same_orientation_rejected(self):
        with pytest.raises(ShapeMismatchError):
            mat_mul(TropVector((1, 2)), TropVector((3, 4)))
        with pytest.raises(ShapeMismatchError):
            mat_mul(TropVector((1, 2), "row"), TropVector((3, 4), "row"))

    def test_column_on_left_of_matrix_rejected(self):
        with pytest.raises(ShapeMismatchError):
            mat_mul(TropVector((1, 2)), TropMatrix.identity(2))

    def test_inner_dimension_checked(self):
        with pytest.raises(ShapeMismatchError):
            mat_mul(TropMatrix.identity(2), TropVector((1, 2, 3)))


class TestScalarMul:
    def test_shifts_vector(self):
        assert scalar_mul(1, TropVector((1, 3, 2))) == TropVector((2, 4, 3))

    def test_identity_scalar(self):
        A = TropMatrix(((1, 2), (3, 4)))
        assert scalar_mul(0, A) == A

    def test_zero_scalar_absorbs(self):
        A = TropMatrix(((1, 2), (3, 4)))
        assert scalar_mul(NEG_INF, A) == TropMatrix.zeros(2, 2)


class TestConjugate:
    def test_negates_and_flips(self):
        assert conjugate(TropVector((3, 4, 4))) == TropVector((-3, -4, -4), "row")

    def test_involution_on_regular(self):
        x = TropVector((1, 3, 2))
        assert conjugate(conjugate(x)) == x

    def test_zero_component_maps_to_zero(self):
        assert conjugate(TropVector((2, NEG_INF))) == TropVector((-2, NEG_INF), "row")

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            conjugate(TropVector.zeros(2))


class TestDistance:
    def test_self_distance_is_identity(self):
        x = TropVector((4, -1, 2))
        assert distance(x, x) == 0.0

    def test_known_values(self):
        assert distance(TropVector((0, 0, 0)), TropVector((1, 3, 1))) == 3
        assert distance(TropVector((-3, 1, 1)), TropVector((1, 3, -2))) == 4

    def test_symmetry(self):
        x, y = TropVector((1, -5, 0)), TropVector((2, 2, 2))
        assert distance(x, y) == distance(y, x)

    def test_requires_regular(self):
        with pytest.raises(NotRegularError):
            distance(TropVector((1, NEG_INF)), TropVector((0, 0)))

    def test_requires_matching_dims(self):
        with pytest.raises(ShapeMismatchError):
            distance(TropVector((1,)), TropVector((0, 0)))

    @given(regular_vec, regular_vec)
    def test_chebyshev_identity(self, x, y):
        if x.dim != y.dim:
            return
        expected = max(abs(b - a) for a, b in zip(x, y))
        assert distance(x, y) == expected


class TestResiduation:
    def test_worked_example(self, approx_data):
        assert max_solution_leq(approx_data["A"], approx_data["p"]) == TropVector((1, 3, 2))

    def test_identity_matrix_gives_bound(self):
        p = TropVector((3, 4, 4))
        assert max_solution_leq(TropMatrix.identity(3), p) == p

    def test_column_regularity_required(self):
        A = TropMatrix(((1, NEG_INF), (0, NEG_INF)))
        with pytest.raises(NotColumnRegularError):
            max_solution_leq(A, TropVector((0, 0)))

    def test_regular_bound_required(self):
        with pytest.raises(NotRegularError):
            max_solution_leq(TropMatrix.identity(2), TropVector((1, NEG_INF)))

    def test_feasible_and_dominates_samples(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m, n = rng.integers(2, 5, size=2)
            A = TropMatrix(tuple(tuple(map(int, row)) for row in rng.integers(-10, 11, (m, n))))
            p = TropVector(tuple(map(int, rng.integers(-10, 11, m))))
            xs = max_solution_leq(A, p)
            assert vec_leq(mat_mul(A, xs), p)
            # every feasible sample must be dominated componentwise
            for _ in range(40):
                x = TropVector(tuple(v + d for v, d in zip(xs, rng.integers(-4, 3, n) / 2)))
                if vec_leq(mat_mul(A, x), p):
                    assert vec_leq(x, xs)


class TestOrderProperties:
    @given(regular_vec, regular_vec)
    def test_conjugation_is_antitone(self, x, y):
        if x.dim != y.dim:
            return
        lo = TropVector(tuple(min(a, b) for a, b in zip(x, y)))
        hi = TropVector(tuple(max(a, b) for a, b in zip(x, y)))
        assert vec_leq(lo, hi)
        assert vec_leq(conjugate(hi), conjugate(lo))

    def test_conjugate_cancels_to_identity(self):
        x = TropVector((2, NEG_INF, -7))
        assert mat_mul(conjugate(x), x) == 0.0

    @given(regular_vec)
    def test_outer_product_dominates_identity(self, x):
        outer = mat_mul(x, conjugate(x))
        assert mat_leq(TropMatrix.identity(x.dim), outer)

    def test_products_are_monotone(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m, k, n = rng.integers(1, 4, size=3)
            A = rng.integers(-9, 10, (m, k))
            B = rng.integers(-9, 10, (k, n))
            A2 = A + rng.integers(0, 4, (m, k))
            B2 = B + rng.integers(0, 4, (k, n))
            lhs = mat_mul(TropMatrix(tuple(map(tuple, A))), TropMatrix(tuple(map(tuple, B))))
            rhs = mat_mul(TropMatrix(tuple(map(tuple, A2))), TropMatrix(tuple(map(tuple, B2))))
            assert mat_leq(lhs, rhs)


# Reference: the per-scalar definitions, one sf.add / sf.mul call per term.
sf = MAX_PLUS
def _grid(v):
    if isinstance(v, TropVector):
        return [[e] for e in v] if v.orientation == "col" else [list(v)]
    return [list(row) for row in v.entries]


def _naive_mul(a, b):
    ga, gb = _grid(a), _grid(b)
    out = []
    for i in range(len(ga)):
        row = []
        for j in range(len(gb[0])):
            acc = sf.zero
            for t in range(len(gb)):
                acc = sf.add(acc, sf.mul(ga[i][t], gb[t][j]))
            row.append(acc)
        out.append(row)
    return out


def _same(xs, ys):
    """Bit-for-bit equality of two flat float sequences: value and sign."""
    return len(xs) == len(ys) and all(
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y) for x, y in zip(xs, ys)
    )


def _flat(grid):
    return [e for row in grid for e in row]


# half-integers, both signed zeros and the zero element
scalars = st.one_of(st.integers(-12, 12).map(lambda k: k / 2), st.sampled_from([0.0, -0.0, NEG_INF]))


@st.composite
def product_operands(draw):
    """Two conforming operands of one of the five shapes."""
    m, k, n = (draw(st.integers(1, 4)) for _ in range(3))
    shape = draw(st.sampled_from(["row x col", "col x row", "row x mat", "mat x col", "mat x mat"]))

    def vec(d, orientation):
        return TropVector(tuple(draw(st.lists(scalars, min_size=d, max_size=d))), orientation)

    def mat(r, c):
        rows = draw(st.lists(st.lists(scalars, min_size=c, max_size=c), min_size=r, max_size=r))
        return TropMatrix(tuple(map(tuple, rows)))

    left, right = shape.split(" x ")
    a = vec(k, "row") if left == "row" else vec(m, "col") if left == "col" else mat(m, k)
    b = vec(k, "col") if right == "col" else vec(n, "row") if right == "row" else mat(k, n)
    return a, b


@st.composite
def same_shape_pair(draw):
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = st.lists(st.lists(scalars, min_size=c, max_size=c), min_size=r, max_size=r)
    return tuple(TropMatrix(tuple(map(tuple, draw(cells)))) for _ in range(2))


class TestKernelsMatchScalarDefinitions:
    @given(product_operands())
    def test_mat_mul(self, operands):
        a, b = operands
        got = mat_mul(a, b)
        want = _naive_mul(a, b)
        if isinstance(got, float):
            assert _same([got], _flat(want))
        else:
            assert _same(_flat(_grid(got)), _flat(want))

    @given(same_shape_pair())
    def test_mat_add_and_order(self, pair):
        a, b = pair
        want = [[sf.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)]
        assert _same(_flat(_grid(mat_add(a, b))), _flat(want))
        u, v = TropVector(a.entries[0]), TropVector(b.entries[0])
        assert _same(list(mat_add(u, v)), want[0])
        assert mat_leq(a, b) == all(
            sf.leq(x, y) for ra, rb in zip(a.entries, b.entries) for x, y in zip(ra, rb)
        )
        assert vec_leq(u, v) == all(sf.leq(x, y) for x, y in zip(u, v))
        assert vec_leq(u, mat_add(u, v)) and mat_leq(b, mat_add(a, b))

    @given(same_shape_pair(), st.data())
    def test_scalar_mul_and_conjugate(self, pair, data):
        a, _ = pair
        c = data.draw(scalars)
        want = [[sf.mul(c, v) for v in row] for row in a.entries]
        assert _same(_flat(_grid(scalar_mul(c, a))), _flat(want))
        x = TropVector(a.entries[0])
        assert _same(list(scalar_mul(c, x)), want[0])
        if x.is_zero:
            with pytest.raises(ZeroVectorError):
                conjugate(x)
        else:
            got = conjugate(x)
            assert got.orientation == "row"
            assert _same(list(got), [sf.zero if sf.is_zero(v) else sf.inv(v) for v in x])


def _outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


class TestCheckAll:
    # values near the float range make sums that overflow, on valid data
    # and around a bad element alike
    @given(
        st.lists(
            st.one_of(st.integers(-8, 8).map(float), st.sampled_from([1e308, -1e308, NEG_INF])),
            max_size=8,
        ),
        st.lists(
            st.tuples(st.integers(0, 8), st.sampled_from([math.nan, math.inf, -math.inf, "x", None])),
            max_size=3,
        ),
    )
    def test_same_error_as_per_element_check(self, values, bad):
        for pos, v in bad:
            values.insert(min(pos, len(values)), v)
        got = _outcome(lambda: check_all(values))
        want = _outcome(lambda: tuple(sf.check(v) for v in values))
        if want[0] == "ok":
            assert got[0] == "ok" and _same(got[1], want[1])
        else:
            assert got == want

    @pytest.mark.parametrize(
        "values", [[1e308, 1e308], [NEG_INF, 1e308, 1e308], [-1e308, -1e308, 0.5], [1e308, 10**308]]
    )
    def test_valid_data_whose_sum_overflows(self, values):
        assert not math.isfinite(sum(map(float, values)))
        got = check_all(values)
        assert _same(got, [sf.check(v) for v in values]) and type(got) is tuple
