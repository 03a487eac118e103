"""The passes that the solver and the certificate save, against the
longer forms in ``reference.py``.

* ``two_sided`` finds the objective at both endpoints of its interval
  from two tops, ``max(upper - q)`` and ``max(p - lower)``, and a third
  pass only where they differ or are zero; four passes did it before.
* The matrix certificate's g-term top is ``max(r + g)`` with ``r = q~A``,
  not one max per row, and its binding is searched only in the columns
  whose top is the bound.
* ``_limit`` filters only the columns that hold ``-inf``.
* A location file's data skip ``two_sided_data``'s checks of ``p`` and
  ``q``, whose elements are the checked ``r`` and ``s``.

Each must give the same values bit for bit, the sign of a zero too, the
same bindings, and the same error class and message, on data with
``+-1e308``, ``-inf``, ``-0.0``, half-integers and ties.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from tropopt import (
    NEG_INF,
    BestUnderProblem,
    IntervalSolution,
    MatrixLowerProblem,
    PointSolution,
    TropicalError,
    TropMatrix,
    TropVector,
    TwoSidedProblem,
    VerificationFailedError,
    best_underestimator,
    certify,
    solve_matrix_lower,
    solve_two_sided,
)
from tropopt.applications import location_data
from tropopt.certificate import _matrix_bound
from tropopt.semifield import POS_INF
from tropopt.solvers import _endpoint_objectives, _limit, _require_endpoints_attain

# half-integers, both zeros and the float range's edges: ties between
# -0.0 and 0.0, and sums and differences that overflow to +-inf
finite = st.one_of(
    st.integers(-4, 4).map(lambda k: k / 2),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 1.7e308, -1.7e308]),
)
scalar = st.one_of(finite, st.just(NEG_INF))


def _bits(values):
    """Values with the sign of each zero made visible."""
    return [(v, math.copysign(1.0, v)) for v in values]


def _outcome(f, *args):
    """What ``f`` returns, or its error's class and message."""
    try:
        return f(*args)
    except (TropicalError, ValueError) as e:
        return type(e), str(e)


def _vectors(draw, n, elements):
    return tuple(draw(st.lists(elements, min_size=n, max_size=n)))


@st.composite
def ordered_endpoints(draw):
    """``lower <= upper`` exactly (``lower`` may hold ``-inf``) and regular ``q``, ``p``."""
    n = draw(st.integers(1, 5))
    lower = _vectors(draw, n, scalar)
    upper = tuple(max(lo, up) for lo, up in zip(lower, _vectors(draw, n, finite)))
    return lower, upper, _vectors(draw, n, finite), _vectors(draw, n, finite)


class TestEndpointObjectives:
    @given(ordered_endpoints())
    def test_values_match_four_passes(self, data):
        assert _bits(_endpoint_objectives(*data)) == _bits(reference.endpoint_objectives(*data))

    @given(ordered_endpoints(), st.sampled_from(["lower", "upper", "drawn"]), finite)
    def test_checks_match_four_passes(self, data, which, drawn):
        lower, upper, q, p = data
        at_lower, at_upper = reference.endpoint_objectives(*data)
        # mu at one endpoint's value, so the other's is checked too
        mu = {"lower": at_lower, "upper": at_upper, "drawn": drawn}[which]
        if not math.isfinite(mu):
            mu = drawn
        args = (mu, lower, upper, q, p)
        want = _outcome(reference.require_endpoints_attain, *args)
        assert _outcome(_require_endpoints_attain, *args) == want

    def test_zero_tops_keep_the_sign_of_lowers_value(self):
        # the tops are 0.0 at both ends, but lower's greatest x - q is -0.0,
        # which max takes first, as four passes do
        lower, upper, q, p = (-0.0, -1.0), (0.0, -1.0), (0.0, 0.0), (0.0, -1.0)
        values = _endpoint_objectives(lower, upper, q, p)
        assert _bits(values) == _bits(reference.endpoint_objectives(lower, upper, q, p))
        assert math.copysign(1.0, values[0]) == -1.0

    @pytest.mark.parametrize(
        "lower, upper, passes",
        [
            # both tops are 1: the objective at both ends
            ((0.0, 1.0), (2.0, 3.0), 2),
            # upper's top 3 is its objective; lower's needs max(lower - q)
            ((1.0, 1.0), (4.0, 3.0), 3),
            # lower's top 3 is its objective; upper's needs max(p - upper)
            ((-2.0, 1.0), (0.0, 1.0), 3),
        ],
        ids=["equal-tops", "upper-top-greater", "lower-top-greater"],
    )
    def test_passes(self, lower, upper, passes):
        q, p = (1.0, 2.0), (1.0, 2.0)
        counted = _Counted(lower), _Counted(upper)
        got = _endpoint_objectives(*counted, q, p)
        assert got == reference.endpoint_objectives(lower, upper, q, p)
        assert sum(v.passes for v in counted) == passes


class _Counted(tuple):
    """A tuple that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


@st.composite
def matrix_problems(draw):
    """A row- and column-regular ``A`` with regular ``p``, ``q`` and any ``g``."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [_vectors(draw, n, st.one_of(finite, finite, st.just(NEG_INF))) for _ in range(m)]
    # a finite entry at (i, i mod n) and at (j mod m, j) keeps A regular
    A = tuple(
        tuple(0.0 if a == NEG_INF and (j == i % n or i == j % m) else a for j, a in enumerate(row))
        for i, row in enumerate(rows)
    )
    return A, _vectors(draw, m, finite), _vectors(draw, m, finite), _vectors(draw, n, scalar)


def _nan_terms(data):
    """Whether an ``a_ij - q_i`` that overflowed to +inf meets a free
    ``g_j = -inf`` or a ``-inf`` entry of ``A``: NaN terms, which the
    per-row form compares by their position."""
    A, p, q, g = data
    r = [max(a - qi for a, qi in zip(col, q)) for col in zip(*A)]
    res = [max(a - rl for a, rl in zip(row, r)) for row in A]
    return any(rj == POS_INF and gj == NEG_INF for rj, gj in zip(r, g)) or any(map(math.isnan, res))


class TestMatrixBound:
    @given(matrix_problems())
    def test_bound_and_binding_match_the_per_row_form(self, data):
        if _nan_terms(data):
            return
        got, want = _matrix_bound(data), reference.matrix_bound(data)
        assert _bits([got[0]]) == _bits([want[0]])
        assert got[1:] == want[1:]

    @pytest.mark.parametrize(
        "A, q, g, binding",
        [
            # every term is 0: the first row and its first column bind
            (((0.0, 0.0), (0.0, 0.0)), (0.0, 0.0), (0.0, 0.0), (0, 0)),
            # ties in rows 1 and 2 at columns 1 and 0: row 1, column 1
            (((-5.0, -5.0), (-5.0, 1.0), (1.0, 1.0)), (0.0, 0.0, 0.0), (0.0, 0.0), (1, 1)),
            # one column binds in rows 0 and 1; the other is below it
            (((1.0, -2.0), (1.0, -2.0)), (0.0, 0.0), (2.0, 4.0), (0, 0)),
        ],
        ids=["all-tied", "rows-and-columns-tied", "one-column"],
    )
    def test_binding_is_the_first_row_and_its_first_column(self, A, q, g, binding):
        data = (A, (-9.0,) * len(A), q, g)
        assert _matrix_bound(data)[1] == ("g_term", binding) == reference.matrix_bound(data)[1]

    def test_bound_is_the_binding_term_with_its_sign(self):
        # row 0's first greatest term is 0.0 + -0.0 = 0.0, but column 0's
        # top r_0 + g_0 is -0.0 + -0.0 = -0.0, which max takes first
        data = (((-1.0, 0.0), (-0.0, -1.0)), (-4.0, -4.0), (0.0, 0.0), (-0.0, -0.0))
        bound, binding, _ = _matrix_bound(data)
        assert binding == ("g_term", (0, 1))
        assert _bits([bound]) == _bits([reference.matrix_bound(data)[0]]) == [(0.0, 1.0)]


@st.composite
def best_under_data(draw):
    """Any ``A`` and ``p`` of one height, ``-inf`` entries and all."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return tuple(_vectors(draw, n, scalar) for _ in range(m)), _vectors(draw, m, scalar)


class TestLimit:
    @given(best_under_data())
    def test_matches_every_column_filtered(self, data):
        assert _bits(_limit(data)) == _bits(reference.limit(data))


@st.composite
def location_files(draw):
    """Points and bounds as a file may give them: of unequal lengths, with
    ``-inf`` in ``r``, ``s`` or ``h``, ``g`` above ``h``, or a bound absent."""
    n = draw(st.integers(1, 4))
    lengths = st.sampled_from([n, n, n, n + 1])
    r, s = _vectors(draw, n, scalar), _vectors(draw, draw(lengths), scalar)
    g, h = (_vectors(draw, draw(lengths), scalar) if draw(st.booleans()) else None for _ in "gh")
    return r, s, g, h


class TestLocationData:
    @given(location_files())
    def test_matches_every_two_sided_check(self, doc):
        assert _outcome(location_data, *doc) == _outcome(reference.location_data, *doc)


def _solver_error(solve, *args):
    with pytest.raises(TropicalError) as info:
        solve(*args)
    return type(info.value), str(info.value)


def _certify_error(prob, sol):
    with pytest.raises(TropicalError) as info:
        certify(prob, sol)
    assert not isinstance(info.value, VerificationFailedError)
    return type(info.value), str(info.value)


class TestNoCounterexampleOutsideTheFloatRange:
    """Where the point that would disprove an answer leaves the float
    range, the solver cannot answer either: ``certify`` raises its error."""

    def test_best_under_column_with_no_finite_entry(self):
        A, p = TropMatrix(((0.0, NEG_INF), (1.0, NEG_INF))), TropVector((0.0, 0.0))
        sol = PointSolution(0.0, TropVector((-1.0, 5.0)), 0.0)
        assert _certify_error(BestUnderProblem(A, p), sol) == _solver_error(best_underestimator, A, p)

    def test_best_under_limit_that_overflows(self):
        # p_0 - a_00 = 1e308 + 1e308 overflows, so x_0 has no greatest value
        A, p = TropMatrix(((-1e308, 0.0), (NEG_INF, 0.0))), TropVector((1e308, 0.0))
        sol = PointSolution(0.0, TropVector((0.0, 0.0)), 0.0)
        assert _certify_error(BestUnderProblem(A, p), sol) == _solver_error(best_underestimator, A, p)

    def test_matrix_bound_of_plus_inf(self):
        # r_0 = 1e308 - -1e308 overflows to +inf, and so does the bound:
        # x_0 = bound - r_0 is inf - inf
        prob = MatrixLowerProblem(
            TropMatrix(((1e308,),)), TropVector((0.0,)), TropVector((-1e308,)), TropVector((NEG_INF,))
        )
        sol = PointSolution(5e307, TropVector((-1.5e308,)), 0.0)
        assert _certify_error(prob, sol) == _solver_error(solve_matrix_lower, prob)

    def test_matrix_column_whose_q_a_overflows(self):
        # r_1 = max(-1e308 - 1e308, -inf - 0) is -inf, so x_1 = bound - r_1
        # is +inf; x = (0, 0) attains 2, above the bound 1
        A = TropMatrix(((0.0, -1e308), (0.0, NEG_INF)))
        p, q, g = TropVector((0.0, 2.0)), TropVector((1e308, 0.0)), TropVector((NEG_INF, NEG_INF))
        prob = MatrixLowerProblem(A, p, q, g)
        sol = PointSolution(2.0, TropVector((0.0, 0.0)), 0.0)
        assert _certify_error(prob, sol) == _solver_error(solve_matrix_lower, prob)

    def test_interval_upper_endpoint_past_the_float_range(self):
        # with no h, upper_0 = q_0 + mu = 1e308 + 8e307 overflows
        p, q = TropVector((0.0, 1e308)), TropVector((1e308, -6e307))
        prob = TwoSidedProblem(p, q)
        sol = IntervalSolution(8e307, TropVector((-8e307, 2e307)), TropVector((1.7e308, 2e307)), 8e307)
        assert _certify_error(prob, sol) == _solver_error(solve_two_sided, prob)

    def test_interval_bound_of_minus_inf(self):
        # p - q overflows to -inf, so the bound is -inf and lo = p - bound is +inf
        p, q = TropVector((-1e308,)), TropVector((1e308,))
        prob = TwoSidedProblem(p, q)
        sol = IntervalSolution(-1e308, TropVector((0.0,)), TropVector((0.0,)), -1e308)
        assert _certify_error(prob, sol) == _solver_error(solve_two_sided, prob)
