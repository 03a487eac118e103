"""The passes that the solver and the certificate save, against the
longer forms in ``reference.py``.

* ``certify``'s two-sided check finds the objective at both endpoints
  of an interval from two tops, ``max(upper - q)`` and
  ``max(p - lower)``, and a third pass only where they differ or are
  zero; four passes did it before.
* The matrix certificate's g-term top is ``max(r + g)`` with ``r = q~A``,
  not one max per row, and its binding is searched only in the columns
  whose top is the bound.
* ``matrix_lower`` skips its ``A x`` attainment pass wherever an
  O(m + n) rounding bound proves that the pass cannot fail.
* ``two_sided`` skips its two or three objective passes wherever an
  O(n) rounding bound, from ``math.hypot`` of each tuple, proves that
  both endpoints attain ``mu``.
* ``matrix_data`` builds the columns of ``A`` for its regularity test
  only where row 0 holds ``-inf``; a regularity scan sums a tuple
  before it looks for ``-inf`` in it.
* ``two_sided`` returns ordered endpoints that its rounding bound
  proves to attain ``mu`` without its checks one by one, and
  ``certify``'s two-sided check returns a claim equal to its bound and
  box from an order pass and the two endpoint objectives.  Any other
  answer takes the ordered checks (the rounding-repair fixture does),
  and the matrix check takes them alone.
* ``_limit`` is one ``map`` per column, unfiltered, on checked data.
* A location file's data skip ``two_sided_data``'s checks of ``p`` and
  ``q``, whose elements are the checked ``r`` and ``s``.

Each must give the same values bit for bit, the sign of a zero too, the
same bindings, and the same error class and message, on data with
``+-1e308``, ``-inf``, ``-0.0``, half-integers and ties.
"""

import json
import math
import random
from fractions import Fraction
from operator import le
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings
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
from test_certificate import _shifted, _solved, replace
from test_golden import _case
from test_golden import _run as golden_run
from tropopt import certificate, solvers
from tropopt.applications import location_data
from tropopt.certificate import _endpoint_objectives, _interval, _matrix_bound, _matrix_lower
from tropopt.cli import parse_problem
from tropopt.semifield import _TOL, POS_INF, _close
from tropopt.solvers import (
    _attainment_proved, _endpoints_proved, _half, _halves, _limit, _matrix_terms, _matrix_value, _q_a,
    _require_endpoints_attain, _top_half, _two_sided_terms, _within_tolerance, matrix_data, matrix_lower,
)

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
    """``A`` and ``p`` of one height that ``solvers.best_under_data``
    accepts, ``_limit``'s domain: ``-inf`` entries in ``A`` and all, but
    a regular ``p`` and a column-regular ``A``."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    A = tuple(_vectors(draw, n, scalar) for _ in range(m))
    assume((NEG_INF,) * m not in zip(*A))
    return solvers.best_under_data(A, _vectors(draw, m, finite))


class TestLimit:
    @given(best_under_data())
    def test_matches_every_column_filtered(self, data):
        assert _bits(_limit(data)) == _bits(reference.limit(data))


@st.composite
def zero_dense_matrices(draw):
    """Any ``A``, two in three of its entries ``-inf``, as tuples that count their passes."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = st.one_of(st.just(NEG_INF), st.just(NEG_INF), finite)
    return tuple(_Counted(_vectors(draw, n, entries)) for _ in range(m))


class TestColumnRegularity:
    @settings(max_examples=300)
    @given(zero_dense_matrices())
    def test_matches_the_transpose(self, A):
        # a row 0 with no -inf proves every column regular, and then no
        # other row is iterated
        m, n = len(A), len(A[0])
        got = _outcome(matrix_data, A, (0.0,) * m, (0.0,) * m, (0.0,) * n)
        if NEG_INF not in A[0]:
            event("row 0 holds no -inf")
            assert [row.passes for row in A[1:]] == [0] * (m - 1)
        if (NEG_INF,) * n in A or (NEG_INF,) * m in zip(*A):
            assert got == (solvers.NotRegularError, "A must be row- and column-regular")
        else:
            assert got == (A, (0.0,) * m, (0.0,) * m, (0.0,) * n)


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
        # such an A is refused where the problem is built, so no check meets it
        assert _solver_error(lambda: certify(BestUnderProblem(A, p), sol)) == _solver_error(best_underestimator, A, p)

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

    def test_interval_bound_halved_before_subtracting(self):
        # p - q overflows to -inf, but its half -1e308 is a float: the
        # solver answers, and the certificate proves the answer
        p, q = TropVector((-1e308,)), TropVector((1e308,))
        prob = TwoSidedProblem(p, q)
        sol = IntervalSolution(-1e308, TropVector((0.0,)), TropVector((0.0,)), -1e308)
        assert solve_two_sided(prob) == sol
        report = certify(prob, sol)
        assert (report.min_value, report.binding, report.max_discrepancy) == (-1e308, ("delta", 0), 0.0)


def _run(argv, doc):
    """Exit code and decoded output of ``main(argv)`` with ``doc`` on stdin."""
    code, out = golden_run(argv, json.dumps(doc))
    return code, json.loads(out)


class TestHalvedBeforeSubtracting:
    """``(p_k - q_k)/2`` is a float wherever ``p_k`` and ``q_k`` are, though
    ``p_k - q_k`` may not be: the solvers and the certificate halve first
    where the difference is infinite, and nowhere else."""

    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=5))
    def test_top_half_is_the_greatest_half(self, pairs):
        p, q = zip(*pairs)
        top = max(a - b for a, b in pairs)
        got = _top_half(p, q)
        if math.isfinite(top):
            assert _bits([got]) == _bits([top / 2])
        else:
            # each of p/2, q/2 is exact, so p/2 - q/2 is the half rounded once
            assert got == float(max(Fraction(a) - Fraction(b) for a, b in pairs) / 2)

    @given(st.lists(st.tuples(finite, st.one_of(finite, st.sampled_from([NEG_INF, POS_INF]))), min_size=1))
    def test_halves_hold_the_top_where_half_does(self, pairs):
        # the binding search: one pass of (p_k - q_k)/2, not a call per element
        p, q = zip(*pairs)
        top = _top_half(p, q)
        assume(not math.isnan(top))
        got, want = _halves(p, q, top), list(map(_half, p, q))
        i = got.index(top)
        assert i == want.index(top) and _bits([got[i]]) == _bits([want[i]])

    @pytest.mark.parametrize(
        "doc, mu",
        [
            ({"kind": "two_sided", "p": [-1e308], "q": [1e308]}, -1e308),
            ({"kind": "two_sided", "p": [1e308, 0], "q": [-1e308, 0]}, 1e308),
            ({"kind": "two_sided", "p": [1e308, 0], "q": [-1e308, 0], "h": [1e308, 1]}, 1e308),
            ({"kind": "matrix_lower", "A": [[0]], "p": [-1e308], "q": [1e308], "g": ["-inf"]}, -1e308),
        ],
        ids=["two_sided_minus", "two_sided_plus", "two_sided_plus_h", "matrix_lower"],
    )
    def test_optimum_whose_difference_overflows(self, doc, mu):
        code, solution = _run(["solve", "-"], doc)
        assert code == 0 and solution["mu"] == solution["delta"] == mu
        code, report = _run(["verify", "-"], doc)
        assert code == 0 and report["min_value"] == mu and report["binding"]["term"] == "delta"
        for point in solution["solution"].values():
            code, evaluated = _run(["eval", "-", "--point", json.dumps(point)], doc)
            assert (code, evaluated["value"], evaluated["feasible"]) == (0, mu, True)


# hostile magnitudes: the float range's edges, subnormals and any float,
# among half-integers, where ties and cancellations are common; and
# moderate ones, where the bound proves attainment
hostile_scalars = st.one_of(
    finite,
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-300, 4.5e307, -8.9e307]),
    st.floats(allow_nan=False, allow_infinity=False),
)
moderate_scalars = st.one_of(st.integers(-8, 8).map(lambda k: k / 2), st.floats(-1e3, 1e3))


@st.composite
def hostile_matrix_problems(draw):
    """``matrix_problems`` at hostile or moderate magnitudes, with ``q = p``
    (an ``approximate`` problem) now and then."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    scalars = draw(st.sampled_from(
        [hostile_scalars, st.one_of(hostile_scalars, moderate_scalars), moderate_scalars]
    ))
    rows = [_vectors(draw, n, st.one_of(scalars, scalars, st.just(NEG_INF))) for _ in range(m)]
    A = tuple(
        tuple(0.0 if a == NEG_INF and (j == i % n or i == j % m) else a for j, a in enumerate(row))
        for i, row in enumerate(rows)
    )
    p = _vectors(draw, m, scalars)
    q = p if draw(st.booleans()) else _vectors(draw, m, scalars)
    return A, p, q, _vectors(draw, n, st.one_of(scalars, st.just(NEG_INF)))


def _solved_point(data):
    """``mu``, ``qa``, ``res`` and ``x`` as ``matrix_lower`` has them where
    it reaches its attainment check, or None where it raises before."""
    try:
        qa = _q_a(data)
        delta, g_term, res = _matrix_terms(data, qa)
        mu = max(delta, g_term)
        x = solvers._no_overflow(tuple(mu - r for r in qa))
        solvers._point_checks(mu, x)
    except TropicalError:
        return None
    return mu, qa, res, x


def _magnitude(mu, qa, res, p, q):
    return max(abs(mu), *map(abs, qa), *map(abs, res), *map(abs, p), *map(abs, q))


def _matrix_docs(prefix, count):
    """Parsed ``matrix_lower`` and ``approximate`` problems of the golden generator."""
    out = []
    for kind in ("matrix_lower", "approximate"):
        rng = random.Random(f"{prefix}-{kind}")
        for _ in range(count):
            try:
                out.append(parse_problem(_case(kind, rng)[0])[1])
            except TropicalError:
                pass
    return out


class TestAttainmentBound:
    """The matrix solve's O(m + n) rounding bound in place of its ``A x`` pass."""

    @settings(max_examples=400, deadline=None)
    @given(hostile_matrix_problems())
    def test_objective_within_three_ulps_of_mu(self, data):
        solved = _solved_point(data)
        assume(solved is not None)
        mu, qa, res, x = solved
        _, p, q, _ = data
        M = _magnitude(mu, qa, res, p, q)
        assume(math.isfinite(4 * M))
        value = _matrix_value(data, x)
        assert abs(value - mu) <= 3 * math.ulp(4 * M)
        if _attainment_proved(mu, qa, res, p, q):
            event("the bound proves attainment")
            assert math.isfinite(value) and _close(value, mu)
            assert 3 * math.ulp(4 * M) <= _TOL * max(1.0, abs(mu))

    def test_guard_fires_on_moderate_magnitudes(self):
        # the bound proves attainment wherever every magnitude in play is
        # below about 10^6 (max(1, |mu|)): on the golden generator's
        # matrix problems, every one that reaches the check with its
        # integer or half-integer data
        fired = reached = 0
        for data in _matrix_docs("bound", 150):
            solved = _solved_point(data)
            if solved is None or _magnitude(*solved[:3], *data[1:3]) > 1e6:
                continue
            reached += 1
            fired += _attainment_proved(*solved[:3], *data[1:3])
        assert reached >= 100 and fired == reached

    @settings(max_examples=400, deadline=None)
    @given(hostile_matrix_problems())
    def test_solve_matches_the_full_check(self, data):
        got, want = _outcome(matrix_lower, data), _outcome(reference.matrix_lower, data)
        assert repr(got) == repr(want)

    def test_golden_problems_match_the_full_check(self):
        docs = _matrix_docs("full-check", 300)
        assert len(docs) > 400
        for data in docs:
            assert repr(_outcome(matrix_lower, data)) == repr(_outcome(reference.matrix_lower, data))


FIXTURES = Path(__file__).parent / "fixtures"


class TestAttainmentPasses:
    """How many O(m n) passes over ``A`` the matrix solve makes."""

    def _count(self, monkeypatch, data):
        calls, ax = [], solvers._ax
        monkeypatch.setattr(solvers, "_ax", lambda A, x: calls.append(x) or ax(A, x))
        A = _Counted(data[0])
        got = _outcome(matrix_lower, (A, *data[1:]))
        return got, len(calls), A.passes

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.randoms(use_true_random=False))
    def test_integer_data_make_two_passes(self, m, n, rng):
        A = tuple(tuple(float(rng.randint(-1000, 1000)) for _ in range(n)) for _ in range(m))
        p, q, g = (tuple(float(rng.randint(-1000, 1000)) for _ in range(k)) for k in (m, m, n))
        data = (A, p, q, g)
        with pytest.MonkeyPatch.context() as monkeypatch:
            got, ax_calls, passes = self._count(monkeypatch, data)
        assert got == reference.matrix_lower(data)
        assert (ax_calls, passes) == (0, 2)

    @pytest.mark.parametrize("name", ["matrix_lower_example.json", "approximation_example.json"])
    def test_fixtures_make_two_passes(self, monkeypatch, name):
        data = parse_problem(json.loads((FIXTURES / name).read_text()))[1]
        got, ax_calls, passes = self._count(monkeypatch, data)
        assert got == reference.matrix_lower(data)
        assert (ax_calls, passes) == (0, 2)

    @pytest.mark.parametrize(
        "doc, ax_calls, message",
        [
            # the golden file's two approximate problems that exit
            # precision_loss.  Here the bound proves nothing at these
            # magnitudes, and the pass runs once and refuses x
            (
                {"A": [[-3.5, -1e307, 1e308, 1e307]], "p": [1e308], "g": ["-inf", -1e307, 4.0, -1e307]},
                1, "rounding made x attain 0.0, not the optimum 4.0, by more than the tolerance",
            ),
            # here x falls below g before the attainment check: no pass is made
            (
                {
                    "A": [[0.0, -1e308], [3.0, -1.5e308], [-2.5, -1.0]],
                    "p": [-1.5e308, 4.0, -1.0],
                    "g": [1.5, "-inf"],
                },
                0, "rounding put x below g by more than the tolerance",
            ),
        ],
        ids=["attainment", "below_g"],
    )
    def test_precision_loss_documents(self, monkeypatch, doc, ax_calls, message):
        data = parse_problem({"kind": "approximate", **doc})[1]
        got, calls, passes = self._count(monkeypatch, data)
        assert got == _outcome(reference.matrix_lower, data) == (solvers.PrecisionLossError, message)
        assert (calls, passes) == (ax_calls, 2 + ax_calls)


def _full_outcome(f, *args):
    """What ``f`` returns, or its error's class, message and counterexample,
    as one ``repr``: every float bit for bit, the sign of a zero too."""
    try:
        return repr(f(*args))
    except TropicalError as e:
        return repr((type(e), str(e), getattr(e, "counterexample", None)))


# small integers, drawn alone or among the hostile magnitudes above
integers = st.integers(-6, 6).map(float)


@st.composite
def two_sided_problems(draw):
    """Data that ``two_sided_data`` accepts: regular ``p``, ``q`` and ``h``,
    ``g`` with ``-inf`` entries, either bound absent, and ``q = p`` now and then."""
    n = draw(st.integers(1, 4))
    scalars = draw(st.sampled_from([integers, hostile_scalars, st.one_of(integers, hostile_scalars)]))
    p = _vectors(draw, n, scalars)
    q = p if draw(st.integers(0, 4)) == 0 else _vectors(draw, n, scalars)
    g = _vectors(draw, n, st.one_of(scalars, st.just(NEG_INF))) if draw(st.booleans()) else None
    h = _vectors(draw, n, scalars) if draw(st.booleans()) else None
    if g is not None and h is not None:
        h = tuple(max(a, b) for a, b in zip(g, h))
    return solvers.two_sided_data(p, q, g, h)


@st.composite
def mixed_scale_two_sided_problems(draw):
    """``two_sided_problems`` with each vector at its own power of ten
    from 1e-323 to 1e300, near a common one or far from it, so that the
    magnitudes in play, and the ulps, differ between the tuples."""
    n = draw(st.integers(1, 4))
    base = draw(st.integers(-323, 300))
    elements = st.one_of(integers, moderate_scalars)

    def vector(zeros=False):
        exponent = min(300, max(-323, base + draw(st.sampled_from([0, 0, 0, 1, -1, 8, -8, 17, -17]))))
        values = _vectors(draw, n, st.one_of(elements, st.just(NEG_INF)) if zeros else elements)
        return tuple(v * 10.0 ** exponent for v in values)

    p = vector()
    q = p if draw(st.integers(0, 4)) == 0 else vector()
    g = vector(zeros=True) if draw(st.booleans()) else None
    h = vector() if draw(st.booleans()) else None
    if g is not None and h is not None:
        h = tuple(max(a, b) for a, b in zip(g, h))
    return solvers.two_sided_data(p, q, g, h)


def _built_endpoints(data):
    """``mu``, ``lower`` and ``upper`` as ``two_sided`` builds them, where it
    reaches its rounding bound (a finite ``mu``, ordered endpoints); else None."""
    p, q, g, h = data
    mu = max(t for t in _two_sided_terms(data) if t is not None)
    lower = tuple(a - mu for a in p) if g is None else tuple(max(a - mu, b) for a, b in zip(p, g))
    upper = tuple(a + mu for a in q) if h is None else tuple(min(a + mu, b) for a, b in zip(q, h))
    if not math.isfinite(mu) or not all(map(le, lower, upper)):
        return None
    return mu, lower, upper


class TestEndpointBound:
    """The two-sided solve's O(n) rounding bound in place of its objective passes."""

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(two_sided_problems(), mixed_scale_two_sided_problems()))
    def test_objectives_within_five_quarter_ulps_of_mu(self, data):
        built = _built_endpoints(data)
        assume(built is not None)
        mu, lower, upper = built
        p, q = data[:2]
        m = max(abs(mu), *map(abs, p + q + lower + upper))
        assume(math.isfinite(4 * m))
        values = _endpoint_objectives(lower, upper, q, p)
        assert all(abs(value - mu) <= 1.25 * math.ulp(2 * m) for value in values)
        if _endpoints_proved(mu, p, q, lower, upper):
            event("the bound proves attainment")
            assert all(math.isfinite(value) and _close(value, mu) for value in values)

    @pytest.mark.parametrize("mu", [POS_INF, NEG_INF, math.nan], ids=["inf", "-inf", "nan"])
    def test_a_mu_out_of_the_float_range_proves_nothing(self, mu):
        # c ulp(4 M) <= _TOL max(1, |mu|) alone holds for an infinite mu,
        # an infinite M's too, and for a NaN mu
        assert not _within_tolerance(2, 1.0, mu)
        assert not _endpoints_proved(mu, (1.0,), (0.0,), (0.0,), (1.0,))
        assert not _attainment_proved(mu, (1.0,), (0.0,), (1.0,), (0.0,))

    def test_an_infinite_mu_is_an_overflow(self):
        # g - q overflows, so mu is +inf: the bound proves nothing, and the
        # ordered checks find +inf in upper
        doc = {"kind": "two_sided", "p": [-1e308], "q": [-1e308], "g": [1e308]}
        assert _two_sided_terms(parse_problem(doc)[1])[1] == POS_INF
        code, out = _run(["solve", "-"], doc)
        assert (code, out["error"]["reason"]) == (2, "overflow")
        assert out["error"]["message"] == "value exceeds the float range"

    def test_fallback_refuses_what_the_bound_cannot_prove(self, monkeypatch):
        # p_3 = -1e308 puts 4 M past the float range: the bound proves
        # nothing, the ordered checks run, and lower's value 0.0 is
        # refused against mu = -0.5
        doc = {"kind": "two_sided", "p": [0.0, -4.0, -2.5, -1e308], "q": [1.0, -2.0, 0.0, 0.0]}
        data = parse_problem(doc)[1]
        mu, lower, upper = _built_endpoints(data)
        assert not _endpoints_proved(mu, *data[:2], lower, upper)
        calls, objective, objectives = [], solvers._objective, certificate._endpoint_objectives
        monkeypatch.setattr(solvers, "_objective", lambda x, *a: calls.append(x) or objective(x, *a))
        monkeypatch.setattr(certificate, "_endpoint_objectives", lambda *a: calls.append(a) or objectives(*a))
        code, out = _run(["solve", "-"], doc)
        # one objective, at lower, which it refuses: no pass before it
        assert calls == [lower]
        assert (code, out["error"]["reason"]) == (2, "precision_loss")
        message = "rounding made an endpoint attain 0.0, not the optimum -0.5, by more than the tolerance"
        assert out["error"]["message"] == message
        assert _outcome(reference.two_sided, data) == (solvers.PrecisionLossError, message)


# a claimed answer: the solver's, or one corrupted as test_certificate.py
# corrupts it, or by a rounding error, or out of the float range
CORRUPTIONS = ["none", "mu+", "mu-", "mu~", "nan", "inf", "move+", "move-", "move~", "swap", "neg_inf", "short"]


def _corrupted(answer, how, i):
    """``answer`` (an ``Interval`` or a ``Point``) corrupted ``how`` at
    coordinate ``i`` of its first point, or of its second where ``i`` is
    past the first's length."""
    mu, points = answer[0], list(answer[1:-3])
    if how.startswith("mu") or how in ("nan", "inf"):
        mu = {"mu+": mu + 0.5, "mu-": mu - 0.5, "mu~": mu + abs(mu) * 1e-12, "nan": math.nan, "inf": POS_INF}[how]
    elif how == "swap":
        points.reverse()
    elif how != "none":
        which, i = divmod(i, len(points[0]))
        point = list(points[which % len(points)])
        point[i] = {"move+": point[i] + 0.5, "move-": point[i] - 0.5, "move~": point[i] * (1 + 1e-12),
                    "neg_inf": NEG_INF, "short": None}[how]
        points[which % len(points)] = tuple(v for v in point if v is not None)
    return type(answer)((mu, *points, *answer[-3:]))


class TestSuccessPaths:
    """``two_sided`` returns from its rounding bound and ``_interval`` from
    exact identities, and each runs its checks in order only where that
    fails; ``_matrix_lower`` runs them in order alone.  Each matches its
    copy in ``reference.py``, which makes every check in order, on the
    answer, report or error, bit for bit, with the same counterexample."""

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(two_sided_problems(), mixed_scale_two_sided_problems()),
        st.sampled_from(CORRUPTIONS), st.integers(0, 7),
    )
    def test_two_sided(self, data, how, i):
        want = _full_outcome(reference.two_sided, data)
        assert _full_outcome(solvers.two_sided, data) == want
        answer = _outcome(reference.two_sided, data)
        if isinstance(answer, solvers.Interval):
            sol = _corrupted(answer, how, i)
            event(f"corruption {how}")
            assert _full_outcome(_interval, data, sol) == _full_outcome(reference.interval_check, data, sol)

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(matrix_problems(), hostile_matrix_problems()), st.sampled_from(CORRUPTIONS), st.integers(0, 7)
    )
    def test_matrix_lower(self, data, how, i):
        answer = _outcome(matrix_lower, data)
        assume(isinstance(answer, solvers.Point))
        sol = _corrupted(answer, how, i)
        event(f"corruption {how}")
        assert _full_outcome(_matrix_lower, data, sol) == _full_outcome(reference.matrix_lower_check, data, sol)

    def test_golden_generator_problems(self):
        # 150 problems of each kind whose solve or check has a success
        # path, 600 in all; each answer checked as solved and corrupted
        # every way at every coordinate
        checked = 0
        for kind in ("two_sided", "locate", "matrix_lower", "approximate"):
            rng = random.Random(f"success-path-{kind}")
            for _ in range(150):
                try:
                    data = parse_problem(_case(kind, rng)[0])[1]
                except TropicalError:
                    continue
                interval = kind in ("two_sided", "locate")
                solve, check, ref = (
                    (solvers.two_sided, _interval, reference.interval_check) if interval
                    else (matrix_lower, _matrix_lower, reference.matrix_lower_check)
                )
                if interval:
                    assert _full_outcome(solve, data) == _full_outcome(reference.two_sided, data)
                answer = _outcome(solve, data)
                if not isinstance(answer, (solvers.Interval, solvers.Point)):
                    continue
                for how in CORRUPTIONS:
                    for i in range(2 * len(answer[1])):
                        sol = _corrupted(answer, how, i)
                        assert _full_outcome(check, data, sol) == _full_outcome(ref, data, sol), (kind, how, i)
                checked += 1
        assert checked >= 400


def _with_reference_checks(monkeypatch):
    """Make ``certify`` run the checks of ``reference.py``."""
    checks = {_interval: reference.interval_check, _matrix_lower: reference.matrix_lower_check}
    for cls, rule in list(certificate.RULES.items()):
        monkeypatch.setitem(certificate.RULES, cls, certificate.Rule((*rule[:3], checks.get(rule.check, rule.check))))
    monkeypatch.setattr(certificate, "_interval", reference.interval_check)


@pytest.mark.parametrize("kind", ["two_sided", "locate", "matrix_lower", "approximate"])
def test_certify_matches_the_ordered_checks_on_every_corruption(kind):
    # test_certificate.py's corruptions, fed through certify: mu +- 0.5, a
    # coordinate moved by 0.5 or within the tolerance, swapped endpoints
    # (a NaN mu, which the solution classes refuse, is TestSuccessPaths')
    cases = []
    for core, sol in _solved(kind, 20):
        ends = ("lower", "upper") if isinstance(sol, IntervalSolution) else ("x",)
        changes = [{}] + [{"mu": sol.mu + d, "delta": min(sol.delta, sol.mu + d)} for d in (0.5, -0.5)]
        changes += [
            {end: _shifted(getattr(sol, end), i, d)}
            for end in ends for i in range(getattr(sol, end).dim) for d in (0.5, -0.5, 1e-10)
        ]
        if len(ends) == 2:
            changes.append({"lower": sol.upper, "upper": sol.lower})
        for change in changes:
            try:
                cases.append((core, replace(sol, **change)))
            except TropicalError:  # lower above upper: not an interval
                pass
    got = [_full_outcome(certify, *case) for case in cases]
    with pytest.MonkeyPatch.context() as monkeypatch:
        _with_reference_checks(monkeypatch)
        want = [_full_outcome(certify, *case) for case in cases]
    assert got == want
    assert sum("VerificationFailedError" in w for w in want) >= 20


ROUNDING_REPAIR = FIXTURES / "rounding_repair.json"


class TestVerifyPasses:
    """Which checks a ``verify`` reaches: on integer two-sided data the
    success paths alone, on the rounding-repair fixture the ordered ones,
    and on matrix data the ordered ones alone."""

    ORDERED = ("_two_sided_value", "_require_endpoints_attain", "_check_attains", "_above_g", "_matrix_value")

    def _counting(self, monkeypatch):
        """The names of ``ORDERED`` called in ``solvers`` or ``certificate``,
        and of ``_endpoint_objectives`` called in ``certificate``, from now
        on, as they are called."""
        calls = []
        for module, names in ((solvers, self.ORDERED), (certificate, ("_endpoint_objectives", *self.ORDERED))):
            for name in names:
                fn = getattr(module, name, None)
                if fn is not None:
                    monkeypatch.setattr(module, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        return calls

    def _verify(self, monkeypatch, text):
        calls = self._counting(monkeypatch)
        code, out = golden_run(["verify", "-"], text)
        return code, json.loads(out), sorted(calls)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.booleans(), st.booleans(), st.randoms(use_true_random=False))
    def test_integer_two_sided_verify_takes_the_success_paths(self, n, has_g, has_h, rng):
        doc = {"kind": "two_sided", **{k: [rng.randint(-9, 9) for _ in range(n)] for k in "pq"}}
        if has_g:
            doc["g"] = [rng.randint(-12, 0) for _ in range(n)]
        if has_h:
            doc["h"] = [rng.randint(1, 12) for _ in range(n)]
        with pytest.MonkeyPatch.context() as monkeypatch:
            code, report, calls = self._verify(monkeypatch, json.dumps(doc))
        assert code == 0 and report["max_discrepancy"] == 0
        # the solve's rounding bound proves the endpoints attain mu, so
        # _endpoint_objectives runs once, in the check, and no ordered check
        assert calls == ["_endpoint_objectives"]

    def test_rounding_repair_takes_both_ordered_paths(self, monkeypatch):
        # p - delta rounds above q + delta: the solve raises upper to lower
        # and checks each endpoint in order, and the check, whose upper
        # endpoint is not q + mu, walks with the tolerance
        code, report, calls = self._verify(monkeypatch, ROUNDING_REPAIR.read_text())
        assert code == 0 and report["agrees_with_solver"] is True
        assert report["max_discrepancy"] == 4.440892098500626e-16
        assert calls == ["_check_attains", "_require_endpoints_attain", "_two_sided_value", "_two_sided_value"]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 5), st.randoms(use_true_random=False))
    def test_matrix_check_makes_three_passes(self, m, n, rng):
        # r = q~A and res = A (q~A)~ for the bound, and A x: each iterates
        # every row once, and only the delta binding's search one row more;
        # the ordered checks make the A x pass
        A = tuple(tuple(float(rng.randint(-20, 20)) for _ in range(n)) for _ in range(m))
        p, q, g = (tuple(float(rng.randint(-20, 20)) for _ in range(k)) for k in (m, m, n))
        sol = matrix_lower((A, p, q, g))
        rows = tuple(map(_Counted, A))
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = self._counting(monkeypatch)
            report = _matrix_lower((rows, p, q, g), sol)
        assert calls == ["_above_g", "_check_attains", "_matrix_value"]
        assert report == reference.matrix_lower_check((A, p, q, g), sol)
        passes = sorted(row.passes for row in rows)
        assert passes[0] == 3 and passes[-1] <= 4 and passes[-2] == 3
