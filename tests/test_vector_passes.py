"""The vector path's builtin passes against per-scalar references.

The solvers take the elementwise max or min of two vectors as one
comparison per element, and the command line serializes an integral
vector with one ``map(int, ...)`` pass.  Each must give bit for bit what
the scalar definitions give: ``MAX_PLUS.add`` and ``min`` per pair, and
``_scalar_out`` per element.  The best-under objective is one pass over
``A``'s rows and one over ``p``, and must give what the product
``(A x)~ p`` of two ``mat_mul`` calls gives.  ``check_all``'s one-sum
filter is tested against ``MAX_PLUS.check`` in ``test_linalg.py``.
"""

import json
import math
import random
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropopt import (
    NEG_INF,
    BestUnderProblem,
    ScalarOverflowError,
    TropicalError,
    TropMatrix,
    TropVector,
    TwoSidedProblem,
)
from tropopt.applications import LocationProblem, reduced_two_sided
from tropopt.cli import _scalar_out, _scalars_out, main
from tropopt.solvers import objective_best_under, solve_two_sided
from reference import MAX_PLUS, conjugate, mat_mul

add = MAX_PLUS.add


def _bits(values):
    """Values with the sign of each zero made visible."""
    return [(v, math.copysign(1.0, v)) for v in values]


# half-integers and both zeros, so that ties between -0.0 and 0.0 occur
finite = st.one_of(st.integers(-6, 6).map(lambda k: k / 2), st.sampled_from([0.0, -0.0]))


@st.composite
def location_data(draw):
    """``r``, ``s`` and box bounds ``g <= h`` of one dimension; ``g`` may
    hold the tropical zero and either bound may be absent."""
    n = draw(st.integers(1, 6))
    r, s = (draw(st.lists(finite, min_size=n, max_size=n)) for _ in range(2))
    g = draw(st.lists(st.one_of(finite, st.just(NEG_INF)), min_size=n, max_size=n))
    h = [add(gi, hi) for gi, hi in zip(g, draw(st.lists(finite, min_size=n, max_size=n)))]
    return r, s, draw(st.sampled_from([g, None])), draw(st.sampled_from([h, None]))


def _vec(values):
    return None if values is None else TropVector(tuple(values))


class TestElementwiseMaxMin:
    @given(location_data())
    def test_reduction_matches_scalar_max_and_min(self, data):
        r, s, g, h = data
        reduced = reduced_two_sided(LocationProblem(_vec(r), _vec(s), _vec(g), _vec(h)))
        want_p = [add(ri, si) for ri, si in zip(r, s)]
        assert _bits(reduced.p.elements) == _bits(want_p) == _bits(map(max, r, s))
        assert _bits(reduced.q.elements) == _bits(map(min, r, s))

    @given(location_data())
    def test_endpoints_match_scalar_max_and_min(self, data):
        p, q, g, h = data
        sol = solve_two_sided(TwoSidedProblem(_vec(p), _vec(q), _vec(g), _vec(h)))
        lower = [pi - sol.mu for pi in p]
        if g is not None:
            lower = [add(x, gi) for x, gi in zip(lower, g)]
        upper = [qi + sol.mu for qi in q]
        if h is not None:
            upper = [min(x, hi) for x, hi in zip(upper, h)]
        assert _bits(sol.lower.elements) == _bits(lower)
        assert _bits(sol.upper.elements) == _bits(upper)


class TestBulkSerialization:
    @given(st.lists(
        st.one_of(
            st.sampled_from([-0.0, 0.0, NEG_INF, 0.5, 1e308, -1e308, 2.0**53 + 2, -(2.0**53)]),
            st.integers(-9, 9).map(float),
        ),
        min_size=1, max_size=8,
    ))
    def test_vector_and_matrix_match_per_element(self, values):
        want = json.dumps([_scalar_out(v) for v in values])
        assert json.dumps(_scalars_out(tuple(values))) == want


def _token(v):
    return "-inf" if v == NEG_INF else v


def _out(v):
    return "-inf" if v == NEG_INF else int(v) if v.is_integer() else v


def _reference_solution(doc):
    """The solve output for a two_sided or locate document, built one
    scalar at a time."""
    if doc["kind"] == "locate":
        p = [add(ri, si) for ri, si in zip(doc["r"], doc["s"])]
        q = [min(ri, si) for ri, si in zip(doc["r"], doc["s"])]
    else:
        p, q = doc["p"], doc["q"]
    g, h = doc["g"], doc["h"]
    delta = 0.5 * reduce(add, [pi - qi for pi, qi in zip(p, q)]) + 0.0
    g_term = reduce(add, [gi - qi for gi, qi in zip(g, q)])
    h_term = reduce(add, [pi - hi for pi, hi in zip(p, h)])
    mu = reduce(add, [delta, g_term, h_term])
    lower = [add(pi - mu, gi) for pi, gi in zip(p, g)]
    upper = [min(qi + mu, hi) for qi, hi in zip(q, h)]
    return {
        "kind": doc["kind"],
        "mu": _out(mu),
        "delta": _out(delta),
        "solution": {"lower": list(map(_out, lower)), "upper": list(map(_out, upper))},
        "diagnostics": {"delta_term": _out(delta), "g_term": _out(g_term), "h_term": _out(h_term)},
    }


@pytest.mark.parametrize("kind", ["two_sided", "locate"])
def test_large_solve_matches_scalar_reference(capsys, tmp_path, kind):
    rng = random.Random(f"vector-passes-{kind}")
    n = 2000

    def scalar():
        return rng.choice([0.0, -0.0]) if rng.random() < 0.1 else rng.randint(-40, 40) / 2

    a, b = ("p", "q") if kind == "two_sided" else ("r", "s")
    g = [NEG_INF if rng.random() < 0.2 else scalar() for _ in range(n)]
    doc = {
        "kind": kind,
        a: [scalar() for _ in range(n)],
        b: [scalar() for _ in range(n)],
        "g": g,
        "h": [add(gi, scalar()) for gi in g],
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({k: v if k == "kind" else list(map(_token, v)) for k, v in doc.items()}))
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out == json.dumps(_reference_solution(doc)) + "\n"


def _product_defect(prob, x):
    """The best-under objective as the product ``(A x)~ p``, with the
    overflow test of the objective: the reference for the passes."""
    value = mat_mul(conjugate(mat_mul(prob.A, x)), prob.p)
    if value == math.inf:
        raise ScalarOverflowError("value exceeds the float range")
    return value


def _outcome(objective, prob, x):
    """The ``repr`` of the value, which shows the sign of a zero, or the
    reason and message of the error."""
    try:
        return repr(objective(prob, x))
    except TropicalError as exc:
        return exc.reason, str(exc)


class TestBestUnderDefect:
    def test_passes_match_the_product(self):
        rng = random.Random("best-under-defect")
        special = [0.0, -0.0, NEG_INF, 1e308, -1e308, 1.5e308, -1.5e308]

        def vec(n):
            return tuple(rng.choice(special) if rng.random() < 0.4 else rng.randint(-12, 12) / 2
                         for _ in range(n))

        outcomes = set()
        for _ in range(4000):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            rows = tuple((NEG_INF,) * n if rng.random() < 0.15 else vec(n) for _ in range(m))
            prob, x = BestUnderProblem(TropMatrix(rows), TropVector(vec(m))), TropVector(vec(n))
            want = _outcome(_product_defect, prob, x)
            assert _outcome(objective_best_under, prob, x) == want, (rows, prob.p, x)
            outcomes.add(want if isinstance(want, tuple) else want in ("0.0", "-0.0"))
        # the draws reach a zero defect, both errors and the other values
        assert outcomes >= {True, False, ("zero_vector", "the zero vector has no conjugate"),
                            ("overflow", "value exceeds the float range")}

    def test_zero_defect_is_positive_zero(self):
        # p - A x is -0.0 - 0.0 = -0.0; the product's (0.0 - 0.0) + -0.0 is 0.0
        prob = BestUnderProblem(TropMatrix(((0.0,),)), TropVector((-0.0,)))
        assert repr(objective_best_under(prob, TropVector((0.0,)))) == "0.0"

    @pytest.mark.parametrize(
        "doc, point, reason",
        [
            ({"kind": "best_under", "A": [["-inf", 0], ["-inf", 1]], "p": [0, 0]}, [0, "-inf"],
             "zero_vector"),
            ({"kind": "best_under", "A": [[1e308, 0]], "p": [0]}, [1e308, 0], "overflow"),
            ({"kind": "best_under", "A": [[-1e308]], "p": [1e308]}, [0], "overflow"),
        ],
        ids=["all_of_a_x_is_zero", "a_x_overflows", "defect_overflows"],
    )
    def test_eval_errors(self, capsys, tmp_path, doc, point, reason):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", str(path), "--point", json.dumps(point)]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["reason"] == reason
