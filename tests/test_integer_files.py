"""An integer problem file prints what the same file written in floats prints.

The readers take the set of each array's element types in one pass.  An
array of JSON integers alone needs no sum to prove it finite, and
``parse_problem`` records whether every numeric field was such an array.
Where every such array is also exact, its ``math.hypot`` below 2^50, the
data keep the ints and the core runs on them: its arithmetic is then
exact, and an answer whose ``mu`` is an int is written as it is.  Where
``mu`` is an integral float, every returned coordinate is integral
(``cli._vectors_out``), so the output writes it with no integrality
pass.  The same document with every number written as a float takes the
checked path on both sides, so the two must print the same bytes,
errors included, under ``solve``, ``verify`` and ``eval``.
"""

import json
import math
from itertools import chain
from operator import mul

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from test_golden import KINDS
from test_golden import _run as golden_run
from tropopt import TropicalError, TropMatrix, TropVector, cli
from tropopt.cli import load_problem, parse_problem, solve_loaded

# the integers a file may hold: small ones most often, and, either sign,
# ones at the exact files' bound 2^50, near 2^53, past it, and near 1e308
# written out in full (309 digits)
small = st.integers(-6, 6)
large = st.one_of(
    st.integers(2**50 - 2, 2**50 + 2),
    st.integers(2**53 - 4, 2**53 + 4),
    st.integers(2**53, 2**62),
    st.integers(10**308 - 10**292, 10**308 + 10**292),
)
integers = st.one_of(small, small, small, small, st.builds(mul, st.sampled_from([1, -1]), large))
# a point's coordinates: integers, half-integers, any finite float, or "-inf"
coordinates = st.one_of(
    integers, st.integers(-13, 13).map(lambda k: k / 2), st.floats(allow_nan=False, allow_infinity=False),
    st.just("-inf"),
)


@st.composite
def integer_files(draw):
    """A problem file of any kind whose every number is a JSON integer,
    and a point of its dimension; bounds are optional, and ``h`` is
    nonnegative."""
    kind = draw(st.sampled_from(KINDS))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def vec(k):
        return draw(st.lists(integers, min_size=k, max_size=k))

    if kind in ("two_sided", "locate"):
        a, b = ("p", "q") if kind == "two_sided" else ("r", "s")
        doc = {"kind": kind, a: vec(n), b: vec(n)}
        if draw(st.booleans()):
            doc["g"] = vec(n)
        if draw(st.booleans()):
            doc["h"] = list(map(abs, vec(n)))
    else:
        doc = {"kind": kind, "A": [vec(n) for _ in range(m)], "p": vec(m)}
        if kind == "matrix_lower":
            doc["q"] = vec(m)
        if kind != "best_under":
            doc["g"] = vec(n)
    return doc, draw(st.lists(coordinates, min_size=n, max_size=n))


def _as_floats(obj):
    """``obj`` with every int written as its float."""
    if isinstance(obj, list):
        return list(map(_as_floats, obj))
    if isinstance(obj, dict):
        return {key: _as_floats(value) for key, value in obj.items()}
    return float(obj) if type(obj) is int else obj


def _integers_bit(doc):
    """Whether ``parse_problem`` reads ``doc`` as JSON integers alone, or
    None where it refuses the document."""
    try:
        return parse_problem(doc)[3]
    except TropicalError:
        return None


def _exact(doc) -> bool:
    """Whether every array of a file of JSON integers is exact: its
    ``math.hypot`` is below 2^50, and no element is too long for a float."""
    arrays = [value for key, value in doc.items() if key != "kind"]
    arrays += doc.get("A", [])
    try:
        return all(math.hypot(*a) < 2**50 for a in arrays if type(a[0]) is int)
    except OverflowError:
        return False


def _scalar_types(fields) -> set:
    """The types of every scalar of a data tuple's fields (``A`` as rows)."""
    fields = [f for f in fields if f is not None]
    return {*map(type, chain.from_iterable(chain.from_iterable(f) if type(f[0]) is tuple else f for f in fields))}


@settings(max_examples=400, deadline=None)
@given(integer_files())
def test_integer_file_prints_what_its_float_copy_prints(drawn):
    doc, point = drawn
    text, copy = json.dumps(doc), json.dumps(_as_floats(doc))
    assert _integers_bit(json.loads(text)) in (True, None)
    assert _integers_bit(json.loads(copy)) in (False, None)
    for argv in (["solve", "-"], ["verify", "-"], ["eval", "-", "--point", json.dumps(point)]):
        got = golden_run(argv, text)
        assert got == golden_run(argv, copy), argv
    code, out = golden_run(["solve", "-"], text)
    if code:
        event(f"exit {code}: {json.loads(out)['error']['reason']}")
    else:
        mu = solve_loaded(parse_problem(doc))[0]
        event(f"{'exact' if _exact(doc) else 'inexact'} file, {type(mu).__name__} mu")


@settings(max_examples=200, deadline=None)
@given(integer_files())
def test_data_hold_ints_exactly_when_the_file_is_exact(drawn):
    doc = drawn[0]
    try:
        data = parse_problem(doc)[1]
    except TropicalError:
        return
    assert _scalar_types(data) == ({int} if _exact(doc) else {float})
    # the library's front builds its values from floats alone
    problem = load_problem(doc).problem
    fields = [getattr(problem, key) for key in type(problem)._fields]
    values = [f.entries if type(f) is TropMatrix else f.elements for f in fields if f is not None]
    assert _scalar_types(values) == {float}
    assert _scalar_types([TropVector(doc.get("p") or doc["r"]).elements]) == {float}


def _counting(monkeypatch, argv, doc):
    """The exit code and output of ``argv`` on ``doc``, and how many
    vectors went through ``_scalars_out``'s integrality pass."""
    calls = []
    checked = cli._scalars_out
    monkeypatch.setattr(cli, "_scalars_out", lambda values: calls.append(values) or checked(values))
    code, out = golden_run(argv, json.dumps(doc))
    return code, out, len(calls)


MATRIX = {"kind": "matrix_lower", "A": [[1, -1, 1], [3, 1, 0], [0, 0, 2]], "p": [3, 4, 4], "q": [2, 4, 3],
          "g": [2, 2, 2]}
TWO_SIDED = {"kind": "two_sided", "p": [3, 2], "q": [1, 1], "g": [-1000, 0]}


class TestShortcut:
    @pytest.mark.parametrize("doc", [MATRIX, TWO_SIDED], ids=["matrix_lower", "two_sided"])
    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_integer_file_makes_no_integrality_pass(self, monkeypatch, doc, command):
        code, out, passes = _counting(monkeypatch, [command, "-"], doc)
        assert (code, passes) == (0, 0)
        assert (code, out) == tuple(golden_run([command, "-"], json.dumps(_as_floats(doc))))

    @pytest.mark.parametrize(
        "doc, integer_doc",
        [
            ({**TWO_SIDED, "p": [3, 2.0]}, TWO_SIDED),
            ({**MATRIX, "A": [[1, -1, 1], [3, 1.0, 0], [0, 0, 2]]}, MATRIX),
            # g_0 binds nowhere, whether it is -1000 or -inf
            ({**TWO_SIDED, "g": ["-inf", 0]}, TWO_SIDED),
        ],
        ids=["float_in_p", "float_in_A", "minus_inf_in_g"],
    )
    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_float_or_minus_inf_token_turns_it_off(self, monkeypatch, doc, integer_doc, command):
        assert parse_problem(doc)[3] is False and parse_problem(integer_doc)[3] is True
        code, out, passes = _counting(monkeypatch, [command, "-"], doc)
        assert code == 0 and passes > 0
        assert [code, out] == golden_run([command, "-"], json.dumps(integer_doc))

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_half_integral_mu_turns_it_off(self, monkeypatch, command):
        doc = {"kind": "two_sided", "p": [3, 2], "q": [0, 1]}
        assert parse_problem(doc)[3] is True
        code, out, passes = _counting(monkeypatch, [command, "-"], doc)
        assert code == 0 and passes > 0
        result = json.loads(out)
        assert result["mu"] == 1.5
        if command == "solve":
            assert result["solution"] == {"lower": [1.5, 0.5], "upper": [1.5, 2.5]}
        else:
            assert result["argmin"] == [1.5, 0.5]


# an exact file per writer route, by the type of its mu: an int, where a
# bound's term binds; an integral float, where delta binds; and a
# half-integral one, whose lower endpoint holds g_1, an int, which
# float.is_integer refuses (Python 3.12 and later have int.is_integer)
ROUTES = {
    "int_mu": ({**TWO_SIDED, "g": [5, 0]}, 4, 0),
    "integral_float_mu": (TWO_SIDED, 1.0, 0),
    "half_integral_mu": ({"kind": "two_sided", "p": [3, 2], "q": [0, 1], "g": [0, 1]}, 1.5, 2),
}


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_each_writer_route_prints_what_the_float_copy_prints(monkeypatch, route, command):
    doc, mu, checked = ROUTES[route]
    answer = solve_loaded(parse_problem(doc))
    assert (type(answer.mu), answer.mu) == (type(mu), mu)
    code, out, passes = _counting(monkeypatch, [command, "-"], doc)
    assert (code, passes) == (0, checked if command == "solve" else checked // 2)
    assert [code, out] == golden_run([command, "-"], json.dumps(_as_floats(doc)))


# an exact file of each kind
KIND_FILES = [
    TWO_SIDED,
    MATRIX,
    {"kind": "locate", "r": [3, 2], "s": [1, 1], "g": [0, 0]},
    {"kind": "approximate", "A": MATRIX["A"], "p": [3, 4, 4], "g": [2, 2, 2]},
    {"kind": "best_under", "A": [[1, 2], [3, 4]], "p": [5, 6]},
]


@pytest.mark.parametrize("doc", KIND_FILES, ids=[doc["kind"] for doc in KIND_FILES])
def test_verify_reports_a_float_discrepancy(doc):
    code, out = golden_run(["verify", "-"], json.dumps(doc))
    assert code == 0
    assert type(json.loads(out)["max_discrepancy"]) is float


class TestIntegerArrayErrors:
    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"kind": "two_sided", "p": [1, True], "q": [0, 0]},
             'p[1]: expected a number or "-inf", got True'),
            ({"kind": "two_sided", "p": [1, 2], "q": ["0", 0]},
             "q[0]: expected a number or \"-inf\", got '0'"),
            ({**MATRIX, "A": [[1, -1, 1], [3, False, 0], [0, 0, 2]]},
             'A[1][1]: expected a number or "-inf", got False'),
            ({**MATRIX, "A": [[1, -1, 1], [3, 1, 0], [0, "2", 2]]},
             "A[2][1]: expected a number or \"-inf\", got '2'"),
        ],
        ids=["bool_in_vector", "numeric_string_in_vector", "bool_in_matrix", "numeric_string_in_matrix"],
    )
    def test_bool_or_numeric_string_is_a_parse_error(self, doc, message):
        code, out = golden_run(["solve", "-"], json.dumps(doc))
        assert code == 2
        assert json.loads(out)["error"] == {"reason": "parse_error", "message": message}

    @pytest.mark.parametrize(
        "doc, where",
        [
            ({"kind": "two_sided", "p": [1, 10**400], "q": [0, 0]}, "p[1]"),
            ({**MATRIX, "A": [[1, -1, 1], [3, 1, 0], [0, -(10**400), 2]]}, "A[2][1]"),
        ],
        ids=["vector", "matrix"],
    )
    def test_400_digit_integer_is_an_overflow(self, doc, where):
        code, out = golden_run(["solve", "-"], json.dumps(doc))
        assert code == 2
        assert json.loads(out)["error"] == {
            "reason": "overflow", "message": f"{where}: number literal exceeds the float range",
        }
