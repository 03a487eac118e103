"""Fuzzing the command line in process: any problem file, any bytes or
any document shaped like a problem file, ends ``solve``, ``verify`` and
``eval`` with exit 0 and a result, exit 1 and a one-line JSON error on
stderr, or exit 2 and a JSON error with a ``reason``, never with an
exception.  And the library front: value types built from any element
or from a value that is no sequence of scalars, each problem class from
any argument, every public function of a problem on every class and on
any other value, every objective, ``certify`` (on every problem class,
on any value in place of a problem or a solution, and on solutions made
by hand with any ``mu``, ``delta``, diagnostic term or point), the
residuation and an ``OracleReport`` of any point count end in a value or
a ``TropicalError``."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropopt import (
    ApproximationProblem,
    BestUnderProblem,
    IntervalSolution,
    LocationProblem,
    MatrixLowerProblem,
    OracleReport,
    PointSolution,
    TropicalError,
    TropMatrix,
    TropVector,
    TwoSidedProblem,
    approximate,
    best_underestimator,
    certify,
    locate,
    matrix_lower_terms,
    max_solution_leq,
    objective_best_under,
    objective_matrix,
    objective_two_sided,
    reduced_matrix_lower,
    reduced_two_sided,
    solve_matrix_lower,
    solve_two_sided,
    two_sided_terms,
    vec_leq,
)
from tropopt.cli import main

KEYS = {
    "two_sided": "p q g h",
    "matrix_lower": "A p q g",
    "locate": "r s g h",
    "approximate": "A p g",
    "best_under": "A p",
}
# numbers, mostly small and exact, and every other kind of element a
# decoded file can hold; "1e400" is written as that literal, which json
# reads as inf
numbers = st.one_of(
    st.integers(-4, 4),
    st.integers(-8, 8).map(lambda k: k / 2),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, "-inf"]),
)
tokens = st.one_of(
    numbers,
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([10**400, -(10**400), "1e400", "inf", "NaN", "", True, False, None]),
)
LITERALS = {'"1e400"': "1e400"}
BAD_POINTS = ["[0", "{}", "[[1]]", "[]", '"-inf"']


@st.composite
def cases(draw):
    """A problem file's document and a command line.  Mostly the document
    is a real kind's, with each key present and numbers of the right
    dimensions; one draw in ten or so a kind, a key, a value's type or
    length, or the whole document is wrong.  ``eval`` takes a point of
    the right dimension or not, or one that is no array."""

    def often(good, bad):
        return draw(good if draw(st.integers(0, 9)) else bad)

    kind = often(st.sampled_from(list(KEYS)), st.sampled_from(["frobnicate", None, 1, ["two_sided"]]))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    junk = st.one_of(st.lists(tokens, max_size=4), tokens)
    keys = KEYS[kind] if isinstance(kind, str) and kind in KEYS else "p q"
    doc = {"kind": kind}
    for key in keys.split():
        if not draw(st.integers(0, 19)):
            continue  # a missing key
        size = m if key in "pq" and "A" in keys else n
        rows = st.lists(st.lists(numbers, min_size=n, max_size=n), min_size=m, max_size=m)
        doc[key] = often(rows if key == "A" else st.lists(numbers, min_size=size, max_size=size), junk)
    if not draw(st.integers(0, 9)):
        doc[draw(st.sampled_from(["name", "description", "z", "A", "r", "h"]))] = draw(st.one_of(st.text(max_size=3), junk))
    doc = often(st.just(doc), st.sampled_from([[doc], None, "two_sided"]))
    command = draw(st.sampled_from(["solve", "verify", "eval"]))
    if command != "eval":
        return doc, [command]
    point = often(st.lists(numbers, min_size=n, max_size=n).map(json.dumps), st.one_of(
        st.lists(tokens, max_size=4).map(json.dumps), st.sampled_from(BAD_POINTS)
    ))
    return doc, ["eval", "--point", point]


@pytest.fixture(scope="module")
def problem_file():
    with tempfile.TemporaryDirectory() as directory:
        yield Path(directory) / "problem.json"


def run_on(path: Path, command: list) -> None:
    """Run ``command`` on ``path`` in process and check how it ends."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], str(path), *command[1:]])
    if code == 1:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
        assert json.loads(err.getvalue())["error"]["reason"] in ("unreadable_input", "unwritable_output")
        return
    assert err.getvalue() == ""
    result = json.loads(out.getvalue())
    if code == 0:
        assert "error" not in result
    else:
        assert code == 2 and isinstance(result["error"]["reason"], str), (code, result)


@settings(max_examples=300, deadline=None)
@given(content=st.binary(max_size=80), command=st.sampled_from([["solve"], ["verify"], ["eval", "--point", "[0]"]]))
def test_any_bytes_end_in_an_exit_code(problem_file, content, command):
    problem_file.write_bytes(content)
    run_on(problem_file, command)


@settings(max_examples=600, deadline=None)
@given(case=cases())
def test_any_shaped_document_ends_in_an_exit_code(problem_file, case):
    doc, command = case
    text = json.dumps(doc)
    for token, literal in LITERALS.items():
        text = text.replace(token, literal)
    problem_file.write_text(text)
    run_on(problem_file, command)


# per problem class: its payload keys, the optional ones last, its
# public solver and its objective
FRONT = {
    TwoSidedProblem: ("p q", "g h", solve_two_sided, objective_two_sided),
    MatrixLowerProblem: ("A p q g", "", solve_matrix_lower, objective_matrix),
    LocationProblem: ("r s", "g h", locate, objective_two_sided),
    ApproximationProblem: ("A p g", "", approximate, objective_matrix),
    BestUnderProblem: ("A p", "", lambda prob: best_underestimator(prob.A, prob.p), objective_best_under),
}
# every public function of a problem alone, and of a problem and a point
OF_A_PROBLEM = (
    solve_two_sided, solve_matrix_lower, locate, approximate, two_sided_terms, matrix_lower_terms,
    reduced_two_sided, reduced_matrix_lower,
)
OBJECTIVES = (objective_two_sided, objective_matrix, objective_best_under)
# elements of a value: mostly valid scalars, else anything a caller may pass
scalars = st.one_of(st.integers(-4, 4), st.sampled_from([float("-inf"), 0.5, -0.0, 1e308, -1e308]))
elements = st.one_of(
    scalars,
    st.floats(),
    st.integers(-(10**400), 10**400),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)
# arguments of the wrong type: no vector at all, a row, a matrix where a
# vector goes, a vector where a matrix goes, a problem of each class
_v, _A = TropVector((0,)), TropMatrix(((0,),))
WRONG = (
    None, (0, 1), [0, 1], "01", 3, TropVector((0, 1), "row"), _A, _v,
    TwoSidedProblem(_v, _v), MatrixLowerProblem(_A, _v, _v, _v), LocationProblem(_v, _v),
    ApproximationProblem(_A, _v, _v), BestUnderProblem(_A, _v),
)
wrong = st.sampled_from(WRONG)
# what a vector's elements or a matrix's entries may be that is no
# sequence of scalars, or of rows of them
not_sequences = st.sampled_from([None, 5, "12", b"12", (1, 2)])


def ends_well(call):
    """``call()``'s value, or None where it raises a ``TropicalError``;
    any other exception fails the test."""
    try:
        return call()
    except TropicalError:
        return None


@st.composite
def front_cases(draw):
    """A problem class and builders of its values, and of a point: each
    value of the size its role needs, its elements valid scalars and its
    orientation a column, but one draw in ten or so a size, an
    orientation or the elements are any, or the value is one of
    ``WRONG``."""

    def often(good, bad):
        return good if draw(st.integers(0, 9)) else bad

    def vector(size):
        if not draw(st.integers(0, 9)):
            value = draw(wrong)
            return lambda: value
        size = draw(often(st.just(size), st.integers(1, 3)))
        items = often(tuple(draw(st.lists(often(scalars, elements), min_size=size, max_size=size))),
                      draw(not_sequences))
        orientation = draw(often(st.just("col"), st.sampled_from(["col", "row", "diag"])))
        return lambda: TropVector(items, orientation)

    def matrix(m, n):
        if not draw(st.integers(0, 9)):
            value = draw(wrong)
            return lambda: value
        row = st.lists(often(scalars, elements), min_size=n, max_size=n)
        entries = often(tuple(map(tuple, draw(st.lists(row, min_size=m, max_size=m)))),
                        draw(not_sequences))
        return lambda: TropMatrix(entries)

    cls = draw(st.sampled_from(list(FRONT)))
    required, optional, solver, objective = FRONT[cls]
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    builders = {}
    for key in required.split() + [key for key in optional.split() if draw(st.booleans())]:
        builders[key] = matrix(m, n) if key == "A" else vector(m if key in "pq" and "A" in required else n)
    return cls, builders, solver, objective, vector(n)


def hand_made(sol, mu, delta, terms, swap):
    """Solutions built from ``sol``'s points, each passed through ``swap``,
    with ``mu``, ``delta`` and the diagnostic ``terms``: one of ``sol``'s
    shape and one of the other."""
    if isinstance(sol, IntervalSolution):
        lower, upper = swap(sol.lower), swap(sol.upper)
        return (lambda: IntervalSolution(mu, lower, upper, delta, *terms),
                lambda: PointSolution(mu, lower, delta, *terms))
    x = swap(sol.x)
    return lambda: PointSolution(mu, x, delta, *terms), lambda: IntervalSolution(mu, x, x, delta, *terms)


# a hand-made solution's mu, delta or term drawn as this is the solver's,
# and a point drawn as this is the solver's point
SOLVERS = object()
made_scalars = st.one_of(st.just(SOLVERS), elements)
made_points = st.one_of(st.just(SOLVERS), wrong)


@settings(max_examples=400, deadline=None)
@given(
    case=front_cases(), mu=made_scalars, delta=made_scalars,
    terms=st.tuples(made_scalars, made_scalars), made_point=made_points, other=wrong,
    count=st.one_of(st.integers(-1, 3), elements),
)
def test_library_front_ends_in_a_value_or_a_tropical_error(case, mu, delta, terms, made_point, other, count):
    # every function of a problem takes every problem class, and any value
    # in place of one; every point, solution and argument may be of the
    # wrong type
    cls, builders, solver, objective, point = case
    ends_well(lambda: OracleReport(0.0, point(), count))
    if "A" in builders:
        for each in (best_underestimator, max_solution_leq):
            ends_well(lambda: each(builders["A"](), builders["p"]()))
    ends_well(lambda: vec_leq(point(), point()))
    prob = ends_well(lambda: cls(**{key: build() for key, build in builders.items()}))
    for each in OF_A_PROBLEM:
        ends_well(lambda: each(other))
    for each in OBJECTIVES:
        ends_well(lambda: each(other, point()))
    if prob is None:
        return
    for each in OF_A_PROBLEM:
        ends_well(lambda: each(prob))
    for each in OBJECTIVES:
        ends_well(lambda: each(prob, point()))
    sol = ends_well(lambda: solver(prob))
    if sol is None:
        return
    ends_well(lambda: certify(prob, sol))
    ends_well(lambda: certify(other, sol))
    ends_well(lambda: certify(prob, other))
    mu, delta = sol.mu if mu is SOLVERS else mu, sol.delta if delta is SOLVERS else delta
    terms = [term if made is SOLVERS else made for made, term in zip(terms, (sol.g_term, sol.h_term))]
    swap = (lambda v: v) if made_point is SOLVERS else (lambda v: made_point)
    for build in hand_made(sol, mu, delta, terms, swap):
        made = ends_well(build)
        if made is not None:
            ends_well(lambda: certify(prob, made))
