"""The library front and the tuple core agree.

The public classes validate and then call the same tuple functions that
the command line calls, so on any problem the two paths give the same
answer bit for bit, or the same error: ``TwoSidedProblem(...)`` and the
other classes with ``solve_two_sided``/``locate``/... and ``certify``
on one side, ``cli.parse_problem``, ``solve_loaded`` and
``verify_loaded`` on the other.  The problems are those of the golden
file's generator: integer, half-integer and huge data, signed zeros,
the tropical zero in ``g`` and ``A`` and, now and then, where it makes
the problem invalid, and points of the wrong dimension.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from public import core, problem, solve
from test_golden import KINDS, _case
from tropopt import (
    NEG_INF,
    BestUnderProblem,
    IntervalSolution,
    InvalidScalarError,
    MatrixLowerProblem,
    TropicalError,
    TropVector,
    certify,
    objective_best_under,
    objective_matrix,
    objective_two_sided,
)
from tropopt.cli import parse_problem, solve_loaded, verify_loaded
from tropopt.solvers import Interval

OBJECTIVES = {MatrixLowerProblem: objective_matrix, BestUnderProblem: objective_best_under}


def _float(value):
    return value if value is None else float(value)


def _bits(answer, points, report, number=lambda value: value) -> str:
    """Every number of an answer and its report, each mapped through
    ``number``, signed zeros told apart by ``repr``."""
    terms = tuple(map(number, (answer.mu, answer.delta, answer.g_term, answer.h_term)))
    points = tuple(tuple(map(number, v)) for v in points)
    return repr((terms, points, number(report.min_value), number(report.max_discrepancy), report.binding))


def _outcome(run):
    try:
        return run()
    except TropicalError as exc:
        return type(exc), str(exc)


def _command_path(doc, point):
    def solved():
        lp = parse_problem(doc)
        sol = solve_loaded(lp)
        points = (sol.lower, sol.upper) if type(sol) is Interval else (sol.x,)
        # an exact file's answers hold ints, each equal to its float, and
        # the float of an int is exact
        return _bits(sol, points, verify_loaded(lp, sol), _float)

    def evaluated():
        spec, data, _ = parse_problem(doc)
        return repr(spec.rule.objective(data, tuple(NEG_INF if v == "-inf" else float(v) for v in point)))

    return _outcome(solved), _outcome(evaluated)


def _public_path(doc, point):
    def solved():
        prob = problem(doc)
        sol = solve(prob)
        vectors = (sol.lower, sol.upper) if isinstance(sol, IntervalSolution) else (sol.x,)
        return _bits(sol, tuple(v.elements for v in vectors), certify(core(prob), sol))

    def evaluated():
        prob = core(problem(doc))
        objective = OBJECTIVES.get(type(prob), objective_two_sided)
        return repr(objective(prob, TropVector(tuple(NEG_INF if v == "-inf" else v for v in point))))

    return _outcome(solved), _outcome(evaluated)


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**64))
def test_public_classes_and_command_path_agree(kind, seed):
    doc, point = _case(kind, random.Random(seed))
    assert _command_path(doc, point) == _public_path(doc, point)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**64),
    value=st.one_of(st.just(math.nan), st.floats(allow_nan=True, allow_infinity=False)),
)
def test_a_decoded_float_takes_both_paths_alike(kind, seed, value):
    # a caller's json.loads passes any float, NaN too, into the document;
    # both paths refuse a NaN as an invalid scalar, the command path naming
    # the element, and agree bit for bit on every other value
    rng = random.Random(seed)
    doc, point = _case(kind, rng)
    key = rng.choice([key for key in doc if key != "kind"])
    i = rng.randrange(len(doc[key]))
    row, where = (doc[key][i], f"{key}[{i}]") if key == "A" else (doc[key], key)
    j = rng.randrange(len(row))
    row[j] = value
    command, public = _command_path(doc, point), _public_path(doc, point)
    if math.isnan(value):
        refused = (InvalidScalarError, "nan is not a max-plus scalar")
        assert public == (refused, refused)
        named = (InvalidScalarError, f"{where}[{j}]: {refused[1]}")
        assert command == (named, named)
    else:
        assert command == public


def test_the_draws_reach_answers_and_errors():
    # the seeds cover solved problems and each kind of refusal
    outcomes = set()
    for kind in KINDS:
        rng = random.Random(f"front-{kind}")
        for _ in range(200):
            solved, _ = _command_path(*_case(kind, rng))
            outcomes.add(solved[0].reason if isinstance(solved, tuple) else "solved")
    assert {"solved", "not_regular", "infeasible_bounds", "overflow"} <= outcomes
