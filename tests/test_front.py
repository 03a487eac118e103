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

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from public import core, problem, solve
from test_golden import KINDS, _case
from tropopt import (
    NEG_INF,
    BestUnderProblem,
    IntervalSolution,
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


def _bits(answer, points, report) -> str:
    """Every float of an answer and its report, signed zeros told apart
    by ``repr``."""
    terms = (answer.mu, answer.delta, answer.g_term, answer.h_term)
    return repr((terms, points, report.min_value, report.max_discrepancy, report.binding))


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
        return _bits(sol, points, verify_loaded(lp, sol))

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


def test_the_draws_reach_answers_and_errors():
    # the seeds cover solved problems and each kind of refusal
    outcomes = set()
    for kind in KINDS:
        rng = random.Random(f"front-{kind}")
        for _ in range(200):
            solved, _ = _command_path(*_case(kind, rng))
            outcomes.add(solved[0].reason if isinstance(solved, tuple) else "solved")
    assert {"solved", "not_regular", "infeasible_bounds", "overflow"} <= outcomes
