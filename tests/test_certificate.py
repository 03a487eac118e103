"""The exact certificate against the grid oracle, and against corrupted
solutions."""

import inspect
import json
import random
from pathlib import Path

import pytest

from tropopt import (
    BestUnderProblem,
    IntervalSolution,
    LocationProblem,
    MatrixLowerProblem,
    PointSolution,
    PrecisionLossError,
    ShapeMismatchError,
    TropMatrix,
    TropicalError,
    TropVector,
    TwoSidedProblem,
    VerificationFailedError,
    certify,
    objective_best_under,
    objective_matrix,
    objective_two_sided,
    solve_two_sided,
    vec_leq,
)
from tropopt.cli import main
from public import core, problem, solve
from reference import mat_mul
from tropopt.oracle import (
    BestUnderObjective,
    GridSpec,
    MatrixLowerObjective,
    TwoSidedObjective,
    best_under_box,
    grid_min,
    matrix_lower_box,
    two_sided_box,
)

FIXTURES = Path(__file__).parent / "fixtures"


def replace(value, **changes):
    """``value`` built again by its constructor, with ``changes`` to its fields."""
    fields = inspect.signature(type(value)).parameters
    return type(value)(**{**{name: getattr(value, name) for name in fields}, **changes})


KINDS = ("two_sided", "matrix_lower", "locate", "approximate", "best_under")
PER_KIND = 40


def _vec(rng, n, lo, hi, neg_inf=0.0):
    return ["-inf" if rng.random() < neg_inf else rng.randint(lo, hi) for _ in range(n)]


def _doc(kind, rng):
    """A random small integer problem of ``kind``; bounds, when drawn,
    are optional and may hold the tropical zero."""
    n, m = rng.randint(1, 3), rng.randint(1, 3)
    if kind in ("two_sided", "locate"):
        a, b = ("p", "q") if kind == "two_sided" else ("r", "s")
        doc = {a: _vec(rng, n, -3, 3), b: _vec(rng, n, -3, 3)}
        if rng.random() < 0.6:
            doc["g"] = _vec(rng, n, -3, 1, neg_inf=0.3)
        if rng.random() < 0.6:
            doc["h"] = _vec(rng, n, 0, 3)
    else:
        n = min(n, 2)  # keeps the grid oracle's box over x small
        doc = {"A": [_vec(rng, n, -2, 2, neg_inf=0.2) for _ in range(m)], "p": _vec(rng, m, -2, 2)}
        if kind == "matrix_lower":
            doc["q"] = _vec(rng, m, -2, 2)
        if kind != "best_under":
            doc["g"] = _vec(rng, n, -2, 2, neg_inf=0.3)
    return {"kind": kind, **doc}


def _halved(doc):
    """``doc`` with every number halved: half-integer data."""
    def half(v):
        return [half(e) for e in v] if isinstance(v, list) else v if v == "-inf" else v / 2

    return {k: v if k == "kind" else half(v) for k, v in doc.items()}


def _solved(kind, count=PER_KIND, half=False):
    """``count`` seeded random problems of ``kind`` that solve, as
    (core problem, solution) pairs; ``half`` halves their data."""
    rng = random.Random(f"certificate-{kind}{'-half' if half else ''}")
    out = []
    while len(out) < count:
        doc = _doc(kind, rng)
        try:
            prob = problem(_halved(doc) if half else doc)
            sol = solve(prob)
        except TropicalError:  # infeasible bounds, an irregular A
            continue
        out.append((core(prob), sol))
    return out


def _grid_minimum(core, sol, step) -> float:
    if isinstance(core, TwoSidedProblem):
        box = two_sided_box(core, pads=(sol.lower, sol.upper))
        objective = TwoSidedObjective(core)
    elif isinstance(core, MatrixLowerProblem):
        box = matrix_lower_box(core, pads=(sol.x,))
        objective = MatrixLowerObjective(core)
    else:
        box = best_under_box(core.A, core.p, pads=(sol.x,))
        objective = BestUnderObjective(core.A, core.p)
    return grid_min(objective, GridSpec(*box, step)).min_value


def _refutes(core, sol, point: TropVector) -> bool:
    """Whether ``point`` shows the claimed solution wrong: a claimed
    minimizer that is infeasible or misses the claimed value, a feasible
    point below it, a minimizer the claim leaves out, or a feasible
    vector above the claimed greatest one."""
    if isinstance(core, TwoSidedProblem):
        feasible = (core.g is None or vec_leq(core.g, point)) and (
            core.h is None or vec_leq(point, core.h)
        )
        value = objective_two_sided(core, point)
        claimed = vec_leq(sol.lower, point) and vec_leq(point, sol.upper)
        return (claimed and (not feasible or value != sol.mu)) or (
            feasible and value <= sol.mu and not claimed
        )
    claimed = point == sol.x
    if isinstance(core, MatrixLowerProblem):
        feasible, value = vec_leq(core.g, point), objective_matrix(core, point)
        above = False
    else:
        feasible = vec_leq(mat_mul(core.A, point), core.p)
        value = BestUnderObjective(core.A, core.p)(point)
        above = feasible and vec_leq(sol.x, point) and not claimed
    return (claimed and (not feasible or value != sol.mu)) or (feasible and value < sol.mu) or above


def _rejected(core, sol) -> VerificationFailedError:
    with pytest.raises(VerificationFailedError) as info:
        certify(core, sol)
    point = info.value.counterexample
    assert isinstance(point, TropVector)
    assert _refutes(core, sol, point), (info.value, point)
    return info.value


def _shifted(v: TropVector, i: int, d: float) -> TropVector:
    return TropVector(tuple(e + d if j == i else e for j, e in enumerate(v)))


@pytest.mark.parametrize("kind", KINDS)
def test_minimum_equals_grid_oracle(kind):
    # the grid is exact at step 1/2 on integer data, 1/4 on half-integer data
    for step, half in ((0.5, False), (0.25, True)):
        for core, sol in _solved(kind, half=half):
            report = certify(core, sol)
            assert report.min_value == _grid_minimum(core, sol, step) == sol.mu
            assert report.agrees_with_solver and report.max_discrepancy == 0.0


@pytest.mark.parametrize("kind", KINDS)
def test_float_data_is_certified(kind):
    # off the half-integer lattice, where the grid oracle is not exact
    rng = random.Random(f"float-{kind}")

    def blur(e):
        return e if e == "-inf" else e * scale + rng.uniform(-1, 1)

    certified = 0
    while certified < PER_KIND:
        scale = rng.uniform(0.01, 100.0)
        doc = {
            k: v if k == "kind" else [list(map(blur, r)) for r in v] if k == "A" else list(map(blur, v))
            for k, v in _doc(kind, rng).items()
        }
        try:
            prob = problem(doc)
            sol = solve(prob)
        except PrecisionLossError:
            # these data span a few decimal digits; rounding here never
            # exceeds the tolerance
            raise
        except TropicalError:
            continue
        report = certify(core(prob), sol)
        assert report.min_value == sol.mu
        certified += 1


@pytest.mark.parametrize("kind", KINDS)
def test_corrupted_optimum_is_rejected(kind):
    for core, sol in _solved(kind, 10):
        for d in (0.5, -0.5):
            _rejected(core, replace(sol, mu=sol.mu + d, delta=min(sol.delta, sol.mu + d)))


@pytest.mark.parametrize("kind", ("two_sided", "locate"))
def test_moved_interval_endpoint_is_rejected(kind):
    rejected = 0
    for core, sol in _solved(kind, 10):
        for end in ("lower", "upper"):
            for i in range(core.dim):
                for d in (0.5, -0.5):
                    try:
                        bad = replace(sol, **{end: _shifted(getattr(sol, end), i, d)})
                    except TropicalError:  # lower above upper: not an interval
                        continue
                    _rejected(core, bad)
                    rejected += 1
    assert rejected >= 40


@pytest.mark.parametrize("kind", ("two_sided", "locate"))
def test_endpoint_moved_within_the_tolerance_certifies(kind):
    # unequal endpoints are compared coordinate by coordinate with the
    # tolerance; only bit-equal ones skip that walk
    for core, sol in _solved(kind, 10):
        for end in ("lower", "upper"):
            for i in range(core.dim):
                for d in (1e-10, -1e-10):
                    try:
                        near = replace(sol, **{end: _shifted(getattr(sol, end), i, d)})
                    except TropicalError:  # lower above upper: not an interval
                        continue
                    assert getattr(near, end) != getattr(sol, end)
                    assert certify(core, near).min_value == sol.mu


def _first_difference(sol, moved) -> tuple[int, TropVector]:
    """The coordinate and the counterexample of the tolerant walk over
    ``moved``'s endpoints against ``sol``'s: coordinates in order, the
    lower endpoint before the upper one at each."""
    for i in range(sol.lower.dim):
        for end in ("lower", "upper"):
            claimed, true = getattr(moved, end).elements, getattr(sol, end).elements
            if abs(claimed[i] - true[i]) > 1e-9 * max(1.0, abs(claimed[i]), abs(true[i])):
                return i, TropVector(claimed[:i] + (true[i],) + claimed[i + 1:])
    raise AssertionError("the endpoints are close")


@pytest.mark.parametrize("kind", ("two_sided", "locate"))
def test_endpoint_moved_beyond_the_tolerance_names_the_first_coordinate(kind):
    walked = 0
    for core, sol in _solved(kind, 20):
        assert certify(core, sol).min_value == sol.mu
        for i in range(core.dim):
            for j in range(core.dim):
                # the lower endpoint moved at i, the upper one at j
                lower, upper = _shifted(sol.lower, i, 0.5), _shifted(sol.upper, j, -0.5)
                try:
                    moved = replace(sol, lower=lower, upper=upper)
                except TropicalError:  # lower above upper: not an interval
                    continue
                error = _rejected(core, moved)
                if "differs from the interval" not in str(error):
                    continue  # caught before the walk: out of the box or off the optimum
                index, point = _first_difference(sol, moved)
                assert str(error).endswith(f"at coordinate {index}")
                assert error.counterexample == point
                walked += 1
    assert walked >= 25


@pytest.mark.parametrize("kind", ("matrix_lower", "approximate"))
def test_moved_point_is_rejected_unless_still_optimal(kind):
    rejected = 0
    for core, sol in _solved(kind, 10):
        for i in range(sol.x.dim):
            for d in (0.5, -0.5):
                moved = replace(sol, x=_shifted(sol.x, i, d))
                if vec_leq(core.g, moved.x) and objective_matrix(core, moved.x) == sol.mu:
                    assert certify(core, moved).min_value == sol.mu
                else:
                    _rejected(core, moved)
                    rejected += 1
    assert rejected >= 10


@pytest.mark.parametrize("kind", ("matrix_lower", "approximate"))
def test_suboptimal_point_claimed_with_its_value_is_rejected(kind):
    # x + 1/2 raises every row of A x by 1/2, and some row attains mu on
    # the q side, so the shifted point scores mu + 1/2
    for core, sol in _solved(kind, 10):
        x = TropVector(tuple(e + 0.5 for e in sol.x))
        error = _rejected(core, replace(sol, mu=objective_matrix(core, x), x=x))
        assert objective_matrix(core, error.counterexample) == sol.mu


def test_best_under_moved_or_slack_point_is_rejected():
    for core, sol in _solved("best_under", 10):
        for i in range(sol.x.dim):
            up = _rejected(core, replace(sol, x=_shifted(sol.x, i, 0.5)))
            assert "violates" in str(up) and up.counterexample == _shifted(sol.x, i, 0.5)
            slack = _rejected(core, replace(sol, x=_shifted(sol.x, i, -0.5)))
            assert "slack" in str(slack) and slack.counterexample == sol.x


def _fixture(name):
    prob = problem(json.loads((FIXTURES / name).read_text()))
    return prob.reduced, solve(prob)


def _resized(v: TropVector, change: int) -> TropVector:
    return TropVector(v.elements[:change] if change < 0 else v.elements + (v.elements[-1],) * change)


@pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize(
    "name", ["location_example.json", "matrix_lower_example.json", "best_under_example.json"]
)
def test_point_of_the_wrong_dimension_is_rejected(name, change):
    prob = problem(json.loads((FIXTURES / name).read_text()))
    sol = solve(prob)
    if isinstance(sol, PointSolution):
        sol = replace(sol, x=_resized(sol.x, change))
    else:
        sol = replace(sol, lower=_resized(sol.lower, change), upper=_resized(sol.upper, change))
    with pytest.raises(ShapeMismatchError, match=f"x must have dimension 3, got {3 + change}$"):
        certify(core(prob), sol)


@pytest.mark.parametrize("reduced", [False, True], ids=["as_given", "reduced"])
@pytest.mark.parametrize(
    "name, other, shape",
    [
        ("location_example.json", "approximation_example.json", "an IntervalSolution"),
        ("approximation_example.json", "location_example.json", "a PointSolution"),
        ("best_under_example.json", "location_example.json", "a PointSolution"),
    ],
)
def test_solution_of_the_other_shape_is_refused(name, other, shape, reduced):
    prob = problem(json.loads((FIXTURES / name).read_text()))
    prob = core(prob) if reduced else prob
    sol = solve(problem(json.loads((FIXTURES / other).read_text())))
    with pytest.raises(ShapeMismatchError) as info:
        certify(prob, sol)
    assert str(info.value) == f"{type(prob).__name__} is solved by {shape}"


_A, _P, _X = TropMatrix(((1.0, 2.0), (3.0, 4.0))), TropVector((1.0, 2.0)), TropVector((0.0, 0.0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: objective_two_sided(BestUnderProblem(_A, _P), _X),
         "BestUnderProblem is not a TwoSidedProblem or LocationProblem"),
        (lambda: objective_matrix(BestUnderProblem(_A, _P), _X),
         "BestUnderProblem is not a MatrixLowerProblem or ApproximationProblem"),
        (lambda: objective_best_under(TwoSidedProblem(_P, _P), _X), "TwoSidedProblem is not a BestUnderProblem"),
        (lambda: objective_matrix(LocationProblem(_P, _P), _X),
         "LocationProblem is not a MatrixLowerProblem or ApproximationProblem"),
        (lambda: certify(_P, solve_two_sided(TwoSidedProblem(_P, _P))), "TropVector is not a problem"),
        (lambda: certify(None, solve_two_sided(TwoSidedProblem(_P, _P))), "NoneType is not a problem"),
    ],
    ids=["two_sided-of-best_under", "matrix-of-best_under", "best_under-of-two_sided",
         "matrix-of-location", "certify-a-vector", "certify-none"],
)
def test_problem_of_another_class_is_refused(call, message):
    # each objective and certify take the classes that certificate.RULES
    # gives their rule; any other raises ShapeMismatchError naming it
    with pytest.raises(ShapeMismatchError) as info:
        call()
    assert str(info.value) == message


def test_claimed_optimum_off_the_bound_is_rejected():
    # both endpoints attain the claimed 2.0 and lie in the box, but the
    # bound is 1.5, which the box's lower corner attains
    prob = TwoSidedProblem(p=TropVector((3, 2)), q=TropVector((0, 1)))
    sol = IntervalSolution(2.0, TropVector((1, 0)), TropVector((1, 0)), 1.5)
    with pytest.raises(VerificationFailedError) as info:
        certify(prob, sol)
    assert str(info.value) == "the optimum is 1.5, not the claimed 2.0"
    assert info.value.counterexample == TropVector((1.5, 0.5))


def test_corrupted_location_optimum_is_rejected():
    core, sol = _fixture("location_example.json")
    _rejected(core, replace(sol, mu=sol.mu + 1))


def test_corrupted_approximation_point_is_rejected():
    # x + 1 attains the claimed mu + 1 = 2, but the optimum is 1
    core, sol = _fixture("approximation_example.json")
    x = TropVector(tuple(e + 1 for e in sol.x))
    _rejected(core, replace(sol, mu=sol.mu + 1, x=x, delta=sol.delta + 1))


def test_single_point_interval():
    # p = q = g = h: one feasible point, which is the whole minimizer set
    v = TropVector((5, 5, 5))
    prob = TwoSidedProblem(v, v, v, v)
    report = certify(prob, solve_two_sided(prob))
    assert (report.min_value, report.argmin, report.binding) == (0, v, ("delta", 0))


def test_unconstrained_location_interval():
    prob = problem({"kind": "locate", "r": [-3, 1, 1], "s": [1, 3, -2]})
    sol = solve(prob)
    report = certify(prob.reduced, sol)
    assert (report.min_value, report.argmin) == (2, sol.lower)
    assert report.agrees_with_solver and report.max_discrepancy == 0.0


def test_infinite_bound_is_not_close_to_a_finite_optimum():
    # delta's term (p[0] - res[0])/2 overflows to +inf, so no finite mu
    # attains the bound, and the counterexample bound - r overflows too
    A, p, q, g = ((-1e308,), (0,)), (0, 0), (1e308, -1e308), (0,)
    prob = MatrixLowerProblem(TropMatrix(A), TropVector(p), TropVector(q), TropVector(g))
    with pytest.raises(TropicalError) as info:
        certify(prob, PointSolution(mu=1e308, x=TropVector((0,)), delta=0))
    assert info.value.reason == "overflow"


@pytest.mark.parametrize(
    "doc, binding",
    [
        ({"kind": "two_sided", "p": [1, 3, 1], "q": [-3, 1, -2]}, ("delta", 0)),
        ({"kind": "two_sided", "p": [1, 3, 1], "q": [-3, 1, -2], "h": [0, 0, 0]}, ("h_term", 1)),
        (
            {"kind": "matrix_lower", "A": [[1, -1, 1], [3, 1, 0], [0, 0, 2]],
             "p": [3, 4, 4], "q": [2, 4, 3], "g": ["-inf"] * 3},
            ("delta", (0, 0)),
        ),
        ({"kind": "best_under", "A": [[1, -1, 1], [3, 1, 0], [0, 0, 2]], "p": [3, 4, 4]},
         ("delta", (0, 2))),
    ],
    ids=["delta", "h_term", "matrix_delta", "best_under"],
)
def test_binding(doc, binding):
    prob = problem(doc)
    assert certify(prob, solve(prob)).binding == binding


def test_binding_on_fixtures(capsys):
    # location: g_1 - q_1 = 0 - (-3) = 3 beats delta 2 and the h term 2
    report = certify(*_fixture("location_example.json"))
    assert (report.min_value, report.binding) == (3, ("g_term", 0))
    # approximation: a_21 - q_2 + g_1 = 3 - 4 + 2 = 1 beats delta 0
    report = certify(*_fixture("approximation_example.json"))
    assert (report.min_value, report.binding) == (1, ("g_term", (1, 0)))
    assert main(["verify", str(FIXTURES / "approximation_example.json")]) == 0
    assert json.loads(capsys.readouterr().out)["binding"] == {"term": "g_term", "index": [1, 0]}

