import sys

import numpy as np

from tropopt import (
    ApproximationProblem,
    LocationProblem,
    MatrixLowerProblem,
    TropMatrix,
    TropVector,
    TwoSidedProblem,
    approximate,
    certify,
    locate,
    matrix_lower_terms,
    objective_matrix,
    objective_two_sided,
    reduced_two_sided,
    two_sided_terms,
    vec_leq,
)
from tropopt.certificate import RULES
from tropopt.cli import _KINDS
from tropopt.solvers import _require_box, matrix_data
from reference import distance, identity, mat_mul


def random_points(rng, n):
    return TropVector(tuple(map(int, rng.integers(-10, 11, n))))


class TestLocate:
    def test_worked_example(self, location_data):
        sol = locate(LocationProblem(**location_data))
        assert sol.mu == 3 and sol.delta == 2
        assert sol.lower == TropVector((0, 0, 0))
        assert sol.upper == TropVector((0, 1, 1))

    def test_coincident_points_collapse(self):
        v = TropVector((2, -1, 7))
        sol = locate(LocationProblem(v, v, v, v))
        assert sol.mu == 0.0
        assert sol.lower == v and sol.upper == v

    def test_unconstrained(self, location_data):
        sol = locate(LocationProblem(location_data["r"], location_data["s"]))
        assert sol.mu == 2 and sol.delta == 2
        assert sol.lower == TropVector((-1, 1, -1))
        assert sol.upper == TropVector((-1, 3, 0))

    def test_reduction_objective_equals_max_distance(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            r, s = random_points(rng, n), random_points(rng, n)
            prob = reduced_two_sided(LocationProblem(r, s))
            x = random_points(rng, n)
            assert objective_two_sided(prob, x) == max(distance(x, r), distance(x, s))

    def test_every_interval_point_is_optimal(self, location_data):
        rng = np.random.default_rng(22)
        lp = LocationProblem(**location_data)
        sol = locate(lp)
        for _ in range(50):
            x = TropVector(
                tuple(
                    lo + 0.5 * int(rng.integers(0, round((hi - lo) * 2) + 1))
                    for lo, hi in zip(sol.lower, sol.upper)
                )
            )
            assert max(distance(x, lp.r), distance(x, lp.s)) == sol.mu


class TestApproximate:
    def test_worked_example(self, approx_data):
        sol = approximate(ApproximationProblem(**approx_data))
        assert sol.mu == 1
        assert sol.x == TropVector((2, 4, 3))

    def test_identity_interpolates(self):
        p = TropVector((3, 4, 4))
        sol = approximate(ApproximationProblem(identity(3), p, TropVector.zeros(3)))
        assert sol.mu == 0.0 and sol.x == p

    def test_error_is_chebyshev_distance_at_solution(self, approx_data):
        prob = ApproximationProblem(**approx_data)
        sol = approximate(prob)
        ax = mat_mul(prob.A, sol.x)
        assert ax == TropVector((4, 5, 5))
        assert distance(ax, prob.p) == sol.mu == 1

    def test_no_feasible_point_does_better(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            m, n = rng.integers(2, 4, size=2)
            A = TropMatrix(tuple(tuple(map(int, row)) for row in rng.integers(-6, 7, (m, n))))
            p = TropVector(tuple(map(int, rng.integers(-6, 7, m))))
            g = TropVector(tuple(map(int, rng.integers(-6, 7, n))))
            prob = ApproximationProblem(A, p, g)
            sol = approximate(prob)
            assert vec_leq(g, sol.x)
            assert distance(mat_mul(A, sol.x), p) == sol.mu
            for _ in range(40):
                x = TropVector(tuple(gi + int(k) for gi, k in zip(g, rng.integers(0, 8, n))))
                assert distance(mat_mul(A, x), p) >= sol.mu


class TestOnTheReducedProblem:
    """An application problem takes the reduced problem's objective,
    terms and ``certify`` itself, with the same answers."""

    def test_location(self, location_data):
        prob = LocationProblem(**location_data)
        sol = locate(prob)
        assert certify(prob, sol) == certify(prob.reduced, sol)
        assert certify(prob, sol).binding == ("g_term", 0)
        for x in (sol.lower, sol.upper, TropVector((4, -2, 0))):
            assert objective_two_sided(prob, x) == objective_two_sided(prob.reduced, x)
        assert objective_two_sided(prob, TropVector((4, -2, 0))) == 7.0
        assert two_sided_terms(prob) == two_sided_terms(prob.reduced)

    def test_approximation(self, approx_data):
        prob = ApproximationProblem(**approx_data)
        sol = approximate(prob)
        assert certify(prob, sol) == certify(prob.reduced, sol)
        assert certify(prob, sol).min_value == 1.0
        for x in (sol.x, TropVector((0, 0, 0))):
            assert objective_matrix(prob, x) == objective_matrix(prob.reduced, x)
        assert objective_matrix(prob, TropVector((0, 0, 0))) == 2.0
        assert matrix_lower_terms(prob) == matrix_lower_terms(prob.reduced)

    def test_rules_are_the_reduced_problems(self):
        assert RULES[LocationProblem] is RULES[TwoSidedProblem] is _KINDS["locate"].rule
        assert RULES[ApproximationProblem] is RULES[MatrixLowerProblem] is _KINDS["approximate"].rule

    def test_construction_checks_its_data_once(self, location_data, approx_data):
        # the reduced problem keeps the application's checked data: one
        # data check per construction, and the reduced problem is the one
        # that its own constructor builds, data and all
        checks = (matrix_data, _require_box)
        loc, calls = _calls(lambda: LocationProblem(**location_data), checks)
        assert calls == {"matrix_data": 0, "_require_box": 1}
        approx, calls = _calls(lambda: ApproximationProblem(**approx_data), checks)
        assert calls == {"matrix_data": 1, "_require_box": 0}
        for reduced, rebuilt in [
            (loc.reduced, TwoSidedProblem(loc.reduced.p, loc.reduced.q, loc.g, loc.h)),
            (approx.reduced, MatrixLowerProblem(approx.A, approx.p, approx.p, approx.g)),
        ]:
            assert reduced == rebuilt and reduced._data == rebuilt._data


def _calls(make, functions) -> tuple:
    """What ``make()`` returns, and how many times each of ``functions``
    was called meanwhile, by name."""
    names = {f.__code__: f.__name__ for f in functions}
    calls = dict.fromkeys(names.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            calls[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        made = make()
    finally:
        sys.setprofile(None)
    return made, calls
