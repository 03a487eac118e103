import numpy as np

from tropopt import (
    ApproximationProblem,
    LocationProblem,
    TropMatrix,
    TropVector,
    approximate,
    locate,
    mat_mul,
    objective_two_sided,
    reduced_two_sided,
    vec_leq,
)
from reference import distance, identity


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
