import numpy as np
import pytest

from tropopt import (
    BestUnderObjective,
    GridSpec,
    GridTooLargeError,
    IntervalSolution,
    MatrixLowerObjective,
    MatrixLowerProblem,
    PointSolution,
    TropVector,
    TropicalError,
    TwoSidedObjective,
    TwoSidedProblem,
    VerificationFailedError,
    best_under_box,
    grid_min,
    matrix_lower_box,
    scalar_mul,
    solve_matrix_lower,
    solve_two_sided,
    two_sided_box,
    verify_interval,
    verify_point,
)


def location_two_sided(location_data):
    return TwoSidedProblem(
        TropVector((1, 3, 1)), TropVector((-3, 1, -2)),
        location_data["g"], location_data["h"],
    )


class TestGridSpec:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(TropicalError):
            GridSpec(TropVector((1,)), TropVector((0,)), 0.5)

    def test_step_must_be_positive(self):
        with pytest.raises(TropicalError):
            GridSpec(TropVector((0,)), TropVector((1,)), 0.0)

    def test_bounds_must_be_finite(self):
        from tropopt import NEG_INF

        with pytest.raises(TropicalError):
            GridSpec(TropVector((NEG_INF,)), TropVector((1,)), 0.5)


class TestGridMin:
    def test_constant_objective_returns_lower_corner(self):
        spec = GridSpec(TropVector((0, 0)), TropVector((1, 1)), 0.5)
        rep = grid_min(lambda x: 7.0, spec)
        assert rep.min_value == 7.0
        assert rep.argmin == TropVector((0, 0))
        assert rep.points_evaluated == 9

    def test_location_example_box(self, location_data):
        prob = location_two_sided(location_data)
        spec = GridSpec(location_data["g"], location_data["h"], 0.5)
        rep = grid_min(TwoSidedObjective(prob), spec)
        assert rep.min_value == 3
        assert rep.points_evaluated == 27

    def test_approximation_example_box(self, approx_data):
        prob = MatrixLowerProblem(
            approx_data["A"], approx_data["p"], approx_data["p"], approx_data["g"]
        )
        obj = MatrixLowerObjective(prob)
        spec = GridSpec(TropVector((2, 2, 2)), TropVector((6, 6, 6)), 0.5)
        rep = grid_min(obj, spec)
        assert rep.min_value == 1
        assert obj(TropVector((2, 4, 3))) == 1
        assert obj(rep.argmin) == rep.min_value
        # ties resolve to the lexicographically smallest lattice point
        assert rep.argmin == TropVector((2, 2, 2))

    def test_generic_callable_path_matches_batch_path(self, location_data):
        prob = location_two_sided(location_data)
        batched = TwoSidedObjective(prob)
        spec = GridSpec(location_data["g"], location_data["h"], 0.5)
        plain = grid_min(lambda x: batched(x), spec)
        fast = grid_min(batched, spec)
        assert plain == fast

    def test_cap_enforced(self):
        spec = GridSpec(TropVector((0,) * 8), TropVector((20,) * 8), 0.5)
        with pytest.raises(GridTooLargeError):
            grid_min(lambda x: 0.0, spec)

    def test_half_step_is_exact_for_integer_data(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            p = TropVector(tuple(map(int, rng.integers(-6, 7, n))))
            q = TropVector(tuple(map(int, rng.integers(-6, 7, n))))
            a, b = rng.integers(-6, 7, n), rng.integers(-6, 7, n)
            g = TropVector(tuple(map(int, np.minimum(a, b))))
            h = TropVector(tuple(map(int, np.maximum(a, b))))
            obj = TwoSidedObjective(TwoSidedProblem(p, q, g, h))
            half = grid_min(obj, GridSpec(g, h, 0.5))
            quarter = grid_min(obj, GridSpec(g, h, 0.25))
            assert half.min_value == quarter.min_value


class TestBoxes:
    def test_bounded_coordinates_are_pinned(self, location_data):
        prob = location_two_sided(location_data)
        lo, hi = two_sided_box(prob)
        assert lo == location_data["g"] and hi == location_data["h"]

    def test_unbounded_box_interior_holds_argmin(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            p = TropVector(tuple(map(int, rng.integers(-8, 9, n))))
            q = TropVector(tuple(map(int, rng.integers(-8, 9, n))))
            if max(*p, *q) == min(*p, *q):
                continue
            prob = TwoSidedProblem(p, q)
            lo, hi = two_sided_box(prob)
            rep = grid_min(TwoSidedObjective(prob), GridSpec(lo, hi, 0.5))
            assert all(lo_i < v < hi_i for lo_i, v, hi_i in zip(lo, rep.argmin, hi))

    def test_pads_extend_only_free_sides(self, approx_data):
        prob = MatrixLowerProblem(
            approx_data["A"], approx_data["p"], approx_data["p"], approx_data["g"]
        )
        far = TropVector((100, 100, 100))
        lo, hi = matrix_lower_box(prob, pads=(far,))
        assert lo == prob.g
        assert all(v >= 100 for v in hi)


class TestVerifyInterval:
    def test_location_example_passes(self, location_data):
        prob = location_two_sided(location_data)
        sol = solve_two_sided(prob)
        rep = verify_interval(prob, sol)
        assert rep.agrees_with_solver
        assert rep.min_value == 3
        assert rep.max_discrepancy == 0.0

    def test_corrupted_optimum_is_caught(self, location_data):
        prob = location_two_sided(location_data)
        sol = solve_two_sided(prob)
        corrupted = IntervalSolution(sol.mu + 1, sol.lower, sol.upper, sol.delta)
        with pytest.raises(VerificationFailedError):
            verify_interval(prob, corrupted)

    def test_degenerate_single_point_interval(self):
        v = TropVector((5, 5, 5))
        prob = TwoSidedProblem(v, v, v, v)
        rep = verify_interval(prob, solve_two_sided(prob))
        assert rep.agrees_with_solver
        assert rep.points_evaluated >= 1

    def test_unconstrained_interval(self):
        prob = TwoSidedProblem(TropVector((1, 3, 1)), TropVector((-3, 1, -2)))
        rep = verify_interval(prob, solve_two_sided(prob))
        assert rep.agrees_with_solver and rep.min_value == 2

    def test_half_integer_data_take_a_quarter_step(self):
        # the optimum 1.25 is off the half-step grid, whose minimum is 1.5
        prob = TwoSidedProblem(TropVector((1.5, 0)), TropVector((-1, 0)), h=TropVector((0.5, 1)))
        sol = solve_two_sided(prob)
        assert sol.mu == 1.25
        assert verify_interval(prob, sol).min_value == 1.25
        with pytest.raises(VerificationFailedError, match="grid minimum 1.5"):
            verify_interval(prob, sol, step=0.5)

    def test_off_lattice_data_need_an_explicit_step(self):
        prob = TwoSidedProblem(TropVector((0.1, 0.3)), TropVector((0, 0.2)))
        sol = solve_two_sided(prob)
        with pytest.raises(TropicalError, match="explicit grid step"):
            verify_interval(prob, sol)
        assert verify_interval(prob, sol, step=0.05).agrees_with_solver


class TestVerifyPoint:
    def test_approximation_example_passes(self, approx_data):
        prob = MatrixLowerProblem(
            approx_data["A"], approx_data["p"], approx_data["p"], approx_data["g"]
        )
        sol = solve_matrix_lower(prob)
        lo, hi = matrix_lower_box(prob, pads=(sol.x,))
        rep = verify_point(MatrixLowerObjective(prob), sol, GridSpec(lo, hi, 0.5))
        assert rep.agrees_with_solver and rep.min_value == 1

    def test_corrupted_point_solution_is_caught(self, approx_data):
        prob = MatrixLowerProblem(
            approx_data["A"], approx_data["p"], approx_data["p"], approx_data["g"]
        )
        sol = solve_matrix_lower(prob)
        corrupted = PointSolution(sol.mu + 1, scalar_mul(1, sol.x), sol.delta + 1)
        lo, hi = matrix_lower_box(prob, pads=(corrupted.x,))
        with pytest.raises(VerificationFailedError):
            verify_point(MatrixLowerObjective(prob), corrupted, GridSpec(lo, hi, 0.5))

    def test_best_under_objective_respects_constraint(self, approx_data):
        A, p = approx_data["A"], approx_data["p"]
        obj = BestUnderObjective(A, p)
        # the residuation maximum is feasible, anything above it is not
        assert obj(TropVector((1, 3, 2))) == 0
        assert obj(TropVector((2, 4, 3))) == np.inf
        lo, hi = best_under_box(A, p)
        rep = grid_min(obj, GridSpec(lo, hi, 0.5))
        assert rep.min_value == 0

    def test_best_under_random_instances_match_feasible_grid(self):
        from tropopt import TropMatrix, best_underestimator

        rng = np.random.default_rng(33)
        for _ in range(15):
            m, n = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            A = TropMatrix(tuple(tuple(map(int, row)) for row in rng.integers(-6, 7, (m, n))))
            p = TropVector(tuple(map(int, rng.integers(-6, 7, m))))
            sol = best_underestimator(A, p)
            # the feasible set is everything below the residuation maximum
            lo = TropVector(tuple(v - 4 for v in sol.x))
            rep = grid_min(BestUnderObjective(A, p), GridSpec(lo, sol.x, 0.5))
            assert rep.min_value == sol.mu
