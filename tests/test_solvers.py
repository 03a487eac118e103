import numpy as np
import pytest

from tropopt import (
    NEG_INF,
    BestUnderProblem,
    InfeasibleBoundsError,
    IntervalSolution,
    MatrixLowerProblem,
    NotRegularError,
    PointSolution,
    ScalarOverflowError,
    ShapeMismatchError,
    TropMatrix,
    TropVector,
    TropicalError,
    TwoSidedProblem,
    best_underestimator,
    mat_mul,
    max_solution_leq,
    objective_best_under,
    objective_matrix,
    objective_two_sided,
    solve_matrix_lower,
    solve_two_sided,
    two_sided_terms,
    vec_leq,
)


def random_two_sided(rng, n=None, with_h=True):
    n = n or int(rng.integers(2, 5))
    p = TropVector(tuple(map(int, rng.integers(-10, 11, n))))
    q = TropVector(tuple(map(int, rng.integers(-10, 11, n))))
    a = rng.integers(-10, 11, n)
    b = rng.integers(-10, 11, n)
    g = TropVector(tuple(map(int, np.minimum(a, b))))
    h = TropVector(tuple(map(int, np.maximum(a, b)))) if with_h else None
    return TwoSidedProblem(p, q, g, h)


def random_matrix_lower(rng, m=None, n=None):
    m = m or int(rng.integers(2, 4))
    n = n or int(rng.integers(2, 4))
    A = TropMatrix(tuple(tuple(map(int, row)) for row in rng.integers(-5, 6, (m, n))))
    p = TropVector(tuple(map(int, rng.integers(-5, 6, m))))
    q = TropVector(tuple(map(int, rng.integers(-5, 6, m))))
    g_vals = [int(v) if rng.random() < 0.7 else NEG_INF for v in rng.integers(-5, 6, n)]
    return MatrixLowerProblem(A, p, q, TropVector(tuple(g_vals)))


class TestTwoSidedProblemValidation:
    def test_irregular_p_rejected(self):
        with pytest.raises(NotRegularError):
            TwoSidedProblem(TropVector((1, NEG_INF)), TropVector((0, 0)))

    def test_irregular_h_rejected(self):
        with pytest.raises(NotRegularError):
            TwoSidedProblem(
                TropVector((1, 2)), TropVector((0, 0)), h=TropVector((1, NEG_INF))
            )

    def test_infeasible_bounds_rejected(self):
        with pytest.raises(InfeasibleBoundsError):
            TwoSidedProblem(
                TropVector((1, 2)),
                TropVector((0, 0)),
                g=TropVector((3, 3)),
                h=TropVector((0, 0)),
            )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            TwoSidedProblem(TropVector((1, 2)), TropVector((0, 0, 0)))

    def test_zero_entries_in_g_allowed(self):
        prob = TwoSidedProblem(
            TropVector((1, 2)), TropVector((0, 0)), g=TropVector((NEG_INF, 0))
        )
        assert prob.g is not None


class TestTwoSidedObjective:
    def test_coincident_data_is_identity(self):
        v = TropVector((4, 4, 4))
        prob = TwoSidedProblem(v, v)
        assert objective_two_sided(prob, v) == 0.0

    def test_interval_endpoints_attain_optimum(self, location_data):
        prob = TwoSidedProblem(
            TropVector((1, 3, 1)), TropVector((-3, 1, -2)),
            location_data["g"], location_data["h"],
        )
        assert objective_two_sided(prob, TropVector((0, 0, 0))) == 3
        assert objective_two_sided(prob, TropVector((0, 1, 1))) == 3

    def test_requires_regular_point(self):
        prob = TwoSidedProblem(TropVector((1, 2)), TropVector((0, 0)))
        with pytest.raises(NotRegularError):
            objective_two_sided(prob, TropVector((1, NEG_INF)))


class TestSolveTwoSided:
    def test_worked_example(self, location_data):
        prob = TwoSidedProblem(
            TropVector((1, 3, 1)), TropVector((-3, 1, -2)),
            location_data["g"], location_data["h"],
        )
        sol = solve_two_sided(prob)
        assert sol.mu == 3 and sol.delta == 2
        assert sol.lower == TropVector((0, 0, 0))
        assert sol.upper == TropVector((0, 1, 1))

    def test_degenerate_box(self):
        v = TropVector((5, 5, 5))
        sol = solve_two_sided(TwoSidedProblem(v, v, v, v))
        assert sol.mu == 0.0
        assert sol.lower == v and sol.upper == v

    def test_unconstrained(self):
        prob = TwoSidedProblem(TropVector((1, 3, 1)), TropVector((-3, 1, -2)))
        sol = solve_two_sided(prob)
        assert sol.mu == 2 and sol.delta == 2
        assert sol.lower == TropVector((-1, 1, -1))
        assert sol.upper == TropVector((-1, 3, 0))

    def test_reduced_form_lower_only(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            prob = random_two_sided(rng, with_h=False)
            sol = solve_two_sided(prob)
            terms = two_sided_terms(prob)
            assert sol.mu == max(terms["delta"], terms["g_term"])
            assert sol.upper == TropVector(tuple(sol.mu + qi for qi in prob.q))
            assert sol.lower == TropVector(
                tuple(max(pi - sol.mu, gi) for pi, gi in zip(prob.p, prob.g))
            )

    def test_reduced_form_upper_only(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            base = random_two_sided(rng)
            prob = TwoSidedProblem(base.p, base.q, None, base.h)
            sol = solve_two_sided(prob)
            terms = two_sided_terms(prob)
            assert sol.mu == max(terms["delta"], terms["h_term"])
            assert sol.lower == TropVector(tuple(pi - sol.mu for pi in prob.p))
            assert sol.upper == TropVector(
                tuple(min(sol.mu + qi, hi) for qi, hi in zip(prob.q, prob.h))
            )

    def test_zero_g_equals_absent_g(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            base = random_two_sided(rng, with_h=bool(rng.integers(2)))
            zeros = TropVector.zeros(base.p.dim)
            with_zero = solve_two_sided(TwoSidedProblem(base.p, base.q, zeros, base.h))
            without = solve_two_sided(TwoSidedProblem(base.p, base.q, None, base.h))
            assert with_zero == without

    def test_mu_decomposes_into_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            prob = random_two_sided(rng)
            sol = solve_two_sided(prob)
            terms = two_sided_terms(prob)
            assert sol.mu == max(terms["delta"], terms["g_term"], terms["h_term"])

    def test_each_term_lower_bounds_objective(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            prob = random_two_sided(rng)
            terms = two_sided_terms(prob)
            for _ in range(20):
                x = TropVector(
                    tuple(int(rng.integers(gi, hi + 1)) for gi, hi in zip(prob.g, prob.h))
                )
                val = objective_two_sided(prob, x)
                assert val >= terms["delta"]
                assert val >= terms["g_term"]
                assert val >= terms["h_term"]

    def test_attainment_inside_and_strictness_outside(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            prob = random_two_sided(rng)
            sol = solve_two_sided(prob)
            assert vec_leq(prob.g, sol.lower) and vec_leq(sol.upper, prob.h)
            for _ in range(20):
                inside = TropVector(
                    tuple(
                        lo + 0.5 * int(rng.integers(0, round((hi - lo) * 2) + 1))
                        for lo, hi in zip(sol.lower, sol.upper)
                    )
                )
                assert objective_two_sided(prob, inside) == sol.mu
            for _ in range(20):
                x = TropVector(
                    tuple(
                        gi + 0.5 * int(rng.integers(0, round((hi - gi) * 2) + 1))
                        for gi, hi in zip(prob.g, prob.h)
                    )
                )
                outside = any(
                    v < lo or v > hi for v, lo, hi in zip(x, sol.lower, sol.upper)
                )
                if outside:
                    assert objective_two_sided(prob, x) >= sol.mu + 0.5

    def test_tightening_bounds_never_lowers_mu(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            prob = random_two_sided(rng)
            mu = solve_two_sided(prob).mu
            tighter_g = TropVector(tuple(min(gi + 1, hi) for gi, hi in zip(prob.g, prob.h)))
            tighter_h = TropVector(tuple(max(hi - 1, gi) for gi, hi in zip(prob.g, prob.h)))
            assert solve_two_sided(TwoSidedProblem(prob.p, prob.q, tighter_g, prob.h)).mu >= mu
            assert solve_two_sided(TwoSidedProblem(prob.p, prob.q, prob.g, tighter_h)).mu >= mu


class TestMatrixObjective:
    def test_worked_example_values(self, approx_data):
        prob = MatrixLowerProblem(
            approx_data["A"], approx_data["p"], approx_data["p"], approx_data["g"]
        )
        assert objective_matrix(prob, TropVector((2, 4, 3))) == 1
        # below the floor constraint the objective can be smaller
        assert objective_matrix(prob, TropVector((1, 3, 2))) == 0

    def test_identity_matrix_reduces_to_vector_objective(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            p = TropVector(tuple(map(int, rng.integers(-9, 10, n))))
            q = TropVector(tuple(map(int, rng.integers(-9, 10, n))))
            x = TropVector(tuple(map(int, rng.integers(-9, 10, n))))
            mprob = MatrixLowerProblem(TropMatrix.identity(n), p, q, TropVector.zeros(n))
            vprob = TwoSidedProblem(p, q)
            assert objective_matrix(mprob, x) == objective_two_sided(vprob, x)


class TestSolveMatrixLower:
    def test_worked_example(self, approx_data):
        prob = MatrixLowerProblem(
            approx_data["A"], approx_data["p"], approx_data["p"], approx_data["g"]
        )
        sol = solve_matrix_lower(prob)
        assert sol.mu == 1 and sol.delta == 0
        assert sol.x == TropVector((2, 4, 3))

    def test_zero_g_gives_intrinsic_bound(self, approx_data):
        prob = MatrixLowerProblem(
            approx_data["A"], approx_data["p"], approx_data["p"], TropVector.zeros(3)
        )
        sol = solve_matrix_lower(prob)
        assert sol.mu == 0 and sol.delta == 0
        assert sol.x == TropVector((1, 3, 2))

    def test_irregular_matrix_rejected(self):
        A = TropMatrix(((1, NEG_INF), (2, NEG_INF)))
        with pytest.raises(NotRegularError):
            MatrixLowerProblem(A, TropVector((0, 0)), TropVector((0, 0)), TropVector((0, 0)))

    def test_solution_feasible_and_attains(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            prob = random_matrix_lower(rng)
            sol = solve_matrix_lower(prob)
            assert vec_leq(prob.g, sol.x)
            assert objective_matrix(prob, sol.x) == sol.mu
            assert sol.mu >= sol.delta


class TestBestUnderestimator:
    def test_worked_example(self, approx_data):
        sol = best_underestimator(approx_data["A"], approx_data["p"])
        assert sol.x == TropVector((1, 3, 2))
        assert sol.mu == 0

    def test_identity_matrix_fits_exactly(self):
        p = TropVector((3, -1, 4))
        sol = best_underestimator(TropMatrix.identity(3), p)
        assert sol.x == p and sol.mu == 0.0

    def test_underestimates_and_value_is_squared_delta(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            m, n = rng.integers(2, 5, size=2)
            A = TropMatrix(tuple(tuple(map(int, row)) for row in rng.integers(-8, 9, (m, n))))
            p = TropVector(tuple(map(int, rng.integers(-8, 9, m))))
            sol = best_underestimator(A, p)
            assert vec_leq(mat_mul(A, sol.x), p)
            assert sol.mu == 2 * sol.delta
            assert objective_best_under(BestUnderProblem(A, p), sol.x) == sol.mu

    @pytest.mark.parametrize("sign", [1, -1], ids=["to_inf", "to_minus_inf"])
    def test_residuation_overflow_raises(self, sign):
        # x_0 = min_k(p_k - a_k0) = sign * 2e308 leaves the float range
        A = TropMatrix(((-sign * 1e308,), (-sign * 1e308,)))
        p = TropVector((sign * 1e308, sign * 1e308))
        with pytest.raises(ScalarOverflowError, match="^value exceeds the float range$"):
            max_solution_leq(A, p)


class TestSolutionInvariants:
    def test_interval_must_be_ordered(self):
        with pytest.raises(TropicalError):
            IntervalSolution(1.0, TropVector((2, 2)), TropVector((0, 0)), 0.0)

    def test_solver_raises_upper_endpoint_short_by_rounding(self):
        # mu = (1 - -0.2) / 2 = 0.6, and -0.2 + 0.6 rounds below 1 - 0.6 = 0.4
        sol = solve_two_sided(TwoSidedProblem(p=TropVector((1,)), q=TropVector((-0.2,))))
        assert sol.lower == sol.upper == TropVector((0.4,))

    def test_interval_short_by_a_rounding_error_is_rejected(self):
        # the constructor repairs nothing; the solver raises the endpoint
        with pytest.raises(TropicalError, match="lower > upper"):
            IntervalSolution(0.6, TropVector((0.4, 1)), TropVector((0.39999999999999997, 2)), 0.6)

    def test_interval_mu_at_least_delta(self):
        with pytest.raises(TropicalError):
            IntervalSolution(0.0, TropVector((0, 0)), TropVector((1, 1)), 5.0)

    def test_point_solution_must_be_regular(self):
        with pytest.raises(NotRegularError):
            PointSolution(0.0, TropVector((1, NEG_INF)), 0.0)
