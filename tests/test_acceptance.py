"""Acceptance suite: one test per release criterion, each printing a
PASS line with its headline numbers (run with ``pytest -s`` to see them).

Tolerances are pinned here and nowhere else: worked examples and lattice
data are checked with exact equality, randomized oracle comparisons with
1e-9, and the real-valued distance identity with 1e-12.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from tropopt import (
    NEG_INF,
    ApproximationProblem,
    LocationProblem,
    MatrixLowerProblem,
    TropMatrix,
    TropVector,
    TwoSidedProblem,
    approximate,
    locate,
    matrix_lower_terms,
    max_solution_leq,
    objective_matrix,
    solve_matrix_lower,
    solve_two_sided,
    vec_leq,
)
from tropopt.cli import main
from tropopt.oracle import (
    GridSpec,
    MatrixLowerObjective,
    TwoSidedObjective,
    grid_min,
    matrix_lower_box,
)
from reference import MAX_PLUS, conjugate, distance, identity, mat_leq, mat_mul, scalar_mul

FIXTURES = Path(__file__).parent / "fixtures"
ORACLE_TOL = 1e-9
DISTANCE_TOL = 1e-12


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def random_two_sided(rng):
    n = int(rng.choice((2, 3, 4)))
    p = TropVector(tuple(map(int, rng.integers(-10, 11, n))))
    q = TropVector(tuple(map(int, rng.integers(-10, 11, n))))
    a, b = rng.integers(-10, 11, n), rng.integers(-10, 11, n)
    g = TropVector(tuple(map(int, np.minimum(a, b))))
    h = TropVector(tuple(map(int, np.maximum(a, b))))
    return TwoSidedProblem(p, q, g, h)


@pytest.fixture(scope="module")
def two_sided_batch():
    rng = np.random.default_rng(20260810)
    problems = [random_two_sided(rng) for _ in range(200)]
    return problems, [solve_two_sided(p) for p in problems], rng


def test_criterion_01_location_example():
    start = time.perf_counter()
    sol = locate(
        LocationProblem(
            r=TropVector((-3, 1, 1)),
            s=TropVector((1, 3, -2)),
            g=TropVector((0, 0, 0)),
            h=TropVector((1, 1, 1)),
        )
    )
    elapsed = time.perf_counter() - start
    assert sol.delta == 2.0
    assert sol.mu == 3.0
    assert sol.lower == TropVector((0, 0, 0))
    assert sol.upper == TropVector((0, 1, 1))
    assert elapsed < 1.0
    _report(1, f"location example exact (delta=2, mu=3) in {elapsed * 1e3:.2f} ms")


def test_criterion_02_approximation_example():
    A = TropMatrix(((1, -1, 1), (3, 1, 0), (0, 0, 2)))
    p = TropVector((3, 4, 4))
    g = TropVector((2, 2, 2))
    start = time.perf_counter()
    residuated = max_solution_leq(A, p)
    sol = approximate(ApproximationProblem(A, p, g))
    elapsed = time.perf_counter() - start
    assert residuated == TropVector((1, 3, 2))
    assert mat_mul(A, residuated) == TropVector((3, 4, 4))
    terms = matrix_lower_terms(MatrixLowerProblem(A, p, p, g))
    assert terms["delta"] == 0.0
    assert terms["g_term"] == 1.0
    assert sol.mu == 1.0
    assert sol.x == TropVector((2, 4, 3))
    assert elapsed < 1.0
    _report(2, f"approximation example exact (mu=1, x=(2,4,3)) in {elapsed * 1e3:.2f} ms")


def test_criterion_03_theorem1_oracle_equivalence(two_sided_batch):
    problems, solutions, rng = two_sided_batch
    start = time.perf_counter()
    points = 0
    for prob, sol in zip(problems, solutions):
        rep = grid_min(TwoSidedObjective(prob), GridSpec(prob.g, prob.h, 0.5))
        points += rep.points_evaluated
        assert abs(rep.min_value - sol.mu) <= ORACLE_TOL
        lo = np.asarray(sol.lower.elements)
        hi = np.asarray(sol.upper.elements)
        counts = np.floor((hi - lo) / 0.5 + 1e-9).astype(int) + 1
        inside = lo + 0.5 * rng.integers(0, counts, size=(1000, len(counts)))
        vals = TwoSidedObjective(prob).batch(inside)
        assert np.all(vals == sol.mu)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        3,
        f"{len(problems)} problems, {points} grid points, 1000 interior samples each, "
        f"oracle minimum == mu, in {elapsed:.1f} s",
    )


def test_criterion_04_theorem1_iff_direction(two_sided_batch):
    problems, solutions, rng = two_sided_batch
    total_outside = 0
    for prob, sol in zip(problems, solutions):
        glo = np.asarray(prob.g.elements)
        ghi = np.asarray(prob.h.elements)
        counts = np.floor((ghi - glo) / 0.5 + 1e-9).astype(int) + 1
        cand = glo + 0.5 * rng.integers(0, counts, size=(1000, len(counts)))
        lo = np.asarray(sol.lower.elements)
        hi = np.asarray(sol.upper.elements)
        outside = cand[np.any((cand < lo) | (cand > hi), axis=1)]
        if not len(outside):
            continue
        vals = TwoSidedObjective(prob).batch(outside)
        assert np.all(vals >= sol.mu + 0.5)
        total_outside += len(outside)
    assert total_outside >= 1000
    _report(
        4,
        f"{total_outside} feasible points outside the interval all exceed mu "
        f"by at least the lattice quantum 1/2",
    )


def test_criterion_05_theorem2_oracle_equivalence():
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    for _ in range(100):
        m, n = int(rng.choice((2, 3))), int(rng.choice((2, 3)))
        A = TropMatrix(tuple(tuple(map(int, row)) for row in rng.integers(-5, 6, (m, n))))
        p = TropVector(tuple(map(int, rng.integers(-5, 6, m))))
        q = TropVector(tuple(map(int, rng.integers(-5, 6, m))))
        g_vals = [int(v) if rng.random() < 0.7 else NEG_INF for v in rng.integers(-5, 6, n)]
        prob = MatrixLowerProblem(A, p, q, TropVector(tuple(g_vals)))
        sol = solve_matrix_lower(prob)
        assert vec_leq(prob.g, sol.x)
        assert objective_matrix(prob, sol.x) == sol.mu
        lo, hi = matrix_lower_box(prob, pads=(sol.x,))
        rep = grid_min(MatrixLowerObjective(prob), GridSpec(lo, hi, 0.5))
        assert abs(rep.min_value - sol.mu) <= ORACLE_TOL
    elapsed = time.perf_counter() - start
    _report(
        5,
        f"100 matrix problems: oracle box minimum == mu, returned x feasible "
        f"and attaining, in {elapsed:.1f} s",
    )


def test_criterion_06_lemma1_maximality():
    rng = np.random.default_rng(6)
    feasible_total = 0
    for _ in range(100):
        m, n = int(rng.choice((2, 3, 4))), int(rng.choice((2, 3, 4)))
        entries = rng.integers(-10, 11, (m, n)).astype(float)
        entries[rng.random((m, n)) < 0.25] = NEG_INF
        for j in range(n):  # keep every column usable
            if np.all(np.isneginf(entries[:, j])):
                entries[rng.integers(m), j] = float(rng.integers(-10, 11))
        A = TropMatrix(tuple(tuple(row) for row in entries))
        p = TropVector(tuple(map(int, rng.integers(-10, 11, m))))
        xs = max_solution_leq(A, p)
        assert vec_leq(mat_mul(A, xs), p)
        for _ in range(50):
            x = TropVector(tuple(v + d / 2 for v, d in zip(xs, rng.integers(-6, 3, n))))
            if vec_leq(mat_mul(A, x), p):
                feasible_total += 1
                assert vec_leq(x, xs)
    assert feasible_total >= 1000
    _report(
        6,
        f"100 systems: A(p~A)~ <= p, and {feasible_total} rejection-sampled "
        f"feasible vectors all dominated by the residuation maximum",
    )


def test_criterion_07_distance_identity():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        x = TropVector(tuple(rng.uniform(-50, 50, n)))
        y = TropVector(tuple(rng.uniform(-50, 50, n)))
        expected = max(abs(b - a) for a, b in zip(x, y))
        assert abs(distance(x, y) - expected) <= DISTANCE_TOL
    _report(7, "1000 random regular pairs: tropical distance == Chebyshev distance")


def test_criterion_08_reduced_form_consistency():
    rng = np.random.default_rng(8)
    for _ in range(100):
        base = random_two_sided(rng)
        h = base.h if rng.random() < 0.5 else None
        zeros = TropVector.zeros(base.p.dim)
        assert solve_two_sided(
            TwoSidedProblem(base.p, base.q, zeros, h)
        ) == solve_two_sided(TwoSidedProblem(base.p, base.q, None, h))

        free = solve_two_sided(TwoSidedProblem(base.p, base.q))
        qp = max(pi - qi for pi, qi in zip(base.p, base.q))
        assert free.mu == qp / 2
        assert free.lower == scalar_mul(-free.mu, base.p)
        assert free.upper == scalar_mul(free.mu, base.q)
    _report(
        8,
        "100 instances: zero-g solve identical to g-absent solve; "
        "unconstrained solve is (sqrt(q~p), mu^-1 p, mu q)",
    )


def test_criterion_09_algebraic_property_suite():
    rng = np.random.default_rng(9)
    sf = MAX_PLUS

    def scalar():
        return float(rng.integers(-40, 41)) / 2

    def scalar_or_zero():
        return NEG_INF if rng.random() < 0.15 else scalar()

    for _ in range(1000):
        a, b, c = scalar_or_zero(), scalar_or_zero(), scalar_or_zero()
        assert sf.add(a, a) == a
        assert sf.mul(a, sf.add(b, c)) == sf.add(sf.mul(a, b), sf.mul(a, c))

    for _ in range(1000):
        a = scalar()
        assert sf.mul(sf.inv(a), a) == sf.one

    for _ in range(1000):
        n = int(rng.integers(1, 6))
        x = TropVector(tuple(scalar() for _ in range(n)))
        y = TropVector(tuple(xi + abs(scalar()) for xi in x))
        assert vec_leq(x, y)
        assert vec_leq(conjugate(y), conjugate(x))

    for _ in range(1000):
        n = int(rng.integers(1, 6))
        vals = [scalar_or_zero() for _ in range(n)]
        if all(v == NEG_INF for v in vals):
            vals[0] = scalar()
        x = TropVector(tuple(vals))
        assert mat_mul(conjugate(x), x) == sf.one

    for _ in range(1000):
        n = int(rng.integers(1, 6))
        x = TropVector(tuple(scalar() for _ in range(n)))
        assert mat_leq(identity(n), mat_mul(x, conjugate(x)))

    _report(
        9,
        "idempotency, distributivity, inverse law, antitone conjugation, "
        "x~x == identity, xx~ >= I: 1000 exact lattice cases each",
    )


def test_criterion_10_cli_contract(tmp_path, capsys):
    location = str(FIXTURES / "location_example.json")
    approximation = str(FIXTURES / "approximation_example.json")
    infeasible = str(FIXTURES / "infeasible_bounds.json")

    out = tmp_path / "location.json"
    assert main(["solve", location, str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["mu"] == 3 and doc["solution"] == {"lower": [0, 0, 0], "upper": [0, 1, 1]}

    out = tmp_path / "approximation.json"
    assert main(["solve", approximation, str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["mu"] == 1 and doc["solution"] == {"x": [2, 4, 3]}

    assert main(["verify", location]) == 0
    assert main(["verify", approximation]) == 0
    capsys.readouterr()

    out = tmp_path / "infeasible.json"
    assert main(["solve", infeasible, str(out)]) == 2
    assert json.loads(out.read_text())["error"]["reason"] == "infeasible_bounds"

    _report(
        10,
        "fixtures solve and verify with exit 0; infeasible fixture exits 2 "
        'with reason "infeasible_bounds"',
    )
