"""Brute-force verification of solver output on bounded grids.

The solvers are exact, so verification reduces to exhaustively evaluating
an objective on a lattice and comparing minima.  On integer problem data
every objective in this package is a pointwise maximum of terms of the
form ``x_i + c`` and ``-x_i + c``, so its minimum over a box is attained
on the half-step lattice and the step-1/2 grid check is exact rather than
approximate; on half-integer data the step-1/4 grid is.

``tropopt verify`` proves answers with the exact certificate instead
(``certificate.py``); this oracle is the independent reference that the
tests compare it with.

Its internals lean on numpy min/max so grids can be evaluated in
vectorized chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .certificate import _TOL, OracleReport, VerificationFailedError
from .linalg import TropMatrix, TropVector, conjugate, mat_mul, vec_leq
from .semifield import NEG_INF, TropicalError
from .solvers import (
    IntervalSolution,
    MatrixLowerProblem,
    PointSolution,
    TwoSidedProblem,
    objective_matrix,
    objective_two_sided,
)

GRID_POINT_CAP = 10_000_000
_CHUNK = 1 << 18


class GridTooLargeError(TropicalError):
    """Requested grid exceeds the evaluation cap."""

    reason = "grid_too_large"
    exit_code = 3


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned box with a uniform lattice step."""

    lower: TropVector
    upper: TropVector
    step: float

    def __post_init__(self) -> None:
        if self.lower.orientation != "col" or self.upper.orientation != "col":
            raise TropicalError("grid bounds must be column vectors")
        if self.lower.dim != self.upper.dim:
            raise TropicalError("grid bounds must have equal dimension")
        if not all(math.isfinite(v) for v in self.lower) or not all(
            math.isfinite(v) for v in self.upper
        ):
            raise TropicalError("grid bounds must be finite")
        if not vec_leq(self.lower, self.upper):
            raise TropicalError("grid lower bound exceeds upper bound")
        if not self.step > 0:
            raise TropicalError("grid step must be positive")

    @property
    def dim(self) -> int:
        return self.lower.dim


def _axis_counts(spec: GridSpec) -> tuple[int, ...]:
    return tuple(
        int(math.floor((u - l) / spec.step + _TOL)) + 1
        for l, u in zip(spec.lower, spec.upper)
    )


def grid_min(objective: Callable[[TropVector], float], spec: GridSpec) -> OracleReport:
    """Minimize ``objective`` over every lattice point of the box.

    Points are visited in lexicographic order and ties keep the earliest
    argmin, so the result is deterministic.  Objectives exposing a
    ``batch(points)`` method (an (N, n) float array in, N values out) are
    evaluated in vectorized chunks; plain callables are fed one
    ``TropVector`` at a time.
    """
    counts = _axis_counts(spec)
    total = math.prod(counts)
    if total > GRID_POINT_CAP:
        raise GridTooLargeError(f"{total} grid points exceed the cap of {GRID_POINT_CAP}")
    lower = np.asarray(spec.lower.elements, dtype=float)
    batch = getattr(objective, "batch", None)
    best_val = math.inf
    best_pt: tuple[float, ...] | None = None
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        idx = np.unravel_index(np.arange(start, stop), counts)
        pts = lower + spec.step * np.stack(idx, axis=-1).astype(float)
        if batch is not None:
            vals = np.asarray(batch(pts), dtype=float)
        else:
            vals = np.array(
                [objective(TropVector(tuple(row))) for row in pts],
                dtype=float,
            )
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_pt = tuple(float(v) for v in pts[k])
    assert best_pt is not None
    return OracleReport(
        min_value=best_val,
        argmin=TropVector(best_pt),
        points_evaluated=total,
    )


class TwoSidedObjective:
    """``q~ x + x~ p`` with a vectorized batch path for grids."""

    def __init__(self, prob: TwoSidedProblem):
        self.prob = prob
        self._p = np.asarray(prob.p.elements, dtype=float)
        self._q = np.asarray(prob.q.elements, dtype=float)

    def __call__(self, x: TropVector) -> float:
        return objective_two_sided(self.prob, x)

    def batch(self, pts: np.ndarray) -> np.ndarray:
        return np.max(np.maximum(pts - self._q, self._p - pts), axis=1)


class MatrixLowerObjective:
    """``q~ A x + (A x)~ p`` with a vectorized batch path for grids."""

    def __init__(self, prob: MatrixLowerProblem):
        self.prob = prob
        self._A = np.asarray(prob.A.entries, dtype=float)
        self._p = np.asarray(prob.p.elements, dtype=float)
        self._q = np.asarray(prob.q.elements, dtype=float)

    def __call__(self, x: TropVector) -> float:
        return objective_matrix(self.prob, x)

    def batch(self, pts: np.ndarray) -> np.ndarray:
        ax = np.max(self._A[None, :, :] + pts[:, None, :], axis=2)
        return np.max(np.maximum(ax - self._q, self._p - ax), axis=1)


class BestUnderObjective:
    """``(A x)~ p`` over the feasible set ``A x <= p``; infeasible points
    evaluate to +inf so an unconstrained grid scan respects the constraint."""

    def __init__(self, A: TropMatrix, p: TropVector):
        self.A = A
        self.p = p
        self._A = np.asarray(A.entries, dtype=float)
        self._p = np.asarray(p.elements, dtype=float)

    def __call__(self, x: TropVector) -> float:
        ax = mat_mul(self.A, x)
        if not vec_leq(ax, self.p):
            return math.inf
        return mat_mul(conjugate(ax), self.p)

    def batch(self, pts: np.ndarray) -> np.ndarray:
        ax = np.max(self._A[None, :, :] + pts[:, None, :], axis=2)
        feasible = np.all(ax <= self._p, axis=1)
        # rows where A x is the zero element contribute nothing to (A x)~ p
        gap = np.where(np.isneginf(ax), -np.inf, self._p - ax)
        return np.where(feasible, np.max(gap, axis=1), np.inf)


def _finite(values) -> list[float]:
    return [float(v) for v in values if math.isfinite(v)]


def _envelope(
    data: Sequence[float],
    n: int,
    g: TropVector | None,
    h: TropVector | None,
    pads: Sequence[TropVector],
) -> tuple[TropVector, TropVector]:
    """Data-scaled box certain to contain a minimizer.

    Bounded coordinates are pinned to the constraint; unbounded ones get
    the data envelope widened by twice the data spread, further stretched
    to cover any pad points (typically the solver's own output).
    """
    dmin, dmax = min(data), max(data)
    reach = 2.0 * (dmax - dmin)
    lo, hi = [], []
    for i in range(n):
        if g is not None and g[i] != NEG_INF:
            lo_i = g[i]
        else:
            lo_i = dmin - reach
            for pad in pads:
                lo_i = min(lo_i, pad[i])
        if h is not None:
            hi_i = h[i]
        else:
            hi_i = dmax + reach
            for pad in pads:
                hi_i = max(hi_i, pad[i])
        lo.append(lo_i)
        hi.append(hi_i)
    return TropVector(tuple(lo)), TropVector(tuple(hi))


def _two_sided_data(prob: TwoSidedProblem) -> list[float]:
    return _finite(v for vec in (prob.p, prob.q, prob.g, prob.h) if vec is not None for v in vec)


def _lattice_step(data: list[float]) -> float:
    """A grid step that is exact for ``data``.  On the lattice 1/d every
    optimum and endpoint is a sum or a halving of data values, so it lies
    on 1/(2d): 0.5 for integer data, 0.25 for half-integer data."""
    for d in (1, 2):
        if all((v * d).is_integer() for v in data):
            return 0.5 / d
    raise TropicalError("data off the half-integer lattice need an explicit grid step")


def two_sided_box(
    prob: TwoSidedProblem, pads: Sequence[TropVector] = ()
) -> tuple[TropVector, TropVector]:
    return _envelope(_two_sided_data(prob), prob.dim, prob.g, prob.h, pads)


def matrix_lower_box(
    prob: MatrixLowerProblem, pads: Sequence[TropVector] = ()
) -> tuple[TropVector, TropVector]:
    data = _finite(v for row in prob.A.entries for v in row)
    data += _finite(prob.p) + _finite(prob.q) + _finite(prob.g)
    return _envelope(data, prob.A.cols, prob.g, None, pads)


def best_under_box(
    A: TropMatrix, p: TropVector, pads: Sequence[TropVector] = ()
) -> tuple[TropVector, TropVector]:
    data = _finite(v for row in A.entries for v in row) + _finite(p)
    return _envelope(data, A.cols, None, None, pads)


def _lattice_sample(
    rng: np.random.Generator,
    lower: np.ndarray,
    upper: np.ndarray,
    step: float,
    count: int,
) -> np.ndarray:
    counts = np.floor((upper - lower) / step + _TOL).astype(int) + 1
    ks = rng.integers(0, counts, size=(count, len(counts)))
    return lower + step * ks


def verify_interval(
    prob: TwoSidedProblem,
    sol: IntervalSolution,
    samples: int = 1000,
    *,
    step: float | None = None,
    rng: int | np.random.Generator | None = None,
    tol: float = _TOL,
) -> OracleReport:
    """Check an interval solution against the brute-force oracle.

    Three checks, any failure raising ``VerificationFailedError`` with a
    counterexample: the grid minimum over the feasible box must equal the
    claimed optimum; sampled lattice points inside [lower, upper] must
    attain it; and sampled feasible points outside the interval must
    exceed it strictly.  The default ``step`` is exact on integer and
    half-integer data; other data need an explicit one.
    """
    if step is None:
        step = _lattice_step(_two_sided_data(prob))
    rng = np.random.default_rng(0 if rng is None else rng)
    obj = TwoSidedObjective(prob)
    box_lo, box_hi = two_sided_box(prob, pads=(sol.lower, sol.upper))
    grid = grid_min(obj, GridSpec(box_lo, box_hi, step))
    discrepancy = abs(grid.min_value - sol.mu)
    if discrepancy > tol:
        raise VerificationFailedError(
            f"grid minimum {grid.min_value} disagrees with claimed optimum {sol.mu}",
            counterexample=grid.argmin,
        )
    evaluated = grid.points_evaluated

    lo = np.asarray(sol.lower.elements, dtype=float)
    hi = np.asarray(sol.upper.elements, dtype=float)
    inside = _lattice_sample(rng, lo, hi, step, samples)
    vals = obj.batch(inside)
    worst = int(np.argmax(np.abs(vals - sol.mu)))
    if abs(vals[worst] - sol.mu) > tol:
        raise VerificationFailedError(
            f"point inside the solution interval has objective {vals[worst]}, "
            f"expected {sol.mu}",
            counterexample=TropVector(tuple(map(float, inside[worst]))),
        )
    discrepancy = max(discrepancy, float(np.max(np.abs(vals - sol.mu))))
    evaluated += len(inside)

    blo = np.asarray(box_lo.elements, dtype=float)
    bhi = np.asarray(box_hi.elements, dtype=float)
    cand = _lattice_sample(rng, blo, bhi, step, 4 * samples)
    outside = np.any((cand < lo - tol) | (cand > hi + tol), axis=1)
    cand = cand[outside][:samples]
    if len(cand):
        vals = obj.batch(cand)
        bad = int(np.argmin(vals))
        if vals[bad] <= sol.mu + tol:
            raise VerificationFailedError(
                f"feasible point outside the interval has objective {vals[bad]}, "
                f"not above {sol.mu}",
                counterexample=TropVector(tuple(map(float, cand[bad]))),
            )
        evaluated += len(cand)

    return OracleReport(
        min_value=grid.min_value,
        argmin=grid.argmin,
        points_evaluated=evaluated,
        agrees_with_solver=True,
        max_discrepancy=discrepancy,
    )


def verify_point(
    objective: Callable[[TropVector], float],
    sol: PointSolution,
    spec: GridSpec,
    *,
    tol: float = _TOL,
) -> OracleReport:
    """Check a point solution: the grid minimum must equal the claimed
    optimum and the returned vector must attain it."""
    grid = grid_min(objective, spec)
    at_solution = float(objective(sol.x))
    if abs(grid.min_value - sol.mu) > tol:
        raise VerificationFailedError(
            f"grid minimum {grid.min_value} disagrees with claimed optimum {sol.mu}",
            counterexample=grid.argmin,
        )
    if abs(at_solution - sol.mu) > tol:
        raise VerificationFailedError(
            f"returned vector attains {at_solution}, not the claimed {sol.mu}",
            counterexample=sol.x,
        )
    return OracleReport(
        min_value=grid.min_value,
        argmin=grid.argmin,
        points_evaluated=grid.points_evaluated + 1,
        agrees_with_solver=True,
        max_discrepancy=max(abs(grid.min_value - sol.mu), abs(at_solution - sol.mu)),
    )
