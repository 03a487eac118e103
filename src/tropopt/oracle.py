"""Brute-force minimization over bounded grids: the tests' independent
reference for the solvers and the certificate.

``grid_min`` evaluates an objective at every point of a lattice over a
box.  On integer problem data every objective in this package is a
pointwise maximum of terms of the form ``x_i + c`` and ``-x_i + c``, so
its minimum over a box is attained on the half-step lattice and the
step-1/2 grid minimum is exact rather than approximate; on half-integer
data the step-1/4 grid is.  The ``*_box`` functions give a box certain
to contain a minimizer.

Nothing in the package calls this module: ``tropopt verify`` proves
answers with the exact certificate (``certificate.py``).  Import it as
``tropopt.oracle``; it needs numpy, which evaluates grids in vectorized
chunks, and the package declares numpy only for its tests.  It stays in
the package, with the ``MaxPlus``, ``mat_mul`` and ``conjugate`` that it
and the tests use, only because the benchmark in ``perfbench/`` imports
it and times ``grid_min``; once the benchmark stops (ROADMAP item 1), it
moves to the tests (item 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .certificate import OracleReport, objective_matrix, objective_two_sided
from .linalg import TropMatrix, TropVector, conjugate, mat_mul, vec_leq
from .semifield import _TOL, NEG_INF, TropicalError
from .solvers import MatrixLowerProblem, TwoSidedProblem

GRID_POINT_CAP = 10_000_000
_CHUNK = 1 << 18


class GridTooLargeError(TropicalError):
    """Requested grid exceeds the evaluation cap."""

    reason = "grid_too_large"


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


def two_sided_box(
    prob: TwoSidedProblem, pads: Sequence[TropVector] = ()
) -> tuple[TropVector, TropVector]:
    data = _finite(v for vec in (prob.p, prob.q, prob.g, prob.h) if vec is not None for v in vec)
    return _envelope(data, prob.dim, prob.g, prob.h, pads)


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
