"""Output checks computed apart from the program.

Each check rebuilds the expected answer from the problem document with
plain numpy max/min reductions (never through ``tropopt``) and compares it
with a solution or verify report decoded from JSON.  On integer data every
expected value is a half-integer, so comparisons are exact.

A failed check raises ``CheckError`` naming what disagreed.
"""

from __future__ import annotations

import numpy as np

RANDOM_POINTS = 32


class CheckError(Exception):
    """An output disagrees with the independently computed answer."""


def _arr(values) -> np.ndarray:
    return np.array([float(v) for v in values])


def _equal(label: str, got, want) -> None:
    if not np.array_equal(np.asarray(got, dtype=float), np.asarray(want, dtype=float)):
        raise CheckError(f"{label}: got {got!r}, expected {want!r}")


def _two_sided_data(doc: dict):
    if doc["kind"] == "two_sided":
        p, q = _arr(doc["p"]), _arr(doc["q"])
    else:
        r, s = _arr(doc["r"]), _arr(doc["s"])
        p, q = np.maximum(r, s), np.minimum(r, s)
    g = _arr(doc["g"]) if "g" in doc else None
    h = _arr(doc["h"]) if "h" in doc else None
    return p, q, g, h


def _two_sided_terms(p, q, g, h) -> dict:
    """Each term is a lower bound on the objective at every feasible x."""
    terms = {"delta_term": float(np.max((p - q) / 2))}
    if g is not None:
        terms["g_term"] = float(np.max(g - q))
    if h is not None:
        terms["h_term"] = float(np.max(p - h))
    return terms


def _two_sided_objective(p, q, x) -> float:
    return float(max(np.max(x - q), np.max(p - x)))


def _matrix_data(doc: dict):
    A = np.array(doc["A"], dtype=float)
    p = _arr(doc["p"])
    q = _arr(doc["q"]) if doc["kind"] == "matrix_lower" else p
    return A, p, q, _arr(doc["g"])


def _matrix_terms(A, p, q, g) -> dict:
    """The paper's bound: delta = sqrt((A (q~A)~)~ p) and q~ A g."""
    qa = np.max(A - q[:, None], axis=0)
    residual = np.max(A - qa[None, :], axis=1)
    return {"delta_term": float(np.max(p - residual) / 2), "g_term": float(np.max(qa + g))}


def _matrix_objective(A, p, q, xs: np.ndarray) -> np.ndarray:
    """Objective at each row of ``xs``."""
    ax = np.max(A[None, :, :] + xs[:, None, :], axis=2)
    return np.max(np.maximum(ax - q, p - ax), axis=1)


def expected_mu(doc: dict) -> float:
    """The optimum value, computed from the document alone."""
    kind = doc["kind"]
    if kind in ("two_sided", "locate"):
        return max(_two_sided_terms(*_two_sided_data(doc)).values())
    A, p = np.array(doc["A"], dtype=float), _arr(doc["p"])
    if kind == "best_under":
        x = np.min(p[:, None] - A, axis=0)
        return float(np.max(p - np.max(A + x[None, :], axis=1)))
    return max(_matrix_terms(*_matrix_data(doc)).values())


def check_solution(doc: dict, out: dict) -> None:
    """Check a ``solve`` output (``solution_to_dict``) against ``doc``."""
    kind = doc["kind"]
    if out.get("kind") != kind:
        raise CheckError(f"kind: got {out.get('kind')!r}, expected {kind!r}")
    if kind in ("two_sided", "locate"):
        p, q, g, h = _two_sided_data(doc)
        terms = _two_sided_terms(p, q, g, h)
        mu = max(terms.values())
        _equal("mu", out["mu"], mu)
        _equal("delta", out["delta"], terms["delta_term"])
        _equal("diagnostics", [out["diagnostics"].get(k) for k in terms], list(terms.values()))
        lower, upper = _arr(out["solution"]["lower"]), _arr(out["solution"]["upper"])
        _equal("lower", lower, p - mu if g is None else np.maximum(p - mu, g))
        _equal("upper", upper, q + mu if h is None else np.minimum(q + mu, h))
        _equal("objective at lower", _two_sided_objective(p, q, lower), mu)
        _equal("objective at upper", _two_sided_objective(p, q, upper), mu)
        return
    x = _arr(out["solution"]["x"])
    if kind == "best_under":
        A, p = np.array(doc["A"], dtype=float), _arr(doc["p"])
        ax = np.max(A + x[None, :], axis=1)
        if np.any(ax > p):
            raise CheckError("best_under: A x exceeds p")
        if not np.all(np.any(A + x[None, :] == p[:, None], axis=0)):
            raise CheckError("best_under: a column of A x <= p is slack, so x is not maximal")
        _equal("mu", out["mu"], np.max(p - ax))
        _equal("delta", out["delta"], np.max(p - ax) / 2)
        return
    A, p, q, g = _matrix_data(doc)
    if np.any(x < g):
        raise CheckError(f"{kind}: x is below g")
    terms = _matrix_terms(A, p, q, g)
    mu = max(terms.values())
    _equal("mu", out["mu"], mu)
    _equal("delta", out["delta"], terms["delta_term"])
    _equal("diagnostics", [out["diagnostics"].get(k) for k in terms], list(terms.values()))
    _equal("objective at x", _matrix_objective(A, p, q, x[None, :])[0], mu)
    # random feasible points around x and above g never beat the optimum
    rng = np.random.default_rng(0)
    steps = rng.integers(-4, 5, size=(RANDOM_POINTS, len(x))) / 2
    pts = np.maximum(np.concatenate([x + steps, g + np.abs(steps)]), g)
    if np.any(_matrix_objective(A, p, q, pts) < mu):
        raise CheckError(f"{kind}: a feasible point scores below mu")


def check_report(doc: dict, out: dict) -> None:
    """Check a ``verify`` report (``report_to_dict`` fields) against ``doc``."""
    mu = expected_mu(doc)
    if out.get("agrees_with_solver") is not True:
        raise CheckError("verify: the oracle disagrees with the solver")
    _equal("verify mu", out["mu"], mu)
    _equal("verify min_value", out["min_value"], mu)
    if not out["points_evaluated"] >= 1:
        raise CheckError("verify: no points evaluated")
