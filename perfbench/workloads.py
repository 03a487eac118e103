"""Seeded integer problem files for the benchmark workloads.

Every input is drawn from ``numpy.random.default_rng`` keyed by the workload
seed plus the workload, kind and file index, so one seed always gives the
same files.  All data are integers: every value the solvers compute then
lies on the half-integer lattice, the independent checks compare exactly,
and the grid oracle is exact (it is not on non-integer data).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VECTOR_KINDS = ("two_sided", "locate")
MATRIX_KINDS = ("matrix_lower", "approximate", "best_under")


@dataclass(frozen=True)
class Workload:
    """One input mix.

    ``n`` is the vector length (vector kinds) or the column count of ``A``
    (matrix kinds), ``m`` the row count of ``A``; entries are drawn from
    ``[-spread, spread]``, and each box bound lies within ``width`` of a
    common centre.  A round runs ``per_round`` in-process pipelines per kind,
    then one CLI child per kind.
    """

    name: str
    why: str
    kinds: tuple[str, ...]
    n: int
    m: int
    spread: int
    width: int
    files: int
    per_round: int
    verify: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="vec_large",
            why="two_sided and locate at n=10^4 with both bounds; per-element "
            "parse, construction, reduction and serialize work dominate",
            kinds=VECTOR_KINDS,
            n=10_000,
            m=0,
            spread=1000,
            width=250,
            files=4,
            per_round=2,
            verify=False,
        ),
        Workload(
            name="mat_dense",
            why="matrix_lower, approximate and best_under at m=200; O(m^2) "
            "mat_mul products dominate, best_under skips the diagnostics recompute",
            kinds=MATRIX_KINDS,
            n=200,
            m=200,
            spread=100,
            width=0,
            files=4,
            per_round=4,
            verify=False,
        ),
        Workload(
            name="small_verify",
            why="all five kinds at n<=4, solved then verified; interpreter start, "
            "numpy import and the oracle grid scan dominate",
            kinds=VECTOR_KINDS + MATRIX_KINDS,
            n=4,
            m=4,
            spread=3,
            width=4,
            files=48,
            per_round=6,
            verify=True,
        ),
    )
}


def _ints(rng: np.random.Generator, bound: int, shape) -> np.ndarray:
    return rng.integers(-bound, bound + 1, size=shape)


def make_problem(w: Workload, kind: str, rng: np.random.Generator) -> dict:
    """One problem document of ``kind`` drawn from ``rng``."""
    doc: dict = {"kind": kind}
    if kind in VECTOR_KINDS:
        a, b = ("p", "q") if kind == "two_sided" else ("r", "s")
        doc[a] = _ints(rng, w.spread, w.n).tolist()
        doc[b] = _ints(rng, w.spread, w.n).tolist()
        centre = _ints(rng, w.spread, w.n)
        doc["g"] = (centre - rng.integers(0, w.width + 1, w.n)).tolist()
        doc["h"] = (centre + rng.integers(0, w.width + 1, w.n)).tolist()
        return doc
    # small_verify's A has n - 1 columns: the oracle's grid over x is then
    # three-dimensional and stays far below its 10^7-point cap
    cols = w.n - 1 if w.verify else w.n
    doc["A"] = _ints(rng, w.spread, (w.m, cols)).tolist()
    doc["p"] = _ints(rng, w.spread, w.m).tolist()
    if kind == "matrix_lower":
        doc["q"] = _ints(rng, w.spread, w.m).tolist()
    if kind != "best_under":
        doc["g"] = _ints(rng, w.spread, cols).tolist()
    return doc


def write_inputs(w: Workload, seed: int, directory: Path) -> dict[str, list[Path]]:
    """Write ``w.files`` problem files per kind; returns the paths by kind."""
    directory.mkdir(parents=True, exist_ok=True)
    index = list(WORKLOADS).index(w.name)
    paths: dict[str, list[Path]] = {}
    for k, kind in enumerate(w.kinds):
        paths[kind] = []
        for i in range(w.files):
            rng = np.random.default_rng([seed, index, k, i])
            doc = make_problem(w, kind, rng)
            doc["name"] = f"{w.name}-{kind}-{i}"
            path = directory / f"{kind}-{i}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths[kind].append(path)
    return paths
