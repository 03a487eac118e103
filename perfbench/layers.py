"""Per-layer timers and counters, installed from the benchmark's side.

``Layers.installed()`` replaces the public functions listed in ``TIMED``
with timing wrappers in every ``tropopt`` module namespace that refers to
them, so calls between the program's own modules are timed too; leaving
the block restores the originals.  Times are inclusive: a span covers the
layers it calls.  The program itself is not changed.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

from tropopt import applications, cli, linalg, oracle, semifield, solvers

# span name -> the functions it times
TIMED = {
    "cli.parse": [(cli, "parse_problem")],
    "cli.solve": [(cli, "solve_loaded")],
    "cli.verify": [(cli, "verify_loaded")],
    "cli.to_dict": [(cli, "solution_to_dict")],
    "applications.locate": [(applications, "locate")],
    "applications.approximate": [(applications, "approximate")],
    "applications.reduce": [(applications, "reduced_two_sided"), (applications, "reduced_matrix_lower")],
    "solvers.solve_two_sided": [(solvers, "solve_two_sided")],
    "solvers.solve_matrix_lower": [(solvers, "solve_matrix_lower")],
    "solvers.best_underestimator": [(solvers, "best_underestimator")],
    "solvers.terms": [(solvers, "two_sided_terms"), (solvers, "matrix_lower_terms")],
    "linalg.mat_mul": [(linalg, "mat_mul")],
    "oracle.grid_min": [(oracle, "grid_min")],
}

SEMIFIELD_METHODS = ("check", "add", "mul", "inv", "pow", "sqrt", "leq", "is_zero")


def _shape(v) -> tuple[int, int]:
    if isinstance(v, linalg.TropMatrix):
        return len(v.entries), len(v.entries[0])
    return (len(v.elements), 1) if v.orientation == "col" else (1, len(v.elements))


def _mat_mul_ops(args, result) -> int:
    (m, k), (_, n) = _shape(args[0]), _shape(args[1])
    return m * k * n


def _elements(args, result) -> int:
    rows, cols = _shape(args[0])
    return rows * cols


# span name -> work done by one call, counted from its arguments and result
_WORK = {
    "linalg.build": _elements,
    "linalg.mat_mul": _mat_mul_ops,
    "oracle.grid_min": lambda args, report: report.points_evaluated,
}


class Layers:
    """Accumulated inclusive time, calls and work per span name."""

    def __init__(self) -> None:
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.work: Counter[str] = Counter()

    def wrap(self, name: str, fn):
        work = _WORK.get(name)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - start
                self.calls[name] += 1
            if work is not None:
                self.work[name] += work(args, result)
            return result

        return timed

    @contextlib.contextmanager
    def installed(self):
        """Time every function in ``TIMED`` and container construction."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "tropopt"]
        undo = []
        try:
            for name, targets in TIMED.items():
                for module, attr in targets:
                    orig = getattr(module, attr)
                    wrapper = self.wrap(name, orig)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is orig:
                                undo.append((mod, key, orig))
                                setattr(mod, key, wrapper)
            for cls in (linalg.TropVector, linalg.TropMatrix):
                orig = cls.__post_init__
                undo.append((cls, "__post_init__", orig))
                cls.__post_init__ = self.wrap("linalg.build", orig)
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)


@contextlib.contextmanager
def semifield_calls():
    """Count every call to a max-plus scalar method; yields the Counter."""
    counts: Counter[str] = Counter()
    cls = semifield.MaxPlus
    saved = {name: cls.__dict__.get(name) for name in SEMIFIELD_METHODS}

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    try:
        for name in SEMIFIELD_METHODS:
            setattr(cls, name, counting(name, getattr(cls, name)))
        yield counts
    finally:
        for name, orig in saved.items():
            if orig is None:
                delattr(cls, name)
            else:
                setattr(cls, name, orig)
