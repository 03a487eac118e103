"""The machine's current speed, from a fixed reference loop.

The vCPUs this benchmark runs on share their cores with other tenants, and
their speed drifts by a fifth or more over minutes, for every kind of work
at once, though not by the same share for each kind.  ``reference_s`` times
one pass of a fixed loop made of the same kinds of steps as the program,
about half of it in each of two parts.  The pure-Python part is what the
program's core does: method calls on a scalar type, float comparisons and
additions, list building, and JSON encoding and decoding.  The numpy part
is what the grid oracle does: broadcast sums, max-reductions over an axis
and an argmin, on arrays of a few thousand points.  The benchmark runs it
between its operations and scales each timing by ``REFERENCE_S`` over the
nearby passes' median (``scale``), so that a timing reads as it would at
the reference speed.  The loop does not
touch the program, so a change to the program moves the scaled figures as
much as the raw ones.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# median time of one ``reference_s`` pass on the reference machine (a
# 2.1 GHz vCPU, Python 3.11, numpy 2.4); the scaled timings are in its units
REFERENCE_S = 0.0017

_VALUES = [float(i % 97 - 48) for i in range(1500)]
_A = (np.arange(12, dtype=float) % 7 - 3).reshape(4, 3)
_POINTS = (np.arange(3 * 2048, dtype=float) % 11 - 5).reshape(2048, 3)


class _MaxPlus:
    """A stand-in scalar type: validated floats, max as addition, + as
    multiplication."""

    zero = float("-inf")

    def check(self, a: float) -> float:
        if a != a:
            raise ValueError("nan")
        return a

    def add(self, a: float, b: float) -> float:
        return a if a >= b else b

    def mul(self, a: float, b: float) -> float:
        return a + b


_FIELD = _MaxPlus()


def reference_s() -> float:
    """Seconds taken by one pass of the reference loop."""
    f = _FIELD
    start = time.perf_counter()
    acc = f.zero
    ys = [f.check(float(v)) for v in _VALUES]
    for a, b in zip(_VALUES, ys):
        acc = f.add(acc, f.mul(a, b))
    json.loads(json.dumps({"x": ys, "acc": acc}))
    values = (_A[None, :, :] + _POINTS[:, None, :]).max(axis=2)
    np.abs(values - acc).max(axis=1).argmin()
    return time.perf_counter() - start


def scale(passes: list[float]) -> float:
    """The factor that brings timings made next to ``passes`` to the
    reference speed."""
    return REFERENCE_S / statistics.median(passes)
