"""Byte identity of the command line on seeded random problems.

Every case runs ``solve``, ``verify`` and ``eval`` on one problem, read
from stdin, and ``tests/fixtures/golden.jsonl`` holds the exit code and
the exact standard output of each run: solutions, reports and error
payloads.  The problems are drawn again here from a seeded generator,
so a changed output shows up as a mismatch against the fixture.  A
second test holds ``solve`` to ``verify`` and ``eval``: no problem that
``solve`` answers may fail ``verify``, and ``eval`` must find every
point that ``solve`` returns feasible and attaining ``mu``.

Regenerate the fixture, only when an output changes on purpose, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

from tropopt.cli import main
from tropopt.semifield import _close

GOLDEN = Path(__file__).parent / "fixtures" / "golden.jsonl"
KINDS = ("two_sided", "matrix_lower", "locate", "approximate", "best_under")
PER_KIND = 48
BIG = 1e308

# inputs at the edges of the number range, written out by hand
EDGE_CASES = [
    ({"kind": "two_sided", "p": [0], "q": [-BIG]}, [BIG]),
    ({"kind": "two_sided", "p": [BIG, 0], "q": [-BIG, 0]}, [0, 0]),
    ({"kind": "two_sided", "p": [BIG, 0], "q": [-BIG, 0], "h": [BIG, 1]}, [0, 0]),
    ({"kind": "two_sided", "p": [-BIG, 0], "q": [BIG, 0]}, [-BIG, BIG]),
    ('{"kind": "two_sided", "p": [1, 0], "q": [0, 0], "g": [-1e400, 0]}', [0, 0]),
    ('{"kind": "two_sided", "p": [1' + "0" * 400 + ', 0], "q": [0, 0]}', [0, 0]),
    (
        {"kind": "matrix_lower", "A": [[BIG, 0], [0, BIG]], "p": [-BIG, 0], "q": [0, BIG], "g": [0, 0]},
        [0, 0],
    ),
    ({"kind": "matrix_lower", "A": [[BIG, 0], [0, BIG]], "p": [0, 0], "q": [0, 0], "g": [0, 0]}, [BIG, 0]),
    ({"kind": "best_under", "A": [[-BIG, 0], [0, -BIG]], "p": [BIG, BIG]}, [BIG, BIG]),
    ({"kind": "approximate", "A": [[0, "-inf"], ["-inf", 0]], "p": [-0.0, 0.0], "g": [-0.0, "-inf"]}, [-0.0, 0.0]),
    ({"kind": "locate", "r": [-0.0, 0.0], "s": [0.0, -0.0], "g": [-0.0, "-inf"], "h": [0.0, -0.0]}, [-0.0, -0.0]),
    ({"kind": "two_sided", "p": [0.0, -0.0], "q": [-0.0, 0.0]}, ["-inf", 0]),
    ({"kind": "best_under", "A": [["-inf", 0]], "p": [1]}, [0, 1]),
    ({"kind": "two_sided", "p": [-BIG], "q": [BIG]}, [0]),
    ({"kind": "matrix_lower", "A": [[BIG]], "p": [0], "q": [-BIG], "g": ["-inf"]}, [0]),
    ({"kind": "matrix_lower", "A": [[-BIG]], "p": [0], "q": [BIG], "g": [0]}, [0]),
    ({"kind": "best_under", "A": [[-BIG]], "p": [BIG]}, [0]),
    # overflows at a rounding tie, a + (max - a) and a - (a - max) being
    # max plus half an ulp: A x in best_under, A (q~A)~ in matrix_lower
    ({"kind": "best_under", "A": [[(2**53 - 5) * 2.0**970]], "p": [sys.float_info.max]}, [0]),
    ({"kind": "matrix_lower", "A": [[(2**53 - 5) * 2.0**970]], "p": [0], "q": [sys.float_info.max], "g": [0]}, [0]),
]


def _scalar(rng, style, zero=0.0):
    """One problem entry: an integer, a half-integer or a huge number
    by ``style``, a signed zero now and then, and the tropical zero
    with probability ``zero``."""
    if rng.random() < zero:
        return "-inf"
    if rng.random() < 0.08:
        return rng.choice([0.0, -0.0])
    if style == "big" and rng.random() < 0.5:
        return rng.choice([-1, 1]) * rng.choice([BIG, 1.5e308, 1e307])
    if style == "int":
        return rng.randint(-4, 4)
    return rng.randint(-8, 8) / 2


def _vec(rng, style, n, zero=0.0):
    return [_scalar(rng, style, zero) for _ in range(n)]


def _case(kind, rng):
    """A random problem of ``kind`` with a point to evaluate; bounds are
    optional, the tropical zero turns up in g, in A and, rarely, where
    it makes the problem invalid, and some points have the wrong
    dimension."""
    style = rng.choice(["int", "int", "half", "half", "big"])
    n, m = rng.randint(1, 4), rng.randint(1, 3)
    rare = 0.03
    if kind in ("two_sided", "locate"):
        a, b = ("p", "q") if kind == "two_sided" else ("r", "s")
        doc = {"kind": kind, a: _vec(rng, style, n, rare), b: _vec(rng, style, n, rare)}
        if rng.random() < 0.6:
            doc["g"] = _vec(rng, style, n, 0.3)
        if rng.random() < 0.6:
            doc["h"] = [abs(v) if isinstance(v, (int, float)) else v for v in _vec(rng, style, n, rare)]
    else:
        doc = {"kind": kind, "A": [_vec(rng, style, n, 0.2) for _ in range(m)], "p": _vec(rng, style, m, rare)}
        if kind == "matrix_lower":
            doc["q"] = _vec(rng, style, m, rare)
        if kind != "best_under":
            doc["g"] = _vec(rng, style, n, 0.3)
    dim = n + 1 if rng.random() < 0.05 else n
    return doc, _vec(rng, style, dim, rare)


def cases():
    """The fixture's problems and points, in order."""
    out = [(json.loads(path.read_text()), [0, 0, 0]) for path in sorted(GOLDEN.parent.glob("*.json"))]
    out += EDGE_CASES
    for kind in KINDS:
        rng = random.Random(f"golden-{kind}")
        out += [_case(kind, rng) for _ in range(PER_KIND)]
    return out


def _run(argv, text):
    stdin, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return [code, out.getvalue()]


def outputs(doc, point):
    """Exit code and standard output of each subcommand on ``doc``, a
    problem or the text of one."""
    text = doc if isinstance(doc, str) else json.dumps(doc)
    return {
        "solve": _run(["solve", "-"], text),
        "verify": _run(["verify", "-"], text),
        "eval": _run(["eval", "-", "--point", json.dumps(point)], text),
    }


def test_outputs_match_golden_file():
    lines = GOLDEN.read_text().splitlines()
    drawn = cases()
    assert len(lines) == len(drawn) >= 200
    mismatches = []
    for line, (doc, point) in zip(lines, drawn):
        want = json.loads(line)
        assert (want["doc"], want["point"]) == (doc, point), "the generator drew other problems"
        got = outputs(doc, point)
        mismatches += [(doc, point, cmd, got[cmd], want[cmd]) for cmd in got if got[cmd] != want[cmd]]
    assert not mismatches, f"{len(mismatches)} outputs differ, first: {mismatches[0]}"


def _eval_disagrees(run) -> bool:
    """Whether ``eval`` at a point that ``solve`` returned fails, calls
    it infeasible or finds it off ``mu`` by more than the tolerance."""
    text = run["doc"] if isinstance(run["doc"], str) else json.dumps(run["doc"])
    solution = json.loads(run["solve"][1])
    for point in solution["solution"].values():
        code, out = _run(["eval", "-", "--point", json.dumps(point)], text)
        if code != 0:
            return True
        evaluated = json.loads(out)
        if evaluated["feasible"] is not True or not _close(float(evaluated["value"]), solution["mu"]):
            return True
    return False


def test_every_solved_problem_verifies():
    # solve never returns a point that verify rejects, or that eval calls
    # infeasible or off the optimum: in the fixture's recorded outputs,
    # and on fresh problems from the same generator
    runs = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    for kind in KINDS:
        rng = random.Random(f"attains-{kind}")
        for _ in range(120):
            text = json.dumps(_case(kind, rng)[0])
            runs.append({"doc": text, "solve": _run(["solve", "-"], text), "verify": _run(["verify", "-"], text)})
    solved = [run for run in runs if run["solve"][0] == 0]
    bad = [run["doc"] for run in solved if run["verify"][0] != 0]
    assert not bad, f"{len(bad)} solved problems fail verify, first: {bad[0]}"
    bad = [run["doc"] for run in solved if _eval_disagrees(run)]
    assert not bad, f"{len(bad)} solved problems fail eval at a returned point, first: {bad[0]}"


if __name__ == "__main__":
    with GOLDEN.open("w") as fh:
        for doc, point in cases():
            fh.write(json.dumps({"doc": doc, "point": point, **outputs(doc, point)}) + "\n")
