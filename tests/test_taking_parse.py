"""The command path's parse takes each field out of the document it
decoded, and each row of ``A`` once the row's floats exist, so that each
array is freed once converted; ``parse_problem`` reads a shallow copy of
its argument and leaves it as it is.

Both give the same tuple, or the same error class and message, on every
fixture and on matrices whose conversion fails part way, and the taking
parse holds less memory at its peak.
"""

import copy
import json
import operator
import random
import tracemalloc
from pathlib import Path

import pytest

from test_cli import KIND_DOCS
from test_golden import cases
from tropopt import ShapeMismatchError, TropicalError, cli
from tropopt.cli import parse_problem

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.json"))
# a JSON integer too long for a float
HUGE = "1" + "0" * 399


def _outcome(parse, text):
    """What ``parse`` makes of the decoded ``text``: the parsed tuple, its
    data as text (which shows the sign of a zero), or the error's class
    and message."""
    try:
        lp = parse(json.loads(text))
    except TropicalError as exc:
        return type(exc), str(exc)
    return lp, repr(lp[1])


def _matrix(rows):
    """An approximate problem file with the matrix written as ``rows``."""
    return f'{{"kind": "approximate", "A": [{", ".join(rows)}], "p": [0, 0, 0], "g": [0, 0, 0]}}'


# matrices whose conversion stops part way, with the error they must raise
BROKEN_MATRICES = {
    # 1e400 decodes as a float inf, which converts; the 400-digit integer
    # two rows on does not, and the first bad element is still reported
    "inf_then_huge": (
        _matrix(["[0, 1e400, 0]", "[0, 0, 0]", f"[0, {HUGE}, 0]"]),
        (cli.ScalarOverflowError, "A[0][1]: number literal exceeds the float range"),
    ),
    "huge_only": (
        _matrix(["[0, 0, 0]", "[0, 0, 0]", f"[0, {HUGE}, 0]"]),
        (cli.ScalarOverflowError, "A[2][1]: number literal exceeds the float range"),
    ),
    "true_in_last_row": (
        _matrix(["[0, 0, 0]", "[0, 0, 0]", "[0, true, 0]"]),
        (cli.ProblemFormatError, 'A[2][1]: expected a number or "-inf", got True'),
    ),
    "ragged": (
        _matrix(["[0, 0, 0]", "[0, 0]", "[0, 0, 0]"]),
        (ShapeMismatchError, "matrix rows have unequal lengths"),
    ),
    "neg_inf_row_then_overflow": (
        _matrix(['["-inf", "-inf", 0]', "[0, 1e400, 0]", f"[{HUGE}, 0, 0]"]),
        (cli.ScalarOverflowError, "A[1][1]: number literal exceeds the float range"),
    ),
    "neg_inf_row_then_huge": (
        _matrix(['["-inf", "-inf", 0]', "[0, 0, 0]", f"[0, 0, {HUGE}]"]),
        (cli.ScalarOverflowError, "A[2][2]: number literal exceeds the float range"),
    ),
}


class TestParseProblemKeepsItsArgument:
    @pytest.mark.parametrize(
        "doc",
        [json.loads(path.read_text()) for path in FIXTURES]
        + list(KIND_DOCS.values())
        + [json.loads(BROKEN_MATRICES["inf_then_huge"][0])],
        ids=[path.stem for path in FIXTURES] + list(KIND_DOCS) + ["failed_conversion"],
    )
    def test_argument_is_unchanged(self, doc):
        before, outer = copy.deepcopy(doc), doc.get("A")
        rows = list(outer or ())
        try:
            parse_problem(doc)
        except TropicalError:
            pass
        assert doc == before
        assert doc.get("A") is outer and all(map(operator.is_, doc.get("A") or (), rows))


class TestCommandPathParse:
    @pytest.mark.parametrize("path", FIXTURES, ids=[path.stem for path in FIXTURES])
    def test_fixture_parses_as_parse_problem_does(self, path):
        text = path.read_text()
        assert _outcome(cli._take_problem, text) == _outcome(parse_problem, text)

    def test_golden_problems_parse_as_parse_problem_does(self):
        for doc, _ in cases():
            text = doc if isinstance(doc, str) else json.dumps(doc)
            assert _outcome(cli._take_problem, text) == _outcome(parse_problem, text), text

    @pytest.mark.parametrize("key", sorted(BROKEN_MATRICES))
    def test_failed_conversion_raises_as_parse_problem_does(self, key):
        text, error = BROKEN_MATRICES[key]
        assert _outcome(cli._take_problem, text) == _outcome(parse_problem, text) == error

    def test_command_path_takes_the_decoded_document(self, monkeypatch, tmp_path, capsys):
        taken = []

        def spy(doc):
            taken.append(doc)
            return take(doc)

        take = cli._take_problem
        monkeypatch.setattr(cli, "_take_problem", spy)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(KIND_DOCS["matrix_lower"]))
        assert cli.main(["solve", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["mu"] == 1
        # the payload is gone from the document; the schema's keys stay
        assert len(taken) == 1 and taken[0] == {"kind": "matrix_lower"}


def _two_sided(rng, n):
    centre = [rng.randint(-1000, 1000) for _ in range(n)]
    return {
        "kind": "two_sided",
        "p": [c + rng.randint(-50, 50) for c in centre],
        "q": [c + rng.randint(-50, 50) for c in centre],
        "g": [c - 250 for c in centre],
        "h": [c + 250 for c in centre],
    }


def _locate(rng, n):
    doc = _two_sided(rng, n)
    return {"kind": "locate", "r": doc["p"], "s": doc["q"], "g": doc["g"], "h": doc["h"]}


def _matrix_lower(rng, m):
    return {
        "kind": "matrix_lower",
        "A": [[rng.randint(-1000, 1000) for _ in range(m)] for _ in range(m)],
        "p": [rng.randint(-1000, 1000) for _ in range(m)],
        "q": [rng.randint(-1000, 1000) for _ in range(m)],
        "g": [rng.randint(-1000, 1000) for _ in range(m)],
    }


def _matrix_lower_zeros(rng, m):
    """``_matrix_lower`` with ``"-inf"`` on the diagonal of ``A``, which
    sends the matrix through the per-token conversion."""
    doc = _matrix_lower(rng, m)
    for i, row in enumerate(doc["A"]):
        row[i] = "-inf"
    return doc


def _peak(parse, text) -> int:
    """The greatest number of bytes traced from before ``json.loads`` of
    ``text`` to the end of ``parse`` of the document."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        lp = parse(json.loads(text))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert lp[0].name == json.loads(text)["kind"]
    return peak


def _past_exact(doc):
    """``doc`` with one element of magnitude 2^50 in each array, which
    sends the file down the float path; ``g``'s is negative, so that it
    stays below ``h``."""
    doc = copy.deepcopy(doc)
    for key, value in doc.items():
        if isinstance(value, list):
            (value[0] if key == "A" else value)[0] = -(2**50) if key == "g" else 2**50
    return doc


def _list_bytes(doc) -> int:
    """The bytes of the decoded lists' pointers, 8 per element, ``A``'s
    outer list and rows included."""
    lists = [value for key, value in doc.items() if isinstance(value, list)]
    lists += doc.get("A", [])
    return 8 * sum(map(len, lists))


DOCUMENTS = pytest.mark.parametrize(
    "make, size",
    [(_two_sided, 10_000), (_locate, 10_000), (_matrix_lower, 200)],
    ids=["two_sided", "locate", "matrix_lower"],
)


class TestPeakMemory:
    @pytest.mark.parametrize(
        "make, size",
        [(_two_sided, 10_000), (_locate, 10_000), (_matrix_lower, 200), (_matrix_lower_zeros, 200)],
        ids=["two_sided", "locate", "matrix_lower", "matrix_lower_zeros"],
    )
    def test_command_path_holds_one_copy_of_each_array(self, make, size):
        # parse_problem's caller keeps its document, so every int list
        # lives to the end next to its floats; the command path frees
        # each once converted.  An element of 2^50 in each array, or a
        # "-inf", makes the file inexact, so its arrays become floats
        doc = make(random.Random(f"peak-{make.__name__}"), size)
        text = json.dumps(doc if make is _matrix_lower_zeros else _past_exact(doc))
        assert type(parse_problem(json.loads(text))[1][-1][0]) is float
        taking, copying = _peak(cli._take_problem, text), _peak(parse_problem, text)
        assert taking <= 0.75 * copying, (taking, copying)

    @DOCUMENTS
    def test_exact_file_frees_every_decoded_list(self, make, size):
        # an exact file's tuples share their ints with the decoded lists,
        # so the copying parse holds the lists on top of what the taking
        # parse holds at its peak.  The copying parse runs first, so that
        # what a function's first call allocates (a frame, on Python
        # 3.10) is charged to it
        doc = make(random.Random(f"peak-{make.__name__}"), size)
        text = json.dumps(doc)
        assert type(parse_problem(doc)[1][-1][0]) is int
        copying, taking = _peak(parse_problem, text), _peak(cli._take_problem, text)
        assert copying - taking >= _list_bytes(doc), (taking, copying)
