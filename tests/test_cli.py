import ast
import contextlib
import copy
import inspect
import io
import json
import math
import os
import pickle
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from public import core, problem
from test_console import _fresh_env, _run_command_line
from tropopt import NEG_INF, TropicalError, TropMatrix, TropVector, applications, cli, linalg, solvers
from tropopt.cli import (
    LoadedProblem,
    _matrix_in,
    _scalar_in,
    _vector_in,
    load_problem,
    main,
    parse_problem,
    solution_to_dict,
    solve_loaded,
)
from tropopt.semifield import InvalidScalarError, Record, _close

FIXTURES = Path(__file__).parent / "fixtures"

LOCATION = str(FIXTURES / "location_example.json")
APPROXIMATION = str(FIXTURES / "approximation_example.json")
INFEASIBLE = str(FIXTURES / "infeasible_bounds.json")

A3 = [[1, -1, 1], [3, 1, 0], [0, 0, 2]]

# one document per kind, with and without the optional bounds
KIND_DOCS = {
    "two_sided": {"kind": "two_sided", "p": [1, 3, 1], "q": [-3, 1, -2]},
    "two_sided_bounded": {
        "kind": "two_sided", "p": [1, 3, 1], "q": [-3, 1, -2], "g": [0, "-inf", 0], "h": [2, 2, 2],
    },
    "two_sided_lower": {"kind": "two_sided", "p": [1, 3, 1], "q": [-3, 1, -2], "g": [0, 0, 0]},
    "two_sided_upper": {"kind": "two_sided", "p": [1, 3, 1], "q": [-3, 1, -2], "h": [0, 0, 0]},
    "matrix_lower": {
        "kind": "matrix_lower", "A": A3, "p": [3, 4, 4], "q": [2, 4, 3], "g": [2, "-inf", 2],
    },
    "locate": {"kind": "locate", "r": [-3, 1, 1], "s": [1, 3, -2]},
    "locate_bounded": {
        "kind": "locate", "r": [-3, 1, 1], "s": [1, 3, -2], "g": [0, 0, 0], "h": [1, 1, 1],
    },
    "locate_upper": {"kind": "locate", "r": [-3, 1, 1], "s": [1, 3, -2], "h": [0.5, 1, 1]},
    "approximate": {"kind": "approximate", "A": A3, "p": [3, 4, 4], "g": [2, 2, 2]},
    "best_under": {"kind": "best_under", "A": A3, "p": [3, 4, 4], "name": "b", "description": "d"},
}

# the payload keys that each kind's problem file must hold
REQUIRED_KEYS = {
    "two_sided": ["p", "q"],
    "matrix_lower": ["A", "p", "q", "g"],
    "locate": ["r", "s"],
    "approximate": ["A", "p", "g"],
    "best_under": ["A", "p"],
}


HUGE_TWO_SIDED = {"kind": "two_sided", "p": [0], "q": [-1e308]}
HUGE_MATRIX = {
    "kind": "matrix_lower", "A": [[1e308, 0], [0, 1e308]], "p": [-1e308, 0], "q": [0, 1e308], "g": [0, 0],
}


def write(tmp_path, doc, name="p.json"):
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def io_error(err: str, reason: str) -> dict:
    """The error of an exit 1: one JSON line on stderr with ``reason``."""
    assert err.endswith("\n") and err.count("\n") == 1 and "Traceback" not in err, err
    error = json.loads(err)["error"]
    assert error["reason"] == reason
    prefix = {"unreadable_input": "cannot read problem: ", "unwritable_output": "cannot write result: "}
    assert error["message"].startswith(prefix[reason])
    return error


class TestSolve:
    def test_location_example(self, capsys, tmp_path):
        out = tmp_path / "sol.json"
        code = main(["solve", LOCATION, str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["mu"] == 3 and doc["delta"] == 2
        assert doc["solution"] == {"lower": [0, 0, 0], "upper": [0, 1, 1]}
        assert doc["diagnostics"] == {"delta_term": 2, "g_term": 3, "h_term": 2}

    def test_approximation_example(self, capsys):
        code, out = run(capsys, "solve", APPROXIMATION)
        assert code == 0
        doc = json.loads(out)
        assert doc["mu"] == 1 and doc["delta"] == 0
        assert doc["solution"] == {"x": [2, 4, 3]}
        assert doc["diagnostics"] == {"delta_term": 0, "g_term": 1}

    def test_infeasible_bounds(self, capsys, tmp_path):
        out = tmp_path / "sol.json"
        code = main(["solve", INFEASIBLE, str(out)])
        assert code == 2
        doc = json.loads(out.read_text())
        assert doc["error"]["reason"] == "infeasible_bounds"

    def test_best_under_kind(self, capsys, tmp_path):
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps({
            "kind": "best_under",
            "A": [[1, -1, 1], [3, 1, 0], [0, 0, 2]],
            "p": [3, 4, 4],
        }))
        code, out = run(capsys, "solve", str(prob))
        assert code == 0
        doc = json.loads(out)
        assert doc["mu"] == 0 and doc["solution"] == {"x": [1, 3, 2]}

    def test_matrix_lower_kind_with_distinct_q(self, capsys, tmp_path):
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps({
            "kind": "matrix_lower",
            "A": [[1, -1, 1], [3, 1, 0], [0, 0, 2]],
            "p": [3, 4, 4],
            "q": [3, 4, 4],
            "g": ["-inf", "-inf", "-inf"],
        }))
        code, out = run(capsys, "solve", str(prob))
        assert code == 0
        doc = json.loads(out)
        assert doc["mu"] == 0 and doc["solution"] == {"x": [1, 3, 2]}
        assert doc["diagnostics"]["g_term"] == "-inf"

    def test_stdin_stdout(self, capsys, monkeypatch):
        payload = json.dumps({"kind": "two_sided", "p": [1, 3, 1], "q": [-3, 1, -2]})
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(payload.encode()), encoding="utf-8"))
        code, out = run(capsys, "solve", "-")
        assert code == 0
        doc = json.loads(out)
        assert doc["mu"] == 2
        assert doc["solution"] == {"lower": [-1, 1, -1], "upper": [-1, 3, 0]}

    def test_missing_file_is_io_failure(self, capsys):
        code = main(["solve", "/nonexistent/problem.json"])
        assert code == 1
        io_error(capsys.readouterr().err, "unreadable_input")

    @pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["missing_directory", "directory"])
    def test_unwritable_output_is_io_failure(self, capsys, tmp_path, target):
        assert main(["solve", LOCATION, str(tmp_path / target)]) == 1
        assert set(io_error(capsys.readouterr().err, "unwritable_output")) == {"reason", "message"}

    def test_json_syntax_error_is_io_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "two_sided",\n "p": [1, 2,]}')
        assert main(["solve", str(bad)]) == 1
        error = io_error(capsys.readouterr().err, "unreadable_input")
        assert error["location"] == "2:13"
        assert error["message"] == "cannot read problem: Expecting value: line 2 column 13 (char 34)"

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000],
        ids=["not_utf8", "nested_too_deep"],
    )
    def test_unreadable_input_is_io_failure(self, capsys, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["solve", str(bad)]) == 1
        assert "location" not in io_error(capsys.readouterr().err, "unreadable_input")

    def test_unknown_kind_is_invalid_problem(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "frobnicate"}))
        code, out = run(capsys, "solve", str(bad))
        assert code == 2
        assert json.loads(out)["error"]["reason"] == "parse_error"

    @pytest.mark.parametrize("kind", sorted(REQUIRED_KEYS))
    def test_unknown_field_is_parse_error(self, capsys, tmp_path, kind):
        code, out = run(capsys, "solve", write(tmp_path, {**KIND_DOCS[kind], "z": 0}))
        assert code == 2
        error = json.loads(out)["error"]
        assert error == {"reason": "parse_error", "message": f"unexpected fields for kind {kind}: ['z']"}

    @pytest.mark.parametrize("command", [["solve"], ["verify"], ["eval", "--point", "[0]"]])
    def test_duplicate_top_level_key_is_parse_error(self, capsys, tmp_path, command):
        # json keeps the last of repeated keys; the file is refused instead
        path = write(tmp_path, '{"kind": "two_sided", "p": [1], "q": [0], "p": [2]}')
        code, out = run(capsys, command[0], path, *command[1:])
        assert code == 2
        assert json.loads(out)["error"] == {"reason": "parse_error", "message": "duplicate key 'p'"}

    @pytest.mark.parametrize("command", [["solve"], ["verify"]])
    def test_duplicate_matrix_key_is_parse_error(self, capsys, tmp_path, command):
        text = json.dumps(KIND_DOCS["matrix_lower"])[:-1] + ', "A": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}'
        code, out = run(capsys, command[0], write(tmp_path, text))
        assert code == 2
        assert json.loads(out)["error"] == {"reason": "parse_error", "message": "duplicate key 'A'"}

    def test_duplicate_key_in_a_nested_object_is_parse_error(self, capsys, tmp_path):
        path = write(tmp_path, '{"kind": "two_sided", "p": [1], "q": [0], "name": {"a": 1, "a": 2}}')
        code, out = run(capsys, "solve", path)
        assert code == 2
        assert json.loads(out)["error"] == {"reason": "parse_error", "message": "duplicate key 'a'"}

    @pytest.mark.parametrize(
        "kind, key", [(kind, key) for kind, keys in sorted(REQUIRED_KEYS.items()) for key in keys]
    )
    def test_missing_field_is_parse_error(self, capsys, tmp_path, kind, key):
        doc = {k: v for k, v in KIND_DOCS[kind].items() if k != key}
        code, out = run(capsys, "solve", write(tmp_path, doc))
        assert code == 2
        error = json.loads(out)["error"]
        assert error == {"reason": "parse_error", "message": f"missing fields for kind {kind}: [{key!r}]"}

    @pytest.mark.parametrize(
        "kind", [["two_sided"], {"a": 1}, 1, None], ids=["list", "object", "number", "null"]
    )
    @pytest.mark.parametrize("command", ["solve", "eval", "verify"])
    def test_non_string_kind_is_parse_error(self, capsys, tmp_path, kind, command):
        path = write(tmp_path, {"kind": kind, "p": [1], "q": [0]})
        point = ["--point", "[0]"] if command == "eval" else []
        code, out = run(capsys, command, path, *point)
        assert code == 2
        error = json.loads(out)["error"]
        assert error == {"reason": "parse_error", "message": f"unknown problem kind {kind!r}"}

    def test_list_kind_exits_2_without_a_traceback(self, tmp_path):
        path = write(tmp_path, {"kind": ["two_sided"], "p": [1], "q": [0]})
        proc = _run_command_line("solve", path)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["error"]["reason"] == "parse_error"

    def test_nonstandard_constants_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "two_sided", "p": [NaN, 1], "q": [0, 0]}')
        code, out = run(capsys, "solve", str(bad))
        assert code == 2
        assert json.loads(out)["error"]["reason"] == "parse_error"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"kind": "two_sided", "p": [1, 0, "x"], "q": [0, 0, 0]},
             """p[2]: expected a number or "-inf", got 'x'"""),
            ({"kind": "best_under", "A": [[0, 1], [True, 0]], "p": [1, 1]},
             """A[1][0]: expected a number or "-inf", got True"""),
            ('{"kind": "two_sided", "p": [0, 1, -1e400], "q": [0, 0, 0]}',
             "p[2]: number literal exceeds the float range"),
            ('{"kind": "best_under", "A": [[0], [1' + "0" * 400 + ']], "p": [1, 1]}',
             "A[1][0]: number literal exceeds the float range"),
            ({"kind": "two_sided", "p": [1], "q": [0], "description": 5},
             "description must be a string"),
        ],
        ids=["vector_token", "matrix_token", "vector_literal", "matrix_literal", "description"],
    )
    def test_scalar_error_names_the_element(self, capsys, tmp_path, doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out = run(capsys, "solve", str(bad))
        assert code == 2
        assert json.loads(out)["error"]["message"] == message

    def test_pretty_flag(self, capsys):
        code, out = run(capsys, "solve", LOCATION, "-", "--pretty")
        assert code == 0 and "\n  " in out


class TestEval:
    def test_interval_endpoint(self, capsys):
        code, out = run(capsys, "eval", LOCATION, "--point", "[0, 0, 0]")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 3 and doc["feasible"] is True

    def test_interior_feasible_point(self, capsys):
        code, out = run(capsys, "eval", LOCATION, "--point", "[1, 1, 1]")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 4 and doc["feasible"] is True

    def test_infeasible_point_reported(self, capsys):
        code, out = run(capsys, "eval", LOCATION, "--point", "[5, 5, 5]")
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is False

    def test_wrong_dimension(self, capsys):
        code, out = run(capsys, "eval", LOCATION, "--point", "[0, 0]")
        assert code == 2
        assert json.loads(out)["error"]["reason"] == "shape_mismatch"

    def test_best_under_feasibility(self, capsys, tmp_path):
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps({
            "kind": "best_under",
            "A": [[1, -1, 1], [3, 1, 0], [0, 0, 2]],
            "p": [3, 4, 4],
        }))
        code, out = run(capsys, "eval", str(prob), "--point", "[1, 3, 2]")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 0 and doc["feasible"] is True
        code, out = run(capsys, "eval", str(prob), "--point", "[2, 4, 3]")
        doc = json.loads(out)
        assert doc["feasible"] is False
        # a p that is not regular is refused before the point is read, as
        # solve refuses it
        prob = write(tmp_path, {"kind": "best_under", "A": [["-inf", 0], [0, 0]], "p": ["-inf", 5]})
        code, out = run(capsys, "eval", prob, "--point", '[0, "-inf"]')
        assert code == 2
        assert json.loads(out)["error"] == {"reason": "not_regular", "message": "bound vector must be regular"}
        # a_00 = -inf bounds nothing: row 1 alone limits x_0, to 5
        prob = write(tmp_path, {"kind": "best_under", "A": [["-inf", 0], [0, 0]], "p": [1, 5]})
        code, out = run(capsys, "eval", prob, "--point", "[5, 1]")
        assert code == 0
        assert json.loads(out) == {"kind": "best_under", "value": 0, "feasible": True}


class TestVerify:
    def test_location_example_agrees(self, capsys):
        code, out = run(capsys, "verify", LOCATION)
        assert code == 0
        doc = json.loads(out)
        assert doc["agrees_with_solver"] is True and doc["min_value"] == 3

    def test_approximation_example_agrees(self, capsys):
        code, out = run(capsys, "verify", APPROXIMATION)
        assert code == 0
        doc = json.loads(out)
        assert doc["agrees_with_solver"] is True and doc["min_value"] == 1

    def test_infeasible_problem(self, capsys):
        code, out = run(capsys, "verify", INFEASIBLE)
        assert code == 2
        assert json.loads(out)["error"]["reason"] == "infeasible_bounds"

    def test_wide_problem_verifies(self, capsys, tmp_path):
        # 41^8 lattice points: over the grid oracle's cap, which the exact
        # certificate does not have
        n = 8
        prob = write(tmp_path, {
            "kind": "two_sided",
            "p": [10] * n,
            "q": [-10] * n,
            "g": [-10] * n,
            "h": [10] * n,
        })
        code, out = run(capsys, "verify", prob)
        assert code == 0
        doc = json.loads(out)
        assert doc["agrees_with_solver"] is True and doc["min_value"] == 10
        assert doc["binding"] == {"term": "delta", "index": 0}

    def test_non_integer_data_verifies(self, capsys, tmp_path):
        # the half-step grid's minimum here is 0.2, not the true 0.05
        prob = write(tmp_path, {"kind": "two_sided", "p": [0.1, 0.3], "q": [0, 0.2]})
        code, out = run(capsys, "verify", prob)
        assert code == 0
        doc = json.loads(out)
        assert doc["agrees_with_solver"] is True
        assert doc["mu"] == doc["min_value"] == 0.05


# where each payload key of a kind reads back in its parsed data: the
# index in the data tuple; a location file's points are reduced to the
# two-sided p (their max) and q (their min)
DATA_INDEX = {
    "two_sided": {"p": 0, "q": 1, "g": 2, "h": 3},
    "matrix_lower": {"A": 0, "p": 1, "q": 2, "g": 3},
    "locate": {"g": 2, "h": 3},
    "approximate": {"A": 0, "p": 1, "g": 3},
    "best_under": {"A": 0, "p": 1},
}


def _floats(value):
    return tuple(_floats(v) if isinstance(v, list) else float(v) for v in value)


def _assert_reads_back(doc):
    """Each field of a problem file reads back from the parsed data as
    the number the file holds, and a field the file omits is ``None``;
    the data are those that the kind's problem class keeps."""
    spec, data, name, _ = parse_problem(doc)
    assert (spec.name, name) == (doc["kind"], doc.get("name"))
    assert data == core(problem(doc))._data
    index = DATA_INDEX[doc["kind"]]
    for key in inspect.signature(type(problem(doc))).parameters:
        if key in ("r", "s"):
            r, s = _floats(doc["r"]), _floats(doc["s"])
            assert data[:2] == (tuple(map(max, r, s)), tuple(map(min, r, s)))
        elif key in doc:
            assert data[index[key]] == _floats(doc[key])
        else:
            assert data[index[key]] is None


class TestRoundTrip:
    @pytest.mark.parametrize(
        "path", [LOCATION, APPROXIMATION], ids=["location", "approximation"]
    )
    def test_fixture_round_trips(self, path):
        _assert_reads_back(json.loads(Path(path).read_text()))

    def test_neg_inf_round_trips(self):
        doc = {
            "kind": "matrix_lower",
            "A": [[0, "-inf"], ["-inf", 0]],
            "p": [1, 2],
            "q": [0, 0],
            "g": ["-inf", 3],
        }
        A, _, _, g = parse_problem(doc)[1]
        assert A == ((0.0, NEG_INF), (NEG_INF, 0.0))
        assert g == (NEG_INF, 3.0)

    def test_half_integers_round_trip(self):
        p, q, _, _ = parse_problem({"kind": "two_sided", "p": [0.5, 3], "q": [-1.5, 0]})[1]
        assert (p, q) == ((0.5, 3.0), (-1.5, 0.0))

    def test_parsed_problem_is_plain_data(self):
        # no value class on the command path: the parse is a tuple of its
        # kind's entry, float tuples and the name, equal, hashable and
        # immutable as a value is, and rebuilt by its items
        doc = KIND_DOCS["best_under"]
        a, b = parse_problem(doc), parse_problem(doc)
        assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert type(a) is tuple and a[0] is cli._KINDS["best_under"] and a[2] == "b"
        assert a != parse_problem({**doc, "name": None})
        assert a != parse_problem({**doc, "p": [3, 4, 5]})
        with pytest.raises(TypeError):
            a[1] = None
        assert tuple(a) == a and copy.copy(a) == a and copy.deepcopy(a) == a
        assert pickle.loads(pickle.dumps(a[1])) == a[1]

    @pytest.mark.parametrize("key", sorted(KIND_DOCS))
    def test_load_problem_builds_the_public_class(self, key):
        doc = KIND_DOCS[key]
        lp = load_problem(doc)
        assert lp == LoadedProblem(doc["kind"], problem(doc), doc.get("name"))
        assert core(lp.problem)._data == parse_problem(doc)[1]

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "two_sided", "p": [1], "q": [0], "x": 1},
            {"kind": "two_sided", "p": ["-inf"], "q": [0]},
            {"kind": "two_sided", "p": [1], "q": [0], "g": [2], "h": [1]},
            {"kind": "matrix_lower", "A": [[1, 2]], "p": [1], "q": [0], "g": [0]},
            {"kind": "best_under", "A": [[1]], "p": [1], "name": 5},
        ],
        ids=["extra_key", "irregular_p", "infeasible_bounds", "short_g", "name_not_string"],
    )
    def test_load_problem_fails_as_parse_problem_does(self, doc):
        with pytest.raises(TropicalError) as parsed:
            parse_problem(doc)
        with pytest.raises(TropicalError) as loaded:
            load_problem(doc)
        assert (type(loaded.value), str(loaded.value)) == (type(parsed.value), str(parsed.value))

    @pytest.mark.parametrize("key", sorted(KIND_DOCS))
    def test_every_kind_round_trips(self, key):
        _assert_reads_back(KIND_DOCS[key])


class TestStructure:
    def test_locate_reduces_and_computes_terms_once(self, monkeypatch):
        calls = {"reduce": 0, "terms": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(applications, "_reduce", counted("reduce", applications._reduce))
        monkeypatch.setattr(solvers, "_two_sided_terms", counted("terms", solvers._two_sided_terms))
        lp = parse_problem(KIND_DOCS["locate_bounded"])
        solution_to_dict(lp, solve_loaded(lp))
        assert calls == {"reduce": 1, "terms": 1}

    def test_matrix_lower_computes_q_a_once(self, monkeypatch):
        # q~ A feeds delta, the g term and x: one pass computes it; the
        # solve builds no value object, and returns x as a float tuple
        built = _record_builds(monkeypatch)
        lp = parse_problem(KIND_DOCS["matrix_lower"])
        calls, q_a = [], solvers._q_a
        monkeypatch.setattr(solvers, "_q_a", lambda data: calls.append(data) or q_a(data))
        sol = solve_loaded(lp)
        assert calls == [lp[1]]
        assert built == []
        assert type(sol) is solvers.Point and sol.x == (2.0, 4.0, 2.0)

    def test_two_sided_conjugates_q_once(self, monkeypatch):
        # the passes read q itself, so q~ is never formed; the terms are
        # computed once, no value object is built, and the endpoints come
        # back as float tuples
        built = _record_builds(monkeypatch)
        lp = parse_problem(KIND_DOCS["two_sided_bounded"])
        calls = []
        terms, conjugate = solvers._two_sided_terms, linalg.conjugate
        monkeypatch.setattr(solvers, "_two_sided_terms", lambda data: calls.append(data) or terms(data))
        monkeypatch.setattr(linalg, "conjugate", lambda v: calls.append(v) or conjugate(v))
        sol = solve_loaded(lp)
        assert calls == [lp[1]]
        assert built == []
        assert type(sol) is solvers.Interval
        assert (sol.lower, sol.upper) == ((0.0, 0.0, 0.0), (0.0, 2.0, 1.0))

    def test_best_under_objective_builds_no_vector(self, monkeypatch):
        # the defect is one pass over A's rows and one over p, with no
        # value object for A x or (A x)~
        built = _record_builds(monkeypatch)
        lp = parse_problem(KIND_DOCS["best_under"])
        calls = []
        for name in ("_ax", "_defect"):
            fn = getattr(solvers, name)
            monkeypatch.setattr(solvers, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        assert solvers._best_under_value(lp[1], (2.0, 4.0, 3.0)) == -1.0
        assert calls == ["_ax", "_defect"]
        assert built == []

    def test_matrix_lower_checks_x_above_g_with_the_shared_test(self, monkeypatch, tmp_path, capsys):
        # the solver's x >= g check is the feasibility test that eval and
        # verify apply, so rejecting it there makes solve fail
        monkeypatch.setattr(solvers, "_above_g", lambda prob, x: False)
        code, out = run(capsys, "solve", write(tmp_path, KIND_DOCS["matrix_lower"]))
        assert code == 2
        assert json.loads(out)["error"]["reason"] == "precision_loss"

    @pytest.mark.parametrize("key", sorted(KIND_DOCS))
    def test_diagnostics_are_the_core_terms(self, key):
        lp = parse_problem(KIND_DOCS[key])
        got = solution_to_dict(lp, solve_loaded(lp))["diagnostics"]
        prob = core(problem(KIND_DOCS[key]))
        if isinstance(prob, solvers.TwoSidedProblem):
            terms = solvers.two_sided_terms(prob)
        elif isinstance(prob, solvers.MatrixLowerProblem):
            terms = solvers.matrix_lower_terms(prob)
        else:
            terms = {"delta": solvers.best_underestimator(prob.A, prob.p).delta}
        want = {
            "delta_term" if name == "delta" else name: value
            for name, value in terms.items()
            if value is not None
        }
        assert {k: float(v) for k, v in got.items()} == want

    def test_solve_does_not_import_numpy(self):
        _run_fresh(
            "import sys, tropopt.cli\n"
            "assert 'numpy' not in sys.modules, 'import'\n"
            f"assert tropopt.cli.main(['solve', {LOCATION!r}]) == 0\n"
            "assert 'numpy' not in sys.modules, 'solve'\n"
        )

    def test_command_path_imports_no_introspection_modules(self):
        # -S: the site module can import typing itself, through a .pth hook
        proc = subprocess.run(
            [sys.executable, "-S", "-c", "import sys, tropopt.cli; print(sorted(sys.modules))"],
            env=_fresh_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(ast.literal_eval(proc.stdout))
        assert "tropopt.cli" in loaded
        assert not {
            "argparse", "gettext", "dataclasses", "inspect", "typing", "ast", "dis", "tokenize"
        } & loaded

    def test_verify_does_not_import_numpy(self):
        _run_fresh(
            "import sys, tropopt.cli\n"
            "from tropopt import *\n"
            "assert 'numpy' not in sys.modules, 'import'\n"
            f"assert tropopt.cli.main(['verify', {LOCATION!r}]) == 0\n"
            "assert 'numpy' not in sys.modules, 'verify'\n"
            "from tropopt import oracle\n"
            "assert oracle.OracleReport is OracleReport\n"
        )


def _record_builds(monkeypatch) -> list:
    """The list of every value object (``semifield.Record``) built from
    now on.  The program builds one by a public constructor, each hooked
    here, or a vector by the private ``linalg._vector``, hooked under
    every name that a ``tropopt`` module holds it by."""
    built = []
    vector = linalg._vector

    def recorded(*args, **kwargs):
        v = vector(*args, **kwargs)
        built.append(v)
        return v

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tropopt":
            for key, value in list(vars(module).items()):
                if value is vector:
                    monkeypatch.setattr(module, key, recorded)
    classes = [Record]
    for cls in classes:
        classes += cls.__subclasses__()
        if cls is not Record:
            init = cls.__init__
            monkeypatch.setattr(cls, "__init__", lambda v, *a, init=init, **kw: built.append(v) or init(v, *a, **kw))
    return built


def _run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this checkout;
    its assertions fail the test."""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_fresh_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


class TestProcess:
    """The process ends with ``os._exit`` once its output is flushed:
    nothing written may be lost, and the exit code is ``main``'s."""

    # a small output stays in stdout's buffer until it is flushed; one
    # larger than the buffer (8 KiB) goes to the file descriptor at once
    @pytest.mark.parametrize("n", [3, 10_000])
    def test_output_is_complete(self, capsys, tmp_path, n):
        rng = random.Random(f"output-{n}")
        doc = {
            "kind": "two_sided",
            "p": [rng.randint(-1000, 1000) / 2 for _ in range(n)],
            "q": [rng.randint(-1000, 1000) / 2 for _ in range(n)],
        }
        path = write(tmp_path, doc)
        code, want = run(capsys, "solve", path)
        assert code == 0
        target = tmp_path / "stdout.json"
        with open(target, "w") as fh:
            assert _run_command_line("solve", path, stdout=fh).returncode == 0
        assert target.read_text() == want
        proc = _run_command_line("solve", path)
        assert (proc.returncode, proc.stdout) == (0, want)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["solve", LOCATION], 0),
            (["verify", LOCATION], 0),
            (["--help"], 0),
            (["solve", "/nonexistent/problem.json"], 1),
            (["verify", INFEASIBLE], 2),
            (["eval", LOCATION, "--point", "[0, 0]"], 2),
            (["verify"], 2),
        ],
        ids=["solve", "verify", "help", "unreadable", "infeasible", "shape_mismatch", "usage_error"],
    )
    def test_exit_code_is_mains(self, capsys, argv, code):
        proc = _run_command_line(*argv)
        assert (proc.returncode, proc.stdout) == run(capsys, *argv)
        assert proc.returncode == code and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("closed", ["pipe", "descriptor"])
    def test_closed_stdout_is_an_unwritable_output(self, closed):
        if closed == "pipe":  # a reader that is gone: the write fails with EPIPE
            reader, writer = os.pipe()
            os.close(reader)
            try:
                proc = _run_command_line("solve", LOCATION, stdout=writer)
            finally:
                os.close(writer)
        else:  # no file descriptor 1 at all
            proc = subprocess.run(
                ["sh", "-c", 'exec "$0" -m tropopt solve "$1" >&-', sys.executable, LOCATION],
                env=_fresh_env(), stderr=subprocess.PIPE, text=True, timeout=60,
            )
        assert proc.returncode == 1
        io_error(proc.stderr, "unwritable_output")

    def test_closed_stdin_is_an_unreadable_input(self):
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" -m tropopt solve - <&-', sys.executable],
            env=_fresh_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert json.loads(proc.stderr) == {
            "error": {"reason": "unreadable_input", "message": "cannot read problem: stdin is closed"}
        }


def _main_in(directory: Path, argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)`` run in ``directory``, holding a copy of the fixtures
    in ``in/``, with the location fixture on stdin; returns its exit code,
    stdout and stderr."""
    (directory / "in").mkdir()
    for path in FIXTURES.glob("*.json"):
        (directory / "in" / path.name).write_bytes(path.read_bytes())
    out, err, cwd, stdin = io.StringIO(), io.StringIO(), os.getcwd(), sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(Path(LOCATION).read_bytes()), encoding="utf-8")
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


# command-line tokens: the subcommands, their options, the copied
# fixtures, and junk (an unknown option, bare words, and short names
# without a directory separator), so that every path a command reads or
# writes lies in its working directory
inputs = st.sampled_from(["-", *sorted(f"in/{p.name}" for p in FIXTURES.glob("*.json"))])
argv_tokens = st.one_of(
    st.sampled_from(
        ["solve", "eval", "verify", "-", "--pretty", "--point", "--point=[0, 0, 0]", "[0, 0, 0]",
         "[1]", "-h", "--help", "--step", "0", "-1", "--", "-x", "", ".", "in", "out.json"]
    ),
    inputs,
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00/"), max_size=6),
)
# mostly a subcommand and an input, then anything
command_lines = st.builds(
    lambda head, rest: [*head, *rest],
    st.one_of(
        st.tuples(st.sampled_from(["solve", "eval", "verify"]), inputs), st.lists(argv_tokens, max_size=2)
    ),
    st.lists(argv_tokens, max_size=4),
)


class TestCommandLine:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--pretty", LOCATION],
            ["solve", LOCATION, "--pretty", "-"],
            ["solve", LOCATION, "-", "--pretty", "--pretty"],
        ],
    )
    def test_options_anywhere(self, capsys, argv):
        assert run(capsys, *argv) == run(capsys, "solve", LOCATION, "-", "--pretty")

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--point", "[1, 1, 1]", LOCATION],
            ["eval", "--point=[1, 1, 1]", LOCATION],
            ["eval", LOCATION, "--point", "[5, 5, 5]", "--point", "[1, 1, 1]"],
        ],
    )
    def test_point_forms(self, capsys, argv):
        assert run(capsys, *argv) == run(capsys, "eval", LOCATION, "--point", "[1, 1, 1]")

    @pytest.mark.parametrize(
        "argv", [["-h"], ["--help"], ["solve", "-h"], ["eval", LOCATION, "--help"], ["verify", "--bad", "-h"]]
    )
    def test_help(self, capsys, argv):
        assert run(capsys, *argv) == (0, cli.USAGE)

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "expected a command (solve, eval or verify), got ''"),
            (["frobnicate", LOCATION], "expected a command (solve, eval or verify), got 'frobnicate'"),
            (["--pretty", "solve", LOCATION], "expected a command (solve, eval or verify), got '--pretty'"),
            (["solve"], "the following arguments are required: INPUT"),
            (["eval"], "the following arguments are required: INPUT, --point"),
            (["eval", LOCATION], "the following arguments are required: --point"),
            (["eval", LOCATION, "--point"], "argument --point: expected one argument"),
            (["solve", LOCATION, "-", "extra"], "unrecognized arguments: extra"),
            (["verify", LOCATION, "-"], "unrecognized arguments: -"),
            (["verify", LOCATION, "--point", "[0]"], "unrecognized arguments: --point [0]"),
            (["solve", LOCATION, "--pre"], "unrecognized arguments: --pre"),
            (["solve", "-x", LOCATION, "--"], "unrecognized arguments: -x --"),
        ],
    )
    def test_usage_error(self, capsys, argv, message):
        code, out = run(capsys, *argv)
        assert code == 2
        assert json.loads(out) == {"error": {"reason": "usage_error", "message": message}}

    @settings(max_examples=300, deadline=None)
    @given(command_lines)
    def test_any_command_line_ends_in_an_exit_code(self, argv):
        with tempfile.TemporaryDirectory() as directory:
            code, out, err = _main_in(Path(directory), argv)
            assert code in (0, 1, 2)
            if code == 1:
                assert json.loads(err)["error"]["reason"] in ("unreadable_input", "unwritable_output")
            if code == 2 and not out:  # solve wrote the error to its OUTPUT
                out = (Path(directory) / cli.parse_args(argv).output).read_text()
            if code == 2:
                assert json.loads(out)["error"]["reason"]


class TestErrors:
    @pytest.mark.parametrize(
        "option",
        [
            ["--step", "0"],
            ["--step", "-1"],
            ["--step", "nan"],
            ["--step", "inf"],
            ["--samples", "0"],
            ["--samples", "-1"],
        ],
        ids=lambda o: " ".join(o),
    )
    def test_bad_verify_arguments(self, capsys, option):
        # the grid oracle's --step and --samples are gone from verify,
        # and the command line parser rejects them
        code, out = run(capsys, "verify", LOCATION, *option)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["reason"] == "usage_error"
        assert error["message"] == "unrecognized arguments: " + " ".join(option)

    @pytest.mark.parametrize(
        "doc",
        [
            # g_term = g[0] - q[0] and h_term = p[0] - h[0] are 2e308; half
            # of p[0] - q[0] = 2e308 is a float, so delta alone cannot overflow
            {"kind": "two_sided", "p": [0, 0], "q": [-1e308, 0], "g": [1e308, 0]},
            {"kind": "two_sided", "p": [1e308, 0], "q": [0, 0], "h": [-1e308, 1]},
            '{"kind": "two_sided", "p": [1' + "0" * 400 + ', 0], "q": [0, 0]}',
            '{"kind": "two_sided", "p": [1e400, 0], "q": [0, 0]}',
            '{"kind": "two_sided", "p": [1, 0], "q": [0, 0], "g": [-1e400, 0]}',
            # lower[0] = p[0] - mu overflows to -inf, so the lower
            # endpoint's objective p[0] - lower[0] leaves the float range
            {"kind": "two_sided", "p": [-1.5e308, 1.5e308], "q": [1e307, 0.0], "h": [1e308, 1e308]},
            # the upper endpoint q + mu overflows to +inf
            {"kind": "two_sided", "p": [1e308, 0], "q": [1e308, -1e307], "g": ["-inf", 1e308]},
            # the residuation x_0 = min_k(p_k - a_k0) overflows
            {"kind": "best_under", "A": [[-1e308], [-1e308]], "p": [1e308, 1e308]},
        ],
        ids=[
            "optimum", "optimum_with_h", "literal", "float_literal", "negative_float_literal",
            "endpoint_objective", "upper_endpoint", "residuation",
        ],
    )
    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_overflow(self, capsys, tmp_path, doc, command):
        code, out = run(capsys, command, write(tmp_path, doc))
        assert code == 2
        assert json.loads(out)["error"]["reason"] == "overflow"

    @pytest.mark.parametrize(
        "doc, command",
        [
            # x - q overflows in the objective itself
            (HUGE_TWO_SIDED, ["eval", "--point", "[1e308]"]),
            # A x overflows at the solver's own x = [0, 1e308]
            (HUGE_MATRIX, ["solve"]),
            (HUGE_MATRIX, ["verify"]),
            (HUGE_MATRIX, ["eval", "--point", "[0, 1e308]"]),
        ],
        ids=["eval_two_sided", "solve_matrix", "verify_matrix", "eval_matrix"],
    )
    def test_computed_overflow(self, capsys, tmp_path, doc, command):
        code, out = run(capsys, command[0], write(tmp_path, doc), *command[1:])
        assert code == 2
        assert json.loads(out)["error"]["reason"] == "overflow"

    @pytest.mark.parametrize(
        "doc",
        [
            # mu = g_term = 1.5e308 + g[0] rounds to 1.5e308, so
            # x[0] = mu - 1.5e308 = 0 < g[0]
            {"kind": "approximate", "A": [[0.0, -1e308], [3.0, -1.5e308], [-2.5, -1.0]],
             "p": [-1.5e308, 4.0, -1.0], "g": [1.5, "-inf"]},
            # mu = g_term = g[1] + 1e307 rounds to 1e307, so
            # lower[1] = g[1] = 1 > upper[1] = q[1] + mu = 0
            {"kind": "locate", "r": [1.0, -1e307], "s": [-2.0, 0.0], "g": ["-inf", 1.0]},
            # mu = -0.5, but lower[3] = -1e308 + 0.5 rounds to -1e308, so
            # p[3] - lower[3] = 0: the lower endpoint attains 0, not mu
            {"kind": "two_sided", "p": [0.0, -4.0, -2.5, -1e308], "q": [1.0, -2.0, 0.0, 0.0]},
            # mu = h_term = -3, but lower[0] = -1e307 + 3 rounds to -1e307,
            # so the lower endpoint attains 0 where the upper attains mu
            {"kind": "two_sided", "p": [-1e307, 0.0], "q": [-1.5, 1e308], "h": [1e307, 3.0]},
            # mu = 0, but (q~A)[0] = -1e308 + 0.5 rounds to -1e308, so
            # x[0] = 1e308 and A x = 0 where p = -0.5: x attains 0.5
            {"kind": "approximate", "A": [[-1e308, -3.0, 0.0]], "p": [-0.5], "g": [1e308, 2.0, -1e307]},
        ],
        ids=["approximate", "locate", "two_sided_attains", "two_sided_bounded_attains", "approximate_attains"],
    )
    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_precision_loss(self, capsys, tmp_path, doc, command):
        # magnitudes so far apart that rounding breaks the closed form's
        # x >= g, lower <= upper, or an endpoint's attaining the optimum,
        # by more than the tolerance
        code, out = run(capsys, command, write(tmp_path, doc))
        assert code == 2
        assert json.loads(out)["error"]["reason"] == "precision_loss"

    @pytest.mark.parametrize(
        "doc, solution",
        [
            # mu = g_term = fl(1 + 0.2), so x = mu - 1 = 0.19999999999999996 < g = 0.2
            ({"kind": "matrix_lower", "A": [[1]], "p": [0], "q": [0], "g": [0.2]},
             {"x": [0.19999999999999996]}),
            ({"kind": "approximate", "A": [[1]], "p": [0], "g": [0.2]},
             {"x": [0.19999999999999996]}),
            # mu = fl(1.2) / 2: lower = 1 - mu = 0.4 and upper = -0.2 + mu =
            # 0.39999999999999997, raised to the single point 0.4
            ({"kind": "two_sided", "p": [1], "q": [-0.2]}, {"lower": [0.4], "upper": [0.4]}),
        ],
        ids=["matrix_lower", "approximate", "two_sided"],
    )
    def test_rounding_within_tolerance_is_not_precision_loss(self, capsys, tmp_path, doc, solution):
        path = write(tmp_path, doc)
        code, out = run(capsys, "solve", path)
        assert code == 0
        solved = json.loads(out)
        assert solved["solution"] == solution
        code, out = run(capsys, "verify", path)
        assert code == 0
        assert json.loads(out)["agrees_with_solver"] is True
        # eval judges every returned point as verify does
        for point in solution.values():
            code, out = run(capsys, "eval", path, "--point", json.dumps(point))
            assert code == 0
            evaluated = json.loads(out)
            assert evaluated["feasible"] is True and _close(evaluated["value"], solved["mu"])

    @pytest.mark.parametrize("command", [["solve"], ["verify"], ["eval", "--point", "[0]"]])
    def test_location_points_of_unequal_length(self, capsys, tmp_path, command):
        # s_2 = 2 must not be dropped: the problem is rejected, not solved in one dimension
        path = write(tmp_path, {"kind": "locate", "r": [1], "s": [5, 2]})
        code, out = run(capsys, command[0], path, *command[1:])
        assert code == 2
        assert json.loads(out)["error"] == {
            "reason": "shape_mismatch", "message": "s must have dimension 1, got 2"
        }

    def test_point_nested_too_deep(self, capsys):
        point = "[" * 50_000 + "]" * 50_000
        code, out = run(capsys, "eval", LOCATION, "--point", point)
        assert code == 2
        assert json.loads(out)["error"]["reason"] == "parse_error"


# JSON tokens that take each branch of the scalar parse: plain numbers,
# signed zeros, bools, the zero's string, other strings, literals beyond
# the float range (json reads 1e400 as inf), 400-digit integers, and the
# NaN that json.loads passes unless parse_constant refuses it
tokens = st.one_of(
    st.integers(-50, 50),
    st.integers(-50, 50).map(lambda k: k / 4),
    st.sampled_from(
        [0.0, -0.0, True, False, "-inf", "inf", None, math.inf, -math.inf, 10**400, -(10**400), math.nan]
    ),
)


def _outcome(fn):
    try:
        value = fn()
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return "ok", value, [math.copysign(1.0, e) for row in _rows(value) for e in row]


def _rows(value):
    return value if isinstance(value[0], tuple) else (value,)


# every kind of element a decoded problem file can hold: numbers, among
# them signed zeros, values near the float limit whose sum overflows and
# literals beyond it (json reads 1e400 as inf, and keeps 400-digit
# integers exact); bools, null, "-inf", numeric and other strings, and
# arrays
numbers = st.one_of(
    st.integers(-50, 50),
    st.floats(allow_nan=True),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 1.5e308, -1.5e308, sys.float_info.max, -sys.float_info.max]),
    st.sampled_from([10**400, -(10**400), 2**1024, -(2**1024), 2**1023]),
)
any_tokens = st.one_of(
    numbers,
    st.sampled_from([True, False, None, "-inf", "1", "-1.5", "1e3", "NaN", "-Infinity", "", "p"]),
    st.recursive(st.lists(numbers, max_size=2), lambda inner: st.lists(inner, max_size=2), max_leaves=4),
)


def _parsed(fn):
    """The floats ``fn`` returns, each with its type and the sign of a
    zero, or the class, reason and message of the error it raises."""
    try:
        values = fn()
    except TropicalError as exc:
        return type(exc), exc.reason, str(exc)
    return [(type(e), e, math.copysign(1.0, e)) for e in values]


class TestBulkParse:
    @settings(max_examples=500)
    @given(st.one_of(st.lists(numbers, min_size=1, max_size=8), st.lists(any_tokens, min_size=1, max_size=8)))
    def test_one_pass_parse_is_the_per_token_parse(self, toks):
        got = _parsed(lambda: _vector_in(toks, "p"))
        want = _parsed(lambda: tuple(_scalar_in(t, f"p[{i}]") for i, t in enumerate(toks)))
        assert got == want

    @given(st.lists(tokens, min_size=1, max_size=8))
    def test_vector_matches_per_token_parse(self, toks):
        got = _outcome(lambda: _vector_in(toks, "p"))
        want = _outcome(
            lambda: TropVector(tuple(_scalar_in(t, f"p[{i}]") for i, t in enumerate(toks))).elements
        )
        assert got == want

    @given(st.lists(st.lists(tokens, max_size=3), min_size=1, max_size=3))
    def test_matrix_matches_per_token_parse(self, rows):
        got = _outcome(lambda: _matrix_in(rows, "A"))
        want = _outcome(
            lambda: TropMatrix(tuple(
                tuple(_scalar_in(t, f"A[{i}][{j}]") for j, t in enumerate(row)) for i, row in enumerate(rows)
            )).entries
        )
        assert got == want

    @pytest.mark.parametrize(
        "p, A, where",
        [("[0, NaN]", "[[0, 1], [1, 0]]", "p[1]"), ("[0, 0]", "[[0, 1], [NaN, 0]]", "A[1][0]")],
    )
    def test_nan_is_an_invalid_scalar_named_by_its_element(self, p, A, where):
        # a document that a plain json.loads decodes, NaN and all
        doc = json.loads(f'{{"kind": "approximate", "A": {A}, "p": {p}, "g": [0, 0]}}')
        with pytest.raises(InvalidScalarError) as info:
            parse_problem(doc)
        assert type(info.value) is InvalidScalarError
        assert str(info.value) == f"{where}: nan is not a max-plus scalar"
