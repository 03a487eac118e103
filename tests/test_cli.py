import ast
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tropopt
from tropopt import NEG_INF, TropMatrix, TropVector, applications, linalg, solvers
from tropopt.cli import (
    _matrix_in,
    _scalar_in,
    _vector_in,
    main,
    parse_problem,
    solution_to_dict,
    solve_loaded,
)
from tropopt.semifield import _close

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
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out = run(capsys, "solve", "-")
        assert code == 0
        doc = json.loads(out)
        assert doc["mu"] == 2
        assert doc["solution"] == {"lower": [-1, 1, -1], "upper": [-1, 3, 0]}

    def test_missing_file_is_io_failure(self, capsys):
        code = main(["solve", "/nonexistent/problem.json"])
        assert code == 1

    @pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["missing_directory", "directory"])
    def test_unwritable_output_is_io_failure(self, capsys, tmp_path, target):
        assert main(["solve", LOCATION, str(tmp_path / target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write result: ") and "Traceback" not in err

    def test_json_syntax_error_is_io_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == 1

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000],
        ids=["not_utf8", "nested_too_deep"],
    )
    def test_unreadable_input_is_io_failure(self, capsys, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["solve", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read problem: ") and "Traceback" not in err

    def test_unknown_kind_is_invalid_problem(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "frobnicate"}))
        code, out = run(capsys, "solve", str(bad))
        assert code == 2
        assert json.loads(out)["error"]["reason"] == "parse_error"

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
        # a_00 = -inf bounds nothing, though p_0 - a_00 is NaN; x_1 = -inf
        # meets the limit p_0 - a_01 = -inf
        prob = write(tmp_path, {"kind": "best_under", "A": [["-inf", 0], [0, 0]], "p": ["-inf", 5]})
        code, out = run(capsys, "eval", prob, "--point", '[0, "-inf"]')
        assert code == 0
        assert json.loads(out) == {"kind": "best_under", "value": 5, "feasible": True}


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


def _assert_reads_back(doc):
    """Each field of a problem file reads back from the parsed problem as
    the number the file holds, and a field the file omits is ``None``."""
    lp = parse_problem(doc)
    assert (lp.kind, lp.name) == (doc["kind"], doc.get("name"))
    for key in inspect.signature(type(lp.problem)).parameters:
        value = getattr(lp.problem, key)
        if key == "A":
            assert value.entries == tuple(tuple(map(float, row)) for row in doc[key])
        elif key in doc:
            assert value.elements == tuple(map(float, doc[key]))
        else:
            assert value is None


class TestRoundTrip:
    @pytest.mark.parametrize(
        "path", [LOCATION, APPROXIMATION], ids=["location", "approximation"]
    )
    def test_fixture_round_trips(self, path):
        _assert_reads_back(json.loads(open(path).read()))

    def test_neg_inf_round_trips(self):
        doc = {
            "kind": "matrix_lower",
            "A": [[0, "-inf"], ["-inf", 0]],
            "p": [1, 2],
            "q": [0, 0],
            "g": ["-inf", 3],
        }
        problem = parse_problem(doc).problem
        assert problem.A.entries == ((0.0, NEG_INF), (NEG_INF, 0.0))
        assert problem.g.elements == (NEG_INF, 3.0)

    def test_half_integers_round_trip(self):
        problem = parse_problem({"kind": "two_sided", "p": [0.5, 3], "q": [-1.5, 0]}).problem
        assert (problem.p.elements, problem.q.elements) == ((0.5, 3.0), (-1.5, 0.0))

    @pytest.mark.parametrize("key", sorted(KIND_DOCS))
    def test_every_kind_round_trips(self, key):
        _assert_reads_back(KIND_DOCS[key])


def _core(problem):
    if isinstance(problem, applications.LocationProblem):
        return applications.reduced_two_sided(problem)
    if isinstance(problem, applications.ApproximationProblem):
        return applications.reduced_matrix_lower(problem)
    return problem


class TestStructure:
    def test_locate_reduces_and_computes_terms_once(self, monkeypatch):
        calls = {"reduce": 0, "terms": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            applications, "reduced_two_sided", counted("reduce", applications.reduced_two_sided)
        )
        monkeypatch.setattr(solvers, "two_sided_terms", counted("terms", solvers.two_sided_terms))
        lp = parse_problem(KIND_DOCS["locate_bounded"])
        solution_to_dict(lp, solve_loaded(lp))
        assert calls == {"reduce": 1, "terms": 1}

    def test_matrix_lower_computes_q_a_once(self, monkeypatch):
        # q~ A feeds delta, the g term and x: one pass computes it, and
        # the only container the solve builds is x
        prob = parse_problem(KIND_DOCS["matrix_lower"]).problem
        calls, built = [], _record_builds(monkeypatch)
        q_a = solvers._q_a
        monkeypatch.setattr(solvers, "_q_a", lambda pr: calls.append(pr) or q_a(pr))
        sol = solvers.solve_matrix_lower(prob)
        assert calls == [prob]
        assert len(built) == 1 and built[0] is sol.x

    def test_two_sided_conjugates_q_once(self, monkeypatch):
        # the passes read q itself, so q~ is never formed; the terms are
        # computed once and the only containers built are the endpoints
        prob = parse_problem(KIND_DOCS["two_sided_bounded"]).problem
        calls, built = [], _record_builds(monkeypatch)
        terms, conjugate = solvers.two_sided_terms, linalg.conjugate
        monkeypatch.setattr(solvers, "two_sided_terms", lambda pr: calls.append(pr) or terms(pr))
        monkeypatch.setattr(linalg, "conjugate", lambda v: calls.append(v) or conjugate(v))
        sol = solvers.solve_two_sided(prob)
        assert calls == [prob]
        assert len(built) == 2 and built[0] is sol.lower and built[1] is sol.upper

    def test_best_under_objective_builds_no_vector(self, monkeypatch):
        # the defect is one pass over A's rows and one over p, with no
        # A x or (A x)~ container
        lp = parse_problem(KIND_DOCS["best_under"])
        x = TropVector((2.0, 4.0, 3.0))
        built = _record_builds(monkeypatch)
        assert solvers.objective_best_under(lp.problem, x) == -1.0
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
        core = _core(lp.problem)
        if isinstance(core, solvers.TwoSidedProblem):
            terms = solvers.two_sided_terms(core)
        elif isinstance(core, solvers.MatrixLowerProblem):
            terms = solvers.matrix_lower_terms(core)
        else:
            terms = {"delta": solvers.best_underestimator(core.A, core.p).delta}
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
        assert not {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize"} & loaded

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
    """The list of every ``TropVector`` built from now on."""
    built = []
    post_init = TropVector.__post_init__
    monkeypatch.setattr(TropVector, "__post_init__", lambda v: built.append(v) or post_init(v))
    return built


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout."""
    return {**os.environ, "PYTHONPATH": str(Path(tropopt.__file__).resolve().parent.parent)}


def _run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this checkout;
    its assertions fail the test."""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_fresh_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def _run_command_line(*argv: str) -> subprocess.CompletedProcess:
    """Run ``tropopt`` with ``argv`` in a fresh interpreter, as the console
    script does (``python -m tropopt`` calls the same ``cli.main``)."""
    return subprocess.run(
        [sys.executable, "-m", "tropopt", *argv],
        env=_fresh_env(), capture_output=True, text=True, timeout=60,
    )


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
        # and argparse rejects them
        with pytest.raises(SystemExit) as info:
            main(["verify", LOCATION, *option])
        assert info.value.code == 2
        assert "unrecognized arguments: " + " ".join(option) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "two_sided", "p": [1e308, 0], "q": [-1e308, 0]},
            {"kind": "two_sided", "p": [1e308, 0], "q": [-1e308, 0], "h": [1e308, 1]},
            '{"kind": "two_sided", "p": [1' + "0" * 400 + ', 0], "q": [0, 0]}',
            '{"kind": "two_sided", "p": [1e400, 0], "q": [0, 0]}',
            '{"kind": "two_sided", "p": [1, 0], "q": [0, 0], "g": [-1e400, 0]}',
            # lower[0] = p[0] - mu overflows to -inf, so the lower
            # endpoint's objective p[0] - lower[0] leaves the float range
            {"kind": "two_sided", "p": [-1.5e308, 1.5e308], "q": [1e307, 0.0], "h": [1e308, 1e308]},
        ],
        ids=[
            "optimum", "optimum_with_h", "literal", "float_literal", "negative_float_literal",
            "endpoint_objective",
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

    def test_point_nested_too_deep(self, capsys):
        point = "[" * 50_000 + "]" * 50_000
        code, out = run(capsys, "eval", LOCATION, "--point", point)
        assert code == 2
        assert json.loads(out)["error"]["reason"] == "parse_error"


# JSON tokens that take each branch of the scalar parse: plain numbers,
# signed zeros, bools, the zero's string, other strings, literals beyond
# the float range (json reads 1e400 as inf), and 400-digit integers
tokens = st.one_of(
    st.integers(-50, 50),
    st.integers(-50, 50).map(lambda k: k / 4),
    st.sampled_from(
        [0.0, -0.0, True, False, "-inf", "inf", None, math.inf, -math.inf, 10**400, -(10**400)]
    ),
)


def _outcome(fn):
    try:
        value = fn()
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return "ok", value, [math.copysign(1.0, e) for row in _rows(value) for e in row]


def _rows(value):
    return value.entries if isinstance(value, TropMatrix) else (value.elements,)


class TestBulkParse:
    @given(st.lists(tokens, min_size=1, max_size=8))
    def test_vector_matches_per_token_parse(self, toks):
        got = _outcome(lambda: _vector_in(toks, "p"))
        want = _outcome(lambda: TropVector(tuple(_scalar_in(t, f"p[{i}]") for i, t in enumerate(toks))))
        assert got == want

    @given(st.lists(st.lists(tokens, min_size=2, max_size=2), min_size=1, max_size=3))
    def test_matrix_matches_per_token_parse(self, rows):
        got = _outcome(lambda: _matrix_in(rows, "A"))
        want = _outcome(
            lambda: TropMatrix(tuple(
                tuple(_scalar_in(t, f"A[{i}][{j}]") for j, t in enumerate(row)) for i, row in enumerate(rows)
            ))
        )
        assert got == want
