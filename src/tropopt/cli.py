"""Command-line interface: solve, eval, and verify tropical problem files.

Problem files are JSON objects with a ``kind`` discriminator, the fields
of that kind's problem class under their field names (``A`` is the
only matrix), and optional ``name``/``description`` metadata.  Scalars
are JSON numbers, with the string ``"-inf"`` standing in for the tropical
zero.  ``_KINDS`` maps each kind to its problem class and solver; every
other step follows from the problem or the solution.  ``verify`` checks
the solution with the exact certificate of ``certificate.py``; no
subcommand imports numpy.

Each scalar of a problem file is validated once, by ``_scalars_in`` as
it is parsed; the containers built from them and the solvers take the
floats as they are.

Exit codes: 0 success, 1 unreadable input (I/O, not UTF-8, JSON syntax
or nesting too deep to decode) or an output that cannot be written, 2 an
invalid or infeasible problem, a failed verification, or a command line
in none of ``USAGE``'s forms.  Every ``TropicalError`` exits 2 with a
JSON error on the output whose ``reason`` the error class declares;
exit 1 prints a JSON error on stderr, with the reason
``unreadable_input`` or ``unwritable_output``, and the ``line:column``
``location`` of a JSON syntax error.  ``eval`` judges a
point by the certificate's ``RULES``, as ``verify`` does.  ``run``, the
process entry point, ends with ``os._exit`` once the output is flushed.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import namedtuple
from itertools import repeat

from .applications import ApproximationProblem, LocationProblem, approximate, locate
from .certificate import RULES, certify
from .linalg import TropMatrix, TropVector, _matrix, _vector
from .semifield import NEG_INF, Record, ScalarOverflowError, TropicalError, _store
from .solvers import (
    BestUnderProblem,
    IntervalSolution,
    MatrixLowerProblem,
    TwoSidedProblem,
    best_underestimator,
    solve_matrix_lower,
    solve_two_sided,
)


class ProblemFormatError(TropicalError):
    """Input does not match the problem-file schema."""

    reason = "parse_error"


class UsageError(TropicalError):
    """The command line matches none of the forms in ``USAGE``."""

    reason = "usage_error"


# a problem kind: its class, its solver, and its file's schema: the
# payload keys, each with its reader, the keys that must be present and
# every key that may be
Kind = namedtuple("Kind", "cls solve readers required allowed")
# a parsed command line: ``run`` is the subcommand's function
Command = namedtuple("Command", "run input output pretty point")


def _kind(cls, solve) -> Kind:
    """The kind of problem class ``cls``, its schema read off the class
    once: the payload keys are the fields, and those without a default
    are required."""
    keys = cls._fields
    readers = tuple((key, _matrix_in if key == "A" else _vector_in) for key in keys)
    required = frozenset(keys[:len(keys) - len(cls.__init__.__defaults__ or ())])
    return Kind(cls, solve, readers, required, frozenset({*keys, "kind", "name", "description"}))


class LoadedProblem(Record):
    __slots__ = ("kind", "problem", "name")

    def __init__(self, kind: str, problem: object, name: str | None = None) -> None:
        _store(self, "kind", kind)
        _store(self, "problem", problem)
        _store(self, "name", name)


def _scalar_in(token, where: str) -> float:
    if token == "-inf":
        return NEG_INF
    if isinstance(token, bool) or not isinstance(token, (int, float)):
        raise ProblemFormatError(f'{where}: expected a number or "-inf", got {token!r}')
    try:
        value = float(token)
    except OverflowError:  # an integer literal too long for a float
        value = math.inf
    if math.isinf(value):  # json reads 1e400 as inf and -1e400 as -inf
        raise ScalarOverflowError(f"{where}: number literal exceeds the float range")
    return value


_NUMBER_TYPES = frozenset({int, float})


def _scalar_out(v: float):
    if v == NEG_INF:
        return "-inf"
    return int(v) if float(v).is_integer() else v


def _scalars_in(tokens: list, where: str) -> tuple[float, ...]:
    """The carrier floats of a list of tokens: the one validation they
    get, since the containers built from them take them as they are.  A
    list of plain numbers takes three builtin passes: its set of types,
    a ``float`` conversion, which raises ``OverflowError`` on an integer
    literal too long for a float, and a float sum, which is finite only
    when every element is.  Any other list goes token by token through
    ``_scalar_in``, which names the element at fault."""
    if {*map(type, tokens)} <= _NUMBER_TYPES:
        try:
            values = tuple(map(float, tokens))
        except OverflowError:
            pass
        else:
            if math.isfinite(sum(values)):
                return values
    return tuple(_scalar_in(t, f"{where}[{i}]") for i, t in enumerate(tokens))


def _vector_in(obj, where: str) -> TropVector:
    if not isinstance(obj, list) or not obj:
        raise ProblemFormatError(f"{where}: expected a nonempty array of scalars")
    return _vector(_scalars_in(obj, where))


def _matrix_in(obj, where: str) -> TropMatrix:
    if not isinstance(obj, list) or not obj or not all(map(isinstance, obj, repeat(list))):
        raise ProblemFormatError(f"{where}: expected an array of row arrays")
    return _matrix(tuple([_scalars_in(row, f"{where}[{i}]") for i, row in enumerate(obj)]))


def _scalars_out(values: tuple[float, ...]) -> list:
    """``_scalar_out`` of each element.  When every element is integral,
    which rules out both infinities, one ``map(math.trunc, ...)`` pass
    converts them all: the same ints as ``int``, in half the time."""
    if all(map(float.is_integer, values)):
        return list(map(math.trunc, values))
    return [_scalar_out(e) for e in values]


def _vector_out(v: TropVector) -> list:
    return _scalars_out(v.elements)


# The solvers are called through the module's names, not held here, so
# that wrappers installed on those names (timers, counters) see the calls.
_KINDS = {
    "two_sided": _kind(TwoSidedProblem, lambda pr: solve_two_sided(pr)),
    "matrix_lower": _kind(MatrixLowerProblem, lambda pr: solve_matrix_lower(pr)),
    "locate": _kind(LocationProblem, lambda pr: locate(pr)),
    "approximate": _kind(ApproximationProblem, lambda pr: approximate(pr)),
    "best_under": _kind(BestUnderProblem, lambda pr: best_underestimator(pr.A, pr.p)),
}


def parse_problem(doc) -> LoadedProblem:
    """Build a problem from a decoded JSON document, validating the schema."""
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem file must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ProblemFormatError(f"unknown problem kind {kind!r}")
    spec = _KINDS[kind]
    unknown = doc.keys() - spec.allowed
    if unknown:
        raise ProblemFormatError(f"unexpected fields for kind {kind}: {sorted(unknown)}")
    missing = spec.required - doc.keys()
    if missing:
        raise ProblemFormatError(f"missing fields for kind {kind}: {sorted(missing)}")

    problem = spec.cls(**{key: read(doc[key], key) for key, read in spec.readers if key in doc})
    for label in ("name", "description"):
        if doc.get(label) is not None and not isinstance(doc[label], str):
            raise ProblemFormatError(f"{label} must be a string")
    return LoadedProblem(kind, problem, doc.get("name"))


def solve_loaded(lp: LoadedProblem):
    return _KINDS[lp.kind].solve(lp.problem)


def solution_to_dict(lp: LoadedProblem, sol) -> dict:
    out: dict = {"kind": lp.kind}
    if lp.name is not None:
        out["name"] = lp.name
    out["mu"] = _scalar_out(sol.mu)
    out["delta"] = delta = _scalar_out(sol.delta)
    if isinstance(sol, IntervalSolution):
        out["solution"] = {"lower": _vector_out(sol.lower), "upper": _vector_out(sol.upper)}
    else:
        out["solution"] = {"x": _vector_out(sol.x)}
    diagnostics = {"delta_term": delta}
    if sol.g_term is not None:
        diagnostics["g_term"] = _scalar_out(sol.g_term)
    if sol.h_term is not None:
        diagnostics["h_term"] = _scalar_out(sol.h_term)
    out["diagnostics"] = diagnostics
    return out


def _core(lp: LoadedProblem):
    """The two-sided, matrix or best-underestimator problem behind ``lp``."""
    return getattr(lp.problem, "reduced", lp.problem)


def verify_loaded(lp: LoadedProblem, sol, *, step=None, samples=None):
    """Prove ``sol`` optimal with the exact certificate; returns its
    ``OracleReport``.  ``step`` and ``samples`` are unused: they were the
    grid oracle's settings, and remain only because the benchmark in
    ``perfbench/`` still passes them."""
    return certify(_core(lp), sol)


def report_to_dict(lp: LoadedProblem, sol, report) -> dict:
    term, index = report.binding
    return {
        "kind": lp.kind,
        "mu": _scalar_out(sol.mu),
        "min_value": _scalar_out(report.min_value),
        "argmin": _vector_out(report.argmin),
        "points_evaluated": report.points_evaluated,
        "agrees_with_solver": report.agrees_with_solver,
        "max_discrepancy": report.max_discrepancy,
        "binding": {"term": term, "index": index},
    }


def _reject_constant(token: str) -> float:
    raise ProblemFormatError(f"non-numeric scalar token {token!r} is not accepted")


def _read_json(path: str):
    if path == "-":
        if sys.stdin is None:  # the process started with fd 0 closed
            raise OSError("stdin is closed")
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text, parse_constant=_reject_constant)


def _io_failure(reason: str, message: str, exc: Exception) -> int:
    """Print the JSON error of an exit 1 on stderr, one line; returns 1."""
    error = {"reason": reason, "message": f"{message}: {exc}"}
    if isinstance(exc, json.JSONDecodeError):
        error["location"] = f"{exc.lineno}:{exc.colno}"
    print(json.dumps({"error": error}), file=sys.stderr)
    return 1


def _write(path: str, text: str) -> int:
    """Write ``text`` to ``path``, or to stdout for "-", and flush it;
    returns 0, or 1 with a JSON ``unwritable_output`` error on stderr
    when it cannot be written.
    The flush is here, not at exit, so that a closed pipe is an exit 1
    like any other unwritable output, and ``run`` loses nothing."""
    try:
        if path != "-":
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        elif sys.stdout is None:  # the process started with fd 1 closed
            raise OSError("stdout is closed")
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        return _io_failure("unwritable_output", "cannot write result", exc)
    return 0


def _write_json(path: str, obj, pretty: bool) -> int:
    return _write(path, json.dumps(obj, indent=2 if pretty else None) + "\n")


def _error_payload(exc: TropicalError) -> dict:
    payload: dict = {"error": {"reason": exc.reason, "message": str(exc)}}
    if exc.reason == "verification_failed":
        payload["agrees_with_solver"] = False
        if exc.counterexample is not None:
            payload["counterexample"] = _vector_out(exc.counterexample)
    return payload


def _solve(lp: LoadedProblem, args: Command) -> dict:
    return solution_to_dict(lp, solve_loaded(lp))


def _eval(lp: LoadedProblem, args: Command) -> dict:
    try:
        point_doc = json.loads(args.point, parse_constant=_reject_constant)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ProblemFormatError(f"--point is not valid JSON: {exc}") from exc
    x = _vector_in(point_doc, "--point")
    prob = _core(lp)
    rule = RULES[type(prob)]
    value = _scalar_out(rule.objective(prob, x))
    return {"kind": lp.kind, "value": value, "feasible": rule.feasible(prob, x)}


def _verify(lp: LoadedProblem, args: Command) -> dict:
    sol = solve_loaded(lp)
    return report_to_dict(lp, sol, verify_loaded(lp, sol))


def run_command(args: Command) -> int:
    """Read the problem, run the subcommand, write its result or error."""
    try:
        try:
            doc = _read_json(args.input)
        except (OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
            return _io_failure("unreadable_input", "cannot read problem", exc)
        # neither the decoded document nor the problem is kept past its
        # use, so that the solve and the encoding of the output reuse their
        # memory: about 0.2-0.4 MB less peak RSS for a solve at n = 10^4
        lp = parse_problem(doc)
        del doc
        result, code = args.run(lp, args), 0
        del lp
    except TropicalError as exc:
        result, code = _error_payload(exc), 2
    return _write_json(args.output, result, args.pretty) or code


USAGE = """\
usage: tropopt solve INPUT [OUTPUT] [--pretty]
       tropopt eval INPUT --point JSON [--pretty]
       tropopt verify INPUT [--pretty]

Solve constrained max-plus optimization problems in closed form.

  solve    solve a problem file and write the solution
  eval     evaluate the objective at a point
  verify   solve, then prove the answer optimal

INPUT is a problem JSON path and OUTPUT a solution path; "-", the
default OUTPUT, means stdin or stdout.  --point takes a JSON array,
e.g. "[0, 0, 0]", and --pretty indents the JSON output.  Options may
come before, between or after the paths.
"""

# per subcommand: its runner and how many paths it takes at most
_COMMANDS = {"solve": (_solve, 2), "eval": (_eval, 1), "verify": (_verify, 1)}


def parse_args(argv: list[str]) -> Command | None:
    """The command that ``argv`` spells in one of ``USAGE``'s forms, or
    None when it asks for help; any other command line raises
    ``UsageError``."""
    if "-h" in argv or "--help" in argv:
        return None
    command = argv[0] if argv else ""
    if command not in _COMMANDS:
        raise UsageError(f"expected a command (solve, eval or verify), got {command!r}")
    runner, most = _COMMANDS[command]
    tokens = iter(argv[1:])
    paths, extra, pretty, point = [], [], False, None
    for tok in tokens:
        if tok == "--pretty":
            pretty = True
        elif command == "eval" and tok == "--point":
            point = next(tokens, None)
            if point is None:
                raise UsageError("argument --point: expected one argument")
        elif command == "eval" and tok.startswith("--point="):
            point = tok[len("--point="):]
        elif (tok.startswith("-") and tok != "-") or len(paths) == most:
            extra.append(tok)
        else:
            paths.append(tok)
    missing = [] if paths else ["INPUT"]
    if command == "eval" and point is None:
        missing.append("--point")
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extra:
        raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
    return Command(runner, paths[0], paths[1] if len(paths) > 1 else "-", pretty, point)


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` by default) and return its
    exit code; the result, or a JSON error, is written and flushed."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        return _write_json("-", _error_payload(exc), False) or 2
    if args is None:
        return _write("-", USAGE)
    return run_command(args)


def run() -> None:
    """The process entry point: ``main``, then ``os._exit`` with its
    code.  Everything the command writes is flushed by then, so the
    interpreter's teardown (module and object finalization, a few to
    tens of ms) would buy nothing.  An exception that escapes ``main``
    propagates and ends the process the usual way, with its traceback."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError:  # a write that already failed and was reported
            code = code or 1
    os._exit(code)


if __name__ == "__main__":
    run()
