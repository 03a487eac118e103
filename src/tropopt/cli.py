"""Command-line interface: solve, eval, and verify tropical problem files.

Problem files are JSON objects with a ``kind`` discriminator, the fields
of that kind's problem dataclass under their field names (``A`` is the
only matrix), and optional ``name``/``description`` metadata.  Scalars
are JSON numbers, with the string ``"-inf"`` standing in for the tropical
zero.  ``_KINDS`` maps each kind to its problem class and solver; every
other step follows from the problem or the solution.  ``verify`` checks
the solution with the exact certificate of ``certificate.py``; no
subcommand imports numpy.

Exit codes: 0 success, 1 unreadable input (I/O, not UTF-8, JSON syntax
or nesting too deep to decode) or an output that cannot be written, 2 an
invalid or infeasible problem, a failed verification, or a command line
that argparse rejects.  Every ``TropicalError`` exits 2 with a JSON error
whose ``reason`` the error class declares.  ``eval`` judges a point by
the certificate's ``RULES``, as ``verify`` does.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Callable, NamedTuple

from .applications import ApproximationProblem, LocationProblem, approximate, locate
from .certificate import RULES, certify
from .linalg import TropMatrix, TropVector
from .semifield import NEG_INF, ScalarOverflowError, TropicalError
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


class Kind(NamedTuple):
    cls: type
    solve: Callable


# The solvers are called through the module's names, not held here, so
# that wrappers installed on those names (timers, counters) see the calls.
_KINDS = {
    "two_sided": Kind(TwoSidedProblem, lambda pr: solve_two_sided(pr)),
    "matrix_lower": Kind(MatrixLowerProblem, lambda pr: solve_matrix_lower(pr)),
    "locate": Kind(LocationProblem, lambda pr: locate(pr)),
    "approximate": Kind(ApproximationProblem, lambda pr: approximate(pr)),
    "best_under": Kind(BestUnderProblem, lambda pr: best_underestimator(pr.A, pr.p)),
}


def _schema(cls: type) -> tuple[list[str], set[str]]:
    """The payload keys of a problem class, in field order, and the
    required ones (fields without a default)."""
    init = [f for f in fields(cls) if f.init]
    return [f.name for f in init], {f.name for f in init if f.default is MISSING}


@dataclass(frozen=True)
class LoadedProblem:
    kind: str
    problem: object
    name: str | None = None


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


def _scalar_out(v: float):
    if v == NEG_INF:
        return "-inf"
    return int(v) if float(v).is_integer() else v


def _scalars_in(tokens: list, where: str) -> list | tuple[float, ...]:
    """Vet a list of tokens for a container, whose ``float`` pass is then
    their only conversion.  A list of plain numbers is returned as it is
    when its float sum is finite: an infinite number makes the sum
    infinite or NaN, and an integer literal too long for a float makes
    it raise ``OverflowError``.  Any other list goes token by token
    through ``_scalar_in``, which names the element at fault."""
    if {*map(type, tokens)} <= {int, float}:
        try:
            if math.isfinite(sum(tokens, 0.0)):
                return tokens
        except OverflowError:
            pass
    return tuple(_scalar_in(t, f"{where}[{i}]") for i, t in enumerate(tokens))


def _vector_in(obj, where: str) -> TropVector:
    if not isinstance(obj, list) or not obj:
        raise ProblemFormatError(f"{where}: expected a nonempty array of scalars")
    return TropVector(_scalars_in(obj, where))


def _matrix_in(obj, where: str) -> TropMatrix:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ProblemFormatError(f"{where}: expected an array of row arrays")
    return TropMatrix(tuple(_scalars_in(row, f"{where}[{i}]") for i, row in enumerate(obj)))


def _scalars_out(values: tuple[float, ...]) -> list:
    """``_scalar_out`` of each element.  When every element is integral,
    which rules out both infinities, one ``map(int, ...)`` pass converts
    them all."""
    if all(map(float.is_integer, values)):
        return list(map(int, values))
    return [_scalar_out(e) for e in values]


def _vector_out(v: TropVector) -> list:
    return _scalars_out(v.elements)


def parse_problem(doc) -> LoadedProblem:
    """Build a problem from a decoded JSON document, validating the schema."""
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem file must be a JSON object")
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise ProblemFormatError(f"unknown problem kind {kind!r}")
    cls = _KINDS[kind].cls
    keys, required = _schema(cls)
    unknown = set(doc) - {*keys, "kind", "name", "description"}
    if unknown:
        raise ProblemFormatError(f"unexpected fields for kind {kind}: {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ProblemFormatError(f"missing fields for kind {kind}: {sorted(missing)}")

    problem = cls(**{
        k: (_matrix_in if k == "A" else _vector_in)(doc[k], k) for k in keys if k in doc
    })
    for label in ("name", "description"):
        if doc.get(label) is not None and not isinstance(doc[label], str):
            raise ProblemFormatError(f"{label} must be a string")
    return LoadedProblem(kind=kind, problem=problem, name=doc.get("name"))


def solve_loaded(lp: LoadedProblem):
    return _KINDS[lp.kind].solve(lp.problem)


def solution_to_dict(lp: LoadedProblem, sol) -> dict:
    out: dict = {"kind": lp.kind}
    if lp.name is not None:
        out["name"] = lp.name
    out["mu"] = _scalar_out(sol.mu)
    out["delta"] = _scalar_out(sol.delta)
    if isinstance(sol, IntervalSolution):
        out["solution"] = {"lower": _vector_out(sol.lower), "upper": _vector_out(sol.upper)}
    else:
        out["solution"] = {"x": _vector_out(sol.x)}
    diagnostics = {"delta_term": _scalar_out(sol.delta)}
    for key in ("g_term", "h_term"):
        if getattr(sol, key) is not None:
            diagnostics[key] = _scalar_out(getattr(sol, key))
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
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text, parse_constant=_reject_constant)


def _write_json(path: str, obj, pretty: bool) -> None:
    text = json.dumps(obj, indent=2 if pretty else None) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _error_payload(exc: TropicalError) -> dict:
    payload: dict = {"error": {"reason": exc.reason, "message": str(exc)}}
    if exc.reason == "verification_failed":
        payload["agrees_with_solver"] = False
        if exc.counterexample is not None:
            payload["counterexample"] = _vector_out(exc.counterexample)
    return payload


def _solve(lp: LoadedProblem, args: argparse.Namespace) -> dict:
    return solution_to_dict(lp, solve_loaded(lp))


def _eval(lp: LoadedProblem, args: argparse.Namespace) -> dict:
    try:
        point_doc = json.loads(args.point, parse_constant=_reject_constant)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ProblemFormatError(f"--point is not valid JSON: {exc}") from exc
    x = _vector_in(point_doc, "--point")
    prob = _core(lp)
    rule = RULES[type(prob)]
    value = _scalar_out(rule.objective(prob, x))
    return {"kind": lp.kind, "value": value, "feasible": rule.feasible(prob, x)}


def _verify(lp: LoadedProblem, args: argparse.Namespace) -> dict:
    sol = solve_loaded(lp)
    return report_to_dict(lp, sol, verify_loaded(lp, sol))


def run_command(args: argparse.Namespace) -> int:
    """Read the problem, run the subcommand, write its result or error."""
    try:
        try:
            doc = _read_json(args.input)
        except (OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
            print(f"error: cannot read problem: {exc}", file=sys.stderr)
            return 1
        result, code = args.run(parse_problem(doc), args), 0
    except TropicalError as exc:
        result, code = _error_payload(exc), 2
    try:
        _write_json(args.output, result, args.pretty)
    except OSError as exc:
        print(f"error: cannot write result: {exc}", file=sys.stderr)
        return 1
    return code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tropopt",
        description="Solve constrained max-plus optimization problems in closed form.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve a problem file and write the solution")
    sp.add_argument("input", help='problem JSON path, or "-" for stdin')
    sp.add_argument("output", nargs="?", default="-", help='solution path, or "-" for stdout')
    sp.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sp.set_defaults(run=_solve)

    ep = sub.add_parser("eval", help="evaluate the objective at a point")
    ep.add_argument("input", help='problem JSON path, or "-" for stdin')
    ep.add_argument("--point", required=True, help='JSON array, e.g. "[0, 0, 0]"')
    ep.add_argument("--pretty", action="store_true", help="indent the JSON output")
    ep.set_defaults(run=_eval, output="-")

    vp = sub.add_parser("verify", help="solve, then prove the answer optimal")
    vp.add_argument("input", help='problem JSON path, or "-" for stdin')
    vp.add_argument("--pretty", action="store_true", help="indent the JSON output")
    vp.set_defaults(run=_verify, output="-")
    return ap


def main(argv: list[str] | None = None) -> int:
    return run_command(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
