"""Command-line interface: solve, eval, and verify tropical problem files.

Problem files are JSON objects with a ``kind`` discriminator, the fields
of that kind's problem class under their field names (``A`` is the only
matrix), and optional ``name``/``description`` strings.  Scalars are
JSON numbers, with ``"-inf"`` for the tropical zero; a repeated key is a
``parse_error``.  No subcommand imports numpy.

The commands run on the tuple core and build no value class:
``parse_problem`` reads a document into ``(kind, data, name, integers)``,
with each scalar validated once by the readers and the data checked by
the kind's data function; ``solve_loaded``, ``verify_loaded`` and
``eval`` call the functions that ``certificate.RULES`` pairs with the
kind's core problem; ``solution_to_dict`` and ``report_to_dict`` turn the
answers into dicts.  ``integers`` is a bit that the readers' one type
pass gives at no cost: every numeric field held JSON integers alone.
Such an array needs no sum to prove it finite, and an answer whose
``mu`` is integral then has integral coordinates, which are written with
no integrality pass (``_vectors_out``).  Where every array is also
exact, below 2^50, the data keep the ints and the core runs on them, and
an answer whose ``mu`` is an int is written as it is.  So an all-integer
file prints the same bytes as the same file written in floats.
``parse_problem`` leaves its argument as it is; the commands parse with
``_take_problem``, which takes each array out of the document it decoded,
so that each array is freed once converted.  ``load_problem`` reads a
file for a library caller: a ``LoadedProblem`` holding the kind's problem
class, built after the same checks.

Exit codes: 0 success, 1 unreadable input (I/O, not UTF-8, JSON syntax
or nesting too deep to decode) or an output that cannot be written, 2 an
invalid or infeasible problem, a failed verification, or a command line
in none of ``USAGE``'s forms.  Exit 2 writes a JSON error whose
``reason`` the ``TropicalError`` class declares; exit 1 prints one on
stderr, ``unreadable_input`` (with the ``line:column`` of a JSON syntax
error) or ``unwritable_output``.  ``run`` ends with ``os._exit`` once the
output is flushed.
"""

from __future__ import annotations

import json
import math
import os
import sys
from itertools import chain, repeat

from .applications import ApproximationProblem, LocationProblem, approximation_data, location_data
from .certificate import RULES
from .linalg import TropMatrix, TropVector, _require_rectangular
from .semifield import NEG_INF, InvalidScalarError, Record, ScalarOverflowError, TropicalError, _record
from .solvers import (
    BestUnderProblem, Interval, MatrixLowerProblem, TwoSidedProblem, best_under_data, matrix_data,
    two_sided_data,
)


class ProblemFormatError(TropicalError):
    """Input does not match the problem-file schema."""

    reason = "parse_error"


class UsageError(TropicalError):
    """The command line matches none of the forms in ``USAGE``."""

    reason = "usage_error"


# a problem kind: its name, its problem class, its data function, its
# class's rule, and its schema: each payload key's reader, which takes the
# key's array out of the document, the required and allowed keys
Kind = _record("Kind", "name cls data rule readers required allowed")
# a parsed command line: ``run`` is the subcommand's function
Command = _record("Command", "run input output pretty point")


def _kind(name: str, cls, data) -> Kind:
    """The kind of problem class ``cls``, with the class's fields as its
    payload keys, those without a default required, and its rule."""
    keys = cls._fields
    readers = tuple((key, _take_matrix if key == "A" else _take_vector) for key in keys)
    required = frozenset(keys[:cls._required])
    allowed = frozenset({*keys, "kind", "name", "description"})
    return Kind((name, cls, data, RULES[cls], readers, required, allowed))


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
    if value != value:  # a NaN, which json.loads passes unless parse_constant refuses it
        raise InvalidScalarError(f"{where}: {value!r} is not a max-plus scalar")
    return value


_NUMBER_TYPES = frozenset({int, float})
_INTEGERS = frozenset({int})
_isfinite = math.isfinite


def _scalar_out(v: float):
    if v == NEG_INF:
        return "-inf"
    return int(v) if float(v).is_integer() else v


def _scalars_in(tokens: list, where: str) -> tuple[float, ...]:
    """The floats of a list of tokens by ``_scalar_in``, which names a bad one."""
    return tuple([_scalar_in(t, f"{where}[{i}]") for i, t in enumerate(tokens)])


# The readers validate each scalar once, and return the floats with
# whether the array holds JSON integers alone.  One builtin pass per array
# takes the set of its elements' types (``_types``), for every array before
# any is read.  Integers alone convert with ``float``, whose float of an
# int is finite or raises OverflowError (an integer too long for a float),
# so they need no other pass.  Ints and floats take a sum too, finite only
# when every element is.  Any other array, or one that fails its test,
# goes token by token through ``_scalars_in``, which names a bad element:
# a bool, a string, ``"-inf"`` or a literal beyond the float range.
#
# The command path's readers keep the ints of an exact array, JSON
# integers whose ``math.hypot`` (at least the greatest |element|; it
# raises OverflowError where ``float`` would) is below B = 2^50, where
# every array of the file is exact: the core then runs on ints alone.
# The lemma: every value computed from ints alone is an int below 7B <
# 2^53, which a float holds exactly (the longest chain is ``r = q~A``,
# ``res``, ``x = mu - r``, ``A x``, ``A x - q``).  An operation with a
# half-integral operand is a float operation in both forms, whose int
# operand converts exactly; Python compares an int with a float exactly,
# and no -0.0 arises.  So every value equals the float path's, and
# ``_scalar_out`` and ``_integers_out`` print the two alike.  A computed
# int comes from an exact file, where nothing is ``+-inf``: the core
# skips, on a tuple whose first element is an int, the scans that only
# find ``-inf`` or overflow.
_EXACT = 2**50


def _types(obj, matrix: bool):
    """The set of the types of a nonempty array's elements, or of a
    matrix's entries; None for a value of neither shape."""
    if not isinstance(obj, list) or not obj or matrix and not all(map(isinstance, obj, repeat(list))):
        return None
    return {*map(type, chain.from_iterable(obj) if matrix else obj)}


# The parse's readers take their array out of the document themselves, so
# that nothing else holds it: a Python 3.10 call keeps its arguments in the
# caller's frame until it returns, so an array passed in would outlive its
# conversion.  Each array then dies once converted, and its floats reuse
# its freed blocks.
def _take_vector(doc: dict, key: str, types, exact: bool = False) -> tuple[tuple, bool, bool]:
    """The floats of the array of scalars taken out of ``doc`` at ``key``,
    whose ``_types`` are ``types``, whether all its elements are JSON
    integers, and whether they are kept as ints instead: where ``exact``
    (the file holds JSON integers alone) and the array is exact."""
    obj = doc.pop(key)
    if types is None:
        raise ProblemFormatError(f"{key}: expected a nonempty array of scalars")
    if exact:
        obj = tuple(obj)  # the list dies here
        try:
            if math.hypot(*obj) < _EXACT:
                return obj, True, True
            return tuple(map(float, obj)), True, False
        except OverflowError:
            pass
    elif types <= _NUMBER_TYPES:
        try:
            values = tuple(map(float, obj))
        except OverflowError:
            pass
        else:
            integers = types == _INTEGERS
            if integers or _isfinite(sum(values)):
                return values, integers, False
    return _scalars_in(obj, key), False, False


def _take_matrix(doc: dict, key: str, types, exact: bool = False) -> tuple[tuple[tuple, ...], bool, bool]:
    """The rows of the matrix taken out of ``doc`` at ``key``, whose
    ``_types`` are ``types``, whether all its entries are JSON integers,
    and whether its rows are kept as ints: as ``_take_vector`` keeps them.

    After the type pass the rows are converted in place in a shallow copy
    of the outer list, and the outer list is dropped first, so a row that
    nothing else holds dies once its tuple exists, on either path; a
    caller's list is never changed.  Where a conversion fails, the copy
    holds the converted rows, then the raw ones from the failing row on,
    and a converted row holds the same values as its tokens, so
    ``_scalars_in`` over the copy names the first bad element in
    row-major order, as over the raw rows."""
    obj = doc.pop(key)
    if types is None:
        raise ProblemFormatError(f"{key}: expected an array of row arrays")
    integers, failed = types == _INTEGERS, not types <= _NUMBER_TYPES
    rows = obj[:]
    del obj
    kept = exact
    if kept:
        try:
            for i, row in enumerate(rows):
                rows[i] = row = tuple(row)
                kept = kept and math.hypot(*row) < _EXACT
        except OverflowError:
            failed = True
    if not (failed or kept):
        try:
            for i, row in enumerate(rows):
                rows[i] = tuple(map(float, row))
        except OverflowError:
            failed = True
    if failed or not (integers or _isfinite(sum(map(sum, rows)))):
        for i, row in enumerate(rows):
            rows[i] = _scalars_in(row, f"{key}[{i}]")
        integers = kept = False
    rows = tuple(rows)
    _require_rectangular(rows)
    return rows, integers, kept


def _vector_in(obj, where: str) -> tuple[float, ...]:
    """The floats of ``_take_vector``, taken out of a document of their own."""
    return _take_vector({where: obj}, where, _types(obj, False))[0]


def _matrix_in(obj, where: str) -> tuple[tuple[float, ...], ...]:
    """The float rows of ``_take_matrix``, taken out of a document of their own."""
    return _take_matrix({where: obj}, where, _types(obj, True))[0]


def _floats(field):
    """A field that a reader kept as ints, as floats: a vector or the rows of ``A``."""
    if type(field[0]) is tuple:
        return tuple([tuple(map(float, row)) for row in field])
    return tuple(map(float, field))


def _integers_out(values: tuple[float, ...]) -> list:
    """The ints of integral, finite ``values``: one ``math.trunc`` pass,
    the same ints as ``int`` in half the time."""
    return list(map(math.trunc, values))


def _scalars_out(values: tuple) -> list:
    """``_scalar_out`` of each element: ``_integers_out`` when an
    integrality pass finds all of them integral floats."""
    try:
        if all(map(float.is_integer, values)):
            return _integers_out(values)
    except TypeError:  # an int, which float.is_integer refuses
        pass
    return [_scalar_out(e) for e in values]


def _vectors_out(integers: bool, mu):
    """The writer of the vectors that the solvers return with optimum
    ``mu``: ``list`` for an int ``mu``; ``_integers_out``, with no
    integrality pass, where the file held JSON integers alone
    (``integers``, from ``parse_problem``) and ``mu`` is integral; else
    ``_scalars_out``.

    The closed forms use only max, min, +, - and halving.  Every returned
    coordinate is an input coordinate, a max or min of such, or one
    rounded sum or difference of integral floats (``p_i - mu``, ``q_i +
    mu``, ``a_kl - q_k``, ``mu - r_l``, ``p_k - a_kl``).  A rounded sum of
    two integral floats is integral: it is exact below 2^53, and every
    float of magnitude 2^52 or more is an integer.  So on such a file
    every coordinate is integral, and ``_scalars_out``'s pass would find
    just that.  The solvers return no ``+-inf`` coordinate, so ``trunc``
    cannot raise.  An int ``mu`` comes from an exact file's ints, and so
    does every coordinate (the readers' lemma).
    """
    if type(mu) is int:
        return list
    return _integers_out if integers and mu.is_integer() else _scalars_out


_KINDS = {
    spec.name: spec
    for spec in (
        _kind("two_sided", TwoSidedProblem, two_sided_data),
        _kind("matrix_lower", MatrixLowerProblem, matrix_data),
        _kind("locate", LocationProblem, location_data),
        _kind("approximate", ApproximationProblem, approximation_data),
        _kind("best_under", BestUnderProblem, best_under_data),
    )
}


def parse_problem(doc) -> tuple:
    """Read a decoded JSON document into ``(kind, data, name, integers)``:
    the entry of ``_KINDS``, the checked data of its core problem, the
    ``name``, and whether every numeric field holds JSON integers alone
    (a ``"-inf"`` or a float literal in any of them makes it False).  The
    schema is checked first, then the scalars, then the problem.  ``doc``
    is left as it is: ``_take_problem`` reads a shallow copy of it."""
    return _take_problem({**doc} if isinstance(doc, dict) else doc)


def _take_problem(doc) -> tuple:
    """``parse_problem`` of a document that the caller gives up: each
    field is taken out of ``doc`` as it is read, so that the command path,
    which owns the document it decodes, frees each array once converted."""
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem file must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ProblemFormatError(f"unknown problem kind {kind!r}")
    spec = _KINDS[kind]
    # two membership passes, which build no set unless a key is at fault
    if not spec.allowed.issuperset(doc):
        raise ProblemFormatError(f"unexpected fields for kind {kind}: {sorted(doc.keys() - spec.allowed)}")
    if not doc.keys() >= spec.required:
        raise ProblemFormatError(f"missing fields for kind {kind}: {sorted(spec.required - doc.keys())}")

    # the type passes first: only a file of JSON integers alone may keep its
    # ints, and once an array is not exact, those kept before it convert
    types = [_types(doc[key], take is _take_matrix) if key in doc else _INTEGERS for key, take in spec.readers]
    parsed, exact = [], types.count(_INTEGERS) == len(types)
    for (key, take), kinds in zip(spec.readers, types):
        parsed.append(take(doc, key, kinds, exact) if key in doc else (None, True, exact))
        exact = parsed[-1][2]
    fields, integers, kept = zip(*parsed)
    if not exact:
        fields = [_floats(f) if k and f is not None else f for f, k in zip(fields, kept)]
    data = spec.data(*fields)
    for label in ("name", "description"):
        if doc.get(label) is not None and not isinstance(doc[label], str):
            raise ProblemFormatError(f"{label} must be a string")
    return spec, data, doc.get("name"), all(integers)


class LoadedProblem(Record):
    """A problem file on the library's front, as ``load_problem`` reads it."""

    __slots__ = ("kind", "problem", "name")

    def __init__(self, kind: str, problem: object, name: str | None = None) -> None:
        self._init(kind, problem, name)


def load_problem(doc) -> LoadedProblem:
    """``doc`` checked by ``parse_problem``, then built with its kind's class."""
    spec, _, name, _ = parse_problem(doc)
    fields = {key: TropMatrix(_matrix_in(value, key)) if key == "A" else TropVector(_vector_in(value, key))
              for key, value in doc.items() if key in spec.cls._fields}
    return LoadedProblem(spec.name, spec.cls(**fields), name)


def solve_loaded(lp: tuple):
    """The core's answer to a parsed problem: an ``Interval`` or a ``Point``."""
    spec, data, _, _ = lp
    return spec.rule.solve(data)


def solution_to_dict(lp: tuple, sol) -> dict:
    spec, _, name, integers = lp
    out: dict = {"kind": spec.name}
    if name is not None:
        out["name"] = name
    out["mu"] = _scalar_out(sol.mu)
    out["delta"] = delta = _scalar_out(sol.delta)
    vector_out = _vectors_out(integers, sol.mu)
    if type(sol) is Interval:
        out["solution"] = {"lower": vector_out(sol.lower), "upper": vector_out(sol.upper)}
    else:
        out["solution"] = {"x": vector_out(sol.x)}
    diagnostics = {"delta_term": delta}
    if sol.g_term is not None:
        diagnostics["g_term"] = _scalar_out(sol.g_term)
    if sol.h_term is not None:
        diagnostics["h_term"] = _scalar_out(sol.h_term)
    out["diagnostics"] = diagnostics
    return out


def verify_loaded(lp: tuple, sol, *, step=None, samples=None):
    """Prove ``sol`` optimal; returns the ``certificate.Report``.  The
    benchmark in ``perfbench/`` still passes the unused ``step``/``samples``."""
    spec, data, _, _ = lp
    return spec.rule.check(data, sol)


def report_to_dict(lp: tuple, sol, report) -> dict:
    term, index = report.binding
    return {
        "kind": lp[0].name,
        "mu": _scalar_out(sol.mu),
        "min_value": _scalar_out(report.min_value),
        "argmin": _vectors_out(lp[3], sol.mu)(report.argmin),
        "points_evaluated": report.points_evaluated,
        "agrees_with_solver": report.agrees_with_solver,
        "max_discrepancy": report.max_discrepancy,
        "binding": {"term": term, "index": index},
    }


def _reject_constant(token: str) -> float:
    raise ProblemFormatError(f"non-numeric scalar token {token!r} is not accepted")


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its members, none of whose keys may repeat."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ProblemFormatError(f"duplicate key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return obj


def _read_json(path: str):
    if path == "-":
        if sys.stdin is None:  # the process started with fd 0 closed
            raise OSError("stdin is closed")
        # read as a path is read: strict UTF-8, universal newlines
        sys.stdin.reconfigure(encoding="utf-8", errors="strict", newline=None)
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)


def _io_failure(reason: str, message: str, exc: Exception) -> int:
    """Print the JSON error of an exit 1 on stderr, one line; returns 1."""
    error = {"reason": reason, "message": f"{message}: {exc}"}
    if isinstance(exc, json.JSONDecodeError):
        error["location"] = f"{exc.lineno}:{exc.colno}"
    print(json.dumps({"error": error}), file=sys.stderr)
    return 1


def _write(path: str, text: str) -> int:
    """Write ``text`` to ``path``, or to stdout for "-", and flush it, so
    that a closed pipe is an exit 1 like any other unwritable output;
    returns 0, or 1 with a JSON ``unwritable_output`` error on stderr."""
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
            payload["counterexample"] = _scalars_out(exc.counterexample.elements)
    return payload


def _solve(lp: tuple, args: Command) -> dict:
    return solution_to_dict(lp, solve_loaded(lp))


def _eval(lp: tuple, args: Command) -> dict:
    try:
        point_doc = json.loads(args.point, parse_constant=_reject_constant)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ProblemFormatError(f"--point is not valid JSON: {exc}") from exc
    x = _vector_in(point_doc, "--point")
    spec, data, _, _ = lp
    value = _scalar_out(spec.rule.objective(data, x))
    return {"kind": spec.name, "value": value, "feasible": spec.rule.feasible(data, x)}


def _verify(lp: tuple, args: Command) -> dict:
    sol = solve_loaded(lp)
    return report_to_dict(lp, sol, verify_loaded(lp, sol))


def run_command(args: Command) -> int:
    """Read the problem, run the subcommand, write its result or error."""
    try:
        try:
            doc = _read_json(args.input)
        except (OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
            return _io_failure("unreadable_input", "cannot read problem", exc)
        # the parse takes each array out of the decoded document as it
        # reads it, and each row of A once the row's floats exist, so each
        # array is freed once converted; neither the document nor the
        # problem is kept past its use, so that the solve and the encoding
        # of the output reuse their memory
        lp = _take_problem(doc)
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
    return Command((runner, paths[0], paths[1] if len(paths) > 1 else "-", pretty, point))


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
    """The process entry point: ``main``, then ``os._exit``, skipping the
    interpreter's teardown once the output is flushed.  An exception that
    escapes ``main`` ends the process the usual way, with its traceback."""
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
