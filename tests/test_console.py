"""The console contract.  Each check runs fresh ``python -m tropopt``
children on every problem fixture, under each of ``solve``,
``solve INPUT OUTPUT``, ``verify`` and ``eval --point "[0, 0, 0]"``:

(a) the exit code is 0 with no ``"error"`` in the result, or 2 with
    one, and stderr is empty;
(b) the fixture read from a real stdin (INPUT ``-``) gives the exit
    code, stdout, stderr and OUTPUT that its path gives; so does a UTF-8
    file under a latin-1 stdin encoding, a file that is not UTF-8 and a
    file with CRLF line ends, each under ``solve``;
(c) the installed console script gives the bytes and exit code that
    ``python -m tropopt`` gives.

Run as a script, ``PYTHONPATH=src python tests/test_console.py`` needs
neither pytest nor numpy, and fails where no console script sits next to
the interpreter: CI runs it in a venv that holds only the installed
package.  Under pytest, check (c) is skipped where no script is
installed.  ``tests/test_cli.py`` runs its children through
``_run_command_line`` too.
"""

import functools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import tropopt

FIXTURES = Path(__file__).resolve().parent / "fixtures"
MODULE = (sys.executable, "-m", "tropopt")
SCRIPT = Path(sys.executable).with_name("tropopt")

# the arguments after INPUT; OUTPUT stands for a file in the child's directory
OUTPUT = "OUTPUT"
COMMANDS = {
    "solve": ("solve",),
    "solve OUTPUT": ("solve", OUTPUT),
    "verify": ("verify",),
    "eval": ("eval", "--point", "[0, 0, 0]"),
}
CASES = [(path.name, command) for path in sorted(FIXTURES.glob("*.json")) for command in COMMANDS]

# inputs that a stdin read must decode as a path read does: UTF-8 under
# another stdin encoding, bytes that are not UTF-8, and CRLF line ends
# around a syntax error, whose position counts the translated newlines
TWO_SIDED = {"kind": "two_sided", "name": "café", "p": [1, 3, 1], "q": [-3, 1, -2]}
ENCODINGS = {
    "latin-1 stdin": (json.dumps(TWO_SIDED, ensure_ascii=False).encode(), {"PYTHONIOENCODING": "latin-1"}),
    "not UTF-8": (b"\xff\xfe", {}),
    "CRLF": (b'{"kind": "two_sided",\r\n "p": [1,],\r\n "q": [0]}', {}),
}


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout,
    with stdout buffered as in a plain run, so that a missing flush shows."""
    env = {**os.environ, "PYTHONPATH": str(Path(tropopt.__file__).resolve().parent.parent)}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _run_command_line(*argv: str, program=MODULE, **kwargs) -> subprocess.CompletedProcess:
    """Run ``program`` with ``argv`` in a fresh interpreter, by default
    ``python -m tropopt``, which calls the console script's ``cli.run``.
    ``kwargs`` go to ``subprocess.run``: stdout and stderr are captured as
    text unless they say otherwise."""
    options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True, "timeout": 60}
    return subprocess.run([*program, *argv], **{"env": _fresh_env(), **options, **kwargs})


def _outcome(program, path: Path, args, stdin=False, env=None) -> tuple:
    """Exit code, stdout, stderr and OUTPUT file (``None`` where none was
    written), all bytes, of ``program`` on the input ``path``, read by its
    name or, with ``stdin``, as ``-`` from the file on stdin; ``env`` adds
    to the child's environment."""
    with tempfile.TemporaryDirectory() as tmp, open(path if stdin else os.devnull, "rb") as fh:
        output = Path(tmp, "solution.json")
        argv = [args[0], "-" if stdin else str(path), *(str(output) if a == OUTPUT else a for a in args[1:])]
        env = {**_fresh_env(), **(env or {})}
        proc = _run_command_line(*argv, program=program, stdin=fh, text=False, env=env)
        return proc.returncode, proc.stdout, proc.stderr, output.read_bytes() if output.exists() else None


@functools.cache
def _module(fixture: str, command: str) -> tuple:
    """``python -m tropopt``'s outcome on a fixture by its path, which all three checks read."""
    return _outcome(MODULE, FIXTURES / fixture, COMMANDS[command])


def _report(failures: list[str]) -> str:
    return f"{len(failures)} failed:\n" + "\n".join(failures)


def exit_code_failures() -> list[str]:
    """Check (a) on every fixture and command."""
    failures = []
    for fixture, command in CASES:
        code, stdout, stderr, output = _module(fixture, command)
        result = stdout if output is None else output
        try:
            has_error = "error" in json.loads(result)
        except ValueError:
            has_error = None
        if (code, has_error) not in ((0, False), (2, True)) or stderr:
            failures.append(f"{command} {fixture}: exit {code}, result {result!r}, stderr {stderr!r}")
    return failures


def stdin_failures() -> list[str]:
    """Check (b) on every fixture and command, and on ``ENCODINGS`` under ``solve``."""
    failures = [
        f"{command} - < {fixture}: {got} against {want} by path"
        for fixture, command in CASES
        if (got := _outcome(MODULE, FIXTURES / fixture, COMMANDS[command], stdin=True))
        != (want := _module(fixture, command))
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for name, (data, env) in ENCODINGS.items():
            path = Path(tmp, "problem.json")
            path.write_bytes(data)
            by_path = _outcome(MODULE, path, ("solve",), env=env)
            by_stdin = _outcome(MODULE, path, ("solve",), stdin=True, env=env)
            if by_stdin != by_path:
                failures.append(f"solve - < {name}: {by_stdin} against {by_path} by path")
    return failures


def script_failures() -> list[str]:
    """Check (c) on every fixture and command."""
    return [
        f"{command} {fixture} by {SCRIPT}: {got} against {want} by python -m tropopt"
        for fixture, command in CASES
        if (got := _outcome((str(SCRIPT),), FIXTURES / fixture, COMMANDS[command]))
        != (want := _module(fixture, command))
    ]


def test_every_command_exits_0_or_2_silently():
    failures = exit_code_failures()
    assert not failures, _report(failures)


def test_stdin_reads_as_the_path_reads():
    failures = stdin_failures()
    assert not failures, _report(failures)


def test_console_script_prints_what_the_module_prints():
    if not SCRIPT.exists():
        import pytest

        pytest.skip(f"no console script at {SCRIPT}; `pip install .` puts one there")
    failures = script_failures()
    assert not failures, _report(failures)


if __name__ == "__main__":
    failures = exit_code_failures() + stdin_failures()
    failures += script_failures() if SCRIPT.exists() else [f"no console script at {SCRIPT}: check (c) cannot run"]
    print(f"{len(CASES)} fixture commands, {len(ENCODINGS)} encodings: {len(failures)} failed")
    sys.exit(_report(failures) if failures else 0)
