"""README's "Library quickstart" runs, and each line that its python block
prints is the ``#`` comment on the ``print`` line that prints it.

Run as a script, ``python tests/test_readme.py`` checks the block with
the ``tropopt`` that this interpreter imports, and needs neither pytest
nor numpy: CI runs it in a venv that holds only the installed package.
"""

import contextlib
import io
import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart() -> str:
    """The python block under the "Library quickstart" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library quickstart\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def commented(source: str) -> list[str]:
    """The ``#`` comment of each ``print`` line, in order."""
    return [line.split("#", 1)[1].strip() for line in source.splitlines() if line.startswith("print(")]


def printed(source: str) -> list[str]:
    """The lines that ``source`` prints when run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "<README.md quickstart>", "exec"), {"__name__": "__readme__"})
    return out.getvalue().splitlines()


def test_quickstart_prints_its_comments():
    source = quickstart()
    assert len(commented(source)) == 5
    assert printed(source) == commented(source)


if __name__ == "__main__":
    source = quickstart()
    got, want = printed(source), commented(source)
    sys.exit(0 if got == want else f"README quickstart printed {got}, not {want}")
