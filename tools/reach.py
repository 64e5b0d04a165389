"""Lists the statements of ``src/deltasvp`` that a pytest run never executes.

Usage, from the root of the repository::

    python tools/reach.py                      # the tier-1 suite
    python tools/reach.py tests/test_linalg.py -x

The arguments go to pytest unchanged (the default is ``-q
--continue-on-collection-errors``).  The package is imported from this
checkout's ``src/``.  While the session runs, ``sys.settrace`` records every
line event in a frame whose code comes from the package; frames of any
other file are not traced.  Afterwards the script prints one line
``path:line: statement`` for each statement none of whose lines ran, then a
count, and exits with pytest's exit code.

A statement counts as executable when the compiler gave one of its lines
bytecode; docstrings and ``global``/``nonlocal`` declarations do not count.
A simple statement spans all its lines, a compound one (``if``, ``for``,
``def`` with its decorators, ...) only its header up to its first body
statement, and it ran when any line of its span did.  Code run in a
subprocess is not seen, so ``__main__.py`` is listed.  Tracing makes the
suite about three times slower (Python 3.11: 135 to 149 s against 51 s
untraced).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_ARGS = ["-q", "--continue-on-collection-errors"]


def _code_lines(code) -> set[int]:
    """The lines that carry bytecode in code and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(source: str, path: str) -> list[tuple[int, range]]:
    """(line, lines that count for it) of each executable statement."""
    tree = ast.parse(source, path)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    docstrings.add(first)
    carried = _code_lines(compile(source, path, "exec"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docstrings:
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        span = range(start, end + 1)
        if carried.intersection(span):
            found.append((node.lineno, span))
    return sorted(found)


class Reach:
    """A pytest plugin that records the lines run in the given files."""

    def __init__(self, files: list[Path]) -> None:
        self.hits: dict[str, set[int]] = {str(path): set() for path in files}

    def _trace(self, frame, event, arg):
        hits = self.hits.get(frame.f_code.co_filename)
        if hits is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        return local

    def pytest_sessionstart(self, session) -> None:
        sys.settrace(self._trace)

    def pytest_sessionfinish(self, session, exitstatus) -> None:
        sys.settrace(None)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    files = sorted((SRC / "deltasvp").glob("*.py"))
    reach = Reach(files)
    code = pytest.main(argv or DEFAULT_ARGS, plugins=[reach])
    missed = total = 0
    for path in files:
        source = path.read_text()
        lines = source.splitlines()
        hits = reach.hits[str(path)]
        for line, span in statements(source, str(path)):
            total += 1
            if not hits.intersection(span):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
    print(f"{missed} of {total} statements of src/deltasvp never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
