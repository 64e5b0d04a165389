"""Plain-text serialization shared by the CLI and the test goldens.

Matrix format: a header line ``m n``, then m lines of n integers separated
by whitespace.  Lines starting with ``#`` and blank lines are ignored.  The
extended form appends a line ``b: v_1 ... v_m`` and optionally
``c: v_1 ... v_n`` for polyhedra and standard-form programs.  Every number,
in the header, the rows, ``b:`` and ``c:`` alike, is a decimal integer in
ASCII digits with an optional sign, ``[+-]?[0-9]+``; the underscores and
non-ASCII digits that ``int()`` would also take are a ParseError.
"""

from __future__ import annotations

import re

from .linalg import IntMatrix


class ParseError(ValueError):
    """Malformed matrix text."""


_TOKEN = re.compile(r"[+-]?[0-9]+")


def _ints(tokens: list[str]) -> tuple[int, ...]:
    """The integers the tokens spell in the format, else ValueError naming
    the first token that is not [+-]?[0-9]+.

    On ASCII tokens without an underscore, int() accepts exactly the
    format: split() leaves no whitespace for it to strip, and it takes no
    base prefix or exponent.  So a line of such tokens goes straight to
    int(), which rejects it only for a token outside the format or, when
    every token is in it, for the interpreter's int/str digit limit, whose
    error is passed on.  A line with a non-ASCII character or an underscore
    has a token outside the format too.  The first bad token is named in
    full (int() cuts a long one short in its own message)."""
    line = " ".join(tokens)
    if line.isascii() and "_" not in line:
        try:
            return tuple(map(int, tokens))
        except ValueError:
            if all(map(_TOKEN.fullmatch, tokens)):
                raise
    bad = next(t for t in tokens if not _TOKEN.fullmatch(t))
    # the message int() gives for the tokens it rejects itself
    raise ValueError(f"invalid literal for int() with base 10: {bad!r}")


def _payload_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines.append(line)
    return lines


def _parse_ints(line: str, expected: int, what: str) -> tuple[int, ...]:
    parts = line.split()
    if len(parts) != expected:
        raise ParseError(f"{what}: expected {expected} values, got {len(parts)}")
    try:
        return _ints(parts)
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}") from None


def parse_matrix(text: str) -> IntMatrix:
    lines = _payload_lines(text)
    matrix, rest = _parse_matrix_block(lines)
    if rest:
        raise ParseError(f"trailing content after matrix: {rest[0]!r}")
    return matrix


def _parse_matrix_block(lines: list[str]) -> tuple[IntMatrix, list[str]]:
    if not lines:
        raise ParseError("empty input")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"header must be 'm n', got {lines[0]!r}")
    try:
        m, n = _ints(header)
    except ValueError:
        raise ParseError(f"header must be 'm n', got {lines[0]!r}") from None
    if m < 1 or n < 1:
        raise ParseError("matrix dimensions must be positive")
    if len(lines) < 1 + m:
        raise ParseError(f"expected {m} matrix rows, found {len(lines) - 1}")
    # m >= 1 rows of exactly n >= 1 ints each, checked above: taken as is
    rows = tuple(_parse_ints(lines[1 + i], n, f"row {i}") for i in range(m))
    return IntMatrix._trusted(rows), lines[1 + m :]


def format_matrix(matrix: IntMatrix) -> str:
    lines = [f"{matrix.rows} {matrix.cols}"]
    lines.extend(" ".join(str(x) for x in row) for row in matrix.entries)
    return "\n".join(lines) + "\n"


def _parse_with_b(text: str) -> tuple[IntMatrix, tuple[int, ...], list[str]]:
    """A matrix block, its ``b:`` line, and the payload lines after them."""
    matrix, rest = _parse_matrix_block(_payload_lines(text))
    if not rest or not rest[0].startswith("b:"):
        raise ParseError("expected a 'b:' line after the matrix block")
    return matrix, _parse_ints(rest[0][2:], matrix.rows, "b"), rest[1:]


def parse_polyhedron(text: str) -> tuple[IntMatrix, tuple[int, ...]]:
    """Parses a matrix block followed by a ``b:`` line."""
    matrix, b, rest = _parse_with_b(text)
    if rest:
        raise ParseError(f"trailing content after b: {rest[0]!r}")
    return matrix, b


def parse_standard_form(
    text: str,
) -> tuple[IntMatrix, tuple[int, ...], tuple[int, ...] | None]:
    """Parses a matrix block, a ``b:`` line, and an optional ``c:`` line."""
    matrix, b, rest = _parse_with_b(text)
    c: tuple[int, ...] | None = None
    if rest and rest[0].startswith("c:"):
        c = _parse_ints(rest[0][2:], matrix.cols, "c")
        rest = rest[1:]
    if rest:
        raise ParseError(f"trailing content: {rest[0]!r}")
    return matrix, b, c


def format_polyhedron(matrix: IntMatrix, b: tuple[int, ...]) -> str:
    return format_matrix(matrix) + "b: " + " ".join(str(x) for x in b) + "\n"
