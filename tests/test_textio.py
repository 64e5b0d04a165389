import sys

import pytest

from deltasvp.linalg import IntMatrix
from deltasvp.textio import (
    ParseError,
    format_matrix,
    format_polyhedron,
    parse_matrix,
    parse_polyhedron,
    parse_standard_form,
)

M = IntMatrix.from_rows


def test_round_trip():
    m = M([[1, -2, 3], [-40, 5, 600]])
    assert parse_matrix(format_matrix(m)) == m


def test_format_is_exact():
    assert format_matrix(M([[2]])) == "1 1\n2\n"
    assert format_matrix(M([[-1, -3], [1, 0], [2, 3]])) == "3 2\n-1 -3\n1 0\n2 3\n"


def test_comments_and_blank_lines_ignored():
    text = "# generated instance\n\n2 2\n# rows follow\n1 0\n0 1\n\n"
    assert parse_matrix(text) == IntMatrix.identity(2)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\n1 2\n3 4\n",
        "2 2\n1 2\n",
        "2 2\n1 2\n3 4\n5 6\n",
        "2 2\n1 x\n3 4\n",
        "0 2\n",
        "2 2\n1 2 3\n4 5 6\n",
    ],
)
def test_malformed_rejected(text):
    with pytest.raises(ParseError):
        parse_matrix(text)


# spellings int() accepts that the format does not: an underscore, a
# fullwidth digit, an Arabic-Indic digit
NON_DECIMAL = ["1_0", "\uff13", "\u0663"]


@pytest.mark.parametrize("token", NON_DECIMAL, ids=["underscore", "fullwidth", "arabic_indic"])
def test_non_decimal_entry_rejected(token):
    with pytest.raises(ParseError, match="row 1"):
        parse_matrix(f"2 2\n1 0\n0 {token}\n")


@pytest.mark.parametrize("token", NON_DECIMAL, ids=["underscore", "fullwidth", "arabic_indic"])
def test_non_decimal_header_b_and_c_rejected(token):
    with pytest.raises(ParseError, match="header"):
        parse_matrix(f"{token} 1\n" + "1\n" * 10)
    with pytest.raises(ParseError, match="b:"):
        parse_polyhedron(f"1 1\n1\nb: {token}\n")
    with pytest.raises(ParseError, match="c:"):
        parse_standard_form(f"1 1\n1\nb: 1\nc: {token}\n")


@pytest.mark.parametrize(
    "token",
    [*NON_DECIMAL, "+", "--1", "1e5", "9" * 299 + "x"],
    ids=["underscore", "fullwidth", "arabic_indic", "sign_only", "two_signs", "exponent", "long"],
)
def test_bad_token_message_names_the_whole_token(token):
    """int() rejects the ASCII ones itself, and cuts a token past 200
    characters short in its message; the error names every token whole."""
    with pytest.raises(ParseError) as info:
        parse_matrix(f"2 2\n1 0\n0 {token}\n")
    assert str(info.value) == f"row 1: invalid literal for int() with base 10: {token!r}"
    with pytest.raises(ParseError) as info:
        parse_polyhedron(f"1 1\n1\nb: {token}\n")
    assert str(info.value) == f"b: invalid literal for int() with base 10: {token!r}"


def test_digit_limit_is_a_parse_error():
    """Under the interpreter's int/str digit limit, a token in the format
    that is too long for int() gives int()'s own error as a ParseError."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ParseError, match=r"^row 0: Exceeds the limit \(4300 digits\)"):
            parse_matrix("1 2\n1 " + "9" * 5000 + "\n")
    finally:
        sys.set_int_max_str_digits(saved)


def test_signs_and_any_whitespace_accepted():
    assert parse_matrix("2  2\n+1\t-0\n-3 \t +4\n") == M([[1, 0], [-3, 4]])


def test_polyhedron_round_trip():
    a = M([[1, 1, 0], [-1, 0, 2]])
    b = (2, 1)
    text = format_polyhedron(a, b)
    assert parse_polyhedron(text) == (a, b)


def test_polyhedron_requires_b():
    with pytest.raises(ParseError):
        parse_polyhedron("1 1\n2\n")


def test_standard_form_optional_objective():
    a = M([[1, 1]])
    assert parse_standard_form("1 2\n1 1\nb: 2\nc: 1 0\n") == (a, (2,), (1, 0))
    assert parse_standard_form("1 2\n1 1\nb: 2\n") == (a, (2,), None)


def test_standard_form_rejects_trailing():
    with pytest.raises(ParseError):
        parse_standard_form("1 1\n2\nb: 2\nc: 1\nextra\n")


def test_polyhedron_rejects_trailing():
    with pytest.raises(ParseError, match=r"^trailing content after b: 'extra'$"):
        parse_polyhedron("1 1\n2\nb: 2\nextra\n")


@pytest.mark.parametrize("text", ["1 1\n2\n", "1 1\n2\nc: 1\n"], ids=["missing", "c_first"])
def test_standard_form_requires_b(text):
    with pytest.raises(ParseError, match=r"^expected a 'b:' line after the matrix block$"):
        parse_standard_form(text)
