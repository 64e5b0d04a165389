"""Malformed and extreme matrix files at the CLI's front door.

Each example writes generated bytes to a file and runs one subcommand on
it through ``main``.  Whatever the bytes, no exception leaves ``main`` and
the exit code is a documented one; bytes that the subcommand's parser
refuses end in exit 1 with one ``error:`` line on stderr and nothing on
stdout.  The text mixes well-formed rows (entries up to 10^30) with wrong
headers and counts, tokens that ``int()`` would take or that look like
numbers, comment and blank lines, characters that ``str.split`` and
``str.splitlines`` treat as separators, a byte-order mark, stray ``b:`` and
``c:`` lines, and bytes that are not UTF-8.

A second sweep gives every integer option but ``--budget`` values up to
10^30 in size, of either sign, on fixed small inputs.  Each run must end
in a documented exit within a per-example deadline, with no traceback and
at most one ``error:`` line: a value beyond a command's reach meets a
budget or a domain check instead of running.
"""

from __future__ import annotations

import contextlib
import io
from datetime import timedelta
from pathlib import Path
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

from deltasvp import generators, sweeps, textio
from deltasvp.cli import main
from deltasvp.linalg import IntMatrix

COMMANDS = [
    (["svp", "solve", "--delta", "2"], textio.parse_matrix),
    (["svp", "atleast2"], textio.parse_matrix),
    (["svp", "oracle", "--budget", "5000"], textio.parse_matrix),
    (["check", "delta", "--delta", "2", "--total", "--budget", "5000"], textio.parse_matrix),
    (["verify", "facedim", "--delta", "2", "--budget", "3000"], textio.parse_polyhedron),
    (["verify", "support", "--delta", "2"], textio.parse_standard_form),
    (["verify", "support", "--delta", "2", "--box", "1"], textio.parse_standard_form),
    (["matrix", "det"], textio.parse_matrix),
    (["matrix", "rank"], textio.parse_matrix),
    (["matrix", "hnf"], textio.parse_matrix),
]
BAD_TOKENS = ["1_0", "٣", "+", "--1", "0x1"]
NOISE_LINES = ["# comment", "", "b: 1", "c: 0 1", "\x0b", "\x1c", "b:", "c:"]
NOT_UTF8 = [b"\xff", b"\xc3", b"\xe9", b"\x80"]

INTS = st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30)).map(str)


@st.composite
def cases(draw) -> tuple[list[str], object, bytes]:
    """A subcommand, its input parser and the bytes of an input file: a
    matrix block with the ``b:`` and ``c:`` lines the parser expects, then
    faults, noise lines and damage to the encoding, each drawn."""
    argv, parse = draw(st.sampled_from(COMMANDS))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    header = [str(m), str(n)]
    lines = [header] + [draw(st.lists(INTS, min_size=n, max_size=n)) for _ in range(m)]
    if parse is not textio.parse_matrix:
        lines.append(["b:", *draw(st.lists(INTS, min_size=m, max_size=m))])
        if parse is textio.parse_standard_form and draw(st.booleans()):
            lines.append(["c:", *draw(st.lists(INTS, min_size=n, max_size=n))])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        line = draw(st.sampled_from(lines))
        fault = draw(st.sampled_from(["token", "drop", "extra", "header"]))
        if fault == "token" and line:
            line[draw(st.integers(0, len(line) - 1))] = draw(st.sampled_from(BAD_TOKENS))
        elif fault == "drop" and line:
            line.pop()
        elif fault == "extra":
            line.append(draw(INTS))
        elif fault == "header" and header:
            header[draw(st.integers(0, len(header) - 1))] = str(draw(st.integers(-1, 5)))
    sep = draw(st.sampled_from([" ", " ", "  ", "\t", "\x0b", "\x1c"]))
    text = [" ".join(header)] + [sep.join(line) for line in lines[1:]]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        text.insert(draw(st.integers(0, len(text))), draw(st.sampled_from(NOISE_LINES)))
    data = ("\n".join(text) + draw(st.sampled_from(["\n", "", "\r\n"]))).encode()
    damage = draw(st.sampled_from([None, None, None, "bom", "byte"]))
    if damage == "bom":
        data = b"\xef\xbb\xbf" + data
    elif damage == "byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    return argv, parse, data


def _parsed_matrix(path: Path, parse) -> IntMatrix | None:
    """The matrix the subcommand's parser reads from the file, or None if
    the parser refuses the file."""
    try:
        parsed = parse(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, textio.ParseError):
        return None
    return parsed if isinstance(parsed, IntMatrix) else parsed[0]


@settings(max_examples=250)
@given(case=cases())
def test_any_file_ends_in_a_documented_exit(tmp_path_factory, case):
    argv, parse, data = case
    path = tmp_path_factory.getbasetemp() / "fuzz-input.txt"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, str(path)])
    assert code in {0, 1, 2, 3, 4}
    matrix = _parsed_matrix(path, parse)
    event(f"exit {code}, {'refused' if matrix is None else 'parsed'}")
    if matrix is None:
        assert code == 1
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        # textio hands its rows over unchecked; the checked constructor must
        # accept them as they are
        assert IntMatrix(matrix.entries) == matrix


FIXTURES = Path(__file__).resolve().parent / "fixtures"
#: (subcommand with its fixed flags, its integer options, input file or None);
#: --budget stays at a small fixed value wherever the subcommand has one
INTEGER_OPTIONS = [
    (["svp", "solve"], ["--delta"], "lower_bound_4.txt"),
    (["svp", "oracle", "--budget", "5000"], ["--bound"], "lower_bound_4.txt"),
    (["check", "delta", "--total", "--budget", "5000"], ["--delta"], "lower_bound_4.txt"),
    (["check", "detratio"], ["--trials", "--seed"], None),
    (["check", "kernel"], ["--trials", "--seed"], None),
    (["gen", "lower-bound"], ["--delta"], None),
    (["gen", "sparsity"], ["--delta"], None),
    (["gen", "random"], ["--delta", "--rows", "--cols", "--seed"], None),
    (["verify", "facedim", "--budget", "3000"], ["--delta"], "facedim_box.txt"),
    (["verify", "support", "--budget", "5000"], ["--delta", "--box"], "sparsity_2.txt"),
    (["verify", "support", "--budget", "5000"], ["--delta", "--box"], "ilp_five_optima.txt"),
    (["verify", "sparsity", "--budget", "5000"], ["--delta"], None),
]
#: small values, any value up to 10^30 in size, and 10^k +- 2 with k drawn
#: uniformly in 0..30, so that every order of magnitude comes up
HUGE = st.one_of(
    st.integers(-3, 3),
    st.integers(-(10**30), 10**30),
    st.builds(lambda k, d, sign: sign * (10**k + d), st.integers(0, 30), st.integers(-2, 2),
              st.sampled_from([1, -1])),
)


@st.composite
def option_runs(draw) -> list[str]:
    """One subcommand with a drawn value for each of its integer options
    (--box, the only optional one, is sometimes left out)."""
    command, options, source = draw(st.sampled_from(INTEGER_OPTIONS))
    argv = list(command)
    for flag in options:
        if flag != "--box" or draw(st.booleans()):
            argv += [flag, str(draw(HUGE))]
    return argv + ([] if source is None else [str(FIXTURES / source)])


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(argv=option_runs())
def test_any_integer_option_meets_a_budget(argv):
    """The fixed caps of the sweeps and the generators are lowered so that
    every run they let through is short; values above them, up to 10^30,
    are refused as they are at the shipped caps."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(sweeps, "MAX_TRIALS", 50))
        stack.enter_context(mock.patch.object(generators, "MAX_CONSTRUCTION_WORK", 5000))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = main(argv)
    event(f"{argv[0]} {argv[1]}: exit {code}")
    assert code in {0, 1, 2, 3, 4}
    assert "Traceback" not in err.getvalue()
    assert sum("error: " in line for line in err.getvalue().splitlines()) <= 1
    if code in {2, 3}:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
