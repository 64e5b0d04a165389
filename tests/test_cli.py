import json
import os
import random
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import pytest

from deltasvp import polyhedra, sweeps
from deltasvp.cli import build_parser, main
from deltasvp.generators import lower_bound_instance, random_delta_modular
from deltasvp.linalg import IntMatrix
from deltasvp.textio import format_polyhedron, parse_matrix
from deltasvp.threshold import PATH_ENTRY, solve_threshold_trace

from oracles import layered_least_minimizer, unimodular_scramble
from test_solve_traces import _unit_first_walk

FIXTURES = Path(__file__).resolve().parent / "fixtures"
WORKED_TEXT = "3 2\n1 0\n1 2\n2 2\n"


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.txt"
    path.write_text(WORKED_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_lower_bound_golden(self, capsys):
        code, out, _ = run(capsys, "gen", "lower-bound", "--delta", "3")
        assert code == 0
        assert out == "3 2\n-1 -3\n1 0\n2 3\n"

    def test_outputs_parse_back(self, capsys):
        code, out, _ = run(capsys, "gen", "lower-bound", "--delta", "4")
        assert parse_matrix(out).shape == (6, 3)
        code, out, _ = run(
            capsys, "gen", "random", "--delta", "2", "--rows", "5", "--cols", "3",
            "--seed", "11",
        )
        assert code == 0
        assert parse_matrix(out).shape == (5, 3)

    def test_sparsity_extended_format(self, capsys):
        code, out, _ = run(capsys, "gen", "sparsity", "--delta", "2")
        assert code == 0
        assert out == "2 3\n1 1 0\n-1 0 2\nb: 2 1\n"

    def test_json_metadata(self, capsys):
        code, out, _ = run(capsys, "gen", "random", "--delta", "2", "--rows", "4",
                           "--cols", "2", "--seed", "7", "--json")
        payload = json.loads(out)
        assert payload["construction"] == "random"
        assert payload["seed"] == 7
        assert payload["generator_version"] == 1
        assert all(isinstance(x, str) for row in payload["matrix"]["entries"] for x in row)
        assert "generated_at" not in payload

    def test_random_dense_golden(self, capsys):
        """The dense solve golden's input is this generator's output."""
        code, out, _ = run(capsys, "gen", "random", "--delta", "5", "--rows", "72",
                           "--cols", "24", "--seed", "1")
        assert (code, out) == (0, (FIXTURES / "dense_24.txt").read_text())

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["random", "--delta", "3", "--rows", "3000", "--cols", "300", "--seed", "1"],
             "random construction of size 270000000 exceeds budget 1000000"),
            (["sparsity", "--delta", "40"],
             "sparsity construction of size 2375842 exceeds budget 1000000"),
            (["lower-bound", "--delta", "80"],
             "lower-bound construction of size 19721560 exceeds budget 1000000"),
        ],
        ids=["random", "sparsity", "lower_bound"],
    )
    def test_oversized_construction_exit_code_3(self, capsys, argv, message):
        """Constructions that took seconds or hundreds of MiB are refused
        up front: exit code 3, one error line, nothing on stdout."""
        assert run(capsys, "gen", *argv) == (3, "", f"error: {message}\n")

    def test_identical_invocations_identical_bytes(self, capsys):
        _, first, _ = run(capsys, "gen", "random", "--delta", "3", "--rows", "6",
                          "--cols", "3", "--seed", "5", "--json")
        _, second, _ = run(capsys, "gen", "random", "--delta", "3", "--rows", "6",
                           "--cols", "3", "--seed", "5", "--json")
        assert first == second


class TestSvp:
    def test_solve_short_vector(self, capsys, worked_file):
        code, out, _ = run(capsys, "svp", "solve", "--delta", "2", worked_file)
        assert code == 0
        assert "z = [1, -1]" in out and "norm = 1" in out

    def test_solve_certificate(self, capsys, worked_file):
        code, out, _ = run(capsys, "svp", "solve", "--delta", "1", worked_file)
        assert code == 0
        assert "|det| = 2" in out

    def test_solve_json_schema(self, capsys, worked_file):
        code, out, _ = run(capsys, "svp", "solve", "--delta", "2", "--json", worked_file)
        payload = json.loads(out)
        assert payload == {"kind": "short_vector", "z": ["1", "-1"],
                           "y": ["1", "-1", "0"], "norm": 1}
        code, out, _ = run(capsys, "svp", "solve", "--delta", "1", "--json", worked_file)
        payload = json.loads(out)
        assert payload == {"kind": "certificate", "rows": [0, 1], "det": "2"}

    def test_oracle_default_bound(self, capsys, worked_file):
        code, out, _ = run(capsys, "svp", "oracle", worked_file)
        assert code == 0
        assert "norm = 1" in out

    def test_oracle_json(self, capsys, worked_file):
        code, out, _ = run(capsys, "svp", "oracle", "--json", worked_file)
        payload = json.loads(out)
        assert payload["kind"] == "oracle_minimum"
        assert payload["norm"] == 1

    def test_atleast2(self, capsys, worked_file, tmp_path):
        code, out, _ = run(capsys, "svp", "atleast2", worked_file)
        assert code == 0 and "witness" in out
        path = tmp_path / "lb.txt"
        main(["gen", "lower-bound", "--delta", "4"])
        lb_out = capsys.readouterr().out
        path.write_text(lb_out)
        code, out, _ = run(capsys, "svp", "atleast2", str(path))
        assert code == 0 and "norm >= 2" in out


class TestCheck:
    def test_delta_measurement(self, capsys, worked_file):
        code, out, _ = run(capsys, "check", "delta", "--delta", "2", "--total", worked_file)
        assert code == 0
        assert "max |full-rank subdeterminant| = 2 at rows [0, 1]" in out
        assert "totally delta-modular for delta = 2: yes" in out

    @pytest.mark.parametrize("extra", [[], ["--json"], ["--total"]], ids=["text", "json", "total"])
    @pytest.mark.parametrize("delta", ["0", "-3"])
    def test_delta_below_one(self, capsys, worked_file, extra, delta):
        code, out, err = run(capsys, "check", "delta", "--delta", delta, *extra, worked_file)
        assert (code, out, err) == (2, "", "error: delta must be >= 1\n")

    def test_delta_checked_after_the_file_is_read(self, capsys):
        # the same order as svp solve: a missing file is exit 1, not 2
        for command in (("check", "delta"), ("svp", "solve")):
            code, out, err = run(capsys, *command, "--delta", "0", "/nonexistent/file.txt")
            assert (code, out) == (1, "")
            assert err.startswith("error: ")

    def test_detratio_sweep(self, capsys):
        code, out, _ = run(capsys, "check", "detratio", "--trials", "40", "--seed", "9")
        assert code == 0
        assert "0 failure(s)" in out

    def test_kernel_sweep_json(self, capsys):
        code, out, _ = run(capsys, "check", "kernel", "--trials", "25", "--seed", "4",
                           "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True and payload["trials"] == 25

    def test_seed_required(self, capsys):
        code, _, _ = run(capsys, "check", "detratio", "--trials", "10")
        assert code == 1

    @pytest.mark.parametrize("sweep", ["detratio", "kernel"])
    def test_trial_count_above_the_cap_is_refused_up_front(self, capsys, monkeypatch, sweep):
        """A huge --trials meets the sweeps' fixed cap (exit 3) instead of
        running until it is killed; the cap itself still runs."""
        from deltasvp import sweeps

        huge = str(10**30)
        code, out, err = run(capsys, "check", sweep, "--trials", huge, "--seed", "1")
        assert (code, out) == (3, "")
        assert err.startswith("error: ")
        assert err.endswith(f" sweep of size {huge} exceeds budget {sweeps.MAX_TRIALS}\n")
        monkeypatch.setattr(sweeps, "MAX_TRIALS", 3)
        assert run(capsys, "check", sweep, "--trials", "3", "--seed", "1")[0] == 0
        assert run(capsys, "check", sweep, "--trials", "4", "--seed", "1")[0] == 3


class TestVerify:
    def test_facedim_pass(self, capsys, tmp_path):
        a = IntMatrix.from_rows([[1, 0], [0, 1], [-1, 0], [0, -1]])
        path = tmp_path / "p.txt"
        path.write_text(format_polyhedron(a, (1, 1, 1, 1)))
        code, out, _ = run(capsys, "verify", "facedim", "--delta", "1", str(path))
        assert code == 0
        assert "PASS" in out

    def test_facedim_counterexample_exit_code(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("2 1\n2\n-2\nb: 1 1\n")
        code, out, _ = run(capsys, "verify", "facedim", "--delta", "1", str(path))
        assert code == 4
        assert "FAIL" in out

    def test_support_with_derived_box(self, capsys, tmp_path):
        main(["gen", "sparsity", "--delta", "2"])
        text = capsys.readouterr().out
        path = tmp_path / "ilp.txt"
        path.write_text(text)
        code, out, _ = run(capsys, "verify", "support", "--delta", "2", str(path))
        assert code == 0
        assert "min support 3" in out

    def test_ilp_verifiers_skip_the_box_scan(self, capsys, monkeypatch):
        """verify support and verify sparsity answer with the box scan
        disabled, byte for byte as their goldens."""

        def refuse(*args, **kwargs):
            raise AssertionError("the box scan was started")

        monkeypatch.setattr(polyhedra, "box_images", refuse)
        for argv, expected in [
            (["verify", "support", "--delta", "2", "--json", str(FIXTURES / "sparsity_2.txt")],
             "support_sparsity_2.json"),
            (["verify", "support", "--delta", "2", "--box", "4", "--json",
              str(FIXTURES / "ilp_five_optima.txt")], "support_ilp_five_optima.json"),
            (["verify", "support", "--delta", "2", str(FIXTURES / "sparsity_2.txt")],
             "support_sparsity_2.out"),
            (["verify", "sparsity", "--delta", "3"], "verify_sparsity_3.out"),
        ]:
            assert run(capsys, *argv) == (0, (FIXTURES / expected).read_text(), "")

    def test_sparsity_json(self, capsys):
        code, out, _ = run(capsys, "verify", "sparsity", "--delta", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["support"] == 7
        assert payload["totally_delta_modular"] is True


class TestMatrixUtilities:
    def test_det(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1 1\n1 -1\n")
        code, out, _ = run(capsys, "matrix", "det", str(path))
        assert code == 0 and out.strip() == "-2"

    def test_rank(self, capsys, worked_file):
        code, out, _ = run(capsys, "matrix", "rank", worked_file)
        assert code == 0 and out.strip() == "2"

    def test_hnf_text_sections_parse(self, capsys, worked_file):
        code, out, _ = run(capsys, "matrix", "hnf", worked_file)
        assert code == 0
        h_text, u_text = out.split("# U\n")
        h = parse_matrix(h_text)
        u = parse_matrix(u_text)
        original = parse_matrix(WORKED_TEXT)
        assert original.matmul(u) == h


@pytest.fixture
def default_digit_limit():
    """Runs a test under the interpreter's default int/str digit limit, if any."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(saved)


class TestHugeIntegers:
    # X = 10^9999 + 1 has 10,000 digits, far past the default limit of 4300.
    X = "1" + "0" * 9998 + "1"

    def test_det_ten_thousand_digits(self, capsys, tmp_path, default_digit_limit):
        path = tmp_path / "m.txt"
        path.write_text(f"2 2\n{self.X} 1\n-1 {self.X}\n")
        code, out, _ = run(capsys, "matrix", "det", str(path))
        # X^2 + 1 = 10^19998 + 2 * 10^9999 + 2
        assert code == 0
        assert out == "1" + "0" * 9998 + "2" + "0" * 9998 + "2\n"

    def test_rank_ten_thousand_digits(self, capsys, tmp_path, default_digit_limit):
        path = tmp_path / "m.txt"
        path.write_text(f"3 2\n{self.X} -{self.X}\n-{self.X} {self.X}\n0 0\n")
        code, out, _ = run(capsys, "matrix", "rank", str(path))
        assert code == 0 and out == "1\n"


class TestExitCodes:
    def test_usage_error(self, capsys, worked_file):
        code, _, _ = run(capsys, "svp", "solve", worked_file)
        assert code == 1

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a matrix\n")
        code, _, err = run(capsys, "matrix", "det", str(path))
        assert code == 1

    def test_non_decimal_integer(self, capsys, tmp_path):
        # int() reads "1_0" as 10 and a fullwidth 3 as 3; the format does not
        path = tmp_path / "digits.txt"
        path.write_text("2 2\n1_0 0\n0 \uff13\n", encoding="utf-8")
        code, out, err = run(capsys, "matrix", "det", str(path))
        assert (code, out) == (1, "")
        assert err == "error: row 0: invalid literal for int() with base 10: '1_0'\n"

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "matrix", "det", "/nonexistent/file.txt")
        assert code == 1

    @pytest.mark.parametrize(
        "command",
        [
            ("svp", "solve", "--delta", "1"),
            ("verify", "facedim", "--delta", "2"),
            ("verify", "support", "--delta", "2"),
        ],
    )
    def test_non_utf8_file(self, capsys, tmp_path, command):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe" + WORKED_TEXT.encode())
        code, out, err = run(capsys, *command, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_precondition_error(self, capsys, worked_file):
        code, _, err = run(capsys, "matrix", "det", worked_file)  # non-square
        assert code == 2

    def test_budget_error(self, capsys, worked_file):
        code, _, _ = run(capsys, "svp", "oracle", "--bound", "50", "--budget", "100",
                         worked_file)
        assert code == 3

    def test_domain_error(self, capsys, worked_file):
        code, _, _ = run(capsys, "svp", "solve", "--delta", "0", worked_file)
        assert code == 2


def _certificate_json(det, rows):
    listed = ",\n".join(f"    {r}" for r in rows)
    return f'{{\n  "det": "{det}",\n  "kind": "certificate",\n  "rows": [\n{listed}\n  ]\n}}\n'


def _short_vector_json(y, z):
    def listed(values):
        return ",\n".join(f'    "{v}"' for v in values)

    return (f'{{\n  "kind": "short_vector",\n  "norm": 1,\n  "y": [\n{listed(y)}\n  ],\n'
            f'  "z": [\n{listed(z)}\n  ]\n}}\n')


class TestSolveGolden:
    """Exact `svp solve --json` stdout, pinned byte for byte.  The first
    input is the entry-swap PATH_EXERCISER of the acceptance suite (the
    pair and block exercisers are fixtures of TestEnumerationGolden); then
    a certificate at the starting basis and a rank-deficient input solved
    on its Hermite normal form."""

    @pytest.mark.parametrize(
        "delta,rows,expected",
        [
            (1, [[1, 0], [0, 1], [3, 1]], _certificate_json(-3, [1, 2])),
            (1, [[1, 0], [1, 2], [2, 2]], _certificate_json(2, [0, 1])),
            (1, [[1, 0, 1], [0, 1, 1], [1, 1, 2]], _short_vector_json([1, 0, 1], [1, 0, 0])),
        ],
        ids=["entry_swap", "certificate_at_start", "rank_deficient"],
    )
    def test_json_bytes(self, capsys, tmp_path, delta, rows, expected):
        path = tmp_path / "a.txt"
        path.write_text(f"{len(rows)} {len(rows[0])}\n"
                        + "".join(" ".join(map(str, r)) + "\n" for r in rows))
        code, out, err = run(capsys, "svp", "solve", "--delta", str(delta), "--json", str(path))
        assert (code, out, err) == (0, expected, "")


class TestEnumerationGolden:
    """Exact `--json` stdout of the complete enumerations, pinned byte for
    byte in tests/fixtures (input file, expected stdout).  The witness
    instance has |det B| = 96 on its greedy basis, so its atleast2 witness
    comes through the residue join; lower_bound_5 has no witness.  The
    facedim polytope is criterion-7 style (delta 2, [A; -A] with b >= 0)
    with four fractional LP vertices; the box is unimodular; the segment
    0.3 <= x <= 0.6 has no lattice point, so it passes with no vertex;
    facedim_hull_5_n4 is the catalog polytope hull/5-d1-n4 (m = 12, n = 4,
    60 lattice points, 16 hull vertices), whose vertex scan cuts lines with
    3-row sets.
    Six inputs are solved above the threshold: two replacements, then a
    short vector; the pair- and block-swap exercisers of the acceptance
    suite, which end in certificates; dense_24, the 72 x 24 output of
    `gen random --delta 5 --rows 72 --cols 24 --seed 1`, whose dense rows
    (about 14 nonzeros of 24) make the greedy scan pass over 33 dependent
    rows before its basis is complete; and scrambled_wide, a unimodular
    scramble of a 4-modular 24 x 8 matrix (see test_scrambled_wide_input)
    with entries up to 86 bits, whose tableau widens its words to 256 bits
    mid-elimination.  walk_unit_first_34, a 103 x 34 unit-rows-first walk
    (see test_walk_unit_first_34_input), is solved by two entry swaps.  The
    maximal-minor scans are pinned
    by `check delta --total` on lower_bound_5 (maximum 5 at rows [0, 1, 2,
    3], not totally 5-modular) and by a 50-trial kernel identity sweep.  CI
    diffs these eight, the atleast2 witness and the four facedim polytopes
    against the installed console script."""

    @pytest.mark.parametrize(
        "argv,source,expected",
        [
            (["svp", "oracle"], "lower_bound_4.txt", "oracle_lower_bound_4.json"),
            (["svp", "atleast2"], "atleast2_witness.txt", "atleast2_witness.json"),
            (["svp", "atleast2"], "lower_bound_5.txt", "atleast2_lower_bound_5.json"),
            (["verify", "support", "--delta", "2"], "sparsity_2.txt",
             "support_sparsity_2.json"),
            (["verify", "support", "--delta", "2", "--box", "4"], "ilp_five_optima.txt",
             "support_ilp_five_optima.json"),
            (["svp", "solve", "--delta", "4"], "lower_bound_4.txt", "solve_lower_bound_4.json"),
            (["svp", "solve", "--delta", "96"], "atleast2_witness.txt",
             "solve_atleast2_witness.json"),
            (["verify", "facedim", "--delta", "2"], "facedim_hull_25.txt",
             "facedim_hull_25.json"),
            (["verify", "facedim", "--delta", "1"], "facedim_box.txt", "facedim_box.json"),
            (["verify", "facedim", "--delta", "1"], "facedim_no_lattice.txt",
             "facedim_no_lattice.json"),
            (["verify", "facedim", "--delta", "1"], "facedim_hull_5_n4.txt",
             "facedim_hull_5_n4.json"),
            (["svp", "solve", "--delta", "3"], "walk_to_short_vector.txt",
             "solve_walk_to_short_vector.json"),
            (["svp", "solve", "--delta", "3"], "pair_swap.txt", "solve_pair_swap.json"),
            (["svp", "solve", "--delta", "2"], "block_swap.txt", "solve_block_swap.json"),
            (["svp", "solve", "--delta", "5"], "dense_24.txt", "solve_dense_24.json"),
            (["svp", "solve", "--delta", "4"], "scrambled_wide.txt",
             "solve_scrambled_wide.json"),
            (["svp", "solve", "--delta", "9"], "walk_unit_first_34.txt",
             "solve_walk_unit_first_34.json"),
            (["check", "delta", "--delta", "5", "--total"], "lower_bound_5.txt",
             "check_delta_lower_bound_5.json"),
        ],
        ids=["oracle", "atleast2_witness", "atleast2_none", "support_derived_box",
             "support_five_optima", "solve_below_threshold", "solve_early_exit",
             "facedim_fractional_lp", "facedim_unimodular_box", "facedim_no_lattice",
             "facedim_4d", "solve_walk_to_short_vector", "solve_pair_swap", "solve_block_swap",
             "solve_dense_24", "solve_scrambled_wide", "solve_walk_unit_first_34",
             "check_delta_total"],
    )
    def test_json_bytes(self, capsys, argv, source, expected):
        code, out, err = run(capsys, *argv, "--json", str(FIXTURES / source))
        assert (code, out, err) == (0, (FIXTURES / expected).read_text(), "")

    def test_scrambled_wide_input(self):
        """The fixture is random_delta_modular(4, 24, 8, seed=2) times a
        unimodular matrix of 16 column operations with 20-bit factors."""
        entries = unimodular_scramble(random_delta_modular(4, 24, 8, 2).entries, 2, 16, 20)
        text = "24 8\n" + "".join(" ".join(map(str, row)) + "\n" for row in entries)
        assert (FIXTURES / "scrambled_wide.txt").read_text() == text
        assert max(abs(x) for row in entries for x in row) > 2**64

    def test_walk_unit_first_34_input(self):
        """The fixture is the unit-rows-first walk of tests/test_solve_traces.py
        drawn with delta 9 and n 34 from seed 3; its run makes two entry
        swaps, so the second pass's tableau comes from the first's packed
        rows."""
        rows = _unit_first_walk(random.Random(3), 9, 34)
        text = f"{len(rows)} 34\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)
        assert (FIXTURES / "walk_unit_first_34.txt").read_text() == text
        _, trace = solve_threshold_trace(IntMatrix.from_rows(rows), 9)
        assert [(t.path, t.det_before, t.det_after) for t in trace] == [
            (PATH_ENTRY, 1, 2), (PATH_ENTRY, 2, 6)
        ]

    def test_kernel_sweep_json_bytes(self, capsys):
        code, out, err = run(capsys, "check", "kernel", "--trials", "50", "--seed", "1", "--json")
        assert (code, out, err) == (0, (FIXTURES / "check_kernel_50.json").read_text(), "")

    @pytest.mark.parametrize(
        "source,message",
        [
            ("facedim_unbounded.txt", "polyhedron has a nonzero recession direction"),
            ("facedim_empty.txt", "polyhedron contains no points"),
        ],
        ids=["unbounded", "empty"],
    )
    def test_facedim_precondition_bytes(self, capsys, source, message):
        code, out, err = run(capsys, "verify", "facedim", "--delta", "1", "--json",
                             str(FIXTURES / source))
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestScrambledLowerBound:
    """scrambled_lower_bound_5 is lower_bound_instance(5) times a unimodular
    matrix of 3 column operations with 2-bit factors: the same lattice, with
    no vector of norm 1.  Its box radius is 96 (a box of 1,387,488,001
    points, over the budget), while two layers of 3^4 + 5^4 points find
    norm 2.  CI diffs the golden against the installed console script."""

    SOURCE = FIXTURES / "scrambled_lower_bound_5.txt"

    def test_input(self):
        entries = unimodular_scramble(lower_bound_instance(5).entries, 5, 3, 2)
        text = "10 4\n" + "".join(" ".join(map(str, row)) + "\n" for row in entries)
        assert self.SOURCE.read_text() == text

    def test_solve_json_bytes(self, capsys):
        code, out, err = run(capsys, "svp", "solve", "--delta", "5", "--json", str(self.SOURCE))
        expected = (FIXTURES / "solve_scrambled_lower_bound_5.json").read_text()
        assert (code, out, err) == (0, expected, "")

    def test_golden_is_the_written_out_layered_scan(self):
        payload = json.loads((FIXTURES / "solve_scrambled_lower_bound_5.json").read_text())
        entries = [[int(x) for x in line.split()] for line in self.SOURCE.read_text().splitlines()[1:]]
        z, y, norm = layered_least_minimizer(entries)
        assert (payload["z"], payload["y"], payload["norm"]) == (
            [str(x) for x in z], [str(x) for x in y], norm
        )

    def test_box_oracle_refuses(self, capsys):
        code, out, err = run(capsys, "svp", "oracle", "--json", str(self.SOURCE))
        assert (code, out) == (3, "")
        assert err == "error: box enumeration of size 1387488001 exceeds budget 10000000\n"


class TestTextGolden:
    """Exact text stdout of every subcommand with a rendering of its own,
    pinned byte for byte in tests/fixtures (argv, input file or None,
    expected stdout), plus the JSON of the two commands the JSON goldens
    above leave out.  CI diffs verify_sparsity_3.out, gen_sparsity_2.json
    and hnf_lower_bound_4.json against the installed console script."""

    @pytest.mark.parametrize(
        "argv,source,expected",
        [
            (["svp", "solve", "--delta", "3"], "walk_to_short_vector.txt",
             "solve_walk_to_short_vector.out"),
            (["svp", "solve", "--delta", "3"], "pair_swap.txt", "solve_pair_swap.out"),
            (["svp", "solve", "--delta", "4"], "lower_bound_4.txt", "solve_lower_bound_4.out"),
            (["svp", "oracle"], "lower_bound_4.txt", "oracle_lower_bound_4.out"),
            (["svp", "atleast2"], "atleast2_witness.txt", "atleast2_witness.out"),
            (["svp", "atleast2"], "lower_bound_5.txt", "atleast2_lower_bound_5.out"),
            (["check", "delta", "--delta", "5", "--total"], "lower_bound_5.txt",
             "check_delta_lower_bound_5.out"),
            (["check", "detratio", "--trials", "40", "--seed", "9"], None,
             "check_detratio_40.out"),
            (["check", "kernel", "--trials", "50", "--seed", "1"], None, "check_kernel_50.out"),
            (["verify", "facedim", "--delta", "2"], "facedim_hull_25.txt",
             "facedim_hull_25.out"),
            (["verify", "support", "--delta", "2"], "sparsity_2.txt", "support_sparsity_2.out"),
            (["verify", "sparsity", "--delta", "2"], None, "verify_sparsity_2.out"),
            (["verify", "sparsity", "--delta", "3"], None, "verify_sparsity_3.out"),
            (["gen", "lower-bound", "--delta", "6"], None, "gen_lower_bound_6.out"),
            (["gen", "sparsity", "--delta", "3"], None, "gen_sparsity_3.out"),
            (["gen", "random", "--delta", "3", "--rows", "6", "--cols", "3", "--seed", "5"],
             None, "gen_random_6x3.out"),
            (["matrix", "hnf"], "lower_bound_4.txt", "hnf_lower_bound_4.out"),
            (["gen", "sparsity", "--delta", "2", "--json"], None, "gen_sparsity_2.json"),
            (["matrix", "hnf", "--json"], "lower_bound_4.txt", "hnf_lower_bound_4.json"),
        ],
        ids=["solve_short_vector", "solve_certificate", "solve_oracle_minimum", "oracle",
             "atleast2_witness", "atleast2_none", "check_delta_total", "check_detratio",
             "check_kernel", "verify_facedim", "verify_support", "verify_sparsity_2",
             "verify_sparsity_3", "gen_lower_bound", "gen_sparsity", "gen_random",
             "matrix_hnf", "gen_sparsity_json", "matrix_hnf_json"],
    )
    def test_stdout_bytes(self, capsys, argv, source, expected):
        inputs = [] if source is None else [str(FIXTURES / source)]
        code, out, err = run(capsys, *argv, *inputs)
        assert (code, out, err) == (0, (FIXTURES / expected).read_text(), "")

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "lower-bound", "--delta", "3"),
            ("gen", "sparsity", "--delta", "2"),
            ("gen", "random", "--delta", "2", "--rows", "4", "--cols", "2", "--seed", "7"),
        ],
        ids=["lower_bound", "sparsity", "random"],
    )
    def test_stamp(self, capsys, argv):
        """--stamp adds an ISO timestamp to the JSON and changes nothing else."""
        _, plain, _ = run(capsys, *argv, "--json")
        code, stamped, err = run(capsys, *argv, "--json", "--stamp")
        assert (code, err) == (0, "")
        payload = json.loads(stamped)
        assert datetime.fromisoformat(payload.pop("generated_at")).tzinfo is not None
        assert payload == json.loads(plain)

    def test_support_box_not_derivable(self, capsys, tmp_path):
        """x0 - x1 = 0 leaves both variables unbounded, so no box comes
        from the rows and the verifier asks for --box."""
        path = tmp_path / "ilp.txt"
        path.write_text("1 2\n1 -1\nb: 0\n")
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, "verify", "support", "--delta", "2", *extra, str(path))
            assert (code, out) == (2, "")
            assert err == ("error: cannot derive a complete enumeration box from the rows; "
                           "pass an explicit --box\n")

    @pytest.mark.parametrize("command", [("svp", "oracle"), ("svp", "atleast2")])
    def test_rank_deficient_enumeration(self, capsys, tmp_path, command):
        """The enumerations need full column rank and say so in one line."""
        path = tmp_path / "a.txt"
        path.write_text("3 2\n1 2\n2 4\n3 6\n")
        code, out, err = run(capsys, *command, str(path))
        assert (code, out, err) == (2, "", "error: full column rank required\n")


class TestFailTextGolden:
    """Exact text stdout of the verdicts other than a plain pass, pinned
    byte for byte in tests/fixtures: the [VIOLATION] lines of a face
    dimension above the bound, a support above it, a program infeasible
    within its box, and a sweep's first failing trial index.  The exit code
    is the same with --json.  CI diffs the three verifier goldens against
    the installed console script."""

    @pytest.mark.parametrize(
        "argv,source,code,expected",
        [
            (["verify", "facedim", "--delta", "1"], "facedim_hull_25.txt", 4,
             "facedim_hull_25_delta_1.out"),
            (["verify", "support", "--delta", "1"], "sparsity_2.txt", 4,
             "support_sparsity_2_delta_1.out"),
            (["verify", "support", "--delta", "2", "--box", "0"], "sparsity_2.txt", 0,
             "support_sparsity_2_box_0.out"),
        ],
        ids=["facedim_violation", "support_above_bound", "support_infeasible_in_box"],
    )
    def test_stdout_bytes(self, capsys, argv, source, code, expected):
        path = str(FIXTURES / source)
        assert run(capsys, *argv, path) == (code, (FIXTURES / expected).read_text(), "")
        assert run(capsys, *argv, "--json", path)[0] == code

    def test_sweep_first_failing_trial(self, capsys, monkeypatch):
        """A kernel sweep whose identity fails on every two-row draw."""
        monkeypatch.setattr(sweeps, "verify_kernel_identity", lambda a: a.rows != 2)
        argv = ("check", "kernel", "--trials", "20", "--seed", "1")
        expected = (FIXTURES / "check_kernel_fail_20.out").read_text()
        assert run(capsys, *argv) == (4, expected, "")
        payload = json.loads(run(capsys, *argv, "--json")[1])
        assert (payload["failures"], payload["first_failure"], payload["passed"]) == (7, 1, False)


class TestParserReuse:
    """main builds the argument tree once per process; a reused tree must
    answer exactly as a fresh one, whatever ran before it."""

    def test_reused_parser_gives_fresh_bytes(self, capsys, worked_file):
        cases = [
            ["svp", "solve", worked_file],  # usage error: --delta is missing
            ["svp", "solve", "--delta", "3", "--json", worked_file],
            ["svp", "solve", "--delta", "3", worked_file],
        ]
        fresh = []
        for argv in cases:
            build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        build_parser.cache_clear()
        reused = [run(capsys, *argv) for argv in cases + cases]
        assert reused == fresh + fresh
        assert build_parser.cache_info().misses == 1
        assert fresh[0][0] == 1 and fresh[0][2].startswith("usage: deltasvp svp solve")
        assert [code for code, _, _ in fresh[1:]] == [0, 0]


def python_m(*argv):
    """`python -m deltasvp argv` in a child process on this checkout's src/."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "deltasvp", *argv], capture_output=True, env=env)


class TestModuleEntryPoint:
    def test_solve_golden_bytes(self):
        done = python_m("svp", "solve", "--delta", "3", "--json",
                        str(FIXTURES / "walk_to_short_vector.txt"))
        expected = (FIXTURES / "solve_walk_to_short_vector.json").read_bytes()
        assert (done.returncode, done.stdout, done.stderr) == (0, expected, b"")

    def test_exit_code_passes_through(self, capsys):
        argv = ("svp", "solve", "--delta", "3", str(FIXTURES / "no_such_file.txt"))
        done = python_m(*argv)
        code, out, err = run(capsys, *argv)
        assert (done.returncode, done.stdout.decode(), done.stderr.decode()) == (code, out, err)
        assert code != 0
