import inspect
import json
import random
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

from cli_goldens import CASES, COLUMNS, FIXTURES, case_argv, mismatches
from oracles import layered_least_minimizer, unimodular_scramble, unit_first_walk

WORKED = str(FIXTURES / "worked.txt")


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
    def test_solve_short_vector(self, capsys):
        code, out, _ = run(capsys, "svp", "solve", "--delta", "2", WORKED)
        assert code == 0
        assert "z = [1, -1]" in out and "norm = 1" in out

    def test_solve_certificate(self, capsys):
        code, out, _ = run(capsys, "svp", "solve", "--delta", "1", WORKED)
        assert code == 0
        assert "|det| = 2" in out

    def test_solve_json_schema(self, capsys):
        code, out, _ = run(capsys, "svp", "solve", "--delta", "2", "--json", WORKED)
        payload = json.loads(out)
        assert payload == {"kind": "short_vector", "z": ["1", "-1"],
                           "y": ["1", "-1", "0"], "norm": 1}
        code, out, _ = run(capsys, "svp", "solve", "--delta", "1", "--json", WORKED)
        payload = json.loads(out)
        assert payload == {"kind": "certificate", "rows": [0, 1], "det": "2"}

    def test_oracle_default_bound(self, capsys):
        code, out, _ = run(capsys, "svp", "oracle", WORKED)
        assert code == 0
        assert "norm = 1" in out

    def test_oracle_json(self, capsys):
        code, out, _ = run(capsys, "svp", "oracle", "--json", WORKED)
        payload = json.loads(out)
        assert payload["kind"] == "oracle_minimum"
        assert payload["norm"] == 1

    def test_atleast2(self, capsys, tmp_path):
        code, out, _ = run(capsys, "svp", "atleast2", WORKED)
        assert code == 0 and "witness" in out
        path = tmp_path / "lb.txt"
        main(["gen", "lower-bound", "--delta", "4"])
        lb_out = capsys.readouterr().out
        path.write_text(lb_out)
        code, out, _ = run(capsys, "svp", "atleast2", str(path))
        assert code == 0 and "norm >= 2" in out


class TestCheck:
    def test_delta_measurement(self, capsys):
        code, out, _ = run(capsys, "check", "delta", "--delta", "2", "--total", WORKED)
        assert code == 0
        assert "max |full-rank subdeterminant| = 2 at rows [0, 1]" in out
        assert "totally delta-modular for delta = 2: yes" in out

    @pytest.mark.parametrize("extra", [[], ["--json"], ["--total"]], ids=["text", "json", "total"])
    @pytest.mark.parametrize("delta", ["0", "-3"])
    def test_delta_below_one(self, capsys, extra, delta):
        code, out, err = run(capsys, "check", "delta", "--delta", delta, *extra, WORKED)
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

        monkeypatch.setattr(polyhedra, "integer_points", refuse)
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

    def test_rank(self, capsys):
        code, out, _ = run(capsys, "matrix", "rank", WORKED)
        assert code == 0 and out.strip() == "2"

    def test_hnf_text_sections_parse(self, capsys):
        code, out, _ = run(capsys, "matrix", "hnf", WORKED)
        assert code == 0
        h_text, u_text = out.split("# U\n")
        h = parse_matrix(h_text)
        u = parse_matrix(u_text)
        original = parse_matrix(Path(WORKED).read_text())
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


# Every pinned invocation is a case of tests/fixtures/cli_goldens.json (see
# tests/cli_goldens.py).  A case's id names the test below that runs it:
# `Class::test[param]` for one parameter of a test, `Class::test` for a
# test of its own.
BY_ID = {case["id"]: case for case in CASES}
#: the one input the manifest names that must not exist
MISSING = "no_such_file.txt"
#: fixtures read by other tests: the monkeypatched sweep's golden and data files
OTHER_READERS = {
    "check_kernel_fail_20.out", "cli_goldens.json", "hnf_corpus.json", "parser_structure.json",
    "path_exercisers.json", "solve_traces.json", "sweep_draws.json",
}


def pytest_generate_tests(metafunc):
    """A test that asks for `pinned` runs each manifest case whose id is its
    own id plus a parameter, or else the one case whose id is its own."""
    if "pinned" in metafunc.fixturenames:
        own = metafunc.definition.nodeid.partition("::")[2] + "["
        params = [i[len(own) : -1] for i in BY_ID if i.startswith(own)]
        if params:
            metafunc.parametrize("pinned", params, indirect=True)


@pytest.fixture
def pinned(request, capsys, monkeypatch):
    """Runs the manifest case of this test through cli.main, in
    tests/fixtures with COLUMNS set as the console-script run sets it, and
    asserts its exit code, stdout and stderr."""
    case = BY_ID[request.node.nodeid.partition("::")[2]]

    def check():
        monkeypatch.chdir(FIXTURES)
        monkeypatch.setenv("COLUMNS", COLUMNS)
        code = main(case_argv(case))
        report = mismatches(case, code, *capsys.readouterr())
        assert not report, "".join(report)

    return check


def test_manifest_pins_each_invocation_once():
    """Every case runs under a test of this module, every golden is read by
    a case, and no invocation is pinned twice."""
    assert len(BY_ID) == len(CASES), "two cases share an id"
    invocations = {(tuple(case["argv"]), case["input"]) for case in CASES}
    assert len(invocations) == len(CASES), "two cases pin the same argv and input"
    for case_id in BY_ID:
        owner, name = case_id.partition("[")[0].split("::")
        test = getattr(globals().get(owner), name, None)
        assert test and "pinned" in inspect.signature(test).parameters, f"no test runs {case_id}"
    parametrized = {case_id.partition("[")[0] for case_id in BY_ID if "[" in case_id}
    assert not parametrized & BY_ID.keys(), "a parametrized test also has a case of its own"
    named = {case[key] for case in CASES for key in ("input", "stdout")} - {None}
    assert not (FIXTURES / MISSING).exists()
    assert [name for name in named - {MISSING} if not (FIXTURES / name).is_file()] == []
    goldens = {path.name for path in FIXTURES.iterdir() if path.suffix in (".out", ".json")}
    assert goldens - named == OTHER_READERS


class TestExitCodes:
    def test_usage_error(self, pinned):
        pinned()

    def test_parse_error(self, pinned):
        pinned()

    def test_non_decimal_integer(self, pinned):
        pinned()

    def test_missing_file(self, pinned):
        pinned()

    def test_non_utf8_file(self, pinned):
        pinned()

    def test_precondition_error(self, pinned):
        pinned()

    def test_budget_error(self, pinned):
        pinned()

    def test_domain_error(self, pinned):
        pinned()

    def test_error_bytes(self, pinned):
        pinned()


@pytest.mark.parametrize("columns", ["40", "200"])
def test_usage_bytes_ignore_the_terminal_width(columns, capsys, monkeypatch):
    """Every case that prints a usage line prints its pinned bytes (taken
    at COLUMNS=80) in a narrow and in a wide terminal too."""
    usage = [case for case in CASES if case["stderr"].startswith("usage: ")]
    assert usage
    monkeypatch.chdir(FIXTURES)
    monkeypatch.setenv("COLUMNS", columns)
    for case in usage:
        report = mismatches(case, main(case_argv(case)), *capsys.readouterr())
        assert not report, "".join(report)


class TestSolveGolden:
    def test_json_bytes(self, pinned):
        pinned()


class TestEnumerationGolden:
    def test_json_bytes(self, pinned):
        pinned()

    def test_kernel_sweep_json_bytes(self, pinned):
        pinned()

    def test_facedim_precondition_bytes(self, pinned):
        pinned()

    def test_scrambled_wide_input(self):
        """The fixture is random_delta_modular(4, 24, 8, seed=2) times a
        unimodular matrix of 16 column operations with 20-bit factors."""
        entries = unimodular_scramble(random_delta_modular(4, 24, 8, 2).entries, 2, 16, 20)
        text = "24 8\n" + "".join(" ".join(map(str, row)) + "\n" for row in entries)
        assert (FIXTURES / "scrambled_wide.txt").read_text() == text
        assert max(abs(x) for row in entries for x in row) > 2**64

    def test_walk_unit_first_34_input(self):
        """The fixture is the unit-rows-first walk of tests/oracles.py drawn
        with delta 9 and n 34 from seed 3; its run makes two entry
        swaps, so the second pass's tableau comes from the first's packed
        rows."""
        rows = unit_first_walk(random.Random(3), 9, 34)
        text = f"{len(rows)} 34\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)
        assert (FIXTURES / "walk_unit_first_34.txt").read_text() == text
        _, trace = solve_threshold_trace(IntMatrix.from_rows(rows), 9)
        assert [(t.path, t.det_before, t.det_after) for t in trace] == [
            (PATH_ENTRY, 1, 2), (PATH_ENTRY, 2, 6)
        ]


class TestScrambledLowerBound:
    """scrambled_lower_bound_5 is lower_bound_instance(5) times a unimodular
    matrix of 3 column operations with 2-bit factors: the same lattice, with
    no vector of norm 1."""

    SOURCE = FIXTURES / "scrambled_lower_bound_5.txt"

    def test_input(self):
        entries = unimodular_scramble(lower_bound_instance(5).entries, 5, 3, 2)
        text = "10 4\n" + "".join(" ".join(map(str, row)) + "\n" for row in entries)
        assert self.SOURCE.read_text() == text

    def test_solve_json_bytes(self, pinned):
        pinned()

    def test_golden_is_the_written_out_layered_scan(self):
        payload = json.loads((FIXTURES / "solve_scrambled_lower_bound_5.json").read_text())
        entries = [[int(x) for x in line.split()] for line in self.SOURCE.read_text().splitlines()[1:]]
        z, y, norm = layered_least_minimizer(entries)
        assert (payload["z"], payload["y"], payload["norm"]) == (
            [str(x) for x in z], [str(x) for x in y], norm
        )

    def test_box_oracle_refuses(self, pinned):
        pinned()


class TestTextGolden:
    def test_stdout_bytes(self, pinned):
        pinned()

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
    def test_stdout_bytes(self, pinned):
        pinned()

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

    def test_reused_parser_gives_fresh_bytes(self, capsys):
        cases = [
            ["svp", "solve", WORKED],  # usage error: --delta is missing
            ["svp", "solve", "--delta", "3", "--json", WORKED],
            ["svp", "solve", "--delta", "3", WORKED],
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
