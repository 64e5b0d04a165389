"""Every enumeration refuses an over-budget scan before the scan starts,
with one message format: "<what> of size <N> exceeds budget <B>".  A
negative budget is refused by the same gate as an invalid value."""

from pathlib import Path

import pytest

from deltasvp import cli, linalg, oracle, polyhedra
from deltasvp.errors import BudgetExceededError, DomainError
from deltasvp.linalg import IntMatrix

M = IntMatrix.from_rows
FIXTURES = Path(__file__).parent / "fixtures"

BOX_2 = polyhedra.PolyhedronH(M([[1, 0], [-1, 0], [0, 1], [0, -1]]), (3, 3, 3, 3))
ILP = polyhedra.StandardFormILP(M([[1, 1]]), (4,), (1, 0))

# (scan, module and name of what the scan enters, expected message)
GATES = [
    (
        lambda: linalg.max_abs_full_rank_subdet(M([[1, 0], [0, 1], [1, 1], [1, -1]]), 5),
        (linalg, "_minors"),
        "full-rank subdeterminant scan of size 6 exceeds budget 5",
    ),
    (
        lambda: linalg.is_totally_delta_modular(M([[1, 1], [1, -1]]), 1, 4),
        (linalg, "_minors"),
        "total minor scan of size 5 exceeds budget 4",
    ),
    (
        lambda: polyhedra.integer_points(BOX_2, 48),
        (polyhedra, "product"),
        "box scan of size 49 exceeds budget 48",
    ),
    (
        lambda: polyhedra.solve_standard_form_ilp(ILP, (9, 9), 99),
        (polyhedra, "_value_to_go"),
        "ILP scan of size 100 exceeds budget 99",
    ),
    (
        lambda: polyhedra.verify_kernel_identity(M([[1, 1, 1, 1]]), 3),
        (polyhedra, "_minors"),
        "column subset scan of size 4 exceeds budget 3",
    ),
    (
        lambda: oracle.brute_force_svp(IntMatrix.identity(2), 1, 8),
        (oracle, "_box_halves"),
        "box enumeration of size 9 exceeds budget 8",
    ),
    (
        lambda: oracle.shortest_is_at_least_2(IntMatrix.identity(2), 8),
        (oracle, "_box_halves"),
        "preimage scan of size 9 exceeds budget 8",
    ),
]


def _never(*args, **kwargs):
    raise AssertionError("the scan was started")


@pytest.mark.parametrize(
    "scan, entered, message", GATES, ids=[message.split(" of ")[0] for _, _, message in GATES]
)
def test_gate_refuses_before_the_scan(monkeypatch, scan, entered, message):
    monkeypatch.setattr(*entered, _never)
    with pytest.raises(BudgetExceededError) as info:
        scan()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "solve",
    [
        lambda budget: polyhedra.solve_standard_form_ilp(ILP, (4, 5), budget),
        lambda budget: polyhedra.verify_support_bound(ILP, 1, (4, 5), budget),
    ],
    ids=["solve_standard_form_ilp", "verify_support_bound"],
)
def test_ilp_gate_counts_box_points(monkeypatch, solve):
    """The DP is admitted at a budget of exactly prod(u_j + 1) box points,
    and one less is refused before any DP state is built."""
    solve(30)
    monkeypatch.setattr(polyhedra, "_value_to_go", _never)
    with pytest.raises(BudgetExceededError, match="^ILP scan of size 30 exceeds budget 29$"):
        solve(29)


def test_cli_reports_the_gate_with_exit_code_3(capsys):
    source = Path(__file__).parent / "fixtures" / "lower_bound_5.txt"
    code = cli.main(["check", "delta", "--delta", "5", "--budget", "209", str(source)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "error: full-rank subdeterminant scan of size 210 exceeds budget 209\n"
    )


def test_gate_on_its_own():
    linalg._check_budget(0, 0, "scan")
    linalg._check_budget(5, 5, "scan")
    with pytest.raises(BudgetExceededError, match="^scan of size 1 exceeds budget 0$"):
        linalg._check_budget(1, 0, "scan")
    for count in (0, 7):
        with pytest.raises(DomainError, match="^budget must be >= 0$"):
            linalg._check_budget(count, -1, "scan")


@pytest.mark.parametrize(
    "argv",
    [
        ["svp", "oracle", "--budget", "-5", "lower_bound_4.txt"],
        ["svp", "atleast2", "--budget", "-1", "lower_bound_4.txt"],
        ["check", "delta", "--delta", "5", "--budget", "-1", "lower_bound_5.txt"],
        ["verify", "facedim", "--delta", "2", "--budget", "-1", "facedim_hull_25.txt"],
        ["verify", "support", "--delta", "2", "--budget", "-1", "sparsity_2.txt"],
        ["verify", "sparsity", "--delta", "2", "--budget", "-1"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_cli_reports_a_negative_budget_with_exit_code_2(capsys, argv):
    argv = [str(FIXTURES / arg) if arg.endswith(".txt") else arg for arg in argv]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: budget must be >= 0\n"


def test_cli_budget_zero_still_refuses_a_scan_with_exit_code_3(capsys):
    code = cli.main(["svp", "oracle", "--budget", "0", str(FIXTURES / "lower_bound_4.txt")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith("error: box enumeration of size ")
    assert captured.err.endswith(" exceeds budget 0\n")


def _hull_lps(monkeypatch, dim):
    """Records the hull-membership programs: the phase-1 runs on dim + 1
    rows.  The bounding-box programs, and those of the cone of an empty P,
    have dim rows."""
    calls = []
    real = polyhedra._Simplex.phase_one

    def counted(simplex):
        if simplex.r == dim + 1:
            calls.append(simplex.v)
        return real(simplex)

    monkeypatch.setattr(polyhedra._Simplex, "phase_one", counted)
    return calls


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_hull_gate_refuses_a_large_box_before_any_hull_program(capsys, monkeypatch, extra):
    """0 <= x, y <= 150 has 151^2 = 22,801 lattice points: within the
    point budget, but the hull step tests each against the other points of
    its face."""
    calls = _hull_lps(monkeypatch, 2)
    path = FIXTURES / "facedim_box_151.txt"
    code = cli.main(["verify", "facedim", "--delta", "1", *extra, str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == (
        "error: integer hull scan of size 519885601 exceeds budget 10000000\n"
    )
    assert calls == []


def test_hull_gate_admits_exactly_the_square_of_the_points(monkeypatch):
    """BOX_2 has 7^2 = 49 lattice points, so its hull scan has size 2401."""
    assert list(polyhedra._integer_hull(BOX_2, 2401)) == [
        (-3, -3), (-3, 3), (3, -3), (3, 3)
    ]
    calls = _hull_lps(monkeypatch, 2)
    with pytest.raises(BudgetExceededError) as info:
        polyhedra._integer_hull(BOX_2, 2400)
    assert str(info.value) == "integer hull scan of size 2401 exceeds budget 2400"
    assert calls == []


def test_layer_one_has_the_box_default():
    """svp atleast2 and shortest_is_at_least_2 gate the solver's layer-1
    scan, so they share its default budget."""
    args = cli.build_parser().parse_args(["svp", "atleast2", "a.txt"])
    assert args.budget == oracle.DEFAULT_BOX_BUDGET
    assert oracle.shortest_is_at_least_2.__defaults__ == (oracle.DEFAULT_BOX_BUDGET,)


def test_layer_one_answers_fourteen_dimensions():
    """3^14 = 4,782,969 preimages are within the default budget."""
    assert oracle.shortest_is_at_least_2(IntMatrix.identity(14)) == (False, (-1,) * 14)
