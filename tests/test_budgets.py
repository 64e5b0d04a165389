"""Every enumeration refuses an over-budget scan before the scan starts,
with one message format: "<what> of size <N> exceeds budget <B>"."""

from pathlib import Path

import pytest

from deltasvp import cli, linalg, oracle, polyhedra
from deltasvp.errors import BudgetExceededError
from deltasvp.linalg import IntMatrix

M = IntMatrix.from_rows

BOX_2 = polyhedra.PolyhedronH(M([[1, 0], [-1, 0], [0, 1], [0, -1]]), (3, 3, 3, 3))
BOX_3 = polyhedra.PolyhedronH(
    M([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]), (1,) * 6
)
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
        lambda: linalg.gcd_full_rank_subdets(M([[1, 0, 1, 2], [0, 1, 1, 3]]), 5),
        (linalg, "_minors"),
        "gcd subdeterminant scan of size 6 exceeds budget 5",
    ),
    (
        lambda: polyhedra.vertices_of_polyhedron(BOX_3, 19),
        (polyhedra, "_eliminate"),
        "vertex enumeration of size 20 exceeds budget 19",
    ),
    (
        lambda: polyhedra.integer_points(BOX_2, 48),
        (polyhedra, "box_images"),
        "box scan of size 49 exceeds budget 48",
    ),
    (
        lambda: polyhedra.solve_standard_form_ilp(ILP, (9, 9), 99),
        (polyhedra, "box_images"),
        "ILP scan of size 100 exceeds budget 99",
    ),
    (
        lambda: polyhedra.verify_kernel_identity(M([[1, 1, 1, 1]]), 3),
        (polyhedra, "_minors"),
        "column subset scan of size 4 exceeds budget 3",
    ),
    (
        lambda: oracle.brute_force_svp(IntMatrix.identity(2), 1, 8),
        (oracle, "box_images"),
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


def test_cli_reports_the_gate_with_exit_code_3(capsys):
    source = Path(__file__).parent / "fixtures" / "lower_bound_5.txt"
    code = cli.main(["check", "delta", "--delta", "5", "--budget", "209", str(source)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "error: full-rank subdeterminant scan of size 210 exceeds budget 209\n"
    )
