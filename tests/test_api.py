"""The public surface: what ``deltasvp`` exports, and its version."""

import ast
import re
from pathlib import Path

import deltasvp

REMOVED = [
    "ContainmentError",
    "certifies_lower_bound",
    "gcd_full_rank_subdets",
    "integer_hull_vertices",
    "min_face_dimension",
    "vertices_of_polyhedron",
]


def test_public_names_and_version():
    """Every exported name resolves, once; the names removed in 0.2.0 are
    gone; and the version is the one pyproject.toml declares."""
    assert all(hasattr(deltasvp, name) for name in deltasvp.__all__)
    assert len(set(deltasvp.__all__)) == len(deltasvp.__all__)
    assert not [name for name in REMOVED if hasattr(deltasvp, name)]
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
    assert deltasvp.__version__ == declared == "0.3.0"


def test_no_assert_statement_in_the_package():
    """Checks in the package raise a typed error: a bare assert vanishes
    under python -O."""
    package = Path(deltasvp.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
