"""The public surface: what ``deltasvp`` exports, and its version."""

import ast
import importlib
import re
from pathlib import Path

import deltasvp

ROOT = Path(__file__).parent.parent
BENCH = ROOT / "bench"

REMOVED = [
    "ContainmentError",
    "certifies_lower_bound",
    "gcd_full_rank_subdets",
    "integer_hull_vertices",
    "min_face_dimension",
    "solve_threshold",
    "vertices_of_polyhedron",
]


def test_public_names_and_version():
    """Every exported name resolves, once; the names removed in 0.2.0 and
    0.4.0 are gone; and the version is the one pyproject.toml declares."""
    assert all(hasattr(deltasvp, name) for name in deltasvp.__all__)
    assert len(set(deltasvp.__all__)) == len(deltasvp.__all__)
    assert not [name for name in REMOVED if hasattr(deltasvp, name)]
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
    assert deltasvp.__version__ == declared == "0.4.0"


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


def test_names_the_benchmark_reads_resolve():
    """The benchmark imports every module in bench/run.py's MODULES into
    one namespace, ``lib``; every dotted name that bench/*.py reads off
    ``lib.`` resolves, and so does ``IntMatrix.matmul``, which
    bench/spans.py wraps on the class."""
    tree = ast.parse((BENCH / "run.py").read_text())
    modules = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "MODULES"
    )
    lib = {module: importlib.import_module(f"deltasvp.{module}") for module in modules}
    names = {
        name
        for path in sorted(BENCH.glob("*.py"))
        for name in re.findall(r"\blib\.([A-Za-z_][\w.]*)", path.read_text())
    }
    assert {"linalg.find_invertible_rows", "polyhedra.integer_points"} <= names
    missing = []
    for name in sorted(names):
        module, *attrs = name.split(".")
        value = lib.get(module)
        for attr in attrs:
            value = getattr(value, attr, None)
        if value is None:
            missing.append(name)
    assert missing == []
    assert callable(lib["linalg"].IntMatrix.matmul)


def _defined_tests(path: Path) -> set[str]:
    """The ids "test" and "Class::test" of the functions a test file
    defines at its top level and in its top-level classes."""
    ids = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            ids.add(node.name)
        elif isinstance(node, ast.ClassDef):
            methods = [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
            ids.update(f"{node.name}::{name}" for name in methods)
    return ids


def test_the_paper_table_names_tests_that_exist():
    """Every row of the README's table from the paper to the code names at
    least one test, and every test it names is defined in tests/: read off
    the files' syntax trees, so nothing is collected or run."""
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## From the paper to the code\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| ") and "`" in line]
    named = [re.findall(r"`(tests/[\w/]+\.py)::([\w:]+)`", row) for row in rows]
    assert len(rows) == 5 and all(named)
    ids = sorted(set().union(*named))
    defined = {path: _defined_tests(ROOT / path) for path, _ in ids}
    missing = [f"{path}::{test}" for path, test in ids if test not in defined[path]]
    assert missing == []
