"""The pinned command-line bytes, and their run through the installed
console script.

tests/fixtures/cli_goldens.json lists every pinned invocation.  Each case
gives an argv, an input file in tests/fixtures (appended to the argv) or
null, the file that holds the expected stdout or null for none, the exit
code, and one stderr rule: "" for none, ERROR_LINE for exactly one line
that starts "error: " with no traceback, or else the exact text.  A case
runs in tests/fixtures with COLUMNS=80, so inputs are named by their file
names and argparse's usage lines do not wrap.  A case's id is the test id
under which tests/test_cli.py runs it in process through cli.main; a case
with "python_m" also runs as `python -m deltasvp` here.

After `python -m pip install .`, run every case through the installed
`deltasvp` with

    python tests/cli_goldens.py

run by the interpreter that installed it.  It exits 2 without running a
case when there is no `deltasvp` on PATH or deltasvp would be imported
from this checkout's src/.  Otherwise it runs every case, prints the argv and
a unified diff of each failing one, and exits 1 if any failed.
"""

import difflib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
CASES = json.loads((FIXTURES / "cli_goldens.json").read_text(encoding="utf-8"))["cases"]
ERROR_LINE = "error: *"
COLUMNS = "80"


def case_argv(case: dict) -> list[str]:
    return case["argv"] + ([] if case["input"] is None else [case["input"]])


def mismatches(case: dict, code: int, out: str, err: str) -> list[str]:
    """How a run of case with this exit code, stdout and stderr differs
    from its pin: an exit-code line, then unified diffs of the streams."""
    lines = [] if code == case["code"] else [f"exit code {code}, expected {case['code']}\n"]
    stdout = "" if case["stdout"] is None else (FIXTURES / case["stdout"]).read_bytes().decode()
    rule = case["stderr"]
    one_error_line = err.startswith("error: ") and err.find("\n") == len(err) - 1
    stderr = err if rule == ERROR_LINE and one_error_line and "Traceback" not in err else rule
    for name, expected, actual in [("stdout", stdout, out), ("stderr", stderr, err)]:
        lines += difflib.unified_diff(
            expected.splitlines(True), actual.splitlines(True), f"expected {name}", name
        )
    return lines


def _run(command: list[str], case: dict) -> list[str]:
    done = subprocess.run(
        [*command, *case_argv(case)], capture_output=True, cwd=FIXTURES, env={**os.environ, "COLUMNS": COLUMNS}
    )
    return mismatches(
        case, done.returncode, *(s.decode(errors="surrogateescape") for s in (done.stdout, done.stderr))
    )


def _refusal() -> str | None:
    """Why the cases cannot run against an installed deltasvp, or None."""
    if shutil.which("deltasvp") is None:
        return "no deltasvp on PATH; run `python -m pip install .` first"
    where = subprocess.run(
        [sys.executable, "-c", "import deltasvp; print(deltasvp.__file__)"],
        capture_output=True, text=True, cwd=FIXTURES,
    )
    if where.returncode:
        return f"{sys.executable} cannot import deltasvp:\n{where.stderr}"
    if Path(where.stdout.strip()).resolve().is_relative_to(ROOT / "src"):
        return "deltasvp resolves to this checkout's src/, not to an installed package"
    return None


def main() -> int:
    refusal = _refusal()
    if refusal:
        print(f"refused: {refusal}", file=sys.stderr)
        return 2
    runs = failed = 0
    for case in CASES:
        commands = [["deltasvp"]] + ([[sys.executable, "-m", "deltasvp"]] if case.get("python_m") else [])
        for command in commands:
            runs += 1
            report = _run(command, case)
            if report:
                failed += 1
                print(f"FAIL {case['id']}: {' '.join(command + case_argv(case))}")
                sys.stdout.writelines(report)
    print(f"{runs - failed} of {runs} runs of {len(CASES)} cases match their pins")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
