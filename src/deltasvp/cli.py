"""Command-line interface.

Subcommands map one-to-one onto the library: ``svp`` for the solver and the
enumeration oracles, ``gen`` for instance constructions, ``check`` for
matrix measurements and identity sweeps, ``verify`` for the polyhedral
verifiers, and ``matrix`` for plain utilities.  Output is deterministic:
identical invocations produce identical bytes (JSON metadata gains a
timestamp only under ``--stamp``).  Row and column indices in all output
are 0-based.  Each handler builds its JSON payload and its text and hands
both to ``_emit``, which picks one and maps the verdict to the exit code.
``_command`` adds every subcommand and its options, and ``main`` turns every
anticipated error into one ``error:`` line and its exit code.

Exit codes: 0 success / verified; 1 usage or parse error; 2 precondition
violation (rank, threshold, boundedness, domain); 3 enumeration budget
exceeded; 4 a verification found a counterexample.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

from . import generators, linalg, oracle, polyhedra, sweeps, textio, threshold
from .errors import BudgetExceededError, DeltaSvpError
from .linalg import IntMatrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3
EXIT_FAILED_VERIFICATION = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this CLI reserves 2 for
    precondition violations, so remap usage errors to 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _matrix_json(m: IntMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[str(x) for x in row] for row in m.entries],
    }


def _vector_json(v: Sequence[int]) -> list[str]:
    return [str(x) for x in v]


def _text(lines: Iterable[str]) -> str:
    return "".join(f"{line}\n" for line in lines)


def _emit(args, payload: dict, text: str, passed: bool = True) -> int:
    """Writes the payload as JSON under --json, else the text (which ends
    in its own newline), and maps the verdict to the exit code."""
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        sys.stdout.write(text)
    return EXIT_OK if passed else EXIT_FAILED_VERIFICATION


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise textio.ParseError(f"{path}: {exc}") from None


def _read_matrix(path: str) -> IntMatrix:
    return textio.parse_matrix(_read_text(path))


def _outcome(result) -> tuple[dict, str]:
    """JSON payload and text line of a solver or oracle outcome."""
    if isinstance(result, threshold.Certificate):
        rows, d = list(result.rows), result.det_value
        return (
            {"kind": "certificate", "rows": rows, "det": str(d)},
            f"certificate: rows {rows} have |det| = {abs(d)} (det = {d})\n",
        )
    short = isinstance(result, threshold.ShortVector)
    payload = {
        "kind": "short_vector" if short else "oracle_minimum",
        "z": _vector_json(result.z),
        "y": _vector_json(result.y),
        "norm": result.norm,
    }
    label = "short vector" if short else "oracle minimum"
    return payload, f"{label}: z = {list(result.z)}  y = {list(result.y)}  norm = {result.norm}\n"


def _cmd_svp_solve(args) -> int:
    return _emit(args, *_outcome(threshold.solve_svp(_read_matrix(args.file), args.delta)))


def _cmd_svp_oracle(args) -> int:
    a = _read_matrix(args.file)
    bound = args.bound if args.bound is not None else oracle.enum_bound(a)
    payload, text = _outcome(oracle.brute_force_svp(a, bound, args.budget))
    return _emit(args, {**payload, "bound": bound}, f"box radius: {bound}\n{text}")


def _cmd_svp_atleast2(args) -> int:
    a = _read_matrix(args.file)
    decided, witness = oracle.shortest_is_at_least_2(a, args.budget)
    payload = {"shortest_is_at_least_2": decided}
    if decided:
        return _emit(args, payload, "every nonzero lattice vector has norm >= 2\n")
    y = a.matvec(witness)
    payload.update(witness=_vector_json(witness), witness_image=_vector_json(y))
    return _emit(args, payload, f"norm <= 1 witness: z = {list(witness)}  y = {list(y)}\n")


def _gen(args, name: str, matrix: IntMatrix, extra: dict, text: str) -> int:
    payload = {"construction": name, "matrix": _matrix_json(matrix), **extra}
    if args.stamp:
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    return _emit(args, payload, text)


def _cmd_gen_lower_bound(args) -> int:
    matrix = generators.lower_bound_instance(args.delta)
    return _gen(args, "lower-bound", matrix, {"delta": args.delta}, textio.format_matrix(matrix))


def _cmd_gen_sparsity(args) -> int:
    matrix, b = generators.sparsity_instance(args.delta)
    extra = {"delta": args.delta, "b": _vector_json(b)}
    return _gen(args, "sparsity", matrix, extra, textio.format_polyhedron(matrix, b))


def _cmd_gen_random(args) -> int:
    matrix = generators.random_delta_modular(args.delta, args.rows, args.cols, args.seed)
    extra = {
        "delta": args.delta,
        "seed": args.seed,
        "generator_version": generators.GENERATOR_VERSION,
    }
    return _gen(args, "random", matrix, extra, textio.format_matrix(matrix))


def _cmd_check_delta(args) -> int:
    a = _read_matrix(args.file)
    threshold.dimension_threshold(args.delta)  # the solver's "delta must be >= 1" check
    largest, witness = linalg.max_abs_full_rank_subdet(a, args.budget)
    is_modular = largest <= args.delta
    payload = {
        "max_abs_subdet": str(largest),
        "witness_rows": list(witness),
        "delta": args.delta,
        "delta_modular": is_modular,
    }
    lines = [
        f"max |full-rank subdeterminant| = {largest} at rows {list(witness)}",
        f"delta-modular for delta = {args.delta}: {'yes' if is_modular else 'no'}",
    ]
    if args.total:
        totally = linalg.is_totally_delta_modular(a, args.delta, args.budget)
        payload["totally_delta_modular"] = totally
        lines.append(
            f"totally delta-modular for delta = {args.delta}: {'yes' if totally else 'no'}"
        )
    return _emit(args, payload, _text(lines))


def _sweep(args, report: sweeps.SweepReport) -> int:
    payload = {
        "name": report.name,
        "trials": report.trials,
        "failures": report.failures,
        "first_failure": report.first_failure,
        "passed": report.passed,
    }
    return _emit(args, payload, _text(report.lines()), report.passed)


def _cmd_check_detratio(args) -> int:
    return _sweep(args, sweeps.ratio_identity_sweep(args.trials, args.seed))


def _cmd_check_kernel(args) -> int:
    return _sweep(args, sweeps.kernel_identity_sweep(args.trials, args.seed))


def _cmd_verify_facedim(args) -> int:
    a, b = textio.parse_polyhedron(_read_text(args.file))
    report = polyhedra.verify_face_dimension_bound(
        polyhedra.PolyhedronH(a, b), args.delta, args.budget
    )
    payload = {
        "delta": report.delta,
        "bound": report.bound,
        "vertices": [
            {"vertex": _vector_json(v), "face_dimension": d} for v, d in report.entries
        ],
        "passed": report.passed,
    }
    return _emit(args, payload, _text(report.lines()), report.passed)


def _cmd_verify_support(args) -> int:
    a, b, c = textio.parse_standard_form(_read_text(args.file))
    if c is None:
        c = tuple([0] * a.cols)
    ilp = polyhedra.StandardFormILP(a, b, c)
    box = polyhedra.derive_box(a, b) if args.box is None else tuple([args.box] * a.cols)
    if box is None:
        raise DeltaSvpError(
            "cannot derive a complete enumeration box from the rows; pass an explicit --box"
        )
    report = polyhedra.verify_support_bound(ilp, args.delta, box, args.budget)
    payload = {
        "delta": report.delta,
        "bound": report.bound,
        "box": list(box),
        "optimal_value": None if report.optimal_value is None else str(report.optimal_value),
        "min_support": report.min_support,
        "optimizer_count": report.optimizer_count,
        "passed": report.passed,
    }
    text = _text([f"enumeration box: {list(box)}", *report.lines()])
    return _emit(args, payload, text, report.passed)


def _cmd_verify_sparsity(args) -> int:
    report = polyhedra.verify_sparsity_construction(args.delta, args.budget)
    payload = {
        "delta": report.delta,
        "m": report.m,
        "n": report.n,
        "box": list(report.box),
        "solutions": [_vector_json(s) for s in report.solutions],
        "support": report.support,
        "expected_support": report.expected_support,
        "totally_delta_modular": report.totally_modular,
        "passed": report.passed,
    }
    return _emit(args, payload, _text(report.lines()), report.passed)


def _cmd_matrix_det(args) -> int:
    print(linalg.det(_read_matrix(args.file)))
    return EXIT_OK


def _cmd_matrix_rank(args) -> int:
    print(linalg.rank(_read_matrix(args.file)))
    return EXIT_OK


def _cmd_matrix_hnf(args) -> int:
    h, u = linalg.hnf(_read_matrix(args.file))
    text = "# H\n" + textio.format_matrix(h) + "# U\n" + textio.format_matrix(u)
    return _emit(args, {"h": _matrix_json(h), "u": _matrix_json(u)}, text)


_REQUIRED_INT = {"type": int, "required": True}


def _command(group, name, help, func, *extra, delta=True, budget=None, json=True,
             stamp=False, file=False) -> None:
    """Adds one subcommand.  Its options come in the order every subcommand
    shares: --delta, its own ``extra`` (flag, keywords) pairs, --budget
    (when given a default), --json, --stamp, then the input file (True, or
    the file's help text)."""
    p = group.add_parser(name, help=help)
    if delta:
        p.add_argument("--delta", **_REQUIRED_INT)
    for flag, keywords in extra:
        p.add_argument(flag, **keywords)
    if budget is not None:
        p.add_argument("--budget", type=int, default=budget, help="enumeration budget override")
    if json:
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    if stamp:
        p.add_argument("--stamp", action="store_true", help="include a timestamp in JSON metadata")
    if file:
        p.add_argument("file", help=None if file is True else file)
    p.set_defaults(func=func)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole argument tree, built on first use and shared by every
    later ``main`` call in the process (parsing does not change it)."""
    parser = _Parser(prog="deltasvp", description=__doc__.split("\n\n")[0])
    top = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def group(name: str, help: str):
        sub = top.add_parser(name, help=help)
        return sub.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    svp = group("svp", "solver and enumeration oracles")
    _command(svp, "solve", "dispatching solver (threshold or oracle)", _cmd_svp_solve, file=True)
    _command(svp, "oracle", "complete box enumeration", _cmd_svp_oracle,
             ("--bound", {"type": int, "default": None, "help": "box radius (default: derived)"}),
             delta=False, budget=oracle.DEFAULT_BOX_BUDGET, file=True)
    _command(svp, "atleast2", "decide: no lattice vector of norm < 2", _cmd_svp_atleast2,
             delta=False, budget=oracle.DEFAULT_PREIMAGE_BUDGET, file=True)

    gen = group("gen", "instance generators")
    _command(gen, "lower-bound", "delta-modular matrix with no norm-1 vector",
             _cmd_gen_lower_bound, stamp=True)
    _command(gen, "sparsity", "system whose only solution is all-ones", _cmd_gen_sparsity,
             stamp=True)
    _command(gen, "random", "seeded random delta-modular matrix", _cmd_gen_random,
             ("--rows", _REQUIRED_INT), ("--cols", _REQUIRED_INT), ("--seed", _REQUIRED_INT),
             stamp=True)

    check = group("check", "measurements and identity sweeps")
    _command(check, "delta", "largest full-rank subdeterminant", _cmd_check_delta,
             ("--total", {"action": "store_true", "help": "also check every square minor"}),
             budget=linalg.DEFAULT_MINOR_BUDGET, file=True)
    sweep = ("--trials", _REQUIRED_INT), ("--seed", _REQUIRED_INT)
    _command(check, "detratio", "random determinant-ratio identity sweep", _cmd_check_detratio,
             *sweep, delta=False)
    _command(check, "kernel", "random kernel determinant identity sweep", _cmd_check_kernel,
             *sweep, delta=False)

    verify = group("verify", "polyhedral verifiers")
    budget = polyhedra.DEFAULT_POINT_BUDGET
    _command(verify, "facedim", "integer-hull vertices sit on small faces", _cmd_verify_facedim,
             budget=budget, file="matrix plus 'b:' line")
    _command(verify, "support", "optimal solutions have small support", _cmd_verify_support,
             ("--box", {"type": int, "default": None, "help": "uniform per-variable bound"}),
             budget=budget, file="matrix plus 'b:' line, optional 'c:' line")
    _command(verify, "sparsity", "dense-support construction is tight", _cmd_verify_sparsity,
             budget=budget)

    matrix = group("matrix", "plain matrix utilities")
    _command(matrix, "det", "exact determinant", _cmd_matrix_det,
             delta=False, json=False, file=True)
    _command(matrix, "rank", "exact rank", _cmd_matrix_rank, delta=False, json=False, file=True)
    _command(matrix, "hnf", "column-style Hermite normal form", _cmd_matrix_hnf,
             delta=False, file=True)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # Integers are arbitrary precision end to end: lift the interpreter's
    # int/str conversion digit limit where it has one.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (textio.ParseError, OSError, DeltaSvpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BudgetExceededError):
            return EXIT_BUDGET
        return EXIT_PRECONDITION if isinstance(exc, DeltaSvpError) else EXIT_USAGE

if __name__ == "__main__":
    sys.exit(main())
