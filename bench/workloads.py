"""Instance catalogs of the four benchmark workloads, and the checks that
verify each operation's output without calling the code under test.

Each instance becomes one CLI operation; a pass runs every instance once,
in an order the seed picks.  The verifiers below use only plain loops and
their own ``Fraction`` elimination; they never call ``deltasvp`` code.
Besides checking each answer on its own terms, they compare it with the
answer pinned for the instance in the catalog.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

SOLVE = ("svp", "solve")


@dataclass
class Instance:
    """One CLI operation: a command over one input file, plus what to expect."""

    label: str
    command: tuple[str, ...]
    delta: int
    rows: list[list[int]]
    b: list[int] | None = None
    c: list[int] | None = None
    # "short": the input is delta-modular above the threshold, so the solve
    # must give a norm-1 vector; "any": a sound certificate is also fine;
    # "oracle": below the threshold, the enumeration must answer
    expect: str = "any"
    rank_deficient: bool = False
    feasible: list[int] | None = None  # a known solution of a standard-form program
    pinned: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def text(self) -> str:
        lines = [f"{self.m} {self.n}"]
        lines.extend(" ".join(str(x) for x in row) for row in self.rows)
        if self.b is not None:
            lines.append("b: " + " ".join(str(x) for x in self.b))
        if self.c is not None:
            lines.append("c: " + " ".join(str(x) for x in self.c))
        return "\n".join(lines) + "\n"

    def argv(self, path: str) -> list[str]:
        delta = ["--delta", str(self.delta)] if self.command != ("svp", "atleast2") else []
        return [*self.command, *delta, "--json", path]


# --------------------------------------------------------------------------
# independent arithmetic for the checks


def _matvec(rows, z):
    return [sum(a * x for a, x in zip(row, z)) for row in rows]


def fraction_det(rows) -> int:
    """Determinant by Fraction Gaussian elimination with row swaps."""
    work = [[Fraction(x) for x in row] for row in rows]
    n = len(work)
    value = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            value = -value
        value *= work[col][col]
        for r in range(col + 1, n):
            factor = work[r][col] / work[col][col]
            if factor:
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return int(value)


def fraction_rank(rows) -> int:
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col] / work[rank][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


def threshold_bound(delta: int) -> int:
    """ceil((delta-1)/2) * (delta-1), written out from the paper's statement."""
    return -(-(delta - 1) // 2) * (delta - 1)


def _ints(values) -> list[int]:
    return [int(x) for x in values]


# --------------------------------------------------------------------------
# verifiers: each returns None when the output is right, else a reason


def _check_solve(inst: Instance, out: dict) -> str | None:
    kind = out.get("kind")
    if inst.expect == "oracle" and kind != "oracle_minimum":
        return f"below the threshold the oracle must answer, got {kind}"
    if inst.expect != "oracle" and kind == "oracle_minimum":
        return "above the threshold the solver must answer"
    if kind == "certificate":
        if inst.expect == "short" or inst.rank_deficient:
            return "certificate on an input that is delta-modular as stated"
        rows = out["rows"]
        if len(set(rows)) != inst.n or any(not 0 <= r < inst.m for r in rows):
            return f"certificate cites invalid rows {rows}"
        value = fraction_det([inst.rows[r] for r in rows])
        if value != int(out["det"]) or abs(value) <= inst.delta:
            return f"certificate rows recompute to det {value}, claimed {out['det']}"
    elif kind in ("short_vector", "oracle_minimum"):
        z, y = _ints(out["z"]), _ints(out["y"])
        if len(z) != inst.n or not any(z):
            return "vector is zero or has the wrong length"
        if _matvec(inst.rows, z) != y:
            return "y != A z"
        norm = max(abs(x) for x in y)
        if out["norm"] != norm:
            return f"reported norm {out['norm']} but max |y| = {norm}"
        if kind == "short_vector" and norm != 1:
            return f"short vector has norm {norm}"
        best_column = min(max(abs(row[j]) for row in inst.rows) for j in range(inst.n))
        if norm > best_column:
            return f"norm {norm} is beaten by a single column ({best_column})"
    else:
        return f"unknown outcome kind {kind!r}"
    if inst.pinned:
        got = {"kind": kind, "norm": out.get("norm")}
        want = {"kind": inst.pinned["kind"], "norm": inst.pinned.get("norm")}
        if got != want:
            return f"pinned {want}, got {got}"
    return None


def _check_atleast2(inst: Instance, out: dict) -> str | None:
    # the lower-bound construction has no vector of norm below 2 on any seed
    if out.get("shortest_is_at_least_2") is not True or "witness" in out:
        return f"lower-bound instance reported a short witness: {out}"
    return None


def _check_support(inst: Instance, out: dict) -> str | None:
    if out["bound"] != inst.m + threshold_bound(inst.delta):
        return f"bound {out['bound']} != m + threshold"
    if out["passed"] is not True:
        return "support bound failed on a delta-modular program"
    if out["optimal_value"] is None or out["optimizer_count"] < 1:
        return "a feasible program was reported infeasible"
    if int(out["optimal_value"]) < sum(c * x for c, x in zip(inst.c, inst.feasible)):
        return "optimal value is below that of a known feasible point"
    if not 0 <= out["min_support"] <= out["bound"]:
        return f"min support {out['min_support']} outside [0, bound]"
    if inst.pinned:
        got = (int(out["optimal_value"]), out["min_support"], out["optimizer_count"])
        want = tuple(inst.pinned[k] for k in ("optimal_value", "min_support", "optimizer_count"))
        if got != want:
            return f"pinned {want}, got {got}"
    return None


def _check_facedim(inst: Instance, out: dict) -> str | None:
    if out["bound"] != threshold_bound(inst.delta) or out["passed"] is not True:
        return f"face-dimension bound failed: {out['bound']}, {out['passed']}"
    vertices = [tuple(_ints(v["vertex"])) for v in out["vertices"]]
    if not vertices or vertices != sorted(set(vertices)):
        return "hull vertices are empty, unsorted or repeated"
    dims = []
    for entry, v in zip(out["vertices"], vertices):
        slack = [bi - ax for bi, ax in zip(inst.b, _matvec(inst.rows, v))]
        if min(slack) < 0:
            return f"vertex {v} lies outside the polytope"
        tight = [row for row, s in zip(inst.rows, slack) if s == 0]
        dim = inst.n - (fraction_rank(tight) if tight else 0)
        if entry["face_dimension"] != dim:
            return f"vertex {v}: face dimension {entry['face_dimension']}, recomputed {dim}"
        if dim > out["bound"]:
            return f"vertex {v} sits on a face of dimension {dim}"
        dims.append(dim)
    if inst.pinned and sorted(dims) != inst.pinned["dims"]:
        return f"pinned face dimensions {inst.pinned['dims']}, got {sorted(dims)}"
    return None


CHECKS: dict[tuple[str, ...], Callable[[Instance, dict], str | None]] = {
    SOLVE: _check_solve,
    ("svp", "atleast2"): _check_atleast2,
    ("verify", "support"): _check_support,
    ("verify", "facedim"): _check_facedim,
}


def verify(inst: Instance, code: int | None, text: str) -> str | None:
    """Independent check of one operation's exit code and stdout."""
    if code != 0:
        return f"exit code {code}"
    try:
        out = json.loads(text)
        return CHECKS[inst.command](inst, out)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"malformed output: {exc!r}"


# --------------------------------------------------------------------------
# the catalog
#
# Each workload is a fixed catalog of instances, read from catalog.json
# (drawn once by make_catalog.py, each with its pinned answer).  The run's
# seed orders the pass.  A catalog drawn afresh per seed made a few heavy
# instances set each pass's cost: the throughput of five seeds spread by
# 24-45% (quartile distance over the median), far beyond any bound a
# regression check could use.

CATALOG = Path(__file__).resolve().parent / "catalog.json"
WORKLOADS = ("solve-large", "solve-walk", "enumerate", "verify-hull")


def tiny_subset(instances: list[Instance]) -> list[Instance]:
    """The smallest instance of each command and expectation, for the self-check."""
    smallest: dict = {}
    for inst in instances:
        key = (inst.command, inst.expect)
        if key not in smallest or inst.m * inst.n < smallest[key].m * smallest[key].n:
            smallest[key] = inst
    return list(smallest.values())


def build(workload: str, seed: int, tiny: bool = False) -> list[Instance]:
    """The workload's catalog instances, in the seed's pass order."""
    records = json.loads(CATALOG.read_text())[workload]
    instances = [Instance(**{**r, "command": tuple(r["command"])}) for r in records]
    if tiny:
        instances = tiny_subset(instances)
    random.Random(f"{workload}/{seed}").shuffle(instances)
    return instances
