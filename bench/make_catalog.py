#!/usr/bin/env python3
"""Draws the benchmark's instance catalog and writes ``bench/catalog.json``::

    python3 bench/make_catalog.py

The benchmark never runs this: it reads the catalog as data, so that the
work it measures does not depend on the code it measures.  This script
records how the catalog was drawn when the benchmark was defined.  It uses
the program (its generators, and some of its functions as filters), so
running it after the program has changed may draw a different catalog;
do that only to redefine the benchmark.

Each instance's answer is pinned from the program's output, after that
output has passed the independent checks in ``workloads.verify``.  Oracle
norms of full-rank instances are confirmed by a full scan of a box two
wider than the oracle's own radius; standard-form optima by a full scan
of the derived box.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from dataclasses import asdict
from itertools import combinations, product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import (  # noqa: E402
    CATALOG, SOLVE, Instance, _matvec, fraction_det, fraction_rank, threshold_bound, verify,
)

# delta 9 needs more than 32 columns, so it runs at n = 40 only
LARGE_SIZES = [(5, 24), (5, 32), (5, 40), (7, 24), (7, 32), (7, 40), (9, 40)]
LARGE_PER_SIZE = 2


def build_solve_large(lib, rng: random.Random) -> list[Instance]:
    out = []
    for delta, n in LARGE_SIZES:
        for k in range(LARGE_PER_SIZE):
            a = lib.generators.random_delta_modular(delta, 3 * n, n, rng.randrange(2**32))
            out.append(Instance(f"large/d{delta}-n{n}/{k}", SOLVE, delta,
                                [list(r) for r in a.entries], expect="short"))
    return out


# hand-built inputs that reach the pair- and block-swap paths (the random
# sources below reach only entry swaps)
PATH_EXERCISERS = [
    ([[1, 0, 0], [0, 1, 0], [1, 1, 3], [0, 2, 3], [2, 0, 3], [0, 0, 3]], 3),
    ([[1, 0, 0], [0, 1, 0], [1, 1, 3], [0, 2, 3], [2, 0, 3], [0, 0, 3], [0, 1, 3]], 3),
    ([[1, 0], [1, 2], [0, -2], [2, 2]], 2),
    ([[1, 0], [1, 2], [0, -2], [2, 2], [1, 2]], 2),
    ([[1, 0], [1, 2], [0, -2], [2, 2], [-1, -2], [0, 2]], 2),
    ([[1, 0, 0], [0, 1, 0], [1, 1, 3], [-1, 1, 0], [1, 2, 3], [2, 1, 3], [0, 0, 3]], 3),
]

WALK_SIZES = [(5, 12), (5, 16), (7, 20), (7, 24), (9, 34)]
WALK_PER_SIZE = 4
UNDERSTATED = 14


def _unit_first_walk(rng: random.Random, delta: int, n: int) -> list[list[int]]:
    """Unit rows, then network rows (totally unimodular) and one row v with
    ||v||_1 <= delta and an entry of size >= 2, in random order.  Every
    basis has |det| <= ||v||_1 <= delta, and the greedy start is the
    identity, so the solver must replace rows to grow the determinant."""
    tail = []
    for _ in range(2 * n):
        row = [0] * n
        i = rng.randrange(n)
        row[i] = 1
        if rng.random() < 0.8:
            j = rng.randrange(n - 1)
            row[j + (j >= i)] = -1
        tail.append(row)
    v = [0] * n
    big = rng.randint(2, delta)
    v[rng.randrange(n)] = big * rng.choice((1, -1))
    left = delta - big
    while left > 0 and rng.random() < 0.7:
        j = rng.randrange(n)
        if v[j]:
            continue
        s = rng.randint(1, left)
        v[j] = s * rng.choice((1, -1))
        left -= s
    tail.append(v)
    rng.shuffle(tail)
    return [[int(i == j) for j in range(n)] for i in range(n)] + tail


def build_solve_walk(lib, rng: random.Random) -> list[Instance]:
    out = []
    for delta, n in WALK_SIZES:
        for k in range(WALK_PER_SIZE):
            out.append(Instance(f"walk/unit-d{delta}-n{n}/{k}", SOLVE, delta,
                                _unit_first_walk(rng, delta, n), expect="short"))
    # random {0,1} matrices with a claimed delta below the true one: the
    # walk ends in a certificate or a norm-1 vector
    made = 0
    while made < UNDERSTATED:
        n = rng.randint(3, 5)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(rng.randint(n + 2, n + 5))]
        a = lib.linalg.IntMatrix.from_rows(rows)
        if lib.linalg.rank(a) < n:
            continue
        true_delta, _ = lib.linalg.max_abs_full_rank_subdet(a)
        if true_delta < 2:
            continue
        claimed = max(d for d in range(1, true_delta) if n > threshold_bound(d))
        out.append(Instance(f"walk/understated-n{n}/{made}", SOLVE, claimed, rows))
        made += 1
    for k, (rows, delta) in enumerate(PATH_EXERCISERS):
        out.append(Instance(f"walk/exerciser/{k}", SOLVE, delta, [list(r) for r in rows]))
    return out


BOX_RANGE = (300, 30_000)  # box points of the oracle scan, bounds the per-op cost
ORACLE_SOLVES = 10
RANK_DEFICIENT = 4
ATLEAST2_DELTAS = range(4, 11)  # delta 11 and 12 take 2.4 s and 6 s per scan
SUPPORT_PROGRAMS = 6
ILP_BOX_MAX = 20_000


def _box_points(lib, a) -> int:
    return (2 * lib.oracle.enum_bound(a) + 1) ** a.cols


def build_enumerate(lib, rng: random.Random) -> list[Instance]:
    out = []
    lo, hi = BOX_RANGE
    made = 0
    while made < ORACLE_SOLVES:
        delta = rng.choice((3, 4, 5))
        n = rng.randint(2, 3 if delta > 3 else 2)
        a = lib.generators.random_delta_modular(delta, n + rng.randint(0, 3), n,
                                                rng.randrange(2**32))
        if lo <= _box_points(lib, a) <= hi:
            out.append(Instance(f"enum/oracle-d{delta}-n{n}/{made}", SOLVE, delta,
                                [list(r) for r in a.entries], expect="oracle"))
            made += 1
    made = 0
    while made < RANK_DEFICIENT:
        delta = rng.choice((3, 4))
        n = rng.randint(2, 3 if delta > 3 else 2)
        a = lib.generators.random_delta_modular(delta, n + rng.randint(1, 3), n,
                                                rng.randrange(2**32))
        i, j = rng.sample(range(n), 2)
        sign = rng.choice((1, -1))
        extra = [row[i] + sign * row[j] for row in a.entries]
        at = rng.randrange(n + 1)
        rows = [list(row[:at]) + [e] + list(row[at:]) for row, e in zip(a.entries, extra)]
        h, _ = lib.linalg.hnf(lib.linalg.IntMatrix.from_rows(rows))
        keep = [c for c in range(h.cols) if any(h.column(c))]
        work = h.submatrix(range(h.rows), keep)
        if lo <= _box_points(lib, work) <= hi:
            out.append(Instance(f"enum/rank-deficient-d{delta}-n{n}/{made}", SOLVE, delta,
                                rows, expect="oracle", rank_deficient=True))
            made += 1
    for delta in ATLEAST2_DELTAS:
        rows = [list(r) for r in lib.generators.lower_bound_instance(delta).entries]
        rng.shuffle(rows)
        out.append(Instance(f"enum/atleast2-d{delta}", ("svp", "atleast2"), delta, rows))
    made = 0
    while made < SUPPORT_PROGRAMS:
        m, n = rng.randint(2, 3), rng.randint(4, 6)
        rows = [[rng.choice((0, 0, 1, 1, 2)) for _ in range(n)] for _ in range(m)]
        if any(not any(row[j] for row in rows) for j in range(n)) or fraction_rank(rows) < m:
            continue
        x0 = [rng.randint(0, 2) for _ in range(n)]
        b = _matvec(rows, x0)
        box = lib.polyhedra.derive_box(lib.linalg.IntMatrix.from_rows(rows), b)
        size = 1
        for u in box or ():
            size *= u + 1
        if box is None or size > ILP_BOX_MAX:
            continue
        delta = max(abs(fraction_det([[row[j] for j in cols] for row in rows]))
                    for cols in combinations(range(n), m))
        c = [rng.randint(-3, 3) for _ in range(n)]
        out.append(Instance(f"enum/support-m{m}-n{n}/{made}", ("verify", "support"), delta,
                            rows, b=b, c=c, feasible=x0))
        made += 1
    return out


# the acceptance suite's criterion-7 plan: (delta, dimensions, polytopes)
HULL_PLAN = [(1, (2, 3, 4), 18), (2, (2, 3), 17), (3, (2, 3), 17)]
HULL_CORPUS_SEED = 90210


def build_verify_hull(lib, rng: random.Random) -> list[Instance]:
    """The 52 polytopes of acceptance criterion 7, drawn as that test draws
    them: delta-modular A stacked with -A, a right-hand side in [0, 3], at
    most 60 lattice points."""
    rng = random.Random(HULL_CORPUS_SEED)  # the test's seed, not the catalog's
    out = []
    for delta, dims, wanted in HULL_PLAN:
        produced = 0
        while produced < wanted:
            n = rng.choice(dims)
            m = n + rng.randint(0, 2)
            a = lib.generators.random_delta_modular(delta, m, n, rng.randrange(2**32))
            rows = [list(r) for r in a.entries] + [[-x for x in r] for r in a.entries]
            stacked = lib.linalg.IntMatrix.from_rows(rows)
            if lib.linalg.max_abs_full_rank_subdet(stacked)[0] != delta:
                continue
            b = [rng.randint(0, 3) for _ in range(2 * m)]
            poly = lib.polyhedra.PolyhedronH(stacked, tuple(b))
            try:
                if len(lib.polyhedra.integer_points(poly, budget=20_000)) > 60:
                    continue
            except lib.errors.BudgetExceededError:
                continue
            out.append(Instance(f"hull/{len(out)}-d{delta}-n{n}", ("verify", "facedim"),
                                delta, rows, b=b))
            produced += 1
    return out


BUILDERS = {
    "solve-large": build_solve_large,
    "solve-walk": build_solve_walk,
    "enumerate": build_enumerate,
    "verify-hull": build_verify_hull,
}


def _min_norm(rows, k: int) -> int:
    """Minimum of ||A z||_inf over nonzero z in [-k, k]^n, full scan."""
    best = None
    for z in product(range(-k, k + 1), repeat=len(rows[0])):
        if any(z):
            norm = max(abs(y) for y in _matvec(rows, z))
            best = norm if best is None else min(best, norm)
    return best


def _best_program(inst: Instance, box) -> tuple[int, int, int]:
    """(optimum, least support of an optimizer, optimizers) by a full scan."""
    best, supports = None, []
    for x in product(*(range(u + 1) for u in box)):
        if _matvec(inst.rows, x) != inst.b:
            continue
        value = sum(c * xi for c, xi in zip(inst.c, x))
        support = sum(1 for xi in x if xi)
        if best is None or value > best:
            best, supports = value, [support]
        elif value == best:
            supports.append(support)
    return best, min(supports), len(supports)


def pin(lib, inst: Instance, path: Path) -> dict:
    """The answer the program gives, checked, in the form PINNED compares."""
    path.write_text(inst.text())
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = lib.cli.main(inst.argv(str(path)))
    reason = verify(inst, code, buf.getvalue())
    assert reason is None, (inst.label, reason)
    out = json.loads(buf.getvalue())
    if inst.command == SOLVE:
        if out["kind"] == "oracle_minimum" and not inst.rank_deficient:
            a = lib.linalg.IntMatrix.from_rows(inst.rows)
            assert _min_norm(inst.rows, lib.oracle.enum_bound(a) + 2) == out["norm"], inst.label
        return {"kind": out["kind"], "norm": out.get("norm")}
    if inst.command == ("verify", "support"):
        found = (int(out["optimal_value"]), out["min_support"], out["optimizer_count"])
        assert _best_program(inst, out["box"]) == found, inst.label
        return dict(zip(("optimal_value", "min_support", "optimizer_count"), found))
    if inst.command == ("verify", "facedim"):
        return {"dims": sorted(v["face_dimension"] for v in out["vertices"])}
    return {}


def encode(inst: Instance) -> str:
    """One catalog line: the instance's fields, leaving out defaults."""
    defaults = asdict(Instance("", SOLVE, 0, []))
    record = {k: v for k, v in asdict(inst).items()
              if k in ("label", "command", "delta", "rows") or v != defaults[k]}
    return json.dumps(record, separators=(",", ":"))


def main() -> int:
    lib = run.load_program()
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / "catalog-pin.txt"
    lines = ["{"]
    for w, (workload, builder) in enumerate(BUILDERS.items()):
        instances = builder(lib, random.Random(f"{workload}/catalog"))
        for inst in instances:
            inst.pinned = pin(lib, inst, path)
        body = ",\n".join(encode(inst) for inst in instances)
        lines.append(f'"{workload}": [\n{body}\n]' + ("," if w < len(BUILDERS) - 1 else ""))
        print(f"{workload}: {len(instances)} instances", file=sys.stderr)
    lines.append("}")
    path.unlink()
    CATALOG.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
