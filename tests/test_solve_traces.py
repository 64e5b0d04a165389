"""The solver's choices, pinned: the full (outcome, trace) of
solve_threshold_trace on a seeded family that walks every replacement path.

tests/fixtures/solve_traces.json holds the expected runs.  Regenerate it only
for a documented change of scan order or selection:

    PYTHONPATH=src:tests python -c "import test_solve_traces as t; t.write_fixture()"
"""

import json
import random
from pathlib import Path

from deltasvp.linalg import IntMatrix, max_abs_full_rank_subdet, rank
from deltasvp.threshold import (
    PATH_BLOCK,
    PATH_ENTRY,
    PATH_PAIR,
    ShortVector,
    dimension_threshold,
    solve_threshold_trace,
)

from oracles import unit_first_walk

FIXTURE = Path(__file__).parent / "fixtures" / "solve_traces.json"

WALK_SIZES = [(3, 3), (4, 7), (5, 9), (5, 12), (7, 19)]
WALKS_PER_SIZE = 4
UNDERSTATED = 14

# hand-built exercisers of the entry, pair and block swaps and their variants
PATH_EXERCISERS = [
    (case["a"], case["delta"])
    for case in json.loads((FIXTURE.parent / "path_exercisers.json").read_text())
]


def family() -> list[tuple[list[list[int]], int]]:
    """(rows, delta) pairs: unit-rows-first walks, {0,1} matrices with an
    understated delta, and the path exercisers."""
    rng = random.Random(8)
    cases = [
        (unit_first_walk(rng, delta, n), delta)
        for delta, n in WALK_SIZES
        for _ in range(WALKS_PER_SIZE)
    ]
    made = 0
    while made < UNDERSTATED:
        n = rng.randint(3, 5)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(rng.randint(n + 2, n + 5))]
        a = IntMatrix.from_rows(rows)
        if rank(a) < n:
            continue
        true_delta, _ = max_abs_full_rank_subdet(a)
        if true_delta < 2:
            continue
        claimed = max(d for d in range(1, true_delta) if n > dimension_threshold(d))
        cases.append((rows, claimed))
        made += 1
    return cases + PATH_EXERCISERS


def run(rows: list[list[int]], delta: int) -> dict:
    outcome, trace = solve_threshold_trace(IntMatrix.from_rows(rows), delta)
    if isinstance(outcome, ShortVector):
        result = {"kind": "short_vector", "z": list(outcome.z), "y": list(outcome.y)}
    else:
        result = {"kind": "certificate", "rows": list(outcome.rows), "det": outcome.det_value}
    steps = [[t.path, list(t.rows), t.det_before, t.det_after] for t in trace]
    return {"delta": delta, "a": rows, "outcome": result, "trace": steps}


def write_fixture() -> None:
    runs = [json.dumps(run(rows, delta), separators=(",", ":")) for rows, delta in family()]
    FIXTURE.write_text("[\n" + ",\n".join(runs) + "\n]\n")


def test_runs_match_the_pinned_traces():
    expected = json.loads(FIXTURE.read_text())
    cases = family()
    assert [(c["a"], c["delta"]) for c in expected] == [(rows, d) for rows, d in cases]
    paths = {step[0] for c in expected for step in c["trace"]}
    assert paths == {PATH_ENTRY, PATH_PAIR, PATH_BLOCK}
    assert [run(rows, delta) for rows, delta in cases] == expected
