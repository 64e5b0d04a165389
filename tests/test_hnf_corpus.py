"""The exact (H, U) of ``hnf``, pinned on a seeded corpus.

``matrix hnf`` prints U as well as H, and many unimodular U give the same
H, so the shape and lattice checks in test_linalg.py do not pin its bytes.
tests/fixtures/hnf_corpus.json holds ``hnf`` of every corpus matrix: up to
6 x 5, entries in [-9, 9], with zero rows, zero columns and rank-deficient
cases among them.  Regenerate it only for a documented change of ``hnf``:

    PYTHONPATH=src:tests python -c "import test_hnf_corpus as t; t.write_fixture()"
"""

import json
import random
from pathlib import Path

from deltasvp.linalg import IntMatrix, hnf, rank

FIXTURE = Path(__file__).parent / "fixtures" / "hnf_corpus.json"
SEED, SIZE = 20260417, 300


def corpus() -> list[list[list[int]]]:
    """SIZE seeded matrices; about one in four each gets a zero row, a
    zero column, or a row that is a combination of two others."""
    rng = random.Random(SEED)
    out = []
    for _ in range(SIZE):
        m, n = rng.randint(1, 6), rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        kind = rng.randrange(4)
        if kind == 1:
            a[rng.randrange(m)] = [0] * n
        elif kind == 2:
            j = rng.randrange(n)
            for row in a:
                row[j] = 0
        elif kind == 3 and m >= 3:
            i, k, target = rng.sample(range(m), 3)
            x, y = rng.randint(-2, 2), rng.randint(-2, 2)
            a[target] = [x * p + y * q for p, q in zip(a[i], a[k])]
        out.append(a)
    return out


def cases() -> list[dict]:
    records = []
    for a in corpus():
        h, u = hnf(IntMatrix(a))
        records.append({"a": a, "h": [list(r) for r in h.entries], "u": [list(r) for r in u.entries]})
    return records


def write_fixture() -> None:
    FIXTURE.write_text(json.dumps(cases(), separators=(",", ":")) + "\n")


def test_hnf_matches_the_pinned_corpus():
    pinned = json.loads(FIXTURE.read_text())
    assert [case["a"] for case in pinned] == corpus()
    for case in pinned:
        h, u = hnf(IntMatrix(case["a"]))
        assert (h.entries, u.entries) == (
            tuple(map(tuple, case["h"])),
            tuple(map(tuple, case["u"])),
        ), case["a"]


def test_corpus_covers_the_degenerate_cases():
    matrices = corpus()
    assert any(not any(row) for a in matrices for row in a)
    assert any(not any(col) for a in matrices for col in zip(*a))
    assert sum(rank(IntMatrix(a)) < min(len(a), len(a[0])) for a in matrices) >= 30
    assert {(len(a), len(a[0])) for a in matrices} == {
        (m, n) for m in range(1, 7) for n in range(1, 6)
    }
