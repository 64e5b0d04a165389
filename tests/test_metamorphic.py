"""Metamorphic properties of the commands: a change of presentation that
leaves the paper's objects alone leaves the answer alone.

Permuting or negating the rows of A, or a unimodular U acting on its
columns (A -> A U: the same lattice, every maximal minor up to sign),
must not change what `check delta` (max_abs_full_rank_subdet) and
`svp atleast2` (shortest_is_at_least_2) decide.  The inputs are small
random_delta_modular and lower_bound_instance matrices, so C(m, n) and 3^n
stay far inside DEFAULT_MINOR_BUDGET and DEFAULT_BOX_BUDGET; the
scrambles reach 70-bit entries.

Above the threshold, at a delta that bounds every |det|, `svp solve`
(solve_svp) must find a vector of norm exactly 1 under both changes too.
Its inputs are random_delta_modular matrices and the unit-rows-first walks
of tests/test_solve_traces.py, which replace rows before they find one;
under 70-bit scrambles their tableaux outgrow one 64-bit word.

`verify support` (verify_support_bound with an explicit box) depends only
on the set {x : A x = b, 0 <= x <= box} and on c: permuting the variables
(the columns of A, the entries of c and of the box together) and
multiplying [A | b] on the left by an integer matrix that is invertible
over the rationals keep the optimum, the optimizer count and the least
support.
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deltasvp.generators import lower_bound_instance, random_delta_modular
from deltasvp.linalg import IntMatrix, max_abs_full_rank_subdet
from deltasvp.oracle import shortest_is_at_least_2
from deltasvp.polyhedra import StandardFormILP, verify_support_bound
from deltasvp.threshold import ShortVector, dimension_threshold, solve_svp

from oracles import cofactor_det, fraction_rank, unimodular_scramble, unit_first_walk
from test_solve_traces import WALK_SIZES


@st.composite
def instances(draw) -> IntMatrix:
    """lower_bound_instance(3..5) (no vector of norm 1) or a random
    delta-modular m x n matrix with 2 <= n <= 4 and m <= n + 4."""
    if draw(st.booleans()):
        return lower_bound_instance(draw(st.integers(3, 5)))
    n = draw(st.integers(2, 4))
    return random_delta_modular(
        draw(st.integers(1, 5)), draw(st.integers(n, n + 4)), n, draw(st.integers(0, 2**32 - 1))
    )


#: (seed, steps, bits) of a unimodular_scramble
SCRAMBLES = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from((1, 2, 20, 70)))


@settings(max_examples=100)
@given(st.data())
def test_check_delta_keeps_its_maximum(data):
    """Under a row permutation with negations the maximum is the same, and
    the new witness, mapped back through the permutation, has that |det|
    in the original; under A -> A U every minor keeps its |det|, so the
    witness rows are the same too."""
    a = data.draw(instances())
    largest, rows = max_abs_full_rank_subdet(a)
    order = data.draw(st.permutations(range(a.rows)))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=a.rows, max_size=a.rows))
    moved = IntMatrix.from_rows([[s * x for x in a.entries[i]] for i, s in zip(order, signs)])
    moved_largest, moved_rows = max_abs_full_rank_subdet(moved)
    assert moved_largest == largest
    assert abs(cofactor_det([a.entries[order[k]] for k in moved_rows])) == largest
    scrambled = IntMatrix.from_rows(unimodular_scramble(a.entries, *data.draw(SCRAMBLES)))
    assert max_abs_full_rank_subdet(scrambled) == (largest, rows)


@settings(max_examples=100)
@given(st.data())
def test_atleast2_keeps_its_verdict(data):
    """A row permutation and A -> A U give the same verdict."""
    a = data.draw(instances())
    verdict = shortest_is_at_least_2(a)[0]
    order = data.draw(st.permutations(range(a.rows)))
    assert shortest_is_at_least_2(IntMatrix.from_rows([a.entries[i] for i in order]))[0] == verdict
    scrambled = IntMatrix.from_rows(unimodular_scramble(a.entries, *data.draw(SCRAMBLES)))
    assert shortest_is_at_least_2(scrambled)[0] == verdict


@st.composite
def above_threshold(draw) -> tuple[IntMatrix, int]:
    """(A, delta), delta bounding every |det| and A with more than
    dimension_threshold(delta) columns: a unit-rows-first walk at one of
    WALK_SIZES, or random_delta_modular with 2 <= delta <= 5 (so n >= 2
    for the scramble) and m <= n + 4."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        delta, n = draw(st.sampled_from(WALK_SIZES))
        return IntMatrix.from_rows(unit_first_walk(random.Random(seed), delta, n)), delta
    delta = draw(st.integers(2, 5))
    n = dimension_threshold(delta) + draw(st.integers(1, 2))
    return random_delta_modular(delta, draw(st.integers(n, n + 4)), n, seed), delta


@settings(max_examples=60)
@given(above_threshold(), st.data())
def test_solve_above_the_threshold_finds_norm_one(case, data):
    """On A, on a row permutation of A with negations and on A U (steps of
    70 bits), svp solve returns a ShortVector whose z has norm exactly 1
    on the matrix it was given, by a plain loop over its rows."""
    a, delta = case
    order = data.draw(st.permutations(range(a.rows)))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=a.rows, max_size=a.rows))
    moved = [[s * x for x in a.entries[i]] for i, s in zip(order, signs)]
    seed, steps = data.draw(st.integers(0, 2**32 - 1)), data.draw(st.integers(1, 6))
    for rows in (a.entries, moved, unimodular_scramble(a.entries, seed, steps, 70)):
        outcome = solve_svp(IntMatrix.from_rows(rows), delta)
        assert isinstance(outcome, ShortVector)
        assert max(abs(sum(x * z for x, z in zip(row, outcome.z))) for row in rows) == 1


@st.composite
def programs(draw):
    """(A, b, c, box): A of full row rank with at most 3 rows and 5
    columns, entries in [-2, 3], box entries in [0, 3], and b the image of
    a box point, moved off it in a quarter of the draws."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 5))
    row = st.lists(st.integers(-2, 3), min_size=n, max_size=n)
    a = draw(st.lists(row, min_size=m, max_size=m))
    assume(fraction_rank(a) == m)
    box = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    x0 = [draw(st.integers(0, u)) for u in box]
    b = [sum(x * y for x, y in zip(r, x0)) for r in a]
    if draw(st.integers(0, 3)) == 0:
        b = [value + draw(st.integers(-2, 2)) for value in b]
    c = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    return a, b, c, box


def _support(a, b, c, box):
    """(value, optimizer count, least support) of verify_support_bound at
    delta 2, and its verdict."""
    report = verify_support_bound(StandardFormILP(IntMatrix.from_rows(a), tuple(b), tuple(c)), 2, box)
    return report.optimal_value, report.optimizer_count, report.min_support, report.passed


@settings(max_examples=100)
@given(programs(), st.data())
def test_support_under_a_column_permutation(program, data):
    a, b, c, box = program
    order = data.draw(st.permutations(range(len(c))))
    moved = [[row[j] for j in order] for row in a]
    assert _support(moved, b, [c[j] for j in order], [box[j] for j in order]) == _support(
        a, b, c, box
    )


@settings(max_examples=100)
@given(programs(), st.data())
def test_support_under_invertible_row_operations(program, data):
    """Seeded steps on the rows of [A | b], each invertible over the
    rationals: add f times another row (f of up to 70 bits, either sign),
    scale a row by a nonzero integer in [-3, 3], or swap two rows."""
    a, b, c, box = program
    rows = [list(row) + [value] for row, value in zip(a, b)]
    m = len(rows)
    for _ in range(data.draw(st.integers(1, 5))):
        i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
        kind = data.draw(st.sampled_from(("add", "scale", "swap")))
        if kind == "add" and i != j:
            f = data.draw(st.sampled_from((1, -1))) * data.draw(st.integers(1, 2**70))
            rows[i] = [x + f * y for x, y in zip(rows[i], rows[j])]
        elif kind == "scale":
            s = data.draw(st.sampled_from((-3, -2, -1, 2, 3)))
            rows[i] = [s * x for x in rows[i]]
        else:
            rows[i], rows[j] = rows[j], rows[i]
    moved_a, moved_b = [row[:-1] for row in rows], [row[-1] for row in rows]
    assert _support(moved_a, moved_b, c, box) == _support(a, b, c, box)
