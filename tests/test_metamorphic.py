"""Metamorphic properties of the commands: a change of presentation that
leaves the paper's objects alone leaves the answer alone.

Permuting or negating the rows of A, or a unimodular U acting on its
columns (A -> A U: the same lattice, every maximal minor up to sign),
must not change what `check delta` (max_abs_full_rank_subdet) and
`svp atleast2` (shortest_is_at_least_2) decide.  The inputs are small
random_delta_modular and lower_bound_instance matrices, so C(m, n) and 3^n
stay far inside DEFAULT_MINOR_BUDGET and DEFAULT_BOX_BUDGET; the
scrambles reach 70-bit entries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from deltasvp.generators import lower_bound_instance, random_delta_modular
from deltasvp.linalg import IntMatrix, max_abs_full_rank_subdet
from deltasvp.oracle import shortest_is_at_least_2

from oracles import cofactor_det, unimodular_scramble


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


@settings(max_examples=100, deadline=None)
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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_atleast2_keeps_its_verdict(data):
    """A row permutation and A -> A U give the same verdict."""
    a = data.draw(instances())
    verdict = shortest_is_at_least_2(a)[0]
    order = data.draw(st.permutations(range(a.rows)))
    assert shortest_is_at_least_2(IntMatrix.from_rows([a.entries[i] for i in order]))[0] == verdict
    scrambled = IntMatrix.from_rows(unimodular_scramble(a.entries, *data.draw(SCRAMBLES)))
    assert shortest_is_at_least_2(scrambled)[0] == verdict
