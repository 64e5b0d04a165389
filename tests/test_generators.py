import random

import pytest

from deltasvp import generators
from deltasvp.errors import BudgetExceededError, DimensionError, DomainError, InvariantError
from deltasvp.generators import (
    MAX_CONSTRUCTION_WORK,
    complete_digraph_incidence,
    lower_bound_instance,
    random_delta_modular,
    random_full_rank,
    sparsity_instance,
)
from deltasvp.linalg import (
    det,
    is_totally_delta_modular,
    max_abs_full_rank_subdet,
    rank,
)


class TestCompleteDigraphIncidence:
    def test_two_nodes_unordered(self):
        assert complete_digraph_incidence(2, ordered=False).entries == ((1, -1),)

    def test_three_nodes_unordered(self):
        assert complete_digraph_incidence(3, ordered=False).entries == (
            (1, -1, 0),
            (1, 0, -1),
            (0, 1, -1),
        )

    def test_two_nodes_ordered(self):
        assert complete_digraph_incidence(2, ordered=True).entries == ((1, -1), (-1, 1))

    def test_arc_counts(self):
        assert complete_digraph_incidence(5, ordered=False).rows == 10
        assert complete_digraph_incidence(5, ordered=True).rows == 20

    def test_too_few_nodes(self):
        with pytest.raises(DomainError):
            complete_digraph_incidence(1, ordered=False)


class TestLowerBoundInstance:
    def test_delta_two(self):
        assert lower_bound_instance(2).entries == ((2,),)

    def test_delta_three(self):
        assert lower_bound_instance(3).entries == ((-1, -3), (1, 0), (2, 3))

    def test_delta_three_minors(self):
        a = lower_bound_instance(3)
        from itertools import combinations

        minors = [abs(det(a.submatrix_rows(rows))) for rows in combinations(range(3), 2)]
        assert minors == [3, 3, 3]

    def test_shapes(self):
        for delta in (2, 3, 4, 5, 6):
            a = lower_bound_instance(delta)
            assert a.shape == (delta * (delta - 1) // 2, delta - 1)
            assert rank(a) == delta - 1

    def test_exact_modularity(self):
        for delta in (2, 3, 4, 5):
            assert max_abs_full_rank_subdet(lower_bound_instance(delta))[0] == delta

    def test_small_delta_rejected(self):
        with pytest.raises(DomainError):
            lower_bound_instance(1)


class TestSparsityInstance:
    def test_delta_two(self):
        a, b = sparsity_instance(2)
        assert a.entries == ((1, 1, 0), (-1, 0, 2))
        assert b == (2, 1)

    def test_delta_three(self):
        a, b = sparsity_instance(3)
        assert a.entries == (
            (1, 0, 1, 0, 0, 0, 0),
            (0, 1, 0, 1, 0, 0, 0),
            (1, -1, 0, 0, 1, 0, 0),
            (-1, 1, 0, 0, 0, 1, 0),
            (-1, -1, 0, 0, 0, 0, 3),
        )
        assert b == (2, 2, 1, 1, 1)

    def test_all_ones_solves(self):
        for delta in (2, 3, 4, 5):
            a, b = sparsity_instance(delta)
            assert a.matvec([1] * a.cols) == b

    def test_dimensions_and_rank(self):
        for delta in (2, 3, 4):
            a, _ = sparsity_instance(delta)
            m = (delta - 1) ** 2 + 1
            assert a.shape == (m, m + delta - 1)
            assert rank(a) == m

    def test_totally_modular_small(self):
        for delta in (2, 3):
            a, _ = sparsity_instance(delta)
            assert is_totally_delta_modular(a, delta)


class TestRandomDeltaModular:
    def test_deterministic(self):
        a = random_delta_modular(2, 5, 3, 99)
        b = random_delta_modular(2, 5, 3, 99)
        assert a == b
        assert a != random_delta_modular(2, 5, 3, 100)

    def test_unimodular_family(self):
        for seed in range(5):
            a = random_delta_modular(1, 4, 2, seed)
            assert max_abs_full_rank_subdet(a)[0] == 1

    def test_delta_attained(self):
        for delta in (2, 3, 4):
            for seed in range(8):
                a = random_delta_modular(delta, 5, 2, seed)
                assert max_abs_full_rank_subdet(a)[0] == delta

    def test_full_column_rank(self):
        a = random_delta_modular(3, 7, 4, 1)
        assert rank(a) == 4

    def test_bad_dimensions(self):
        with pytest.raises(DimensionError):
            random_delta_modular(2, 2, 3, 0)
        with pytest.raises(DomainError):
            random_delta_modular(0, 3, 2, 0)

    @pytest.mark.parametrize("name", ["det", "rank"])
    def test_broken_construction_raises_invariant_error(self, monkeypatch, name):
        """A square factor whose determinant is not delta, or a product
        below full column rank, is a broken invariant, and its check is a
        raise, so it holds under python -O as well."""
        monkeypatch.setattr(generators, name, lambda matrix: 0)
        with pytest.raises(InvariantError):
            random_delta_modular(2, 5, 3, 99)


class TestRejectionSamplers:
    """Tall and wide draws alike reach rank min(rows, cols)."""

    def test_full_column_rank(self):
        rng = random.Random(1)
        for _ in range(20):
            m = random_full_rank(rng, 4, 3, -5, 5)
            assert rank(m) == 3

    def test_full_row_rank(self):
        rng = random.Random(2)
        for _ in range(20):
            m = random_full_rank(rng, 2, 5, -5, 5)
            assert rank(m) == 2


class TestConstructionCap:
    """Each construction's work is gated by MAX_CONSTRUCTION_WORK before it
    builds anything: the largest admitted size builds, the next is refused."""

    @pytest.mark.parametrize(
        "build, admitted, shape, refused, work",
        [
            # rows * cols^2 = 625 * 40^2 is exactly the cap
            (lambda rows: random_delta_modular(3, rows, 40, 1), 625, (625, 40), 626, 626 * 40**2),
            # C(delta, 2) * (delta - 1)^2: 962,407 at 38, 1,070,004 at 39
            (lower_bound_instance, 38, (703, 37), 39, 741 * 38**2),
            # m * n with m = (delta - 1)^2 + 1, n = m + delta - 1: 955,266 at 32
            (lambda delta: sparsity_instance(delta)[0], 32, (962, 993), 33, 1025 * 1057),
        ],
        ids=["random", "lower_bound", "sparsity"],
    )
    def test_cap(self, build, admitted, shape, refused, work):
        assert MAX_CONSTRUCTION_WORK == 1_000_000
        assert build(admitted).shape == shape
        with pytest.raises(BudgetExceededError) as info:
            build(refused)
        assert str(info.value).endswith(f" of size {work} exceeds budget 1000000")
