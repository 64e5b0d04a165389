import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deltasvp import oracle
from deltasvp.errors import BudgetExceededError, DomainError, InvariantError, RankError
from deltasvp.generators import lower_bound_instance, random_full_column_rank
from deltasvp.linalg import IntMatrix, Tableau
from deltasvp.oracle import (
    brute_force_svp,
    certifies_lower_bound,
    enum_bound,
    shortest_is_at_least_2,
)

from oracles import (
    box_first_minimizer,
    box_min_norm,
    cofactor_det,
    fraction_rank,
    greedy_rows,
    preimage_first_witness,
)

M = IntMatrix.from_rows

WORKED = M([[1, 0], [1, 2], [2, 2]])


@st.composite
def full_rank_entries(draw, max_cols=4, bound=4):
    n = draw(st.integers(1, max_cols))
    m = draw(st.integers(n, n + 3))
    row = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    entries = draw(st.lists(row, min_size=m, max_size=m))
    assume(fraction_rank(entries) == n)
    return entries


def with_short_vector(rng, n, m, bound=3):
    """Random rows r with r . z0 in {-1, 0, 1} for a random z0 that has a
    unit entry, so the lattice has a vector of norm <= 1."""
    z0 = [rng.randint(-2, 2) for _ in range(n)]
    p = rng.randrange(n)
    z0[p] = rng.choice((-1, 1))
    rows = []
    for _ in range(m):
        r = [rng.randint(-bound, bound) for _ in range(n)]
        r[p] = 0
        r[p] = (rng.choice((-1, 0, 1)) - sum(a * b for a, b in zip(r, z0))) * z0[p]
        rows.append(r)
    return rows


def no_table(*args, **kwargs):
    raise AssertionError("the scan was started")


class TestEnumBound:
    def test_identity(self):
        assert enum_bound(IntMatrix.identity(3)) == 1

    def test_worked_value(self):
        # best column norm 2, basis rows (0, 1) with det 3, adjugate row
        # 1-norms 3 and 2, so the radius is max(2*3, 2*2) // 3 = 2
        assert enum_bound(M([[-1, -3], [1, 0], [2, 3]])) == 2

    def test_unit_column_means_norm_one(self):
        a = M([[1, 2], [0, 3], [0, 1]])
        assert brute_force_svp(a, enum_bound(a)).norm == 1

    def test_rank_deficient(self):
        with pytest.raises(RankError):
            enum_bound(M([[1, 2], [2, 4]]))


class TestBruteForceSvp:
    def test_identity_box(self):
        result = brute_force_svp(IntMatrix.identity(2), 1)
        assert result.norm == 1
        # lexicographically smallest minimizer, scanning most negative first
        assert result.z == (-1, -1)

    def test_lower_bound_instance(self):
        result = brute_force_svp(lower_bound_instance(3), 2)
        assert result.norm == 2
        assert result.z == (-2, 1)
        assert result.y == (-1, -2, -1)

    def test_worked_example(self):
        result = brute_force_svp(WORKED, 2)
        assert result.norm == 1
        assert result.z == (-1, 1)

    def test_bad_radius(self):
        with pytest.raises(DomainError):
            brute_force_svp(WORKED, 0)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            brute_force_svp(WORKED, 100, budget=1000)

    def test_budget_refuses_before_the_scan(self, monkeypatch):
        monkeypatch.setattr(oracle, "box_images", no_table)
        with pytest.raises(BudgetExceededError):
            brute_force_svp(IntMatrix.identity(40), 1)

    @settings(max_examples=150, deadline=None)
    @given(full_rank_entries(), st.integers(1, 2))
    def test_matches_plain_scan(self, entries, k):
        """Whole result (z, y, norm) against the plain lexicographic scan."""
        result = brute_force_svp(M(entries), k)
        assert (result.z, result.y, result.norm) == box_first_minimizer(entries, k)

    def test_agrees_with_independent_scan(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(1, 3)
            a = random_full_column_rank(rng, rng.randint(n, n + 2), n, -5, 5)
            k = rng.randint(1, 2)
            assert brute_force_svp(a, k).norm == box_min_norm(a.entries, k)

    def test_radius_is_sufficient(self):
        # growing the box beyond the derived radius never improves the norm
        rng = random.Random(77)
        done = 0
        while done < 30:
            n = rng.randint(1, 4)
            a = random_full_column_rank(rng, rng.randint(n, n + 2), n, -9, 9)
            k = enum_bound(a)
            if (2 * (k + 2) + 1) ** n > 200_000:
                continue
            assert brute_force_svp(a, k).norm == box_min_norm(a.entries, k + 2)
            done += 1


class TestShortestIsAtLeast2:
    def test_identity_has_witness(self):
        decided, witness = shortest_is_at_least_2(IntMatrix.identity(3))
        assert not decided
        assert witness == (-1, -1, -1)

    @pytest.mark.parametrize("delta", [2, 3, 4, 5])
    def test_lower_bound_instances(self, delta):
        decided, witness = shortest_is_at_least_2(lower_bound_instance(delta))
        assert decided and witness is None

    def test_worked_example_witness(self):
        decided, witness = shortest_is_at_least_2(WORKED)
        assert not decided
        assert witness == (-1, 1)
        assert max(abs(x) for x in WORKED.matvec(witness)) == 1

    def test_agrees_with_box_enumeration(self):
        rng = random.Random(13)
        done = 0
        while done < 25:
            n = rng.randint(1, 3)
            a = random_full_column_rank(rng, rng.randint(n, n + 2), n, -4, 4)
            k = enum_bound(a)
            if (2 * k + 1) ** n > 200_000:
                continue
            decided, _ = shortest_is_at_least_2(a)
            assert decided == (box_min_norm(a.entries, k) >= 2)
            done += 1

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            shortest_is_at_least_2(WORKED, budget=8)

    def test_budget_refuses_before_the_scan(self, monkeypatch):
        monkeypatch.setattr(oracle, "_box_halves", no_table)
        a = lower_bound_instance(5)
        with pytest.raises(BudgetExceededError):
            shortest_is_at_least_2(a, budget=3**a.cols - 1)

    def test_witness_is_rechecked(self, monkeypatch):
        """A tableau whose N = A adj(B) is wrong lets the join keep a v whose
        z is long; the full recomputation of A z refuses it."""
        a = M([[1, 0], [0, 1], [3, 3]])
        real = oracle.tableau(a)
        zero = M([[0, 0]] * a.rows)
        forged = Tableau(real.rows, real.adj, real.det, zero)
        monkeypatch.setattr(oracle, "tableau", lambda _: forged)
        with pytest.raises(InvariantError):
            shortest_is_at_least_2(a)

    @settings(max_examples=150, deadline=None)
    @given(full_rank_entries())
    def test_matches_plain_scan(self, entries):
        """Decision and witness against the written-out Fraction scan."""
        witness = preimage_first_witness(entries)
        assert shortest_is_at_least_2(M(entries)) == (witness is None, witness)

    def test_residue_join_hits(self):
        """Instances with a short vector and |det B| > 1, where the witness
        comes through the residue join, against the written-out scan."""
        rng = random.Random(23)
        hits = 0
        for _ in range(200):
            n = rng.randint(2, 5)
            entries = with_short_vector(rng, n, rng.randint(n, n + 3))
            if fraction_rank(entries) < n:
                continue
            witness = preimage_first_witness(entries)
            assert witness is not None
            assert shortest_is_at_least_2(M(entries)) == (False, witness)
            hits += abs(cofactor_det(greedy_rows(entries))) > 1
        assert hits >= 100


class TestCertifiesLowerBound:
    @pytest.mark.parametrize("delta", [2, 3, 4, 5])
    def test_constructions_certify(self, delta):
        assert certifies_lower_bound(lower_bound_instance(delta), delta)

    def test_identity_does_not(self):
        assert not certifies_lower_bound(IntMatrix.identity(2), 1)

    def test_short_vector_disqualifies(self):
        assert not certifies_lower_bound(WORKED, 2)

    def test_wrong_delta_disqualifies(self):
        assert not certifies_lower_bound(lower_bound_instance(3), 2)
