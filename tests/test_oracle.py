import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deltasvp import oracle
from deltasvp.errors import BudgetExceededError, DomainError, InvariantError, RankError
from deltasvp.generators import lower_bound_instance, random_full_rank
from deltasvp.linalg import (
    IntMatrix,
    Tableau,
    find_invertible_rows,
    max_abs_full_rank_subdet,
    tableau,
)
from deltasvp.oracle import (
    OracleResult,
    _box_halves,
    brute_force_svp,
    enum_bound,
    layered_svp,
    scan_svp,
    shortest_is_at_least_2,
)

from oracles import (
    box_first_minimizer,
    box_min_norm,
    cofactor_det,
    fraction_rank,
    greedy_rows,
    layer_preimages,
    layered_least_minimizer,
    preimage_first_witness,
    unimodular_scramble,
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
        monkeypatch.setattr(oracle, "_box_halves", no_table)
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
            a = random_full_rank(rng, rng.randint(n, n + 2), n, -5, 5)
            k = rng.randint(1, 2)
            assert brute_force_svp(a, k).norm == box_min_norm(a.entries, k)

    def test_radius_is_sufficient(self):
        # growing the box beyond the derived radius never improves the norm
        rng = random.Random(77)
        done = 0
        while done < 30:
            n = rng.randint(1, 4)
            a = random_full_rank(rng, rng.randint(n, n + 2), n, -9, 9)
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
            a = random_full_rank(rng, rng.randint(n, n + 2), n, -4, 4)
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


def lower_bound_certified(a, delta):
    """A is exactly delta-modular and has no lattice vector of norm below
    2: the two facts that check delta and svp atleast2 print."""
    return max_abs_full_rank_subdet(a)[0] == delta and shortest_is_at_least_2(a)[0]


class TestCertifiesLowerBound:
    @pytest.mark.parametrize("delta", [2, 3, 4, 5])
    def test_constructions_certify(self, delta):
        assert lower_bound_certified(lower_bound_instance(delta), delta)

    def test_identity_does_not(self):
        assert not lower_bound_certified(IntMatrix.identity(2), 1)

    def test_short_vector_disqualifies(self):
        assert not lower_bound_certified(WORKED, 2)

    def test_wrong_delta_disqualifies(self):
        assert not lower_bound_certified(lower_bound_instance(3), 2)


def record_layers(monkeypatch) -> list[int]:
    """The radius of every layer the layered scan opens, in order."""
    opened = []
    real = oracle._layer

    def recording(t, r):
        opened.append(r)
        return real(t, r)

    monkeypatch.setattr(oracle, "_layer", recording)
    return opened


class TestLayeredSvp:
    """The layered scan against the box scan at the derived radius, whose
    lexicographically first minimizer it must return exactly."""

    @staticmethod
    def check(a: IntMatrix) -> OracleResult:
        result = layered_svp(a, tableau(a))
        assert result == brute_force_svp(a, enum_bound(a))
        return result

    @settings(max_examples=200, deadline=None)
    @given(full_rank_entries(bound=6))
    def test_matches_box_scan(self, entries):
        a = M(entries)
        assume((2 * enum_bound(a) + 1) ** a.cols <= 20_000)
        self.check(a)
        assert scan_svp(a, tableau(a)) == brute_force_svp(a, enum_bound(a))

    def test_layers_up_to_the_optimum_and_at_most_delta(self, monkeypatch):
        """The scan opens layers 1 .. optimum, and the optimum is at most
        the largest maximal minor (Cramer's rule on any column of N)."""
        opened = record_layers(monkeypatch)
        rng = random.Random(41)
        above_one = 0
        for _ in range(60):
            n = rng.randint(1, 4)
            a = random_full_rank(rng, rng.randint(n, n + 3), n, -7, 7)
            if (2 * enum_bound(a) + 1) ** n > 100_000:
                continue
            opened.clear()
            result = self.check(a)
            assert opened == list(range(1, result.norm + 1))
            assert result.norm <= max_abs_full_rank_subdet(a)[0]
            above_one += result.norm >= 2
        assert above_one >= 10

    @pytest.mark.parametrize("delta", [3, 4, 5])
    def test_lower_bound_instances(self, delta, monkeypatch):
        """Against the written-out layered scan (the box at delta = 5 has
        1,185,921 points)."""
        a = lower_bound_instance(delta)
        opened = record_layers(monkeypatch)
        result = layered_svp(a, tableau(a))
        assert (result.z, result.y, result.norm) == layered_least_minimizer(a.entries)
        assert result.norm == 2 and opened == [1, 2]

    def test_single_column_beyond_the_box_radius(self, monkeypatch):
        """[[30], [50]]: the box radius is 1 and R = 50, so the scan runs
        fifty layers to the only nonzero norms, 50 and up."""
        a = M([[30], [50]])
        assert enum_bound(a) == 1
        opened = record_layers(monkeypatch)
        assert self.check(a) == OracleResult((-1,), (-30, -50), 50)
        assert opened == list(range(1, 51))

    def test_budget_refuses_before_the_scan(self, monkeypatch):
        monkeypatch.setattr(oracle, "_box_halves", no_table)
        a = lower_bound_instance(5)
        # layers 1 and 2 of a 4-column matrix: 3^4 + 5^4 points at least
        with pytest.raises(BudgetExceededError, match="^layered scan of size"):
            layered_svp(a, tableau(a), budget=3**4 + 5**4 - 1)

    def test_minimizer_is_rechecked(self, monkeypatch):
        """A tableau whose N = A adj(B) lost its last row keeps every
        preimage of layer 1; the recomputed A z refuses the long one."""
        a = M([[1, 0], [0, 1], [3, 3]])
        real = tableau(a)
        forged = Tableau(real.rows, real.adj, real.det, M([[1, 0], [0, 1], [0, 0]]))
        with pytest.raises(InvariantError, match="^layer 1 minimizer has norm 6$"):
            layered_svp(a, forged)


@st.composite
def wide_entries(draw):
    """Full column rank entries with n <= 3: small ones, or small ones times
    a unimodular matrix with factors of up to 70 bits (the same lattice, so
    the layers still hold short vectors while adj(B) is huge), and maybe a
    last row of entries up to 2^70."""
    entries = [list(row) for row in draw(full_rank_entries(max_cols=3, bound=4))]
    bits = draw(st.sampled_from([0, 8, 70]))
    if bits and len(entries[0]) > 1:
        entries = unimodular_scramble(entries, draw(st.integers(0, 99)), 4, bits)
    if draw(st.booleans()):
        big = st.integers(-(2**70), 2**70)
        entries.append(draw(st.lists(big, min_size=len(entries[0]), max_size=len(entries[0]))))
    return entries


class TestPackedScan:
    """The word-parallel range test of _kept, through both norm scans and
    on its own, against written-out scans in tests/oracles.py."""

    @settings(max_examples=150, deadline=None)
    @given(wide_entries(), st.integers(1, 3))
    def test_layer_matches_written_out_layer(self, entries, r):
        a = M(entries)
        assert list(oracle._layer(tableau(a), r)) == list(layer_preimages(entries, r))

    @settings(max_examples=150, deadline=None)
    @given(wide_entries(), st.integers(1, 2))
    def test_box_scan_matches_plain_scan(self, entries, k):
        result = brute_force_svp(M(entries), k)
        assert (result.z, result.y, result.norm) == box_first_minimizer(entries, k)

    def test_words_wider_than_one(self):
        """A scrambled lower-bound instance: adj(B) has entries past 2^64,
        so layer 2 packs at two words, and it holds the norm-2 vectors."""
        entries = unimodular_scramble(lower_bound_instance(4).entries, 1, 6, 70)
        a = M(entries)
        t = tableau(a)
        stacked = IntMatrix._trusted(t.adj.entries + t.numerators.entries)
        assert _box_halves(stacked, [range(-2, 3)] * 3, 2 * abs(t.det))[0] > 64
        layer = list(oracle._layer(t, 2))
        assert layer and layer == list(layer_preimages(entries, 2))

    @pytest.mark.parametrize("limit", [1, 6, 2**61, 2**62, 2**70])
    def test_boundaries(self, limit):
        """Digit 0 is not tested and takes -1, 0, 1; digits 1 and 2 take
        +-limit, which is kept, and +-(limit + 1), which is not.  A
        negative digit 0 would borrow from digit 1 without its bias of
        2^(w-1), and limit 2^62 needs a second word for the sign bit."""
        edge = [-limit - 1, -limit, 0, limit, limit + 1]
        ranges = [range(-1, 2), edge, edge]
        width, heads, tails = _box_halves(IntMatrix.identity(3), ranges, limit)
        window = oracle._window(3, 1, width, limit)
        kept = [
            head + tail
            for head, image in heads
            for tail, _ in oracle._kept(image, tails, window)
        ]
        assert kept == [x for x in product(*ranges) if abs(x[1]) <= limit and abs(x[2]) <= limit]

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_layer_boundaries(self, r):
        """At det(B) = 1 ([[1, 0], [0, 1], [1, 1]]) the tested N digit of v
        is v_0 + v_1: +-r is kept and +-(r + 1) is not.  At det(B) = -2
        (rows [1, 1] and [1, -1], then [r, r + 1]) the N digit of
        z = (+-1, 0) is -+2r, exactly r |det B|, and it is kept, while
        z = (0, +-1) reaches 2(r + 1) and is not."""
        a = M([[1, 0], [0, 1], [1, 1]])
        layer = list(oracle._layer(tableau(a), r))
        box = product(range(-r, r + 1), repeat=2)
        assert layer == [v for v in box if any(v) and abs(v[0] + v[1]) <= r]
        entries = [[1, 1], [1, -1], [r, r + 1]]
        t = tableau(M(entries))
        layer = list(oracle._layer(t, r))
        assert t.det == -2 and layer == list(layer_preimages(entries, r))
        assert {(1, 0), (-1, 0)} <= set(layer) and not {(0, 1), (0, -1)} & set(layer)

    def test_box_scan_pitfall(self):
        """The optimum, 178, lies at v = (70, 17) on the greedy basis, far
        outside layer 1: a scan that applied the layer filter when a pair
        is first joined would miss it."""
        entries = [[-70, 179], [-17, 153], [178, 133], [71, -186], [38, 197]]
        a = M(entries)
        k = enum_bound(a)
        result = brute_force_svp(a, k)
        assert result.norm == 178
        assert (result.z, result.y, result.norm) == box_first_minimizer(entries, k)


class TestScanSvp:
    """The choice between the layers and the box: the one with fewer
    points, with the same answer either way."""

    def test_layers_when_fewer_points(self, monkeypatch):
        a = lower_bound_instance(4)
        expected = brute_force_svp(a, enum_bound(a))
        opened = record_layers(monkeypatch)
        monkeypatch.setattr(oracle, "_box_scan", no_table)
        assert scan_svp(a, tableau(a)) == expected
        assert opened == [1, 2]

    def test_box_when_fewer_points(self, monkeypatch):
        """A single column of large entries: 3 box points against about a
        million in the layers up to R = 960."""
        opened = record_layers(monkeypatch)
        a = M([[960], [881], [-842]])
        assert scan_svp(a, tableau(a)) == OracleResult((-1,), (-960, -881, 842), 960)
        assert opened == []

    def test_box_gate_refuses_when_neither_fits(self, monkeypatch):
        monkeypatch.setattr(oracle, "_box_halves", no_table)
        a = lower_bound_instance(5)
        with pytest.raises(BudgetExceededError, match="^box enumeration of size"):
            scan_svp(a, tableau(a), budget=10)


@pytest.mark.parametrize(
    "call",
    [
        tableau,
        find_invertible_rows,
        enum_bound,
        shortest_is_at_least_2,
        lambda a: brute_force_svp(a, 1),
        max_abs_full_rank_subdet,
    ],
    ids=["tableau", "find_invertible_rows", "enum_bound", "shortest_is_at_least_2",
         "brute_force_svp", "max_abs_full_rank_subdet"],
)
def test_one_rank_message(call):
    """Every entry point that needs an invertible row set refuses a
    rank-deficient matrix with the same words."""
    with pytest.raises(RankError) as info:
        call(M([[1, 2], [2, 4]]))
    assert str(info.value) == "full column rank required"
