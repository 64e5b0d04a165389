import math
import random
from collections import Counter
from dataclasses import replace
from itertools import combinations
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deltasvp import threshold
from deltasvp.errors import (
    DomainError,
    InvariantError,
    RankError,
    ThresholdError,
    ZeroLatticeError,
)
from deltasvp.generators import lower_bound_instance, random_delta_modular
from deltasvp.linalg import IntMatrix, Tableau, det, hnf, max_abs_full_rank_subdet, tableau
from deltasvp.oracle import OracleResult, brute_force_svp, enum_bound, shortest_is_at_least_2
from deltasvp.textio import parse_matrix
from deltasvp.threshold import (
    PATH_BLOCK,
    PATH_ENTRY,
    PATH_PAIR,
    Certificate,
    ShortVector,
    Transition,
    dimension_threshold,
    solve_svp,
    solve_threshold_trace,
    threshold_step,
)

from oracles import (
    abelian_groups,
    class_orders,
    cofactor_det,
    fraction_rank,
    unimodular_scramble,
)

M = IntMatrix.from_rows

WORKED = M([[1, 0], [1, 2], [2, 2]])
FIXTURES = Path(__file__).parent / "fixtures"


def assert_ratio_dets(a, trace):
    """Each transition's det_after, read off the tableau by the ratio
    identity, equals the cofactor determinant of its rows."""
    for t in trace:
        assert abs(cofactor_det(a.submatrix_rows(t.rows).entries)) == t.det_after


# Hand-built exercisers for the two rare replacement paths.  Both understate
# delta, so the run must end in a certificate; the working basis walks the
# documented route on the way there.
PAIR_SWAP_INSTANCE = M(
    [[1, 0, 0], [0, 1, 0], [1, 1, 3], [0, 2, 3], [2, 0, 3], [0, 0, 3]]
)
BLOCK_SWAP_INSTANCE = M([[1, 0], [1, 2], [0, -2], [2, 2]])
BLOCK_SWAP_INSTANCE_3 = M(
    [[1, 0, 0], [0, 1, 0], [1, 1, 3], [-1, 1, 0], [1, 2, 3], [2, 1, 3], [0, 0, 3]]
)
# |det| = 3 with adj(B) columns (3, 0, -1), (0, 3, -1), (0, 0, 1): one class
# modulo 3, two of its members negated onto the key (0, 0, 1)
NEGATION_INSTANCE = M([[1, 0, 0], [0, 1, 0], [1, 1, 3]])


class TestDimensionThreshold:
    @pytest.mark.parametrize(
        "delta,expected", [(1, 0), (2, 1), (3, 2), (4, 6), (5, 8), (6, 15)]
    )
    def test_values(self, delta, expected):
        assert dimension_threshold(delta) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            dimension_threshold(0)


@pytest.fixture
def selections(monkeypatch):
    """(residues, d, members) of every same-class selection a pass makes."""
    seen = []
    original = threshold._select_same_class

    def recording(residues, d):
        members = original(residues, d)
        seen.append((residues, d, members))
        return members

    monkeypatch.setattr(threshold, "_select_same_class", recording)
    return seen


@pytest.fixture
def scanned(monkeypatch):
    """Numerators, over det(B), of every test vector a pass tries, in scan
    order."""
    seen = []
    original = threshold._exact

    def recording(numerators, d_signed, what):
        numerators = tuple(numerators)
        if what == "test vector":
            seen.append(numerators)
        return original(numerators, d_signed, what)

    monkeypatch.setattr(threshold, "_exact", recording)
    return seen


class TestResidueKey:
    """Residues of the columns of adj(B) modulo |det B|, which the integral
    column scan computes and hands to the selection."""

    def test_identity_is_integral(self, selections):
        a = IntMatrix.identity(2)
        assert threshold_step(a, tableau(a)) == ShortVector((1, 0), (1, 0), 1)
        assert selections == []

    def test_worked_keys(self, selections):
        a = M([[1, 0], [1, 2]])
        threshold_step(a, tableau(a))
        assert selections[0][:2] == ([(0, 1), (0, 1)], 2)

    def test_negative_determinant(self, selections):
        a = M([[0, 1], [1, 0]])  # det -1: everything integral
        assert tableau(a).det == -1
        assert threshold_step(a, tableau(a)) == ShortVector((0, 1), (1, 0), 1)
        assert selections == []

    def test_negation(self, selections):
        threshold_step(NEGATION_INSTANCE, tableau(NEGATION_INSTANCE))
        assert selections[0][:2] == ([(0, 0, 2), (0, 0, 2), (0, 0, 1)], 3)
        # (0, 0, 2) negates to (0, 0, 1) modulo 3, the smaller key: sign -1
        assert selections[0][2] == [(0, -1), (1, -1), (2, 1)]


class TestSelectSameClass:
    def test_worked_selection(self, selections):
        a = M([[1, 0], [1, 2]])
        threshold_step(a, tableau(a))
        assert selections[0][2] == [(0, 1), (1, 1)]

    def test_singleton(self):
        # a single class of three columns at d = 2 gives its first two
        assert threshold._select_same_class([(0, 1), (0, 1), (0, 1)], 2) == [(0, 1), (1, 1)]

    def test_tie_sign_is_plus(self):
        # (1, 1) is its own negation modulo 2; (1, 3) lands on (1, 3) modulo 4
        assert threshold._select_same_class([(1, 1), (1, 1)], 2) == [(0, 1), (1, 1)]
        residues = [(3, 1), (1, 3), (3, 1), (1, 3)]
        assert threshold._select_same_class(residues, 4) == [(0, -1), (1, 1), (2, -1), (3, 1)]

    def test_opposite_classes_resolved_by_sign(self, selections):
        a = NEGATION_INSTANCE
        tab = tableau(a)
        threshold_step(a, tab)
        members = selections[0][2]
        assert members == [(0, -1), (1, -1), (2, 1)]
        # the signed columns differ pairwise by integer vectors
        signed = [tuple(s * x for x in tab.adj.column(j)) for j, s in members]
        for u, v in combinations(signed, 2):
            assert all((x - y) % tab.det == 0 for x, y in zip(u, v))

    def test_selection_capped_by_determinant(self, selections):
        # the selection takes |det B| = 2 of the three columns
        b = M([[1, 0, 0], [0, 1, 0], [1, 1, 2]])
        threshold_step(b, tableau(b))
        assert len(selections[0][2]) == 2

    def test_smallest_large_enough_class_wins(self):
        # classes {+-(1, 1)}: columns 0, 2, 4; {+-(0, 1)}: columns 1, 3, 5
        residues = [(1, 1), (0, 1), (2, 2), (0, 2), (1, 1), (0, 1)]
        assert threshold._select_same_class(residues, 3) == [(1, 1), (3, -1), (5, 1)]
        # without column 5, {+-(0, 1)} is short of d = 3 members
        assert threshold._select_same_class(residues[:5], 3) == [(0, 1), (2, -1), (4, 1)]

    def test_no_class_large_enough_is_a_bug(self):
        with pytest.raises(InvariantError, match="no residue class"):
            threshold._select_same_class([(0, 1), (1, 0)], 2)

    def test_class_of_smaller_order_when_no_class_holds_d(self):
        """Z_2 x Z_2 at d = 4: seven columns in three classes of order 2,
        none with four members; the smallest key with two members wins."""
        residues = [(2, 0), (0, 2), (2, 2), (2, 0), (2, 2), (2, 0), (0, 2)]
        assert threshold._select_same_class(residues, 4) == [(1, 1), (6, 1)]
        with pytest.raises(InvariantError, match="no residue class"):
            threshold._select_same_class(residues[:3], 4)

    def test_non_cyclic_residue_group_solves(self):
        """A 4-modular 12 x 7 input whose greedy basis has |det B| = 4 and
        the residue group Z_2 x Z_2, with no class of four columns: a
        selection that demands d members raises InvariantError here."""
        a = M([[1, 1, 0, 1, -1, 2, -2], [-2, -1, -1, -1, 0, -1, 4], [1, 1, 1, 1, 0, 0, -2],
               [0, -1, 1, 2, 1, 0, 0], [-2, -1, -1, -2, 0, -1, 4], [-1, -1, 0, 0, 1, -2, 4],
               [0, -1, 0, -1, 0, 0, 0], [1, 1, 0, 0, 0, 0, -2], [1, 1, 0, 0, -1, 1, -2],
               [1, 0, 1, 2, 0, 2, -4], [0, -1, 0, 0, 0, 1, 0], [1, 1, 0, 0, -1, 1, -2]])
        assert max_abs_full_rank_subdet(a)[0] == 4 and a.cols > dimension_threshold(4)
        tab = tableau(a)
        assert abs(tab.det) == 4
        residues = {tuple(x % 4 for x in col) for col in zip(*tab.adj.entries)}
        assert all(2 * x % 4 == 0 for res in residues for x in res)  # every class has order 2
        outcome, trace = solve_threshold_trace(a, 4)
        assert trace == () and isinstance(outcome, ShortVector)
        assert outcome.z == (0, 0, 1, 0, -2, -1, 0)


def test_selection_counts_over_every_small_residue_group():
    """The residues of the columns of B^-1 form an abelian group of order
    d = |det B|; each +-class {x, -x} of its nonzero elements has an order
    o.  Columns escape the fallback only with fewer than o in every class,
    at most sum (o - 1) of them, which never exceeds the threshold at d
    (floor(d/2) * (d - 1)), so above the threshold the fallback always
    finds a class.  Rule 1 (d columns of one class) is escaped by up to
    (d - 1) columns per class: exactly the threshold on a cyclic group, and
    more on 41 of the 53 others (9 against 6 for Z_2 x Z_2)."""
    groups = abelian_groups(64)
    assert len(groups) == 116
    assert sum(len(g) == 1 for g in groups) == 63
    rule_1_escapes_above = 0
    for g in groups:
        d = math.prod(g)
        orders = class_orders(g)
        bound = (d // 2) * (d - 1)
        assert bound == dimension_threshold(d)
        assert sum(o - 1 for o in orders) <= bound, g
        rule_1_escape = (d - 1) * len(orders)
        if len(g) == 1:
            assert rule_1_escape == bound, g
        else:
            assert rule_1_escape >= bound, g
            rule_1_escapes_above += rule_1_escape > bound
    assert rule_1_escapes_above == 41
    assert class_orders((2, 2)) == [2, 2, 2]


class TestBuildTestVectors:
    """The lazy test-vector scan: differences (i, j), i < j, in
    lexicographic order, then the sum of the selected signed columns."""

    def test_worked_vectors(self, scanned):
        result = threshold_step(BLOCK_SWAP_INSTANCE, tableau(BLOCK_SWAP_INSTANCE))
        assert result.path == PATH_BLOCK  # nothing short: the scan ran to the end
        assert scanned == [(2, -2), (2, 0)]  # (1,-1), then (1,0)

    def test_count(self, scanned, selections):
        a = BLOCK_SWAP_INSTANCE_3
        assert threshold_step(a, tableau(a)).path == PATH_BLOCK
        size = len(selections[0][2])
        assert size == 3
        assert len(scanned) == math.comb(size, 2) + 1

    def test_non_integral_candidate_is_a_bug(self, monkeypatch):
        # the residues are read off adj(B), so a selection from one class
        # always gives integral test vectors, whatever adj(B) is; a
        # selection of one column of order 2 is forged instead
        monkeypatch.setattr(threshold, "_select_same_class", lambda residues, d: [(0, 1)])
        a = M([[1, 0], [1, 2]])
        with pytest.raises(InvariantError, match="test vector is not integral"):
            threshold_step(a, tableau(a))

    def test_scan_stops_at_the_first_short_vector(self, scanned):
        assert threshold_step(WORKED, tableau(WORKED)) == ShortVector((1, -1), (1, -1, 0), 1)
        assert scanned == [(2, -2)]

    def test_image_that_looks_short_is_rechecked(self):
        # N with row 2 of the selected columns made equal: the first
        # difference's image reads (1, -1, 0, 0), but A z = (1, -1, 2, 0)
        real = tableau(BLOCK_SWAP_INSTANCE)
        forged = M([[2, 0], [0, 2], [2, 2], [2, 2]])
        assert real.numerators.entries[2] == (2, -2)
        tab = Tableau(real.rows, real.adj, real.det, forged)
        with pytest.raises(InvariantError, match="claimed short vector has norm 2"):
            threshold_step(BLOCK_SWAP_INSTANCE, tab)

    def test_non_integral_image_is_a_bug(self):
        # row 2 of N forged to (1, -2): the first difference's image has
        # (1 - -2) / 2 there
        real = tableau(BLOCK_SWAP_INSTANCE)
        forged = M([[2, 0], [0, 2], [1, -2], [2, 2]])
        tab = Tableau(real.rows, real.adj, real.det, forged)
        with pytest.raises(InvariantError, match="test vector image is not integral"):
            threshold_step(BLOCK_SWAP_INSTANCE, tab)


class TestThresholdStep:
    def test_identity_returns_first_unit_column(self):
        a = IntMatrix.identity(3)
        result = threshold_step(a, tableau(a))
        assert result == ShortVector((1, 0, 0), (1, 0, 0), 1)

    def test_worked_example_resolves_via_difference(self):
        result = threshold_step(WORKED, tableau(WORKED))
        assert result == ShortVector((1, -1), (1, -1, 0), 1)

    def test_oversized_determinant_certificates(self):
        a = M([[-1, -3], [1, 0], [2, 3]])
        assert solve_threshold_trace(a, 1) == (Certificate((0, 1), 3), ())

    def test_entry_swap_grows_determinant(self):
        a = M([[1, 0], [0, 1], [3, 1]])
        result = threshold_step(a, tableau(a))
        assert result == Transition(PATH_ENTRY, (2, 1), 1, 3)

    def test_replacement_that_does_not_grow_detected(self, monkeypatch):
        monkeypatch.setattr(Tableau, "swapped_det", lambda tab, swaps: 1)
        a = M([[1, 0], [0, 1], [3, 1]])
        with pytest.raises(InvariantError, match="failed to grow"):
            threshold_step(a, tableau(a))

    def test_pair_swap_route(self):
        result = threshold_step(PAIR_SWAP_INSTANCE, tableau(PAIR_SWAP_INSTANCE))
        assert isinstance(result, Transition)
        assert result.path == PATH_PAIR
        assert result.det_after == 6

    def test_block_swap_route(self):
        result = threshold_step(BLOCK_SWAP_INSTANCE, tableau(BLOCK_SWAP_INSTANCE))
        assert isinstance(result, Transition)
        assert result.path == PATH_BLOCK
        assert result.det_after == 4
        assert result.rows == (2, 3)

    def test_below_threshold_rejected(self):
        with pytest.raises(ThresholdError):
            solve_threshold_trace(WORKED, 3)

    def test_next_tableau_disagreeing_with_ratio_detected(self, monkeypatch):
        # every swapped tableau comes back scaled by 2, which the swap's own
        # checks cannot tell apart; only the cross-check against the
        # ratio-identity determinant can
        original = Tableau.swapped
        built = []

        def double(m):
            return M([[2 * x for x in row] for row in m.entries])

        def scaled(tab, swaps):
            new = original(tab, swaps)
            built.append(new)
            return replace(
                new, adj=double(new.adj), det=2 * new.det, numerators=double(new.numerators)
            )

        monkeypatch.setattr(Tableau, "swapped", scaled)
        a = parse_matrix((FIXTURES / "walk_to_short_vector.txt").read_text())
        with pytest.raises(InvariantError, match="ratio identity"):
            solve_threshold_trace(a, 3)
        assert len(built) == 1


class TestSolveThreshold:
    def test_identity(self):
        outcome = solve_threshold_trace(IntMatrix.identity(2), 1)[0]
        assert isinstance(outcome, ShortVector)
        assert outcome.norm == 1

    def test_worked_example(self):
        outcome = solve_threshold_trace(WORKED, 2)[0]
        assert outcome == ShortVector((1, -1), (1, -1, 0), 1)

    def test_certificate_on_understated_delta(self):
        outcome = solve_threshold_trace(M([[-1, -3], [1, 0], [2, 3]]), 2)[0]
        assert isinstance(outcome, Certificate)
        assert abs(outcome.det_value) == 3

    def test_pair_swap_certificate(self):
        outcome, trace = solve_threshold_trace(PAIR_SWAP_INSTANCE, 3)
        assert [t.path for t in trace] == [PATH_PAIR]
        assert trace[0].det_before == 3 and trace[0].det_after == 6
        assert_ratio_dets(PAIR_SWAP_INSTANCE, trace)
        assert outcome == Certificate((1, 3, 4), 6)

    def test_block_swap_certificates(self):
        outcome, trace = solve_threshold_trace(BLOCK_SWAP_INSTANCE, 2)
        assert [t.path for t in trace] == [PATH_BLOCK]
        assert outcome == Certificate((2, 3), 4)
        assert_ratio_dets(BLOCK_SWAP_INSTANCE, trace)

        outcome3, trace3 = solve_threshold_trace(BLOCK_SWAP_INSTANCE_3, 3)
        assert [t.path for t in trace3] == [PATH_BLOCK]
        assert trace3[0].det_after == 9
        assert outcome3 == Certificate((3, 4, 6), -9)
        assert_ratio_dets(BLOCK_SWAP_INSTANCE_3, trace3)

    def test_certificate_rows_recompute(self):
        for a, delta in [
            (PAIR_SWAP_INSTANCE, 3),
            (BLOCK_SWAP_INSTANCE, 2),
            (BLOCK_SWAP_INSTANCE_3, 3),
        ]:
            outcome = solve_threshold_trace(a, delta)[0]
            assert isinstance(outcome, Certificate)
            assert det(a.submatrix_rows(outcome.rows)) == outcome.det_value
            assert abs(outcome.det_value) > delta

    def test_deterministic(self):
        for a, delta in [(WORKED, 2), (PAIR_SWAP_INSTANCE, 3)]:
            assert solve_threshold_trace(a, delta) == solve_threshold_trace(a, delta)

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankError):
            solve_threshold_trace(M([[1, 2], [2, 4]]), 1)

    def test_below_threshold_rejected(self):
        with pytest.raises(ThresholdError):
            solve_threshold_trace(lower_bound_instance(3), 3)

    def test_random_modular_corpus_always_finds_norm_one(self):
        rng = random.Random(2024)
        for _ in range(40):
            delta = rng.randint(1, 3)
            n = dimension_threshold(delta) + rng.randint(1, 3)
            m = n + rng.randint(0, 4)
            a = random_delta_modular(delta, m, n, rng.randrange(2**32))
            outcome, trace = solve_threshold_trace(a, delta)
            assert isinstance(outcome, ShortVector)
            assert max(abs(x) for x in outcome.y) == 1
            assert a.matvec(outcome.z) == outcome.y
            for t in trace:
                assert t.det_after >= t.det_before + 1
            assert len(trace) <= delta
            assert_ratio_dets(a, trace)

    def test_understated_random_runs_stay_sound(self):
        rng = random.Random(555)
        runs = 0
        while runs < 30:
            n = rng.randint(2, 3)
            m = n + rng.randint(1, 3)
            a = M([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
            try:
                true_delta, _ = max_abs_full_rank_subdet(a)
            except Exception:
                continue
            if true_delta < 2:
                continue
            claimed = rng.randint(1, true_delta - 1)
            if n < dimension_threshold(claimed) + 1:
                continue
            outcome, trace = solve_threshold_trace(a, claimed)
            if isinstance(outcome, Certificate):
                assert det(a.submatrix_rows(outcome.rows)) == outcome.det_value
                assert abs(outcome.det_value) > claimed
            else:
                assert max(abs(x) for x in outcome.y) == 1
            for t in trace:
                assert t.det_after >= t.det_before + 1
            assert_ratio_dets(a, trace)
            runs += 1


class TestSolveSvp:
    def test_threshold_path_certificate(self):
        outcome = solve_svp(M([[2, 0], [0, 2]]), 1)
        assert isinstance(outcome, Certificate)
        assert abs(outcome.det_value) == 4

    def test_oracle_path_below_threshold(self):
        result = solve_svp(lower_bound_instance(3), 3)
        assert isinstance(result, OracleResult)
        assert result.norm == 2
        assert result.z == (-2, 1)

    def test_rank_deficient_reduces_to_basis(self):
        result = solve_svp(M([[2, 4]]), 2)
        assert isinstance(result, OracleResult)
        assert result.norm == 2
        # reported in original coordinates
        assert M([[2, 4]]).matvec(result.z) == result.y

    def test_rank_deficient_threshold_path(self):
        # three columns, rank two: the solver runs on the derived basis and
        # maps the witness back to the input coordinates
        a = M([[1, 0, 1], [1, 2, 3], [2, 2, 4]])
        result = solve_svp(a, 2)
        assert isinstance(result, ShortVector)
        assert a.matvec(result.z) == result.y
        assert max(abs(x) for x in result.y) == 1

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroLatticeError):
            solve_svp(M([[0, 0], [0, 0]]), 1)

    def test_bad_delta_rejected(self):
        with pytest.raises(DomainError):
            solve_svp(WORKED, 0)

    def test_worked_example(self):
        outcome = solve_svp(WORKED, 2)
        assert outcome == ShortVector((1, -1), (1, -1, 0), 1)

    def test_single_column_dispatch_both_ways(self):
        a = M([[3], [5]])
        # below the threshold for delta = 3: complete enumeration, and the
        # norm is the largest coordinate of the only primitive image
        result = solve_svp(a, 3)
        assert isinstance(result, OracleResult)
        assert result.norm == 5 and result.z == (-1,)
        # at the threshold for delta = 1: the working basis already beats it
        outcome = solve_svp(a, 1)
        assert isinstance(outcome, Certificate)
        assert abs(outcome.det_value) == 3

    def test_box_budget_propagates(self):
        from deltasvp.errors import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            solve_svp(M([[30], [50]]), 3, box_budget=2)

    def test_oracle_agreement_on_threshold_results(self):
        rng = random.Random(616)
        for _ in range(15):
            delta = rng.randint(1, 3)
            n = dimension_threshold(delta) + rng.randint(1, 2)
            a = random_delta_modular(delta, n + rng.randint(0, 3), n, rng.randrange(2**32))
            outcome = solve_svp(a, delta)
            assert isinstance(outcome, ShortVector)
            decided, _ = shortest_is_at_least_2(a)
            assert not decided  # the oracle agrees a norm-1 vector exists


def box_solve(a: IntMatrix) -> OracleResult | None:
    """The below-threshold answer of the box scan alone: brute_force_svp at
    enum_bound on the nonzero columns of the Hermite normal form when A
    lacks full column rank, z mapped back to A's columns; None when the
    box has more than 100,000 points."""
    work, u, nonzero = a, None, range(a.cols)
    if fraction_rank(a.entries) < a.cols:
        h, u = hnf(a)
        nonzero = [j for j in range(a.cols) if any(h.column(j))]
        work = h.submatrix(range(a.rows), nonzero)
    k = enum_bound(work)
    if (2 * k + 1) ** work.cols > 100_000:
        return None
    result = brute_force_svp(work, k)
    if u is None:
        return result
    return replace(result, z=u.submatrix(range(a.cols), nonzero).matvec(result.z))


@st.composite
def below_threshold_inputs(draw):
    """(A, delta) with 1..4 columns, entries in [-6, 6], any rank but 0,
    and delta high enough that the columns are below its threshold."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, n + 3))
    row = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    entries = draw(st.lists(row, min_size=m, max_size=m))
    assume(any(x for r in entries for x in r))
    return M(entries), draw(st.integers(4, 9))


class TestBelowThreshold:
    """solve_svp below the dimension threshold against the box scan it
    replaced, and under changes of basis of the same lattice."""

    @settings(max_examples=250, deadline=None)
    @given(below_threshold_inputs())
    def test_same_vector_as_the_box_scan(self, case):
        a, delta = case
        expected = box_solve(a)
        assume(expected is not None)
        assert solve_svp(a, delta) == expected

    def test_rank_deficient_and_long_optima(self):
        """Enough rank-deficient inputs and optima of norm >= 2 that both
        show, against the box scan."""
        rng = random.Random(2024)
        deficient = long = 0
        for _ in range(150):
            n = rng.randint(1, 4)
            m = rng.randint(1, n + 2)
            entries = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
            a = M(entries)
            if not any(x for r in entries for x in r):
                continue
            expected = box_solve(a)
            if expected is None:
                continue
            assert solve_svp(a, 9) == expected
            deficient += fraction_rank(entries) < n
            long += expected.norm >= 2
        assert deficient >= 30 and long >= 30

    def test_single_column_beyond_the_box_radius(self):
        a = M([[30], [50]])
        assert solve_svp(a, 3) == brute_force_svp(a, enum_bound(a)) == OracleResult(
            (-1,), (-30, -50), 50
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 7), st.integers(2, 4), st.integers(0, 2**32 - 1),
           st.integers(1, 6), st.sampled_from([1, 2, 8, 20, 70]))
    def test_scramble_keeps_the_norm(self, delta, n, seed, steps, bits):
        """A unimodular change of basis leaves the lattice, every maximal
        minor and so the layers' reach unchanged: the same norm comes back,
        however wide the scrambled entries."""
        n = min(n, dimension_threshold(delta))
        a = random_delta_modular(delta, n + 2, n, seed)
        scrambled = M(unimodular_scramble(a.entries, seed, steps, bits))
        assert solve_svp(scrambled, delta).norm == solve_svp(a, delta).norm

    @pytest.mark.parametrize("delta", [3, 4, 5])
    @pytest.mark.parametrize("bits", [2, 20, 70])
    def test_scrambled_lower_bound_instances(self, delta, bits):
        """The box radius grows with the entries and the parent box scan
        refused these; the layers answer norm 2 in two layers."""
        a = lower_bound_instance(delta)
        scrambled = M(unimodular_scramble(a.entries, delta, 6, bits))
        if bits == 70:
            assert max(abs(x) for row in scrambled.entries for x in row) >= 2**64
        assert (2 * enum_bound(scrambled) + 1) ** scrambled.cols > 10**7
        result = solve_svp(scrambled, delta)
        assert result.norm == 2
        assert scrambled.matvec(result.z) == result.y


class TestStateValidation:
    def test_short_vector_must_be_norm_one(self):
        with pytest.raises(InvariantError):
            ShortVector((1, 0), (2, 0), 2)

    def test_short_vector_must_be_nonzero(self):
        with pytest.raises(InvariantError):
            ShortVector((0, 0), (0, 0), 1)


def half_integral_walk(rng: random.Random) -> tuple[IntMatrix, Tableau, int]:
    """(A, start tableau, delta) for a run that walks through block swaps.

    A has n = 7...10 columns: unit rows e_0 ... e_(n-2), the row
    (1, ..., 1, 2), the rows e_0 +- e_1 and up to three more pairs
    e_i +- e_j with i, j < n - 1.  On the first n rows |det B| = 2 and
    every column of B^-1 lies in one class of order 2; e_0 +- e_1 make the
    difference and the sum of the first two columns long, so the pass
    replaces both at once and |det B| grows to 4.  Half the draws start
    there, the other half on the greedy basis of a shuffled row order.
    delta is overstated: drawn from |det B| up to the largest value whose
    threshold n still exceeds.
    """
    n = rng.randint(7, 10)
    rows = [[int(i == j) for j in range(n)] for i in range(n - 1)] + [[1] * (n - 1) + [2]]
    pairs = [(0, 1)] + rng.sample(list(combinations(range(n - 1), 2)), rng.randint(0, 3))
    for i, j in pairs:
        for sign in (1, -1):
            rows.append([1 if t == i else sign if t == j else 0 for t in range(n)])
    a = M(rows)
    if rng.random() < 0.5:
        start = range(n)
    else:
        order = rng.sample(range(a.rows), a.rows)
        start = [order[i] for i in tableau(a.submatrix_rows(order)).rows]
    tab = tableau(a, start)
    top = max(d for d in range(1, n) if n > dimension_threshold(d))
    return a, tab, rng.randint(min(abs(tab.det), top), top)


class TestWalkingSwaps:
    """Runs of the solver loop from a prescribed basis, threshold._solve(a,
    delta, tableau(a, start)), over half_integral_walk: every tableau after
    the first is Tableau.swapped of the one before, on its carried packed
    rows, and must equal a fresh tableau of its rows."""

    @staticmethod
    def walk(a: IntMatrix, tab: Tableau, delta: int) -> tuple[Transition, ...]:
        original = Tableau.swapped

        def checked(old, swaps):
            new = original(old, swaps)
            assert new == tableau(a, new.rows)
            return new

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Tableau, "swapped", checked)
            outcome, trace = threshold._solve(a, delta, tab)
        if isinstance(outcome, ShortVector):
            assert any(outcome.z)
            assert outcome.y == tuple(sum(map(mul, row, outcome.z)) for row in a.entries)
            assert max(map(abs, outcome.y)) == 1
        else:
            value = cofactor_det(a.submatrix_rows(outcome.rows).entries)
            assert outcome.det_value == value and abs(value) > delta
        assert len(trace) <= delta
        dets = [abs(tab.det)] + [t.det_after for t in trace]
        assert [t.det_before for t in trace] == dets[:-1]
        assert all(x < y for x, y in zip(dets, dets[1:]))
        return trace

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_walks_are_sound(self, rng):
        self.walk(*half_integral_walk(rng))

    def test_seeded_walks_reach_block_swaps_within_delta(self):
        """Seeds 0...59: at least one replacement of two or more rows whose
        det_after <= delta, so its swap built the next pass's tableau."""
        inside = Counter()
        for seed in range(60):
            a, tab, delta = half_integral_walk(random.Random(seed))
            for t in self.walk(a, tab, delta):
                if t.path != PATH_ENTRY and t.det_after <= delta:
                    inside[t.path] += 1
        assert inside[PATH_BLOCK] + inside[PATH_PAIR] >= 1
