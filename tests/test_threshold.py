import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from deltasvp import threshold
from deltasvp.errors import (
    DomainError,
    InvariantError,
    RankError,
    ThresholdError,
    ZeroLatticeError,
)
from deltasvp.generators import lower_bound_instance, random_delta_modular
from deltasvp.linalg import IntMatrix, Tableau, det, max_abs_full_rank_subdet, tableau
from deltasvp.oracle import OracleResult, shortest_is_at_least_2
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
    solve_threshold,
    solve_threshold_trace,
    threshold_step,
)

from oracles import cofactor_det

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

    def recording(residues, d, delta):
        members = original(residues, d, delta)
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
        assert threshold_step(a, 1, tableau(a)) == ShortVector((1, 0), (1, 0), 1)
        assert selections == []

    def test_worked_keys(self, selections):
        a = M([[1, 0], [1, 2]])
        threshold_step(a, 2, tableau(a))
        assert selections[0][:2] == ([(0, 1), (0, 1)], 2)

    def test_negative_determinant(self, selections):
        a = M([[0, 1], [1, 0]])  # det -1: everything integral
        assert tableau(a).det == -1
        assert threshold_step(a, 1, tableau(a)) == ShortVector((0, 1), (1, 0), 1)
        assert selections == []

    def test_negation(self, selections):
        a = M([[1, 0], [1, 3]])
        threshold_step(a, 2, tableau(a))
        assert selections[0][:2] == ([(0, 2), (0, 1)], 3)
        # (0, 2) negates to (0, 1) modulo 3, the smaller key: sign -1
        assert threshold._select_same_class([(0, 2)], 3, 1) == [(0, -1)]
        assert threshold._select_same_class([(0, 1)], 3, 1) == [(0, 1)]


class TestSelectSameClass:
    def test_worked_selection(self, selections):
        a = M([[1, 0], [1, 2]])
        threshold_step(a, 2, tableau(a))
        assert selections[0][2] == [(0, 1), (1, 1)]

    def test_singleton(self):
        assert threshold._select_same_class([(0, 1), (0, 1)], 2, 1) == [(0, 1)]

    def test_tie_sign_is_plus(self):
        # (2, 2) is its own negation modulo 4; (1, 3) lands on (1, 3)
        assert threshold._select_same_class([(2, 2), (2, 2)], 4, 2) == [(0, 1), (1, 1)]
        assert threshold._select_same_class([(3, 1), (1, 3)], 4, 2) == [(0, -1), (1, 1)]

    def test_opposite_classes_resolved_by_sign(self, selections):
        a = M([[1, 0], [1, 3]])
        tab = tableau(a)
        threshold_step(a, 2, tab)
        members = selections[0][2]
        assert members == [(0, -1), (1, 1)]
        # the signed columns differ by an integer vector
        signed = [tuple(s * x for x in tab.adj.column(j)) for j, s in members]
        difference = tuple(a - b for a, b in zip(*signed))
        assert all(x % tab.det == 0 for x in difference)

    def test_selection_capped_by_determinant(self, selections):
        # |det| = 2 caps the selection size at 2 even when delta is larger
        b = M([[1, 0, 0], [0, 1, 0], [1, 1, 2]])
        threshold_step(b, 3, tableau(b))
        assert len(selections[0][2]) == 2

    def test_smallest_large_enough_class_wins(self):
        # classes {+-(1, 1)}: columns 0, 2, 4; {+-(0, 1)}: columns 1, 3
        residues = [(1, 1), (0, 1), (3, 3), (0, 3), (1, 1)]
        assert threshold._select_same_class(residues, 4, 3) == [(0, 1), (2, -1), (4, 1)]
        assert threshold._select_same_class(residues, 4, 2) == [(1, 1), (3, -1)]

    def test_no_class_large_enough_is_a_bug(self):
        with pytest.raises(InvariantError, match="no residue class"):
            threshold._select_same_class([(0, 1), (1, 0)], 2, 2)


class TestBuildTestVectors:
    """The lazy test-vector scan: differences (i, j), i < j, in
    lexicographic order, then the sum of the selected signed columns."""

    def test_worked_vectors(self, scanned):
        result = threshold_step(BLOCK_SWAP_INSTANCE, 2, tableau(BLOCK_SWAP_INSTANCE))
        assert result.path == PATH_BLOCK  # nothing short: the scan ran to the end
        assert scanned == [(2, -2), (2, 0)]  # (1,-1), then (1,0)

    def test_count(self, scanned, selections):
        a = BLOCK_SWAP_INSTANCE_3
        assert threshold_step(a, 3, tableau(a)).path == PATH_BLOCK
        size = len(selections[0][2])
        assert size == 3
        assert len(scanned) == math.comb(size, 2) + 1

    def test_singleton_gives_only_the_sum(self, scanned):
        # delta 1 selects one column; its sum is that column, not integral
        a = M([[1, 0], [1, 2]])
        with pytest.raises(InvariantError):
            threshold_step(a, 1, tableau(a))
        assert scanned == [(2, -1)]

    def test_non_integral_candidate_is_a_bug(self):
        a = M([[1, 0], [1, 2]])
        with pytest.raises(InvariantError, match="test vector is not integral"):
            threshold_step(a, 1, tableau(a))

    def test_scan_stops_at_the_first_short_vector(self, scanned):
        assert threshold_step(WORKED, 2, tableau(WORKED)) == ShortVector((1, -1), (1, -1, 0), 1)
        assert scanned == [(2, -2)]

    def test_image_that_looks_short_is_rechecked(self):
        # N with row 2 of the selected columns made equal: the first
        # difference's image reads (1, -1, 0, 0), but A z = (1, -1, 2, 0)
        real = tableau(BLOCK_SWAP_INSTANCE)
        forged = M([[2, 0], [0, 2], [2, 2], [2, 2]])
        assert real.numerators.entries[2] == (2, -2)
        tab = Tableau(real.rows, real.adj, real.det, forged)
        with pytest.raises(InvariantError, match="claimed short vector has norm 2"):
            threshold_step(BLOCK_SWAP_INSTANCE, 2, tab)

    def test_non_integral_image_is_a_bug(self):
        # row 2 of N forged to (1, -2): the first difference's image has
        # (1 - -2) / 2 there
        real = tableau(BLOCK_SWAP_INSTANCE)
        forged = M([[2, 0], [0, 2], [1, -2], [2, 2]])
        tab = Tableau(real.rows, real.adj, real.det, forged)
        with pytest.raises(InvariantError, match="test vector image is not integral"):
            threshold_step(BLOCK_SWAP_INSTANCE, 2, tab)


class TestThresholdStep:
    def test_identity_returns_first_unit_column(self):
        a = IntMatrix.identity(3)
        result = threshold_step(a, 1, tableau(a))
        assert result == ShortVector((1, 0, 0), (1, 0, 0), 1)

    def test_worked_example_resolves_via_difference(self):
        result = threshold_step(WORKED, 2, tableau(WORKED))
        assert result == ShortVector((1, -1), (1, -1, 0), 1)

    def test_oversized_determinant_certificates(self):
        a = M([[-1, -3], [1, 0], [2, 3]])
        assert solve_threshold_trace(a, 1) == (Certificate((0, 1), 3), ())

    def test_entry_swap_grows_determinant(self):
        a = M([[1, 0], [0, 1], [3, 1]])
        result = threshold_step(a, 1, tableau(a))
        assert result == Transition(PATH_ENTRY, (2, 1), 1, 3)

    def test_replacement_that_does_not_grow_detected(self, monkeypatch):
        monkeypatch.setattr(Tableau, "swapped_det", lambda tab, swaps: 1)
        a = M([[1, 0], [0, 1], [3, 1]])
        with pytest.raises(InvariantError, match="failed to grow"):
            threshold_step(a, 1, tableau(a))

    def test_pair_swap_route(self):
        result = threshold_step(PAIR_SWAP_INSTANCE, 3, tableau(PAIR_SWAP_INSTANCE))
        assert isinstance(result, Transition)
        assert result.path == PATH_PAIR
        assert result.det_after == 6

    def test_block_swap_route(self):
        result = threshold_step(BLOCK_SWAP_INSTANCE, 2, tableau(BLOCK_SWAP_INSTANCE))
        assert isinstance(result, Transition)
        assert result.path == PATH_BLOCK
        assert result.det_after == 4
        assert result.rows == (2, 3)

    def test_below_threshold_rejected(self):
        with pytest.raises(ThresholdError):
            solve_threshold_trace(WORKED, 3)

    def test_next_tableau_disagreeing_with_ratio_detected(self, monkeypatch):
        # every tableau after the first comes back scaled by 2, which the
        # tableau's own certificate cannot tell apart; only the cross-check
        # against the ratio-identity determinant can
        original = threshold.tableau
        built = []

        def double(m):
            return M([[2 * x for x in row] for row in m.entries])

        def scaled(a, rows=None):
            tab = original(a, rows)
            built.append(tab)
            if len(built) == 1:
                return tab
            return replace(
                tab, adj=double(tab.adj), det=2 * tab.det, numerators=double(tab.numerators)
            )

        monkeypatch.setattr(threshold, "tableau", scaled)
        a = parse_matrix((FIXTURES / "walk_to_short_vector.txt").read_text())
        with pytest.raises(InvariantError, match="ratio identity"):
            solve_threshold_trace(a, 3)
        assert len(built) == 2


class TestSolveThreshold:
    def test_identity(self):
        outcome = solve_threshold(IntMatrix.identity(2), 1)
        assert isinstance(outcome, ShortVector)
        assert outcome.norm == 1

    def test_worked_example(self):
        outcome = solve_threshold(WORKED, 2)
        assert outcome == ShortVector((1, -1), (1, -1, 0), 1)

    def test_certificate_on_understated_delta(self):
        outcome = solve_threshold(M([[-1, -3], [1, 0], [2, 3]]), 2)
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
            outcome = solve_threshold(a, delta)
            assert isinstance(outcome, Certificate)
            assert det(a.submatrix_rows(outcome.rows)) == outcome.det_value
            assert abs(outcome.det_value) > delta

    def test_deterministic(self):
        for a, delta in [(WORKED, 2), (PAIR_SWAP_INSTANCE, 3)]:
            assert solve_threshold_trace(a, delta) == solve_threshold_trace(a, delta)

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankError):
            solve_threshold(M([[1, 2], [2, 4]]), 1)

    def test_below_threshold_rejected(self):
        with pytest.raises(ThresholdError):
            solve_threshold(lower_bound_instance(3), 3)

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


class TestStateValidation:
    def test_short_vector_must_be_norm_one(self):
        with pytest.raises(InvariantError):
            ShortVector((1, 0), (2, 0), 2)

    def test_short_vector_must_be_nonzero(self):
        with pytest.raises(InvariantError):
            ShortVector((0, 0), (0, 0), 1)
