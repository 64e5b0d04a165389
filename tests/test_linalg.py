import random
from contextlib import contextmanager
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deltasvp.errors import (
    BudgetExceededError,
    DimensionError,
    InvariantError,
    RankError,
    SingularMatrixError,
)
from deltasvp import linalg
from deltasvp.generators import lower_bound_instance
from deltasvp.linalg import (
    IntMatrix,
    Tableau,
    _certify,
    _read_words,
    det,
    find_invertible_rows,
    hnf,
    is_totally_delta_modular,
    max_abs_full_rank_subdet,
    rank,
    subdet_ratio_check,
    tableau,
)
from deltasvp.oracle import _box_halves

from oracles import (
    assert_hnf_shape,
    assert_lll_reduced,
    assert_same_column_lattice,
    cofactor_adjugate,
    cofactor_det,
    fraction_rank,
    greedy_rows,
    plain_product,
    unimodular_scramble,
)

M = IntMatrix.from_rows


@st.composite
def matrices(draw, max_rows=5, max_cols=5, bound=9, square=False):
    rows = draw(st.integers(1, max_rows))
    cols = rows if square else draw(st.integers(1, max_cols))
    entries = draw(
        st.lists(
            st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return M(entries)


class TestIntMatrix:
    def test_shape_and_access(self):
        m = M([[1, 2, 3], [4, 5, 6]])
        assert m.shape == (2, 3)
        assert m.row(1) == (4, 5, 6)
        assert m.column(2) == (3, 6)
        assert m.transpose().entries == ((1, 4), (2, 5), (3, 6))

    def test_matmul_and_matvec(self):
        a = M([[1, 2], [3, 4]])
        b = M([[0, 1], [1, 0]])
        assert a.matmul(b).entries == ((2, 1), (4, 3))
        assert a.matvec((1, -1)) == (-1, -1)

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            M([])
        with pytest.raises(DimensionError):
            M([[1, 2], [3]])
        with pytest.raises(DimensionError):
            M([[1.5]])
        with pytest.raises(DimensionError):
            M([[1]]).matmul(M([[1, 2], [3, 4]]))

    def test_rejects_an_empty_row_and_an_empty_identity(self):
        with pytest.raises(DimensionError, match="^matrix needs at least one column$"):
            M([[]])
        with pytest.raises(DimensionError, match="^identity needs n >= 1$"):
            IntMatrix.identity(0)

    def test_matvec_rejects_a_vector_of_the_wrong_length(self):
        with pytest.raises(DimensionError, match=r"^vector of length 3 against \(2, 2\)$"):
            M([[1, 2], [3, 4]]).matvec((1, 0, 1))

    def test_list_rows_are_stored_as_tuples(self):
        m = IntMatrix(([1, 0], [0, 1]))
        assert all(type(row) is tuple for row in m.entries)
        assert hash(m) == hash(IntMatrix.identity(2))
        with pytest.raises(TypeError):
            m.entries[0][0] = 5
        assert det(m) == 1
        rows = ((1, 2), (3, 4))
        assert IntMatrix(rows).entries is rows  # tuple rows are kept as given

    def test_list_of_lists_is_hashable_and_immutable(self):
        m = IntMatrix([[1, 2], [3, 4]])
        assert type(m.entries) is tuple
        assert all(type(row) is tuple for row in m.entries)
        assert hash(m) == hash(M([[1, 2], [3, 4]]))
        with pytest.raises(TypeError):
            m.entries[0] = (5, 6)
        with pytest.raises(TypeError):
            m.entries[1][1] = 5

    def test_library_results_equal_checked_matrices(self):
        """Results built unchecked are the matrices the checked constructor
        makes of the same entries, and empty selections are still refused."""
        a = M([[2, 1, 0], [1, 3, 1], [0, 1, 4], [5, -2, 7]])
        tab = tableau(a)
        results = [a.transpose(), a.matmul(a.transpose()), a.submatrix_rows([3, 0]),
                   a.submatrix([1, 2], [2, 0]), *hnf(a.transpose()), tab.adj, tab.numerators,
                   IntMatrix.identity(3)]
        for m in results:
            checked = IntMatrix(tuple(tuple(row) for row in m.entries))
            assert m == checked and hash(m) == hash(checked)
            assert all(type(row) is tuple for row in m.entries)
            assert all(type(x) is int for row in m.entries for x in row)
        for select in (lambda: a.submatrix_rows([]), lambda: a.submatrix([], [0]),
                       lambda: a.submatrix([0], [])):
            with pytest.raises(DimensionError):
                select()


class TestDet:
    def test_identity(self):
        assert det(IntMatrix.identity(3)) == 1

    def test_signed_two_by_two(self):
        assert det(M([[1, 1], [1, -1]])) == -2

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            det(M([[1, 2, 3], [4, 5, 6]]))

    def test_matches_cofactor_oracle_seeded(self):
        rng = random.Random(101)
        for _ in range(100):
            n = rng.randint(1, 4)
            m = M([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            assert det(m) == cofactor_det(m.entries)

    @settings(max_examples=80)
    @given(matrices(max_rows=5, square=True))
    def test_matches_cofactor_oracle(self, m):
        assert det(m) == cofactor_det(m.entries)


def inverse(m: IntMatrix):
    """The tableau of a square m, rows in order: m^-1 is its adj / det."""
    return tableau(m, range(m.rows))


class TestAdjugate:
    def test_identity(self):
        assert inverse(IntMatrix.identity(4)).adj.entries == IntMatrix.identity(4).entries

    def test_known_value(self):
        assert inverse(M([[1, 0], [2, 3]])).adj.entries == ((3, 0), (-2, 1))

    def test_matches_cofactor_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = M([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
            if cofactor_det(m.entries) == 0:
                with pytest.raises(SingularMatrixError):
                    inverse(m)
            else:
                assert inverse(m).adj.entries == cofactor_adjugate(m.entries)
        # Random draws are almost never singular: build rank n-1 and rank
        # <= n-2 inputs as products of n x k and k x n integer factors.
        for n in range(1, 6):
            singular = [M([[0] * n for _ in range(n)])]
            for k in range(1, n):
                for _ in range(12):
                    left = M([[rng.randint(-4, 4) for _ in range(k)] for _ in range(n)])
                    right = M([[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)])
                    singular.append(left.matmul(right))
            for m in singular:
                with pytest.raises(SingularMatrixError):
                    inverse(m)

    @settings(max_examples=80)
    @given(matrices(max_rows=5, square=True))
    def test_defining_identity(self, m):
        d = det(m)
        if d == 0:
            with pytest.raises(SingularMatrixError):
                inverse(m)
            return
        product = plain_product(m.entries, inverse(m).adj.entries)
        expected = tuple(
            tuple(d if i == j else 0 for j in range(m.rows)) for i in range(m.rows)
        )
        assert product == expected


class TestScaledInverse:
    def test_identity(self):
        inv = inverse(IntMatrix.identity(2))
        assert inv.adj.entries == ((1, 0), (0, 1))
        assert inv.det == 1

    @pytest.mark.parametrize(
        "matrix,numerator,denominator",
        [
            ([[1, 0], [1, 2]], ((2, 0), (-1, 1)), 2),
            ([[1, 0], [2, 3]], ((3, 0), (-2, 1)), 3),
        ],
    )
    def test_known_values(self, matrix, numerator, denominator):
        inv = inverse(M(matrix))
        assert inv.adj.entries == numerator
        assert inv.det == denominator
        product = M(matrix).matmul(inv.adj)
        assert product.entries == tuple(
            tuple(denominator if i == j else 0 for j in range(2)) for i in range(2)
        )

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            inverse(M([[1, 2], [2, 4]]))


class TestFindInvertibleRows:
    def test_identity_prefix(self):
        stacked = M([[1, 0], [0, 1], [1, 1], [1, -1]])
        assert find_invertible_rows(stacked) == (0, 1)

    def test_skips_zero_row(self):
        assert find_invertible_rows(M([[0, 0], [1, 0], [0, 1]])) == (1, 2)

    def test_greedy_scan(self):
        a = M([[-1, -3], [1, 0], [2, 3]])
        rows = find_invertible_rows(a)
        assert rows == (0, 1)
        assert det(a.submatrix_rows(rows)) == 3

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankError):
            find_invertible_rows(M([[1, 2], [2, 4]]))

    @settings(max_examples=120)
    @given(st.data())
    def test_matches_greedy_rank_scan(self, data):
        """Keep row i iff the rank of the kept rows rises, checked by the
        Fraction rank oracle on random, rank-deficient-first and
        unit-rows-first matrices."""
        cols = data.draw(st.integers(1, 4))
        rows = data.draw(st.integers(cols, 8))
        entry = st.integers(-3, 3)
        random_row = st.lists(entry, min_size=cols, max_size=cols)
        entries = [data.draw(random_row) for _ in range(rows)]
        kind = data.draw(st.sampled_from(["random", "deficient_first", "unit_first"]))
        if kind == "deficient_first":
            # the first `head` rows are combinations of k < cols vectors
            k = data.draw(st.integers(0, cols - 1))
            head = data.draw(st.integers(0, rows))
            basis = [data.draw(random_row) for _ in range(k)]
            for i in range(head):
                coeffs = data.draw(st.lists(entry, min_size=k, max_size=k))
                entries[i] = [sum(f * b[j] for f, b in zip(coeffs, basis)) for j in range(cols)]
        elif kind == "unit_first":
            units = data.draw(st.integers(1, cols))
            entries[:units] = [[int(i == j) for j in range(cols)] for i in range(units)]
        kept: list[int] = []
        for i in range(rows):
            if fraction_rank([entries[t] for t in kept + [i]]) > len(kept):
                kept.append(i)
        if len(kept) < cols:
            with pytest.raises(RankError):
                find_invertible_rows(M(entries))
        else:
            assert find_invertible_rows(M(entries)) == tuple(kept)


class TestTableau:
    """tableau(a, rows) against the oracles: the greedy rows, cofactor
    adjugate and determinant of A[rows], and the plain-loop A * adj."""

    @staticmethod
    def check(a_entries, rows, tab):
        basis = [a_entries[i] for i in rows]
        adj = cofactor_adjugate(basis)
        assert tab.rows == tuple(rows)
        assert tab.adj.entries == adj
        assert tab.det == cofactor_det(basis)
        assert tab.numerators.entries == plain_product(a_entries, adj)

    ENTRIES = {
        "small": st.integers(-3, 3),
        "dense": st.integers(-9, 9).filter(bool),
        "sparse": st.sampled_from([0, 0, 0, 0, 1, -1, 2]),
        # |entry| >= 2^64, so the certificate reads N in words wider than 64 bits
        "wide": st.integers(2**64, 2**70).flatmap(lambda x: st.sampled_from([x, -x])),
    }

    @classmethod
    def draw_entries(cls, data):
        """Small, dense, sparse or wide entries; sometimes unit rows first,
        and sometimes all-zero rows, which the greedy scan skips and which
        are zero rows of N."""
        cols = data.draw(st.integers(1, 4))
        rows = data.draw(st.integers(cols, 8))
        entry = cls.ENTRIES[data.draw(st.sampled_from(sorted(cls.ENTRIES)))]
        entries = [
            data.draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)
        ]
        if data.draw(st.booleans()):
            units = data.draw(st.integers(1, cols))
            entries[:units] = [[int(i == j) for j in range(cols)] for i in range(units)]
        if data.draw(st.booleans()):
            for i in data.draw(st.lists(st.integers(0, rows - 1), max_size=rows)):
                entries[i] = [0] * cols
        return entries

    @settings(max_examples=200)
    @given(st.data())
    def test_greedy_rows_match_oracles(self, data):
        entries = self.draw_entries(data)
        cols = len(entries[0])
        kept: list[int] = []
        for i in range(len(entries)):
            if fraction_rank([entries[t] for t in kept + [i]]) > len(kept):
                kept.append(i)
        if len(kept) < cols:
            with pytest.raises(RankError):
                tableau(M(entries))
        else:
            self.check(entries, kept, tableau(M(entries)))

    @settings(max_examples=200)
    @given(st.data())
    def test_prescribed_rows_match_oracles(self, data):
        """Any order of any row set; the first basis row often has a zero
        leading entry, so its pivot needs a row swap."""
        entries = self.draw_entries(data)
        m, cols = len(entries), len(entries[0])
        rows = data.draw(st.permutations(range(m)))[:cols]
        if cols > 1 and data.draw(st.booleans()):
            entries[rows[0]][0] = 0
        if cofactor_det([entries[i] for i in rows]) == 0:
            with pytest.raises(SingularMatrixError):
                tableau(M(entries), rows)
        else:
            self.check(entries, rows, tableau(M(entries), rows))

    @pytest.mark.parametrize(
        "entries,rows",
        [
            ([[0, 1], [1, 0], [1, 1]], (0, 1)),  # det -1: one swap
            ([[1, 1], [0, 2], [3, 0]], (1, 2)),  # det -6: one swap
            ([[0, 0, 1], [0, 1, 0], [1, 0, 0], [2, 2, 2]], (0, 1, 2)),  # two zero pivots
            ([[1, 2], [3, 4], [0, 1]], (2, 0)),  # first basis row starts with 0
        ],
    )
    def test_prescribed_rows_needing_swaps(self, entries, rows):
        self.check(entries, rows, tableau(M(entries), rows))

    @pytest.mark.parametrize("rows", [None, (3, 1)])
    def test_zero_rows_give_zero_rows_of_n(self, rows):
        entries = [[0, 0], [1, 2], [0, 0], [3, 4], [0, 0]]
        tab = tableau(M(entries), rows)
        self.check(entries, (1, 3) if rows is None else rows, tab)
        assert [tab.numerators.entries[i] for i in (0, 2, 4)] == [(0, 0)] * 3

    def test_wide_entries(self):
        """|N| near 2^200: the certificate's words are wider than 64 bits."""
        big = 2**100
        entries = [[big, 1, 0], [0, big + 1, -big], [3, 0, big - 7], [big, big, big], [1, 2, 3]]
        self.check(entries, (0, 1, 2), tableau(M(entries)))
        self.check(entries, (4, 3, 0), tableau(M(entries), (4, 3, 0)))

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankError):
            tableau(M([[1, 2], [2, 4], [3, 6]]))

    def test_singular_rows_rejected(self):
        with pytest.raises(SingularMatrixError):
            tableau(M([[1, 2], [2, 4], [0, 1]]), (0, 1))

    def test_swapped_det_inexact_ratio_is_a_bug(self):
        tab = tableau(M([[1, 0], [0, 2], [1, 1], [1, 2]]), (0, 1))
        assert tab.swapped_det({0: 2, 1: 3}) == 1  # det N[I, J] = 2 over |d| = 2
        corrupted = replace(tab, numerators=M([[2, 0], [0, 2], [1, 1], [1, 2]]))
        with pytest.raises(InvariantError):
            corrupted.swapped_det({0: 2, 1: 3})

    @staticmethod
    def _count_eliminations(monkeypatch):
        """Counts the tableau and rank calls (the eliminations of the whole
        input) that the dispatcher and the oracle make."""
        from collections import Counter

        from deltasvp import oracle, threshold

        calls = Counter()
        for module in (threshold, oracle):
            for name in ("tableau", "rank"):
                fn = getattr(module, name, None)
                if fn is None:
                    continue

                def wrapper(*args, _name=name, _fn=fn, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, wrapper)
        return calls

    def test_solve_svp_runs_one_tableau_per_pass(self, monkeypatch):
        """Full rank above the threshold: the dispatcher's rank test is the
        first pass's tableau, the only one of the run; every later pass
        gets its tableau by one swap of the one before; no rank call."""
        from deltasvp import threshold

        a = M([[1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 1, -2], [1, 2, -1]])
        outcome, transitions = threshold.solve_threshold_trace(a, 3)
        assert isinstance(outcome, threshold.ShortVector)
        assert len(transitions) == 2
        calls = self._count_eliminations(monkeypatch)
        swapped = Tableau.swapped

        def counted(tab, swaps):
            calls["swapped"] += 1
            return swapped(tab, swaps)

        monkeypatch.setattr(Tableau, "swapped", counted)
        assert threshold.solve_svp(a, 3) == outcome
        assert calls == {"tableau": 1, "swapped": len(transitions)}

    def test_solve_svp_below_threshold_eliminates_once(self, monkeypatch):
        """Full rank below the threshold: the dispatcher's one tableau is
        the rank test and gives the scan its basis and box radius (this
        input's box has fewer points than its layers); nothing else
        eliminates."""
        from deltasvp import threshold

        a = M([[1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 1, -2], [1, 2, -1]])
        expected = threshold.solve_svp(a, 5)
        assert expected.norm == 1
        calls = self._count_eliminations(monkeypatch)
        assert threshold.solve_svp(a, 5) == expected
        assert calls == {"tableau": 1}

    def test_solve_svp_layered_scan_eliminates_once(self, monkeypatch):
        """The same on an input whose layers have fewer points than its
        box: the layered scan runs on the dispatcher's tableau."""
        from deltasvp import threshold

        a = lower_bound_instance(4)
        expected = threshold.solve_svp(a, 4)
        assert expected.norm == 2
        calls = self._count_eliminations(monkeypatch)
        assert threshold.solve_svp(a, 4) == expected
        assert calls == {"tableau": 1}


class TestSwapped:
    """Tableau.swapped against the cofactor oracles: the tableau of B with
    rows I of A put at positions J, k = |J| = 1...4, twice in a row (the
    second swap runs on the packed rows the first one carries), on entries
    up to 2^70 and on unimodular scrambles with 70- to 90-bit factors,
    whose swaps often pack their words wider."""

    @staticmethod
    def swap_and_check(entries, tab, swaps):
        """tab.swapped(swaps) checked against the oracles; None when B' is
        singular, which must raise SingularMatrixError."""
        rows = [swaps.get(p, r) for p, r in enumerate(tab.rows)]
        if cofactor_det([entries[i] for i in rows]) == 0:
            with pytest.raises(SingularMatrixError):
                tab.swapped(swaps)
            return None
        new = tab.swapped(swaps)
        TestTableau.check(entries, rows, new)
        return new

    @settings(max_examples=200)
    @given(st.data())
    def test_chained_swaps_match_oracles(self, data):
        entries = TestTableau.draw_entries(data)
        m, cols = len(entries), len(entries[0])
        if cols > 1 and data.draw(st.booleans()):
            bits = data.draw(st.integers(70, 90))
            entries = unimodular_scramble(entries, data.draw(st.integers(0, 99)), 2 * cols, bits)
        try:
            tab = tableau(M(entries))
        except RankError:
            return
        for _ in range(2):
            k = data.draw(st.integers(1, min(4, cols)))
            positions = data.draw(st.permutations(range(cols)))[:k]
            picks = data.draw(st.permutations(range(m)))[:k]
            tab = self.swap_and_check(entries, tab, dict(zip(positions, picks)))
            if tab is None:
                return

    def test_empty_swap_is_the_same_basis(self):
        """No swap leaves B as it is: swapped gives the same tableau and
        swapped_det gives |det B|, here 1 and 2."""
        a = M([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [3, 1, 1]])
        for rows, expected in (((0, 1, 2), 1), ((2, 3, 4), 2)):
            tab = tableau(a, rows)
            assert tab.swapped({}) == tab
            assert tab.swapped_det({}) == expected

    def test_wide_scramble_widens_the_words(self):
        """Every single swap of a scrambled input, chained on the first;
        some must pack their words wider than the certificate did."""
        entries = unimodular_scramble(
            [[2, 1, 0, -1], [1, 3, 1, 0], [0, 1, 4, 2], [5, -2, 7, 1], [-3, 3, 1, 1], [1, 0, 2, 6]],
            3, 8, 80,
        )
        assert max(abs(x) for row in entries for x in row) > 2**63
        tab = tableau(M(entries))
        widened = 0
        for j, i in product(range(4), range(6)):
            new = self.swap_and_check(entries, tab, {j: i})
            if new is None:
                continue
            widened += new.packed[1] > tab.packed[1]
            again = self.swap_and_check(entries, new, {(j + 1) % 4: tab.rows[j]})
            if again is not None:
                widened += again.packed[1] > new.packed[1]
        assert widened

    @pytest.mark.parametrize(
        "swaps",
        [{1: 0}, {0: 2, 1: 0}, {1: 3}, {0: 3, 1: 4}],
        ids=["basis_row_again", "basis_row_again_in_a_pair", "dependent_row", "dependent_pair"],
    )
    def test_singular_swap_rejected(self, swaps):
        """det N[I, J] == 0: a basis row put at a second position, or rows
        that span less than the positions they replace."""
        entries = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 0, 0], [4, 0, 0]]
        tab = tableau(M(entries))
        assert tab.rows == (0, 1, 2)
        assert self.swap_and_check(entries, tab, swaps) is None

    @pytest.mark.parametrize("method", ["swapped", "swapped_det"])
    @pytest.mark.parametrize(
        "swaps",
        [{0: -1}, {-1: 3}, {5: 0}, {0: 99}],
        ids=["negative_row", "negative_position", "position_past_n", "row_past_m"],
    )
    def test_out_of_range_swap_rejected(self, swaps, method):
        """A position outside range(n) or a row outside range(m) is a
        caller's error, not a bug, a wrong determinant or an IndexError."""
        tab = tableau(M([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [3, 1, 1]]))
        with pytest.raises(DimensionError, match=r"range\(3\).*range\(5\)"):
            getattr(tab, method)(swaps)

    def test_hand_built_tableau_packs_its_entries(self):
        """A tableau built or replaced by hand carries no packed rows, so a
        stale packing can never follow a changed entry."""
        entries = [[1, 0, 2], [0, 1, -1], [3, 1, 0], [1, 1, 1], [2, -1, 5]]
        tab = tableau(M(entries))
        assert tab.packed is not None
        for bare in (Tableau(tab.rows, tab.adj, tab.det, tab.numerators), replace(tab)):
            assert bare.packed is None
            assert bare.swapped({0: 3}) == tab.swapped({0: 3})

    @pytest.mark.parametrize("column", [0, 2])
    def test_inexact_pivot_is_a_bug(self, column):
        """One entry of N off by one outside the swapped column: its
        numerator is no longer a multiple of d^k, which the remainder shows
        at the lowest digit and the quotient's digit range at the others."""
        a = M([[1, 0, 0], [0, 2, 0], [0, 0, 1], [1, 1, 1], [3, 1, 1]])
        tab = tableau(a, (0, 1, 2))
        assert (tab.det, tab.numerators.entries[3][1]) == (2, 1)
        assert tab.swapped({1: 3}).det == 1
        bumped = [list(row) for row in tab.numerators.entries]
        bumped[4][column] += 1
        corrupted = replace(tab, numerators=M(bumped))
        with pytest.raises(InvariantError, match="block pivot"):
            corrupted.swapped({1: 3})

    def test_basis_row_off_the_identity_is_a_bug(self):
        """A basis row of N off by d outside the swapped column divides
        exactly, so only N'[rows'] == det(B') * I shows it."""
        a = M([[1, 0, 0], [0, 2, 0], [0, 0, 1], [1, 1, 1], [3, 1, 1]])
        tab = tableau(a, (0, 1, 2))
        bumped = [list(row) for row in tab.numerators.entries]
        bumped[0][2] += tab.det
        with pytest.raises(InvariantError, match=r"B \* adj\(B\) != det\(B\) \* I"):
            replace(tab, numerators=M(bumped)).swapped({1: 3})


class TestPackedWidths:
    """tableau where the packed transform's digits outgrow their words, so
    it must read them exactly and repack wider mid-elimination.  Each input
    is checked against the oracles' greedy rows and cofactor adjugate:
    _certify proves B * adj(B) == det(B) * I for the rows chosen, not that
    they are the greedy ones, so a digit read wrong that skips a row shows
    only here."""

    @staticmethod
    def check(entries):
        greedy = greedy_rows(entries)
        if len(greedy) < len(entries[0]):
            with pytest.raises(RankError):
                tableau(M(entries))
            return
        tab = tableau(M(entries))
        assert [tuple(entries[i]) for i in tab.rows] == greedy
        TestTableau.check(entries, tab.rows, tab)

    @staticmethod
    def draw_rows(data, entry, cols):
        """cols..cols+3 rows of the given entries, some of them small
        combinations of earlier rows, which the greedy scan must skip."""
        entries = []
        for _ in range(data.draw(st.integers(cols, cols + 3))):
            if entries and data.draw(st.integers(0, 3)) == 0:
                coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2))
                picks = data.draw(st.lists(st.sampled_from(entries), min_size=2, max_size=2))
                entries.append([coeffs[0] * x + coeffs[1] * y for x, y in zip(*picks)])
            else:
                entries.append(data.draw(st.lists(entry, min_size=cols, max_size=cols)))
        return entries

    @settings(max_examples=60)
    @given(st.data())
    def test_64_bit_inputs_with_wider_minors(self, data):
        """Entries near 2^40 fit one word, but 2 x 2 minors do not."""
        near = st.integers(2**40 - 2**20, 2**40 + 2**20)
        entry = st.one_of(near, near.map(lambda x: -x), st.integers(-3, 3))
        self.check(self.draw_rows(data, entry, data.draw(st.integers(3, 6))))

    @settings(max_examples=40)
    @given(st.data())
    def test_inputs_wider_than_64_bits(self, data):
        wide = st.integers(2**64, 2**90)
        entry = st.one_of(wide, wide.map(lambda x: -x), st.just(0))
        self.check(self.draw_rows(data, entry, data.draw(st.integers(2, 5))))

    @settings(max_examples=40)
    @given(st.integers(3, 6), st.integers(0, 10**6), st.integers(4, 12), st.integers(8, 30))
    def test_scrambled_lower_bound_instances(self, delta, seed, steps, bits):
        """A unimodular scramble keeps every |full-rank minor| at delta and
        the dependent rows of the incidence factor, with wide entries."""
        self.check(unimodular_scramble(lower_bound_instance(delta).entries, seed, steps, bits))

    def test_huge_entries(self):
        self.check([list(row) for row in _huge_matrix().entries])

    def test_pivot_bound_needs_the_pivot_row_term(self):
        """Without the max|f| * max|R[q]| term of the bound after a pivot,
        the digits of this input overflow their words."""
        self.check([[-2, 1099511504462, 2, 1],
                    [-1099512235522, 1099512367229, 1099511106354, -3],
                    [-1099511880959, -1, 0, -1099510614768],
                    [-1099511491840, 1, -1099512164516, -1099511442227]])

    def test_repacks_mid_elimination(self):
        """The entries fit one word, so the transform first needs wider words
        after a pivot; each repack widens.  The last _pack call is
        _certify's packing of adj(B), not a repack."""
        widths, original = [], linalg._pack

        def pack(words, n, width):
            widths.append(width)
            return original(words, n, width)

        entries = [[2**40 + 3, 5, 2**40 - 1], [7, 2**40 + 1, -9], [2**40, -2**40, 2**39 + 1],
                   [1, 2, 3]]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "_pack", pack)
            self.check(entries)
        *repacks, _ = widths
        assert repacks and repacks == sorted(set(repacks)) and repacks[0] > 64


def _bumped(matrix: IntMatrix, i: int, j: int, by: int) -> IntMatrix:
    rows = [list(row) for row in matrix.entries]
    rows[i][j] += by
    return M(rows)


def _huge_matrix() -> IntMatrix:
    """A 3 x 2 matrix of full column rank with 10,000-digit entries of
    both signs."""
    rng = random.Random(10_000)
    big = 10**9_999
    return M([[rng.choice((-1, 1)) * (big + rng.randrange(big)) for _ in range(2)]
              for _ in range(3)])


@contextmanager
def _faulty_reader(n: int, bumps: dict[tuple[int, int], int]):
    """_certify's word reader with bumps[i, j] added to word j of row i of
    A * adj (n words a row) as it hands the words over."""

    def read(data: bytes, width: int) -> list[int]:
        words = _read_words(data, width)
        for (i, j), by in bumps.items():
            words[i * n + j] += by
        return words

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_read_words", read)
        yield


class TestCertify:
    """_certify against corrupted inputs and a corrupted word reader: one
    changed entry of adj or of d is caught, as is one word of N off the
    basis rows changed by the reader, and a change of 2^k for k around the
    word width (a carry into, or an alias of, the next base-2^w digit)."""

    CASES = {
        "small": [[2, 1, 0], [1, 3, 1], [0, 1, 4], [5, -2, 7], [-3, 3, 1]],
        "negative": [[-7, -2, -5], [-1, -8, 3], [4, -6, -9], [-9, -9, -2], [6, -1, -8]],
        "unit_first": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 1, -2], [1, 2, -1]],
    }

    @staticmethod
    def parts(a: IntMatrix):
        tab = tableau(a)
        return a, tab.rows, tab.adj, tab.det, tab.numerators

    @staticmethod
    def width(a, adj) -> int:
        """The word width w: 64, or whole bytes with 2^(w-1) > n * max |A| * max |adj|."""
        def largest(m):
            return max(abs(x) for row in m.entries for x in row)

        bits = (2 * a.cols * largest(a) * largest(adj)).bit_length()
        return max(64, -(-bits // 8) * 8)

    @pytest.fixture(scope="class", params=["small", "negative", "unit_first", "huge"])
    def parts_of(self, request):
        a = _huge_matrix() if request.param == "huge" else M(self.CASES[request.param])
        return self.parts(a)

    def test_uncorrupted_passes(self, parts_of):
        a, rows, adj, d, numerators = parts_of
        basis = [a.entries[i] for i in rows]
        assert adj.entries == cofactor_adjugate(basis)
        assert d == cofactor_det(basis)
        assert numerators.entries == plain_product(a.entries, adj.entries)
        assert _certify(a, rows, adj, d).numerators == numerators

    @pytest.mark.parametrize("by", [1, -1])
    def test_adjugate_entry(self, parts_of, by):
        a, rows, adj, d, numerators = parts_of
        for i, j in product(range(a.cols), repeat=2):
            with pytest.raises(InvariantError):
                _certify(a, rows, _bumped(adj, i, j, by), d)

    @pytest.mark.parametrize("by", [1, -1])
    def test_off_basis_numerator_entry(self, parts_of, by):
        """B * adj(B) alone never reads these rows."""
        a, rows, adj, d, numerators = parts_of
        off = [i for i in range(a.rows) if i not in rows]
        assert off
        for i, j in product(off, range(a.cols)):
            with _faulty_reader(a.cols, {(i, j): by}), pytest.raises(InvariantError):
                _certify(a, rows, adj, d)

    @pytest.mark.parametrize("by", [1, -1])
    def test_determinant(self, parts_of, by):
        a, rows, adj, d, numerators = parts_of
        with pytest.raises(InvariantError):
            _certify(a, rows, adj, d + by)

    def test_powers_of_two_around_the_width(self, parts_of):
        """2^k added to one entry, alone or with the carry taken back from
        the next entry of its row: that pair packs to the same integer in
        base 2^k, so a digit range of k bits, or none, would miss it."""
        a, rows, adj, d, numerators = parts_of
        n = a.cols
        w = self.width(a, adj)
        off = next(i for i in range(a.rows) if i not in rows)
        for k, sign, j in product(range(w - 3, w + 3), (1, -1), range(n)):
            by = sign * 2**k
            bumped_adj = _bumped(adj, (j + 1) % n, j, by)
            bumps = [{(off, j): by}]
            adjs = [bumped_adj]
            if j + 1 < n:
                bumps.append({(off, j): by, (off, j + 1): -sign})
                adjs.append(_bumped(bumped_adj, (j + 1) % n, j + 1, -sign))
            for corrupt_adj in adjs:
                with pytest.raises(InvariantError):
                    _certify(a, rows, corrupt_adj, d)
            for bump in bumps:
                with _faulty_reader(n, bump), pytest.raises(InvariantError):
                    _certify(a, rows, adj, d)

    @pytest.mark.parametrize("case", ["small", "huge"])
    def test_corrupted_word_from_the_reader(self, case):
        """Any one word of any row, basis rows included, changed by the
        reader: by one, or by 2^(w-1) or -2^w, which leave the digit range."""
        a = _huge_matrix() if case == "huge" else M(self.CASES[case])
        a, rows, adj, d, numerators = self.parts(a)
        w = self.width(a, adj)
        for i, j, by in product(range(a.rows), range(a.cols), (1, -1, 2 ** (w - 1), -(2**w))):
            with _faulty_reader(a.cols, {(i, j): by}), pytest.raises(InvariantError):
                _certify(a, rows, adj, d)

    def test_reader_dropping_a_zero_word(self):
        """N's last word is 0, so the words without it would still pack to
        the same integer: only their bytes show the fault."""
        a = M([[1, 0], [0, 1], [3, 0]])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "_read_words", lambda data, width: _read_words(data, width)[:-1])
            with pytest.raises(InvariantError):
                _certify(a, (0, 1), M([[1, 0], [0, 1]]), 1)

    @settings(max_examples=100)
    @given(matrices(max_rows=6, max_cols=4, bound=50), st.data())
    def test_random_single_corruption(self, a, data):
        try:
            a, rows, adj, d, numerators = self.parts(a)
        except RankError:
            return
        assert _certify(a, rows, adj, d).numerators == numerators
        by = data.draw(st.sampled_from([1, -1, 2, -2, 3]))
        if data.draw(st.booleans()):
            i, j = data.draw(st.integers(0, a.cols - 1)), data.draw(st.integers(0, a.cols - 1))
            with pytest.raises(InvariantError):
                _certify(a, rows, _bumped(adj, i, j, by), d)
        else:
            i, j = data.draw(st.integers(0, a.rows - 1)), data.draw(st.integers(0, a.cols - 1))
            with _faulty_reader(a.cols, {(i, j): by}), pytest.raises(InvariantError):
                _certify(a, rows, adj, d)


def _words(image: int, count: int, width: int) -> tuple[int, ...]:
    """The signed base-2^width digits of a packed image, lowest first."""
    words = []
    for _ in range(count):
        word = image & ((1 << width) - 1)
        if word >= 1 << (width - 1):
            word -= 1 << width
        words.append(word)
        image = (image - word) >> width
    return tuple(words)


class TestBoxImages:
    @settings(max_examples=150)
    @given(matrices(max_rows=4, max_cols=5, bound=5), st.data())
    def test_matches_product_scan(self, a, data):
        """_box_halves: every head joined with every tail gives the points
        in lexicographic order, and the packed sum of their images spells
        A x, on boxes of unequal, single-point and empty ranges."""
        ranges = []
        for _ in range(a.cols):
            low = data.draw(st.integers(-3, 3))
            ranges.append(range(low, low + data.draw(st.integers(0 if ranges else 1, 4))))
        expected = [
            (x, tuple(sum(r * v for r, v in zip(row, x)) for row in a.entries))
            for x in product(*ranges)
        ]
        width, heads, tails = _box_halves(a, ranges, 0)
        scan = [
            (head + tail, _words(h + t, a.rows, width)) for head, h in heads for tail, t in tails
        ]
        assert scan == expected

    def test_tail_table_is_at_most_the_square_root(self):
        _, heads, tails = _box_halves(IntMatrix.identity(5), [range(3)] * 5, 0)
        assert len(tails) == 3**2 and len(list(heads)) == 3**3
        _, heads, tails = _box_halves(M([[1, 2, 3]]), [range(2), range(9), range(2)], 0)
        assert len(tails) == 2 and len(list(heads)) == 18

    def test_wrong_range_count_rejected(self):
        with pytest.raises(DimensionError):
            _box_halves(M([[1, 2]]), [range(2)], 0)


class TestHnf:
    def test_identity(self):
        h, u = hnf(IntMatrix.identity(3))
        assert h.entries == IntMatrix.identity(3).entries
        assert u.entries == IntMatrix.identity(3).entries

    def test_row_gcd(self):
        a = M([[2, 1]])
        h, u = hnf(a)
        assert h.entries == ((1, 0),)
        assert a.matmul(u).entries == h.entries
        assert abs(det(u)) == 1

    def test_already_normal(self):
        a = M([[2, 0], [0, 2]])
        h, u = hnf(a)
        assert h.entries == a.entries
        assert u.entries == IntMatrix.identity(2).entries

    def test_seeded_random_properties(self):
        rng = random.Random(23)
        for _ in range(120):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 4)
            a = M([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
            h, u = hnf(a)
            assert_hnf_shape(h)
            assert_same_column_lattice(a, h, u)

    @settings(max_examples=60)
    @given(matrices(max_rows=6, max_cols=4))
    def test_properties(self, a):
        h, u = hnf(a)
        assert_hnf_shape(h)
        assert_same_column_lattice(a, h, u)


class TestLll:
    @settings(max_examples=120)
    @given(st.data())
    def test_matches_fraction_reference(self, data):
        """Random full-column-rank integer columns, some with entries past
        2^64 drawn directly and some skewed by a 70-bit unimodular scramble:
        the reduced columns are the columns times V, |det V| = 1, and their
        Fraction Gram-Schmidt is size-reduced and meets the Lovasz
        condition at 3/4."""
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(n, 6))
        bound = data.draw(st.sampled_from((3, 2**20, 2**70)))
        entry = st.integers(-bound, bound)
        rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
        assume(fraction_rank(rows) == n)
        if n > 1 and data.draw(st.booleans()):
            rows = unimodular_scramble(rows, data.draw(st.integers(0, 99)), 4, 70)
        columns = [list(column) for column in zip(*rows)]
        reduced, v = linalg._lll(columns)
        assert_lll_reduced(columns, reduced, v)

    @pytest.mark.parametrize(
        "columns",
        [
            [(0, 0)],
            [(0, 0, 0), (1, 2, 3)],
            [(1, 2, 3), (0, 0, 0)],
            [(1, 2), (2, 4)],
            # swapped and reduced before the third column shows the dependency
            [(10, 1), (1, 0), (3, 3)],
        ],
    )
    def test_dependent_columns_come_back_as_given(self, columns):
        reduced, v = linalg._lll(columns)
        assert reduced == [list(column) for column in columns]
        assert v == [[int(i == j) for i in range(len(columns))] for j in range(len(columns))]


class TestRank:
    def test_zero_matrix(self):
        assert rank(M([[0, 0], [0, 0]])) == 0

    def test_identity(self):
        assert rank(IntMatrix.identity(4)) == 4

    def test_dependent_rows(self):
        assert rank(M([[1, 2], [2, 4], [0, 1]])) == 2

    @settings(max_examples=80)
    @given(matrices(max_rows=6, max_cols=6))
    def test_matches_fraction_oracle(self, a):
        assert rank(a) == fraction_rank(a.entries)


class TestMaxAbsFullRankSubdet:
    def test_identity(self):
        assert max_abs_full_rank_subdet(IntMatrix.identity(3)) == (1, (0, 1, 2))

    def test_all_minors_equal(self):
        assert max_abs_full_rank_subdet(M([[-1, -3], [1, 0], [2, 3]])) == (3, (0, 1))

    def test_lexicographically_first_witness(self):
        assert max_abs_full_rank_subdet(M([[1, 0], [0, 1], [1, 1], [1, -1]])) == (
            2,
            (2, 3),
        )

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            max_abs_full_rank_subdet(M([[1, 0], [0, 1], [1, 1], [1, -1]]), budget=3)

    def test_rank_deficient(self):
        with pytest.raises(RankError):
            max_abs_full_rank_subdet(M([[1, 2], [2, 4]]))


class TestIsTotallyDeltaModular:
    def test_incidence_matrix_is_totally_unimodular(self):
        from deltasvp.generators import complete_digraph_incidence

        t = complete_digraph_incidence(4, ordered=False)
        assert is_totally_delta_modular(t, 1)

    def test_sparsity_instance(self):
        from deltasvp.generators import sparsity_instance

        a, _ = sparsity_instance(2)
        assert is_totally_delta_modular(a, 2)
        assert not is_totally_delta_modular(a, 1)

    def test_two_by_two(self):
        assert not is_totally_delta_modular(M([[1, 1], [1, -1]]), 1)
        assert is_totally_delta_modular(M([[1, 1], [1, -1]]), 2)

    def test_an_entry_alone_can_break_it(self):
        """Every 2 x 2 minor is within 1, and only an entry is not."""
        assert not is_totally_delta_modular(M([[2, 1], [1, 1]]), 1)
        assert not is_totally_delta_modular(M([[5]]), 1)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            is_totally_delta_modular(M([[1, 1], [1, -1]]), 1, budget=2)


class TestSubdetRatioCheck:
    def test_full_selection_degenerate_case(self):
        a = M([[1, 0], [1, 2], [2, 2]])
        assert subdet_ratio_check(a, (0, 1), (0, 2), (0, 1))

    def test_worked_example(self):
        a = M([[1, 0], [1, 2], [2, 2]])
        assert subdet_ratio_check(a, (0, 1), (2,), (1,))

    def test_random_tuples(self):
        rng = random.Random(5150)
        checked = 0
        while checked < 200:
            n = rng.randint(1, 3)
            m = rng.randint(n, 5)
            a = M([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
            if rank(a) < n:
                continue
            base = sorted(rng.sample(range(m), n))
            if det(a.submatrix_rows(base)) == 0:
                continue
            k = rng.randint(1, n)
            i_rows = sorted(rng.sample(range(m), k))
            j_cols = sorted(rng.sample(range(n), k))
            assert subdet_ratio_check(a, base, i_rows, j_cols)
            checked += 1

    def test_singular_swap_agrees(self):
        """Row 1 again at position 0: swapped and the fresh tableau both
        raise SingularMatrixError, and both determinants are 0."""
        a = M([[1, 0], [1, 2], [2, 2]])
        assert subdet_ratio_check(a, (0, 1), (1,), (0,))

    def test_swap_disagreeing_with_fresh_tableau_fails(self, monkeypatch):
        """A swap that returns the old tableau has the right ratio-identity
        determinant here (|det| stays 2) but the wrong rows and N."""
        a = M([[1, 0], [1, 2], [1, -2]])
        assert subdet_ratio_check(a, (0, 1), (2,), (1,))
        monkeypatch.setattr(Tableau, "swapped", lambda tab, swaps: tab)
        assert not subdet_ratio_check(a, (0, 1), (2,), (1,))

    def test_singular_base_rejected(self):
        with pytest.raises(SingularMatrixError):
            subdet_ratio_check(M([[1, 2], [2, 4], [0, 1]]), (0, 1), (2,), (0,))

    def test_dimension_mismatch_rejected(self):
        a = M([[1, 0], [1, 2], [2, 2]])
        with pytest.raises(DimensionError):
            subdet_ratio_check(a, (0, 1), (2,), (0, 1))

    @pytest.mark.parametrize(
        "base,i_rows,j_cols,message",
        [
            ((0,), (2,), (1,), "base row set must have one row per column"),
            ((0, 1), (1, 2), (1, 1), "column selection out of range or repeated"),
            ((0, 1), (2,), (2,), "column selection out of range or repeated"),
            ((0, 1), (2, 2), (0, 1), "row selection out of range or repeated"),
            ((0, 1), (-1,), (0,), "row selection out of range or repeated"),
        ],
        ids=["base_rows", "repeated_column", "column_out_of_range", "repeated_row",
             "row_out_of_range"],
    )
    def test_selection_rejected(self, base, i_rows, j_cols, message):
        a = M([[1, 0], [1, 2], [2, 2]])
        with pytest.raises(DimensionError, match=f"^{message}$"):
            subdet_ratio_check(a, base, i_rows, j_cols)

    def test_empty_selection_holds(self):
        assert subdet_ratio_check(M([[1, 0], [1, 2], [2, 2]]), (0, 1), (), ())

    @pytest.mark.parametrize("base", [(0, -1), (0, 7)], ids=["negative", "past_the_end"])
    def test_base_row_out_of_range_rejected(self, base):
        a = M([[1, 0], [1, 2], [2, 2]])
        with pytest.raises(DimensionError):
            subdet_ratio_check(a, base, (1,), (0,))


class TestBoundedInverseEntries:
    """With a maximizing basis, all entries and 2x2 minors of A*B^-1 stay
    within 1 in absolute value (exactly, as rationals)."""

    def test_seeded_random_instances(self):
        rng = random.Random(404)
        done = 0
        while done < 40:
            n = rng.randint(2, 3)
            m = rng.randint(n, n + 2)
            a = M([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
            if rank(a) < n:
                continue
            largest, witness = max_abs_full_rank_subdet(a)
            adj = cofactor_adjugate(a.submatrix_rows(witness).entries)
            numerators = M(plain_product(a.entries, adj))
            for row in numerators.entries:
                assert all(abs(x) <= largest for x in row)
            from itertools import combinations

            for rows in combinations(range(m), 2):
                for cols in combinations(range(n), 2):
                    minor = det(numerators.submatrix(rows, cols))
                    assert abs(minor) <= largest * largest
            done += 1
