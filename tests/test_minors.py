"""The maximal-minor iterator linalg._minors and the scans built on it,
against the cofactor expansion of tests/oracles.py, on small matrices with
zero and repeated rows drawn on purpose."""

import math
from itertools import combinations
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deltasvp import polyhedra
from deltasvp.linalg import IntMatrix, _minors, max_abs_full_rank_subdet
from deltasvp.polyhedra import kernel_lattice_basis, verify_kernel_identity

from oracles import cofactor_det, fraction_rank


@st.composite
def row_lists(draw, max_rows=8, max_cols=4, bound=3):
    """1..max_rows rows of one length n <= max_cols, each a fresh row, a
    zero row or a copy of an earlier row."""
    n = draw(st.integers(1, max_cols))
    rows: list[list[int]] = []
    for _ in range(draw(st.integers(1, max_rows))):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat")))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n)))
    return rows


@settings(max_examples=200, deadline=None)
@given(row_lists())
def test_minors_are_every_subset_in_order_with_its_determinant(rows):
    k = len(rows[0])
    minors = list(_minors(rows, k))
    assert [subset for subset, _ in minors] == list(combinations(range(len(rows)), k))
    for subset, value in minors:
        assert value == cofactor_det([rows[i] for i in subset])


@settings(max_examples=200, deadline=None)
@given(row_lists())
def test_max_abs_full_rank_subdet_keeps_the_first_witness(rows):
    assume(fraction_rank(rows) == len(rows[0]))
    values = {
        subset: abs(cofactor_det([rows[i] for i in subset]))
        for subset in combinations(range(len(rows)), len(rows[0]))
    }
    best = max(values.values())
    witness = next(subset for subset, value in values.items() if value == best)
    assert max_abs_full_rank_subdet(IntMatrix.from_rows(rows)) == (best, witness)


def _explicit_kernel_identity(a: IntMatrix, w: IntMatrix) -> bool:
    """|det A[:, I]| / gcd(A) == |det W[complement(I), :]| / gcd(W) for every
    column set I of size m, each minor by cofactor expansion."""
    m, n = a.shape
    pairs = []
    for cols in combinations(range(n), m):
        complement = [j for j in range(n) if j not in cols]
        lhs = abs(cofactor_det([[row[j] for j in cols] for row in a.entries]))
        rhs = abs(cofactor_det([w.entries[j] for j in complement]))
        pairs.append((lhs, rhs))
    g_a = math.gcd(*(lhs for lhs, _ in pairs))
    g_w = math.gcd(*(rhs for _, rhs in pairs))
    return all(lhs * g_w == rhs * g_a for lhs, rhs in pairs)


@settings(max_examples=200, deadline=None)
@given(row_lists(), st.randoms(use_true_random=False))
def test_kernel_identity_pairs_each_column_set_with_its_complement(rows, rng):
    """A is the transpose of the drawn rows.  The kernel basis W is used as
    computed and with its rows shuffled, which breaks the identity unless the
    pairing of column sets and complements is right on both sides."""
    a = IntMatrix.from_rows(rows).transpose()
    m, n = a.shape
    assume(m < n and fraction_rank(a.entries) == m)
    w = kernel_lattice_basis(a)
    order = list(range(n))
    rng.shuffle(order)
    for basis in (w, w.submatrix_rows(order)):
        with mock.patch.object(polyhedra, "kernel_lattice_basis", return_value=basis):
            assert verify_kernel_identity(a) == _explicit_kernel_identity(a, basis)
