"""Infinity-norm shortest-vector solver for lattices with bounded
full-rank subdeterminants.

The solver maintains an invertible row submatrix B of the input A and
inspects the exact inverse B^-1 = adj(B)/det(B).  One of three things
happens on every pass: some entry of A*B^-1 exceeds 1 in absolute value and
a single row swap grows |det B|; some column of B^-1 is integral and maps
to a lattice vector of norm exactly 1; or several columns of +-B^-1 share a
residue class modulo 1, in which case their pairwise differences and their
sum are integer vectors that either contain a norm-1 lattice vector or
certify a row replacement that grows |det B| by a factor of at least 2.
Since |det B| is a positive integer that strictly increases and every
full-rank submatrix of a delta-modular matrix has |det| <= delta, the loop
either finds a norm-1 vector or exposes a submatrix with |det| > delta,
disproving the caller's delta.  Termination needs the column count to
exceed a threshold depending only on delta, since only then does the
pigeonhole over residue classes always produce enough same-class columns.

Each pass (``threshold_step``) reads everything off one tableau: the run's
first comes from ``linalg.tableau`` (adj(B) and det(B) from a fraction-free
elimination of the n x n transform alone, and N = A*adj(B) read off the
packed product that certifies it), and every later one from
``Tableau.swapped`` of the one before (one exact block pivot on its packed
rows, for entry, pair and block replacements alike).  A pass reads, in
this order: the entry scan of N; the scan of
the columns of adj(B) for an integral one, which computes each column's
residues modulo |det B| on the way; one same-class selection from those
residues; and a lazy scan of the test vectors, the differences of members
i < j in lexicographic order and then the sum, whose images A*t are read off
the selected columns of N.  A vector that looks short is rechecked as A*z
before it is returned.  The dispatcher's one greedy tableau is its rank
test and then the starting basis of either the solver or the oracle's
layered scan.

Every replacement's new |det B| is read off the current tableau by the
determinant-ratio identity (``Tableau.swapped_det``) and must exceed the old
one; the next pass's tableau, or the certificate's determinant when the new
value already exceeds delta, must reproduce it exactly.  A test
vector or image that is not integral or is zero, a collected row that does
not split its pair by exactly 2, and anything else the construction rules
out raise InvariantError.

The selection size: the residue classes modulo 1 of the columns of B^-1
form an abelian group of order d = |det B|, so a sum of d same-class
columns is always integral.  The selection takes d columns of one +-class
when some class holds that many, and otherwise o columns of a class of
order o that holds at least o, whose sum is integral too.  Above the
threshold the fallback always succeeds: no column is integral by then, so
with fewer than o in every class there are at most sum (o - 1) columns
over the +-classes of nonzero elements, and that sum is at most
floor(d/2) * (d - 1), the threshold at d <= delta, on all 116 abelian
groups of order 2 to 64.  On the 63 cyclic ones (d - 1) times the number
of classes equals that value, so some class holds d columns; on 41 of the
53 others it exceeds it (Z_2 x Z_2 at d = 4 has three classes of order 2),
and d columns of one class can fail to exist.  ``tests/oracles.py``
enumerates these groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from operator import sub
from typing import Iterable, Iterator

from .errors import DomainError, InvariantError, RankError, ThresholdError, ZeroLatticeError
from .linalg import IntMatrix, Tableau, det, hnf, tableau
from .oracle import DEFAULT_BOX_BUDGET, OracleResult, scan_svp

#: Tags for the three determinant-growing replacement paths.
PATH_ENTRY = "entry_swap"  # one inverse entry exceeds 1: single row swap
PATH_PAIR = "pair_swap"    # residue-class pair violation: two-row swap
PATH_BLOCK = "block_swap"  # whole selection replaced at once


def dimension_threshold(delta: int) -> int:
    """Column count above which a norm-1 lattice vector is guaranteed.

    Equals ceil((delta-1)/2) * (delta-1); the guarantee holds for matrices
    with more columns than this value.
    """
    if delta < 1:
        raise DomainError("delta must be >= 1")
    return (delta // 2) * (delta - 1)


@dataclass(frozen=True)
class ShortVector:
    """Nonzero integer combination z with ||A z||_inf exactly 1."""

    z: tuple[int, ...]
    y: tuple[int, ...]
    norm: int

    def __post_init__(self) -> None:
        if self.norm != 1:
            raise InvariantError(f"claimed short vector has norm {self.norm}")
        if not any(self.z):
            raise InvariantError("short vector must be nonzero")


@dataclass(frozen=True)
class Certificate:
    """Row set whose submatrix determinant exceeds the claimed delta."""

    rows: tuple[int, ...]
    det_value: int


SvpOutcome = ShortVector | Certificate


@dataclass(frozen=True)
class Transition:
    """One determinant-growing replacement: the path taken, the new basis
    rows in position order, and |det B| before and after."""

    path: str
    rows: tuple[int, ...]
    det_before: int
    det_after: int


def _select_same_class(residues: list[tuple[int, ...]], d: int) -> list[tuple[int, int]]:
    """(column, sign) pairs of d columns of +-B^-1 in one residue class
    modulo 1, from each column's adj(B) entries modulo d = |det B|.

    Columns are grouped by the lexicographically smaller of their residues
    and those of their negation; the group with the smallest such key among
    those large enough wins, each member's sign lands it on that key (+1 on
    self-negating ties), and the first members in ascending column order
    are returned.

    When no class holds d columns, a class of order o (o times its residue
    is 0 modulo d) needs only o, whose sum is integral too.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for j, res in enumerate(residues):
        groups.setdefault(min(res, tuple(-x % d for x in res)), []).append(j)
    for need in (lambda key: d, lambda key: d // math.gcd(d, *key)):
        eligible = [key for key, cols in groups.items() if len(cols) >= need(key)]
        if eligible:
            target = min(eligible)
            members = groups[target][: need(target)]
            return [(j, 1 if residues[j] == target else -1) for j in members]
    raise InvariantError(
        "no residue class holds enough columns; the dimension is below threshold"
    )


def _exact(numerators: Iterable[int], d_signed: int, what: str) -> tuple[int, ...]:
    """numerators / det(B), which must come out integral and nonzero;
    anything else is a broken invariant, not an input error."""
    numerators = tuple(numerators)
    if any(x % d_signed for x in numerators):
        raise InvariantError(f"{what} is not integral")
    out = tuple(x // d_signed for x in numerators)
    if not any(out):
        raise InvariantError(f"{what} is zero")
    return out


def _test_vectors(
    adj_cols: list[tuple[int, ...]], n_cols: list[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, int] | str, Iterable[int], Iterable[int]]]:
    """(key, numerators of t, numerators of A t) for the test vectors t of
    the selected signed columns, lazily: the differences of members i < j
    in lexicographic (i, j) order, then their sum under the key "sum".  The
    image is read off the selected columns of N = A * adj(B).  The (j, i)
    differences are left out: t_(j,i) = -t_(i,j) has the same integrality,
    norm and first row with an entry of magnitude at least 2."""
    for i, j in combinations(range(len(adj_cols)), 2):
        yield (i, j), map(sub, adj_cols[i], adj_cols[j]), map(sub, n_cols[i], n_cols[j])
    yield "sum", map(sum, zip(*adj_cols)), map(sum, zip(*n_cols))


def _short_vector(a: IntMatrix, z: tuple[int, ...]) -> ShortVector:
    y = a.matvec(z)
    return ShortVector(z, y, max(map(abs, y)))


def _replace(tab: Tableau, path: str, swaps: dict[int, int]) -> Transition:
    """The replacement putting row swaps[j] of A at basis position j."""
    rows = tuple(swaps.get(p, r) for p, r in enumerate(tab.rows))
    before, after = abs(tab.det), tab.swapped_det(swaps)
    if after <= before:
        raise InvariantError(
            f"replacement failed to grow the determinant: {before} -> {after}"
        )
    return Transition(path, rows, before, after)


def threshold_step(a: IntMatrix, tab: Tableau) -> ShortVector | Transition:
    """One pass of the solver on the certified tableau of a working basis.

    Either finds a norm-1 vector or returns exactly one determinant-growing
    row replacement, its new |det B| read off the tableau.
    """
    d_signed = tab.det
    d = abs(d_signed)

    # entry scan: numerators of A*B^-1, row-major; any |entry| > d grows det
    numerators = tab.numerators.entries
    for k, row in enumerate(numerators):
        if max(map(abs, row)) > d:
            j = next(j for j, x in enumerate(row) if abs(x) > d)
            return _replace(tab, PATH_ENTRY, {j: k})

    # integral column scan over adj(B), transposed once and lazily: the
    # first integral column of B^-1 is a short vector; the residues of the
    # columns before it feed the selection
    columns, residues = [], []
    for col in zip(*tab.adj.entries):
        res = tuple(x % d for x in col)
        if not any(res):
            return _short_vector(a, tuple(x // d_signed for x in col))
        columns.append(col)
        residues.append(res)

    members = _select_same_class(residues, d)
    adj_cols = [tuple(s * x for x in columns[c]) for c, s in members]
    n_cols = [tuple(s * row[c] for row in numerators) for c, s in members]

    # test-vector scan: return the first short one, else collect, per
    # vector, the first row of A with an integer gap of at least 2
    collected: dict[tuple[int, int] | str, int] = {}
    for key, t, y in _test_vectors(adj_cols, n_cols):
        t = _exact(t, d_signed, "test vector")
        y = _exact(y, d_signed, "test vector image")
        if max(map(abs, y)) <= 1:
            return _short_vector(a, t)
        collected[key] = next(k for k, val in enumerate(y) if abs(val) >= 2)

    # pair check: each consecutive-difference row must vanish on the rest
    # of the selection; a violation yields a two-row replacement of
    # determinant ratio exactly 2
    size = len(members)
    for k in range(size - 1):
        row_idx = collected[k, k + 1]
        values = _exact((col[row_idx] for col in n_cols), d_signed, "row value against selection")
        if not (values[k] in (1, -1) and values[k + 1] == -values[k]):
            raise InvariantError("collected row must split its pair by exactly 2")
        offenders = [
            u for u in range(size) if u not in (k, k + 1) and values[u] != 0
        ]
        if offenders:
            u = offenders[0]
            i_pos = k if values[k] * values[u] > 0 else k + 1
            pair = collected[min(i_pos, u), max(i_pos, u)]
            swaps = {members[i_pos][0]: row_idx, members[u][0]: pair}
            return _replace(tab, PATH_PAIR, swaps)

    # block replacement: consecutive-difference rows plus the sum row
    # replace the whole selection; determinant ratio at least 2
    swaps = {members[k][0]: collected[k, k + 1] for k in range(size - 1)}
    swaps[members[-1][0]] = collected["sum"]
    return _replace(tab, PATH_BLOCK, swaps)


def solve_threshold_trace(
    a: IntMatrix, delta: int
) -> tuple[SvpOutcome, tuple[Transition, ...]]:
    """Runs the solver from the greedy basis of A and returns the outcome
    with the replacement trace, whose entry i is iteration i + 1."""
    bound = dimension_threshold(delta)
    if a.cols <= bound:
        raise ThresholdError(f"need more than {bound} columns for delta={delta}")
    return _solve(a, delta, tableau(a))


def _solve(
    a: IntMatrix, delta: int, tab: Tableau
) -> tuple[SvpOutcome, tuple[Transition, ...]]:
    """The solver loop from the certified tableau of a starting basis.

    Each next tableau is Tableau.swapped of the current one, so _certify
    runs once per run.  Each replacement's det_after is checked against the
    next tableau or, once it exceeds delta, against the certificate's own
    determinant.
    """
    transitions: list[Transition] = []
    rows, d = tab.rows, abs(tab.det)
    while d <= delta:
        step = threshold_step(a, tab)
        if isinstance(step, ShortVector):
            return step, tuple(transitions)
        transitions.append(step)
        if len(transitions) > delta:
            raise InvariantError("iteration count exceeded delta")
        rows, d = step.rows, step.det_after
        if d <= delta:
            tab = tab.swapped({p: r for p, (r, s) in enumerate(zip(rows, tab.rows)) if r != s})
            if abs(tab.det) != d:
                raise InvariantError("ratio identity disagrees with the next tableau")
    rows = tuple(sorted(rows))
    value = det(a.submatrix_rows(rows))
    if abs(value) != d:
        raise InvariantError("certificate determinant does not match the cited rows")
    return Certificate(rows, value), tuple(transitions)


def solve_svp(
    a: IntMatrix, delta: int, box_budget: int = DEFAULT_BOX_BUDGET
) -> SvpOutcome | OracleResult:
    """Complete dispatcher: normal form, threshold test, oracle fallback.

    Rank-deficient input is replaced by the nonzero columns of its Hermite
    normal form (the same lattice).  Above the dimension threshold the
    iterative solver runs; below it the oracle's layered scan does on the
    same tableau, its layers bounded by the largest maximal minor whatever
    the entries, or the box scan when that has fewer points
    (``oracle.scan_svp``); both give the lexicographically least minimizer.
    Vectors are reported in the coordinates of the original input columns;
    a certificate cites rows of the matrix the solver ran on, which is the
    normal-form basis whenever the input lacked full column rank.
    """
    bound = dimension_threshold(delta)
    if not any(x for row in a.entries for x in row):
        raise ZeroLatticeError("zero matrix generates the trivial lattice")

    work, coordinate_map = a, None
    try:
        tab = tableau(a)
    except RankError:
        h, u = hnf(a)
        nonzero = [j for j in range(a.cols) if any(h.column(j))]
        work = h.submatrix(range(a.rows), nonzero)
        coordinate_map = u.submatrix(range(a.cols), nonzero)
        tab = tableau(work)

    if work.cols > bound:
        outcome = _solve(work, delta, tab)[0]
    else:
        outcome = scan_svp(work, tab, box_budget)
    if coordinate_map is not None and not isinstance(outcome, Certificate):
        outcome = replace(outcome, z=coordinate_map.matvec(outcome.z))
    return outcome
