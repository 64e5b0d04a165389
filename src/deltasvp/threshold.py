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

Each pass reads B^-1 and A*B^-1 from one integer tableau: a single
fraction-free elimination of [A^T | I] (``linalg.tableau``) yields adj(B),
det(B) and the numerators A*adj(B) together, and the dispatcher's first
tableau also chooses the starting basis.

Every replacement's new |det B| is read off the current, certified tableau
by the determinant-ratio identity (``Tableau.swapped_det``) and must exceed
the old one; the next pass's tableau, or the certificate's determinant when
the new value already exceeds delta, must reproduce it exactly.  Anything
else raises InvariantError.

A note on the selection size: the residue classes modulo 1 of the columns
of B^-1 form a group of order d = |det B|.  A sum of d same-class columns
is therefore always integral, while a sum of delta of them need not be when
d < delta mid-run.  The selection consequently takes min(delta, d) columns,
which equals d whenever the solver itself calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InvariantError, RankError, ThresholdError, ZeroLatticeError
from .linalg import IntMatrix, ScaledInverse, Tableau, det, hnf, tableau
from .oracle import OracleResult, brute_force_svp, enum_bound

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
            raise InvariantError("short vector must have norm exactly 1")
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


@dataclass(frozen=True)
class ResidueKey:
    """Residues of a signed inverse column modulo |det B|, in [0, d)."""

    residues: tuple[int, ...]
    modulus: int

    def is_zero(self) -> bool:
        return not any(self.residues)

    def negated(self) -> "ResidueKey":
        return ResidueKey(tuple((-x) % self.modulus for x in self.residues), self.modulus)


@dataclass(frozen=True)
class SignedSelection:
    """Columns of +-B^-1 sharing one residue class: (column, sign) pairs."""

    members: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        columns = [j for j, _ in self.members]
        if len(set(columns)) != len(columns):
            raise InvariantError("selection columns must be distinct")
        if any(s not in (1, -1) for _, s in self.members):
            raise InvariantError("signs must be +1 or -1")


@dataclass(frozen=True)
class TestVectors:
    """Integer test vectors derived from a same-class selection.

    ``differences`` holds h_i - h_j for all ordered member positions i != j
    in lexicographic (i, j) order, aligned with ``pairs``; ``total`` is the
    sum of all selected columns.  The scan order (differences, then total)
    is part of the contract.
    """

    differences: tuple[tuple[int, ...], ...]
    pairs: tuple[tuple[int, int], ...]
    total: tuple[int, ...]

    def scan(self) -> tuple[tuple[int, ...], ...]:
        return self.differences + (self.total,)

    def difference_index(self, i: int, j: int) -> int:
        return self.pairs.index((i, j))


def residue_key(inv: ScaledInverse, column: int, sign: int) -> ResidueKey:
    """Residue class key of sign * (column of B^-1) modulo |det B|.

    The key is all zeros exactly when that signed column is integral.
    """
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    d = abs(inv.denominator)
    col = inv.numerator.column(column)
    return ResidueKey(tuple((sign * x) % d for x in col), d)


def select_same_class(inv: ScaledInverse, delta: int) -> SignedSelection:
    """Deterministic choice of min(delta, |det B|) same-class signed columns.

    Columns are grouped by the lexicographically smaller of their key and
    its negation; the group with the smallest such key among those large
    enough wins, each member's sign is chosen to land on that key (+1 on
    self-negating ties), and the first members in ascending column order
    are returned.  No column may be integral.
    """
    if delta < 1:
        raise DomainError("delta must be >= 1")
    d = abs(inv.denominator)
    if d < 2:
        raise DomainError("unimodular basis has only integral inverse columns")
    n = inv.size
    plus_keys = [residue_key(inv, j, +1) for j in range(n)]
    if any(k.is_zero() for k in plus_keys):
        raise DomainError("integral inverse column present; extract it first")

    size = min(delta, d)
    groups: dict[tuple[int, ...], list[int]] = {}
    for j, key in enumerate(plus_keys):
        pair_key = min(key.residues, key.negated().residues)
        groups.setdefault(pair_key, []).append(j)
    eligible = sorted(key for key, cols in groups.items() if len(cols) >= size)
    if not eligible:
        raise InvariantError(
            "no residue class holds enough columns; the dimension is below threshold"
        )
    target = eligible[0]
    members = []
    for j in groups[target][:size]:
        sign = 1 if plus_keys[j].residues == target else -1
        members.append((j, sign))
    return SignedSelection(tuple(members))


def build_test_vectors(inv: ScaledInverse, sel: SignedSelection) -> TestVectors:
    """All pairwise differences plus the sum of the selected columns.

    Every candidate is divided exactly by det(B) and must come out integral
    and nonzero; anything else is a broken invariant, not an input error.
    """
    d_signed = inv.denominator
    cols = [
        tuple(sign * x for x in inv.numerator.column(j)) for j, sign in sel.members
    ]
    size = len(cols)

    def exact(vec: tuple[int, ...]) -> tuple[int, ...]:
        if any(x % d_signed for x in vec):
            raise InvariantError("test vector is not integral")
        out = tuple(x // d_signed for x in vec)
        if not any(out):
            raise InvariantError("test vector is zero")
        return out

    differences = []
    pairs = []
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            pairs.append((i, j))
            differences.append(exact(tuple(a - b for a, b in zip(cols[i], cols[j]))))
    total = exact(tuple(sum(col[t] for col in cols) for t in range(len(cols[0]))))
    return TestVectors(tuple(differences), tuple(pairs), total)


def _short_vector(a: IntMatrix, z: tuple[int, ...]) -> ShortVector:
    y = a.matvec(z)
    norm = max(abs(x) for x in y)
    if norm != 1:
        raise InvariantError(f"claimed short vector has norm {norm}")
    return ShortVector(z, y, norm)


def _member_values(
    numerator_row: tuple[int, ...], d_signed: int, sel: SignedSelection
) -> list[int]:
    """Exact values of a row of A against each selected signed column.

    At the point these are needed every value is provably an integer in
    {-1, 0, 1}; non-integrality means a bug.
    """
    values = []
    for col, sign in sel.members:
        num = sign * numerator_row[col]
        if num % d_signed:
            raise InvariantError("row value against selection is not integral")
        values.append(num // d_signed)
    return values


def _replace(tab: Tableau, path: str, swaps: dict[int, int]) -> Transition:
    """The replacement putting row swaps[j] of A at basis position j."""
    rows = tuple(swaps.get(p, r) for p, r in enumerate(tab.rows))
    before, after = abs(tab.inverse.denominator), tab.swapped_det(swaps)
    if after <= before:
        raise InvariantError(
            f"replacement failed to grow the determinant: {before} -> {after}"
        )
    return Transition(path, rows, before, after)


def threshold_step(a: IntMatrix, delta: int, tab: Tableau) -> ShortVector | Transition:
    """One pass of the solver on the certified tableau of a working basis
    with |det B| <= delta.

    Either finds a norm-1 vector or returns exactly one determinant-growing
    row replacement, its new |det B| read off the tableau.
    """
    m, n = a.rows, a.cols
    inv = tab.inverse
    d_signed = inv.denominator
    d = abs(d_signed)

    # entry scan: numerators of A*B^-1, row-major; any |entry| > d grows det
    numerators = tab.numerators
    for k in range(m):
        row = numerators.row(k)
        for j in range(n):
            if abs(row[j]) > d:
                return _replace(tab, PATH_ENTRY, {j: k})

    # integral column scan: first integral column of B^-1 is a short vector
    for j in range(n):
        col = inv.numerator.column(j)
        if all(x % d_signed == 0 for x in col):
            z = tuple(x // d_signed for x in col)
            return _short_vector(a, z)

    sel = select_same_class(inv, delta)
    vectors = build_test_vectors(inv, sel)

    # test-vector scan: return the first short one, else collect, per
    # vector, the first row of A with an integer gap of at least 2
    collected: list[int] = []
    for t in vectors.scan():
        y = a.matvec(t)
        if max(abs(x) for x in y) <= 1:
            return _short_vector(a, t)
        collected.append(next(k for k, val in enumerate(y) if abs(val) >= 2))

    # pair check: each consecutive-difference row must vanish on the rest
    # of the selection; a violation yields a two-row replacement of
    # determinant ratio exactly 2
    size = len(sel.members)
    for k in range(size - 1):
        row_idx = collected[vectors.difference_index(k, k + 1)]
        values = _member_values(numerators.row(row_idx), d_signed, sel)
        if not (values[k] in (1, -1) and values[k + 1] == -values[k]):
            raise InvariantError("collected row must split its pair by exactly 2")
        offenders = [
            u for u in range(size) if u not in (k, k + 1) and values[u] != 0
        ]
        if offenders:
            u = offenders[0]
            i_pos = k if values[k] * values[u] > 0 else k + 1
            partner_idx = collected[vectors.difference_index(i_pos, u)]
            swaps = {sel.members[i_pos][0]: row_idx, sel.members[u][0]: partner_idx}
            return _replace(tab, PATH_PAIR, swaps)

    # block replacement: consecutive-difference rows plus the sum row
    # replace the whole selection; determinant ratio at least 2
    swaps = {
        sel.members[k][0]: collected[vectors.difference_index(k, k + 1)]
        for k in range(size - 1)
    }
    swaps[sel.members[size - 1][0]] = collected[-1]
    return _replace(tab, PATH_BLOCK, swaps)


def solve_threshold_trace(
    a: IntMatrix, delta: int
) -> tuple[SvpOutcome, tuple[Transition, ...]]:
    """Runs the solver from the greedy basis of A and returns the outcome
    with the replacement trace, whose entry i is iteration i + 1."""
    if a.cols <= dimension_threshold(delta):
        raise ThresholdError(
            f"need more than {dimension_threshold(delta)} columns for delta={delta}"
        )
    return _solve(a, delta, tableau(a))


def _solve(
    a: IntMatrix, delta: int, tab: Tableau
) -> tuple[SvpOutcome, tuple[Transition, ...]]:
    """The solver loop from the certified tableau of a starting basis.

    Each replacement's det_after is checked against the next tableau or,
    once it exceeds delta, against the certificate's own determinant.
    """
    transitions: list[Transition] = []
    rows, d = tab.rows, abs(tab.inverse.denominator)
    while d <= delta:
        step = threshold_step(a, delta, tab)
        if isinstance(step, ShortVector):
            return step, tuple(transitions)
        transitions.append(step)
        if len(transitions) > delta:
            raise InvariantError("iteration count exceeded delta")
        rows, d = step.rows, step.det_after
        if d <= delta:
            tab = tableau(a, rows)
            if abs(tab.inverse.denominator) != d:
                raise InvariantError("ratio identity disagrees with the next tableau")
    rows = tuple(sorted(rows))
    value = det(a.submatrix_rows(rows))
    if abs(value) != d:
        raise InvariantError("certificate determinant does not match the cited rows")
    return Certificate(rows, value), tuple(transitions)


def solve_threshold(a: IntMatrix, delta: int) -> SvpOutcome:
    """Norm-1 lattice vector of A, or a row set with |det| > delta."""
    return solve_threshold_trace(a, delta)[0]


def solve_svp(
    a: IntMatrix, delta: int, box_budget: int | None = None
) -> SvpOutcome | OracleResult:
    """Complete dispatcher: normal form, threshold test, oracle fallback.

    Rank-deficient input is replaced by the nonzero columns of its Hermite
    normal form (the same lattice).  Above the dimension threshold the
    iterative solver runs; below it the complete enumeration oracle does.
    Vectors are reported in the coordinates of the original input columns;
    a certificate cites rows of the matrix the solver ran on, which is the
    normal-form basis whenever the input lacked full column rank.
    """
    if delta < 1:
        raise DomainError("delta must be >= 1")
    if not any(x for row in a.entries for x in row):
        raise ZeroLatticeError("zero matrix generates the trivial lattice")

    start = bound = None
    work, coordinate_map = a, None
    try:
        # the first tableau (above the threshold) or the box radius (below
        # it) doubles as the rank test
        if a.cols > dimension_threshold(delta):
            start = tableau(a)
        else:
            bound = enum_bound(a)
    except RankError:
        h, u = hnf(a)
        nonzero = [j for j in range(a.cols) if any(h.column(j))]
        work = h.submatrix(range(a.rows), nonzero)
        coordinate_map = u.submatrix(range(a.cols), nonzero)

    if work.cols > dimension_threshold(delta):
        outcome = _solve(work, delta, tableau(work) if start is None else start)[0]
        if isinstance(outcome, ShortVector) and coordinate_map is not None:
            outcome = ShortVector(coordinate_map.matvec(outcome.z), outcome.y, outcome.norm)
        return outcome

    kwargs = {} if box_budget is None else {"budget": box_budget}
    result = brute_force_svp(work, enum_bound(work) if bound is None else bound, **kwargs)
    if coordinate_map is not None:
        result = OracleResult(coordinate_map.matvec(result.z), result.y, result.norm)
    return result
