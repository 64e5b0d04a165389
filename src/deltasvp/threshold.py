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

All replacements are certified at runtime: the new determinant is recomputed
from scratch and must exceed the old one, or InvariantError is raised.

A note on the selection size: the residue classes modulo 1 of the columns
of B^-1 form a group of order d = |det B|.  A sum of d same-class columns
is therefore always integral, while a sum of delta of them need not be when
d < delta mid-run.  The selection consequently takes min(delta, d) columns,
which equals d whenever the solver itself calls it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
class ThresholdState:
    """One solver state: which rows of A currently form the working basis.

    ``base_rows[k]`` is the A-row index sitting at row k of the basis, so
    positions matter; ``det_abs`` caches |det| of that submatrix.
    ``tableau``, when present, is the tableau of A at ``base_rows`` and
    spares the next pass its elimination; it takes no part in equality.
    """

    base_rows: tuple[int, ...]
    iteration: int
    det_abs: int
    tableau: Tableau | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.det_abs < 1:
            raise InvariantError("working basis must be invertible")
        if self.iteration < 0:
            raise InvariantError("iteration counter must be nonnegative")
        if len(set(self.base_rows)) != len(self.base_rows):
            raise InvariantError("basis rows must be distinct")


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


@dataclass(frozen=True)
class Continue:
    """One replacement happened; the determinant grew by at least 1."""

    state: ThresholdState
    path: str


@dataclass(frozen=True)
class Done:
    outcome: SvpOutcome


def initial_state(a: IntMatrix) -> ThresholdState:
    """Greedy invertible row set of A as the starting basis."""
    return _start(tableau(a))


def _start(tab: Tableau) -> ThresholdState:
    return ThresholdState(tab.rows, 0, abs(tab.inverse.denominator), tab)


def _check_dimensions(a: IntMatrix, delta: int) -> None:
    if delta < 1:
        raise DomainError("delta must be >= 1")
    if a.cols < dimension_threshold(delta) + 1:
        raise ThresholdError(
            f"need more than {dimension_threshold(delta)} columns for delta={delta}"
        )


def _short_vector(a: IntMatrix, z: tuple[int, ...]) -> ShortVector:
    y = a.matvec(z)
    norm = max(abs(x) for x in y)
    if norm != 1:
        raise InvariantError(f"claimed short vector has norm {norm}")
    return ShortVector(z, y, norm)


def _advance(
    a: IntMatrix, delta: int, state: ThresholdState, new_rows: list[int], path: str
) -> Continue:
    new_det = abs(det(a.submatrix_rows(new_rows)))
    if new_det < state.det_abs + 1:
        raise InvariantError(
            f"replacement failed to grow the determinant: {state.det_abs} -> {new_det}"
        )
    if state.iteration + 1 > delta:
        raise InvariantError("iteration count exceeded delta")
    return Continue(ThresholdState(tuple(new_rows), state.iteration + 1, new_det), path)


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


def threshold_step(a: IntMatrix, delta: int, state: ThresholdState) -> Continue | Done:
    """One full pass of the solver from the given state.

    Either finishes with an outcome (certificate when |det B| already
    exceeds delta, or a norm-1 vector) or performs exactly one
    determinant-growing row replacement and continues.
    """
    _check_dimensions(a, delta)
    m, n = a.rows, a.cols
    if state.det_abs > delta:
        rows = tuple(sorted(state.base_rows))
        value = det(a.submatrix_rows(rows))
        if abs(value) != state.det_abs:
            raise InvariantError("cached determinant does not match the cited rows")
        return Done(Certificate(rows, value))

    tab = state.tableau
    if tab is None or tab.rows != state.base_rows:
        tab = tableau(a, state.base_rows)
    inv = tab.inverse
    d_signed = inv.denominator
    d = abs(d_signed)
    if d != state.det_abs:
        raise InvariantError("cached determinant is stale")

    # entry scan: numerators of A*B^-1, row-major; any |entry| > d grows det
    numerators = tab.numerators
    for k in range(m):
        row = numerators.row(k)
        for j in range(n):
            if abs(row[j]) > d:
                new_rows = list(state.base_rows)
                new_rows[j] = k
                return _advance(a, delta, state, new_rows, PATH_ENTRY)

    # integral column scan: first integral column of B^-1 is a short vector
    for j in range(n):
        col = inv.numerator.column(j)
        if all(x % d_signed == 0 for x in col):
            z = tuple(x // d_signed for x in col)
            return Done(_short_vector(a, z))

    sel = select_same_class(inv, delta)
    vectors = build_test_vectors(inv, sel)

    # test-vector scan: return the first short one, else collect, per
    # vector, the first row of A with an integer gap of at least 2
    collected: list[int] = []
    for t in vectors.scan():
        y = a.matvec(t)
        if max(abs(x) for x in y) <= 1:
            return Done(_short_vector(a, t))
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
            new_rows = list(state.base_rows)
            new_rows[sel.members[i_pos][0]] = row_idx
            new_rows[sel.members[u][0]] = partner_idx
            return _advance(a, delta, state, new_rows, PATH_PAIR)

    # block replacement: consecutive-difference rows plus the sum row
    # replace the whole selection; determinant ratio at least 2
    new_rows = list(state.base_rows)
    for k in range(size - 1):
        new_rows[sel.members[k][0]] = collected[vectors.difference_index(k, k + 1)]
    new_rows[sel.members[size - 1][0]] = collected[-1]
    return _advance(a, delta, state, new_rows, PATH_BLOCK)


@dataclass(frozen=True)
class Transition:
    """Record of one determinant-growing replacement, for instrumentation."""

    path: str
    iteration: int
    det_before: int
    det_after: int


def solve_threshold_trace(
    a: IntMatrix, delta: int
) -> tuple[SvpOutcome, tuple[Transition, ...]]:
    """Runs the solver to completion and returns the replacement trace."""
    _check_dimensions(a, delta)
    return _run(a, delta, initial_state(a))


def _run(
    a: IntMatrix, delta: int, state: ThresholdState
) -> tuple[SvpOutcome, tuple[Transition, ...]]:
    transitions: list[Transition] = []
    for _ in range(delta + 2):
        result = threshold_step(a, delta, state)
        if isinstance(result, Done):
            return result.outcome, tuple(transitions)
        transitions.append(
            Transition(
                result.path,
                result.state.iteration,
                state.det_abs,
                result.state.det_abs,
            )
        )
        state = result.state
    raise InvariantError("solver exceeded its iteration bound")


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
        state = _start(start) if start is not None else initial_state(work)
        outcome = _run(work, delta, state)[0]
        if isinstance(outcome, ShortVector) and coordinate_map is not None:
            outcome = ShortVector(coordinate_map.matvec(outcome.z), outcome.y, outcome.norm)
        return outcome

    kwargs = {} if box_budget is None else {"budget": box_budget}
    result = brute_force_svp(work, enum_bound(work) if bound is None else bound, **kwargs)
    if coordinate_map is not None:
        result = OracleResult(coordinate_map.matvec(result.z), result.y, result.norm)
    return result
