"""Exact desk-scale polyhedral verifiers.

Verifies, on explicit bounded instances, the structural consequences of the
norm-1 threshold: integer-hull vertices sit on low-dimensional faces, and
standard-form integer programs admit optimal solutions of small support.
Everything is exact integer arithmetic on the fraction-free pivot of
``linalg``; a program optimum is a numerator and a positive denominator.
One simplex (Bland's smallest-subscript rule on an integer tableau)
answers every linear program.  The bounding box of P comes from 2n dual
programs (max x_i over P is min {b y : A^T y = e_i, y >= 0}) on one
tableau: the first runs cold, and each later one is re-optimized from the
basis before by the dual simplex (Lemke 1954), whose reduced costs, the
slacks of P at a vertex, do not depend on the right side; the same
programs decide that P is bounded and nonempty.  Lattice points come from
a plain-integer scan of that box whose widest coordinate is clipped to P,
which reads each point's tight rows off the slacks that clip it.  Each
lattice point v is decided on its own, against the other lattice points
of its minimal face F of P (for a face F of P, F meet P_I is a face of
P_I): v is a vertex of the integer hull P_I when F holds no other point;
it leaves when it is the midpoint of two lattice points of P, which on a
delta-modular P the paper's x +- z makes of every point on a face above
the threshold; else it is a vertex when F is an edge, whose lattice
points are consecutive on a line, so that only its two ends have no
midpoint pair; and only on a face of dimension 2 or more does a phase-1
program decide.  Standard-form programs are solved by dynamic programming
over partial images (Papadimitriou 1981) whose value-to-go table answers
the support verifier directly and lists every optimizer by a forward walk,
kernel lattice bases come from the Hermite normal form, and the kernel
identity reads each maximal minor once off ``linalg._minors``.  Both face
facts and the duality are in Schrijver (1986), "Theory of Linear and Integer
Programming".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from operator import add, le, mul, sub
from typing import Sequence

from .errors import (
    DimensionError,
    DomainError,
    EmptyPolyhedronError,
    InvariantError,
    RankError,
    UnboundedPolyhedronError,
)
from .generators import sparsity_instance
from .linalg import (
    DEFAULT_MINOR_BUDGET,
    IntMatrix,
    _check_budget,
    _minors,
    _pivot,
    hnf,
    is_totally_delta_modular,
    rank,
)
from .threshold import dimension_threshold

DEFAULT_POINT_BUDGET = 10_000_000
_RECESSION = "polyhedron has a nonzero recession direction"


@dataclass(frozen=True)
class PolyhedronH:
    """H-representation {x : A x <= b}."""

    a: IntMatrix
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.b) != self.a.rows:
            raise DimensionError("right-hand side length must match row count")

    @property
    def dim(self) -> int:
        return self.a.cols


@dataclass(frozen=True)
class StandardFormILP:
    """max c^T x subject to A x = b, x >= 0, x integer; A has full row rank."""

    a: IntMatrix
    b: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.b) != self.a.rows:
            raise DimensionError("right-hand side length must match row count")
        if len(self.c) != self.a.cols:
            raise DimensionError("objective length must match column count")
        if rank(self.a) != self.a.rows:
            raise RankError("constraint matrix must have full row rank")


def _box_optima(p: PolyhedronH) -> list[tuple[int, int]]:
    """The optima of the 2n programs min {b y : A^T y = sign e_i, y >= 0},
    sign -1 then 1 for each i in turn, each as a numerator and a positive
    denominator, all on one ``_Simplex``; ``integer_points`` gives the
    argument.  Raises the typed error of an unbounded or an empty P.
    """
    n = p.dim
    simplex = _Simplex(p.a.entries, [-(i == 0) for i in range(n)], p.b)
    if not simplex.phase_one():
        raise UnboundedPolyhedronError(_RECESSION)
    if not simplex.phase_two():
        _box_optima(PolyhedronH(p.a, (0,) * p.a.rows))
        raise EmptyPolyhedronError("polyhedron contains no points")
    if any(j >= simplex.v for j in simplex.basis):
        raise UnboundedPolyhedronError(_RECESSION)
    optima: list[tuple[int, int]] = []
    for i in range(n):
        for sign in (-1, 1):
            if optima and not simplex.reoptimize(i, sign):
                raise UnboundedPolyhedronError(_RECESSION)
            optima.append(simplex.optimum())
    return optima


def integer_points(
    p: PolyhedronH, budget: int = DEFAULT_POINT_BUDGET
) -> dict[tuple[int, ...], int]:
    """The lattice points of a bounded polyhedron, in sorted order, each
    with the bitmask of the rows of P tight at it.

    The bounding box of P comes from 2n linear programs.  By duality,
    max x_i over P is min {b y : A^T y = e_i, y >= 0}, and min x_i is minus
    min {b y : A^T y = -e_i, y >= 0}.  All 2n run on one tableau
    (``_box_optima``).  The first, at -e_1, runs cold through phase 1 and
    phase 2.  Each later one takes the optimal basis of the one before,
    moves it to its own right side and re-optimizes by the dual simplex.
    That basis is dual-feasible for every right side: its reduced costs
    b - A x are the slacks of P at the vertex x that its dual values spell,
    and they do not depend on the right side.  The dual simplex under
    Bland's rule terminates, because it is the primal simplex under Bland's
    rule run on the dual program.

    The same programs decide P.  By Farkas, A^T y = e_i has no solution
    y >= 0 iff some x with A x <= 0 has x_i > 0, so all 2n are feasible iff
    P is bounded, and a feasible one is unbounded below iff P is empty.  So
    a program without a feasible solution, or an artificial left basic
    after phase 2 (rank(A) < n), raises UnboundedPolyhedronError.  Once the
    first program has an optimum P is not empty, so no later one is
    unbounded below.  When the first is unbounded below, P is empty, and
    the programs run again at b = 0, on the cone {A x <= 0}, which is never
    empty, before EmptyPolyhedronError, so a recession direction comes first.

    The coordinate with the most integer values (the last on a tie) is
    clipped to P, and the box of the others is scanned: for each head x',
    the column c of A at that coordinate and the slack b - A' x' clip it to
    one integer interval (floor of slack / c where c > 0, ceiling where
    c < 0; a row with c = 0 and negative slack empties it), and the rows
    after the one that empties it are not read.  On a line that keeps
    points, the slack of row i at t is slack_i - c_i t: a row with c_i = 0
    is tight along the whole line when its slack is 0, and any other only
    at t = slack_i / c_i, when c_i divides the slack.  The points are
    sorted once at the end.  The budget covers the whole bounding box.
    """
    optima = _box_optima(p)
    box = [(-(top // d), most // e) for (top, d), (most, e) in zip(optima[::2], optima[1::2])]
    sizes = [hi - lo + 1 for lo, hi in box]
    _check_budget(math.prod(sizes), budget, "box scan")
    k = max(range(p.dim), key=lambda i: (sizes[i], i))
    ranges = [range(lo, hi + 1) for i, (lo, hi) in enumerate(box) if i != k]
    column = p.a.column(k)
    rows = [(c, bound, row[:k] + row[k + 1 :]) for c, bound, row in zip(column, p.b, p.a.entries)]
    points = []
    for x in product(*ranges):
        lo, hi = box[k]
        slacks = []
        for c, bound, row in rows:
            slack = bound - sum(map(mul, row, x))
            if c > 0:
                top = slack // c
                if top < hi:
                    if top < lo:
                        break
                    hi = top
            elif c < 0:
                bottom = -(slack // -c)
                if bottom > lo:
                    if bottom > hi:
                        break
                    lo = bottom
            elif slack < 0:
                break
            slacks.append(slack)
        else:
            flat, at = 0, {}
            for i, (c, slack) in enumerate(zip(column, slacks)):
                if c == 0:
                    if slack == 0:
                        flat |= 1 << i
                elif slack % c == 0:
                    at[slack // c] = at.get(slack // c, 0) | 1 << i
            points.extend((x[:k] + (t,) + x[k:], flat | at.get(t, 0)) for t in range(lo, hi + 1))
    return dict(sorted(points))


class _Simplex:
    """The integer simplex tableau of {M lambda = rhs, lambda >= 0}, with
    one artificial column per row and an optional cost row c.

    The tableau is kept as integers times 1/d, with d the last pivot: every
    pivot is fraction-free (``linalg._pivot``), and d stays positive
    because each pivot entry is, so reduced costs keep their signs and
    ratio tests compare cross products.  Every pivot chooses by Bland's
    smallest-subscript rule, which guarantees termination (Bland 1977).  A
    row whose right side is negative starts negated, so the artificials
    give a feasible first basis.  The phase-1 objective is one more row (d
    times the reduced costs, then minus d times the infeasibility), updated
    by the same pivots and left out of every ratio test; the cost row (d
    times the reduced costs of c, then minus d times the cost) rides along
    the same way.  Every step is a row operation, so the artificial block
    holds d times S, the product of the row operations so far, in every
    row: S rhs' is d times the basic solution for any other right side rhs',
    the cost row included.
    """

    __slots__ = ("rows", "basis", "d", "v", "r")

    def __init__(
        self, columns: Sequence[tuple[int, ...]], rhs: Sequence[int], cost: Sequence[int] | None
    ) -> None:
        r, v = len(rhs), len(columns)
        rows = []
        for i, (coefficients, value) in enumerate(zip(zip(*columns), rhs)):
            row = [*coefficients, *[0] * r, value]
            row[v + i] = 1
            rows.append(row if value >= 0 else [-x for x in row])
        width = v + r
        rows.append([int(v <= j < width) - sum(col) for j, col in enumerate(zip(*rows))])
        if cost is not None:
            rows.append([*cost, *[0] * (r + 1)])
        self.rows, self.basis, self.d, self.v, self.r = rows, [v + i for i in range(r)], 1, v, r

    def _minimize(self, stop: int) -> bool:
        """The primal simplex on the objective row r over the columns before
        stop; False when the objective is unbounded below."""
        rows, basis, r = self.rows, self.basis, self.r
        while True:
            objective = rows[r]
            entering = next((j for j in range(stop) if objective[j] < 0), None)
            if entering is None:
                return True
            leaving = None
            for i in range(r):
                coeff = rows[i][entering]
                if coeff > 0:
                    if leaving is None:
                        leaving = i
                        continue
                    # ratio_i < ratio_leaving, both denominators positive
                    here = rows[i][-1] * rows[leaving][entering]
                    best = rows[leaving][-1] * coeff
                    if here < best or (here == best and basis[i] < basis[leaving]):
                        leaving = i
            if leaving is None:
                return False
            _pivot(rows, leaving, entering, self.d, 0)
            self.d = rows[leaving][entering]
            basis[leaving] = entering

    def phase_one(self) -> bool:
        """Minimizes the infeasibility; True when the set is nonempty."""
        if not self._minimize(self.v + self.r):
            raise InvariantError("phase-1 objective cannot be unbounded")
        return self.rows[self.r][-1] == 0

    def phase_two(self) -> bool:
        """After a feasible phase 1: drops its row, pivots each artificial
        still basic (at level 0) out on a nonzero entry of its row, negating
        the row first when that entry is negative (its right side is 0, so
        d stays positive), and minimizes the cost over the columns of M.
        False when the cost is unbounded below.  An artificial is left basic
        only on a row that is 0 over every column of M, which happens iff M
        has rank below r."""
        rows, basis, v = self.rows, self.basis, self.v
        del rows[self.r]
        for i in range(self.r):
            j = next((j for j in range(v) if rows[i][j]), None) if basis[i] >= v else None
            if j is not None:
                if rows[i][j] < 0:
                    rows[i] = [-x for x in rows[i]]
                _pivot(rows, i, j, self.d, 0)
                self.d = rows[i][j]
                basis[i] = j
        return self._minimize(v)

    def reoptimize(self, i: int, sign: int) -> bool:
        """Moves an optimal tableau to the right side sign * e_i and
        restores optimality by the dual simplex (Lemke 1954); False when the
        new set is empty.

        The new right side is sign times artificial column i, in every row.
        The reduced costs do not depend on the right side, so the basis
        stays dual-feasible.  Bland's rule for the dual: the leaving row is
        the one of negative right side with the smallest basic index, and
        the entering column the one of least ratio cost_j / -row_j over the
        entries row_j < 0 of M's columns, ties to the smallest j;
        artificials never enter.  No entering column means the row reads
        (nonnegative terms) = (negative value), so the set is empty.  The
        row is negated before the pivot, so the pivot entry and d are
        positive.
        """
        rows, basis, v, r = self.rows, self.basis, self.v, self.r
        column = v + i
        for row in rows:
            row[-1] = sign * row[column]
        cost = rows[r]
        while True:
            leaving = min(
                (k for k in range(r) if rows[k][-1] < 0), key=basis.__getitem__, default=None
            )
            if leaving is None:
                return True
            row = rows[leaving]
            entering = None
            for j in range(v):
                a = row[j]
                # cost_j / -a < cost_entering / -row_entering, both -a > 0
                if a < 0 and (entering is None or cost[j] * row[entering] > cost[entering] * a):
                    entering = j
            if entering is None:
                return False
            rows[leaving] = [-x for x in row]
            _pivot(rows, leaving, entering, self.d, 0)
            cost = rows[r]
            self.d = rows[leaving][entering]
            if self.d <= 0:
                raise InvariantError("a dual pivot entry must be positive")
            basis[leaving] = entering

    def optimum(self) -> tuple[int, int]:
        """The least cost as a numerator and a positive denominator."""
        return -self.rows[self.r][-1], self.d


def _integer_hull(p: PolyhedronH, budget: int) -> dict[tuple[int, ...], int]:
    """Vertices of the convex hull P_I of the lattice points of P, in sorted
    order, each with the dimension of its minimal face of P.

    Each lattice point v is decided on its own, against the other lattice
    points of its minimal face F of P: those whose tight rows include all
    of v's.  Only they matter: if v = sum lambda_q q with every lambda_q > 0
    and every q in P, then each q is tight wherever v is (for a face F of
    P, F meet P_I is a face of P_I).  Four rules, in turn:

    1. F holds no other point: v is a vertex.  That covers every integral
       vertex of P.
    2. 2v - q is a lattice point of P for some other point q of F: v is the
       midpoint of two lattice points and leaves.  This is the paper's
       x +- z: above the threshold, a norm-1 z in the kernel lattice of v's
       tight rows puts v + z and v - z in P.
    3. dim F = 1: v is a vertex.  F's lattice points are consecutive on one
       line, so a point that is not an end has both neighbours, which form
       a midpoint pair; with none, v is an end of F meet P_I.
    4. dim F >= 2: the integer phase-1 simplex over the other points of F
       decides whether v is their convex combination.

    dim F is n minus the rank of v's tight rows, computed once per distinct
    mask.  The budget covers (number of points)^2, the pairs the tests may
    visit.
    """
    points = integer_points(p, budget)
    _check_budget(len(points) ** 2, budget, "integer hull scan")
    dims: dict[int, int] = {}
    hull = {}
    for v, tight in points.items():
        face = [q for q, mask in points.items() if mask & tight == tight and q != v]
        twice = [2 * x for x in v]
        if any(tuple(map(sub, twice, q)) in points for q in face):
            continue
        if tight not in dims:
            rows = [i for i in range(p.a.rows) if tight >> i & 1]
            dims[tight] = p.dim - (rank(p.a.submatrix_rows(rows)) if rows else 0)
        columns = [q + (1,) for q in face]
        if not face or dims[tight] < 2 or not _Simplex(columns, list(v) + [1], None).phase_one():
            hull[v] = dims[tight]
    return hull


@dataclass(frozen=True)
class FaceDimensionReport:
    """Per-vertex face dimensions of the integer hull against the bound."""

    delta: int
    bound: int
    entries: tuple[tuple[tuple[int, ...], int], ...]
    passed: bool


def verify_face_dimension_bound(
    p: PolyhedronH, delta: int, budget: int = DEFAULT_POINT_BUDGET
) -> FaceDimensionReport:
    """Checks every integer-hull vertex sits on a face of dimension at most
    the threshold bound for delta.  The caller vouches that the matrix of P
    is delta-modular; a failing report on certified input is build-breaking.
    Each vertex comes from ``_integer_hull`` with its face dimension, dim
    minus the rank of its tight rows (the dimension of the least face of P
    holding it).  On a delta-modular P, the paper's x +- z makes a lattice
    point on a face above the threshold the midpoint of two lattice points,
    which the hull scan's rule 2 drops, so the report passes.
    """
    bound = dimension_threshold(delta)
    entries = tuple(_integer_hull(p, budget).items())
    passed = all(dim <= bound for _, dim in entries)
    return FaceDimensionReport(delta, bound, entries, passed)


def kernel_lattice_basis(a: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel lattice {x integer : A x = 0}.

    Taken from the unimodular transform of the Hermite normal form: the
    columns mapped to zero columns span exactly the kernel lattice.  The
    result W satisfies A @ W == 0 and has coprime maximal minors.  The
    nonzero columns of the normal form are independent, so there are m of
    them exactly when A has full row rank.
    """
    m, n = a.rows, a.cols
    if m >= n:
        raise DimensionError("kernel lattice is trivial unless rows < cols")
    h, u = hnf(a)
    zero_cols = [j for j in range(n) if not any(h.column(j))]
    if len(zero_cols) != n - m:
        raise RankError("full row rank required")
    w = u.submatrix(range(n), zero_cols)
    if any(any(row) for row in a.matmul(w).entries):
        raise InvariantError("kernel basis does not annihilate A")
    return w


def verify_kernel_identity(a: IntMatrix, budget: int = DEFAULT_MINOR_BUDGET) -> bool:
    """Exact cross-check of maximal minors of A against those of its kernel
    basis: for every column set I of size m, |det A_{.,I}| / gcd(A) equals
    |det W_{complement,.}| / gcd(W).  Each minor is computed once: the
    complements of the m-subsets in lexicographic order are the (n - m)-subsets
    in reverse order.
    """
    m, n = a.rows, a.cols
    if rank(a) != m:
        raise RankError("full row rank required")
    if m == n:
        return True  # trivial kernel: both sides reduce to 1
    _check_budget(math.comb(n, m), budget, "column subset scan")
    w = kernel_lattice_basis(a)
    lhs = [abs(value) for _, value in _minors(a.transpose().entries, m)]
    rhs = [abs(value) for _, value in _minors(w.entries, n - m)][::-1]
    g_a, g_w = math.gcd(*lhs), math.gcd(*rhs)
    return all(x * g_w == y * g_a for x, y in zip(lhs, rhs))


def _ilp_stages(ilp: StandardFormILP, box: Sequence[int], budget: int):
    """Checks the box and the budget, then returns ``_value_to_go``'s stages."""
    if len(box) != ilp.a.cols:
        raise DimensionError("box length must match variable count")
    if any(x < 0 for x in box):
        raise DomainError("box entries must be nonnegative")
    # the DP makes at most about 2 * prod(box + 1) transitions, so the box
    # size still bounds its work
    _check_budget(math.prod(x + 1 for x in box), budget, "ILP scan")
    return _value_to_go(ilp, box)


def _value_to_go(ilp: StandardFormILP, box: Sequence[int]):
    """Stages n, n - 1, ..., 0 of the DP over partial images, lazily.

    Stage j maps each tail image t = A[:, j:] x[j:] with 0 <= x[j:] <= box[j:]
    for which b - t is, row by row, within the interval the head variables
    x[:j] can reach, to (best c[j:] x[j:], number of tails attaining it,
    least support among those).  Value and support add along the variables,
    so merging equal images is exact; stage 0 holds at most the key b.
    """
    columns = list(zip(*ilp.a.entries))
    low, high = [[0] * ilp.a.rows], [[0] * ilp.a.rows]
    for column, u in zip(columns, box):
        low.append([r + min(0, a * u) for r, a in zip(low[-1], column)])
        high.append([r + max(0, a * u) for r, a in zip(high[-1], column)])
    stage = {tuple([0] * ilp.a.rows): (0, 1, 0)}
    yield stage
    for j in reversed(range(len(box))):
        least = [bi - r for bi, r in zip(ilp.b, high[j])]
        most = [bi - r for bi, r in zip(ilp.b, low[j])]
        steps = [
            (tuple(a * x for a in columns[j]), ilp.c[j] * x, x > 0) for x in range(box[j] + 1)
        ]
        previous, stage = stage, {}
        for tail, (value, count, support) in previous.items():
            for shift, gain, used in steps:
                image = tuple(map(add, tail, shift))
                if not (all(map(le, least, image)) and all(map(le, image, most))):
                    continue
                value_here = value + gain
                old = stage.get(image)
                if old is None or value_here > old[0]:
                    stage[image] = (value_here, count, support + used)
                elif value_here == old[0]:
                    stage[image] = (value_here, old[1] + count, min(old[2], support + used))
        yield stage


def solve_standard_form_ilp(
    ilp: StandardFormILP,
    box: Sequence[int],
    budget: int = DEFAULT_POINT_BUDGET,
) -> list[tuple[int, ...]]:
    """All optimal solutions of the program within 0 <= x <= box, in
    lexicographic order.  Empty list means infeasible in the box; the caller
    owns box completeness.

    A forward walk over the value-to-go table of ``_value_to_go`` takes each
    x_j in ascending order and keeps it iff the remaining image is a tail
    whose best value completes the optimum, so every branch it enters ends
    in an optimizer.
    """
    stages = list(_ilp_stages(ilp, box, budget))[::-1]
    columns = list(zip(*ilp.a.entries))
    found: list[tuple[int, ...]] = []
    pending = [(ilp.b, ())] if ilp.b in stages[0] else []
    while pending:
        rest, prefix = pending.pop()
        j = len(prefix)
        if j == len(box):
            found.append(prefix)
            continue
        goal = stages[j][rest][0]
        branches = []
        for x in range(box[j] + 1):
            tail = tuple(r - a * x for r, a in zip(rest, columns[j]))
            entry = stages[j + 1].get(tail)
            if entry is not None and entry[0] + ilp.c[j] * x == goal:
                branches.append((tail, prefix + (x,)))
        pending.extend(reversed(branches))
    return found


@dataclass(frozen=True)
class SupportReport:
    """Minimum optimal-solution support against m plus the threshold bound."""

    delta: int
    bound: int
    optimal_value: int | None
    min_support: int | None
    optimizer_count: int
    passed: bool


def verify_support_bound(
    ilp: StandardFormILP,
    delta: int,
    box: Sequence[int],
    budget: int = DEFAULT_POINT_BUDGET,
) -> SupportReport:
    """Checks some optimal solution has support at most m plus the
    threshold bound for delta (vacuous when infeasible in the box).

    The optimum, the optimizer count and the least support are read off
    stage 0 of the DP's table at b; no optimizer is listed.
    """
    bound = ilp.a.rows + dimension_threshold(delta)
    for stage in _ilp_stages(ilp, box, budget):
        pass  # only stage 0 is read, so earlier stages are not kept
    if ilp.b not in stage:
        return SupportReport(delta, bound, None, None, 0, True)
    value, count, smallest = stage[ilp.b]
    return SupportReport(delta, bound, value, smallest, count, smallest <= bound)


def derive_box(a: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """Per-variable upper bounds implied by A x = b, x >= 0, or None when
    some variable stays unbounded: up to n + 1 rounds over the rows in
    order, in which a row whose negative terms all have bounds u_t bounds
    each x_j with a_ij > 0 by its one slack, b_i - sum of a_it u_t over
    a_it < 0, over a_ij; each bound is tightened in place.
    """
    upper: list[int | None] = [None] * a.cols
    for _ in range(a.cols + 1):
        before = list(upper)
        for row, bound in zip(a.entries, b):
            slack = bound
            for x, u in zip(row, upper):
                if x < 0:
                    if u is None:
                        break  # a negative term without a bound: no slack
                    slack -= x * u
            else:
                for j, x in enumerate(row):
                    if x > 0 and (upper[j] is None or slack // x < upper[j]):
                        upper[j] = max(slack // x, 0)
        if upper == before:
            break
    return None if None in upper else tuple(upper)


@dataclass(frozen=True)
class SparsityReport:
    """Uniqueness and support of the explicit dense-support construction."""

    delta: int
    m: int
    n: int
    box: tuple[int, ...]
    solutions: tuple[tuple[int, ...], ...]
    support: int | None
    expected_support: int
    totally_modular: bool
    passed: bool


def verify_sparsity_construction(delta: int, budget: int = DEFAULT_POINT_BUDGET) -> SparsityReport:
    """Full check of the dense-support construction for small delta.

    Derives complete per-variable bounds from the equations, enumerates all
    nonnegative integer solutions, and confirms the all-ones vector is the
    only one, so every objective has minimum support m + delta - 1.  Also
    confirms total delta-modularity by exhaustive minor enumeration.
    """
    if not 2 <= delta <= 3:
        raise DomainError("supported range is delta in {2, 3} at desk scale")
    a, b = sparsity_instance(delta)
    box = derive_box(a, b)
    if box is None:
        raise InvariantError("construction rows must bound every variable")
    ilp = StandardFormILP(a, b, (0,) * a.cols)
    solutions = tuple(solve_standard_form_ilp(ilp, box, budget))
    support = sum(x != 0 for x in solutions[0]) if len(solutions) == 1 else None
    totally = is_totally_delta_modular(a, delta)
    expected = a.rows + delta - 1
    passed = solutions == ((1,) * a.cols,) and support == expected and totally
    return SparsityReport(
        delta, a.rows, a.cols, box, solutions, support, expected, totally, passed
    )
