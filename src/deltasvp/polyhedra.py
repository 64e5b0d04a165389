"""Exact desk-scale polyhedral verifiers.

Verifies, on explicit bounded instances, the structural consequences of the
norm-1 threshold: integer-hull vertices sit on low-dimensional faces, and
standard-form integer programs admit optimal solutions of small support.
Everything is exact integer arithmetic on the fraction-free pivot of
``linalg``; rationals appear only in the returned vertices.  Boundedness is
decided by a rank test and one phase-1 program (Gordan: the rows of A
positively span R^n iff they span R^n and some strictly positive
combination of them is 0), each vertex candidate comes from one reduced
elimination per row subset and is tested against A x <= b over the common
denominator, lattice points come from a scan of the bounding box whose last
coordinate is clipped to P, a lattice point leaves the integer hull on an integer midpoint certificate or
else on the same phase-1 simplex (Bland's rule on an integer tableau),
kernel lattice bases come from the Hermite normal form, and the kernel
identity reads each maximal minor once off ``linalg._minors``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul, sub
from typing import Sequence

from .errors import (
    ContainmentError,
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
    _eliminate,
    _minors,
    _pivot,
    box_images,
    hnf,
    is_totally_delta_modular,
    rank,
)
from .threshold import dimension_threshold

RationalPoint = tuple[Fraction, ...]

DEFAULT_POINT_BUDGET = 10_000_000
MAX_VERTEX_DIMENSION = 5


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


def _assert_bounded(p: PolyhedronH) -> None:
    """Raises unless the recession cone {A x <= 0} is trivial.

    By Farkas' lemma the cone is {0} iff the rows a_i of A positively span
    R^n.  By Gordan's theorem of the alternative that holds iff they span
    R^n and sum lambda_i a_i = 0 for some lambda > 0; with lambda = mu + 1
    that is rank(A) = n plus one phase-1 program, A^T mu = -A^T 1, mu >= 0.
    """
    rows = list(p.a.entries)
    minus_sum = [-sum(column) for column in zip(*rows)]
    if rank(p.a) < p.dim or not _has_nonneg_combination(rows, minus_sum):
        raise UnboundedPolyhedronError("polyhedron has a nonzero recession direction")


def vertices_of_polyhedron(
    p: PolyhedronH, budget: int = DEFAULT_POINT_BUDGET
) -> list[RationalPoint]:
    """All vertices of a bounded nonempty polyhedron, sorted, exact.

    One reduced fraction-free elimination of [A_I | b_I] per invertible
    n-row subset I gives the candidate x = r / d, with d the last pivot
    made positive; it is kept when A r <= b d holds in integers.
    Unbounded or empty input raises a typed error.
    """
    a, b = p.a.entries, p.b
    m, n = p.a.rows, p.dim
    if n > MAX_VERTEX_DIMENSION:
        raise DimensionError(f"vertex enumeration supports at most {MAX_VERTEX_DIMENSION} dimensions")
    _check_budget(math.comb(m, n), budget, "vertex enumeration")
    _assert_bounded(p)
    seen = set()
    for rows in combinations(range(m), n):
        work = [list(a[i]) + [b[i]] for i in rows]
        pivots, _ = _eliminate(work, range(n), reduce=True)
        if len(pivots) < n:
            continue
        sign = 1 if work[0][0] > 0 else -1
        d = sign * work[0][0]
        r = [sign * row[n] for row in work]
        if all(sum(map(mul, row, r)) <= bound * d for row, bound in zip(a, b)):
            g = math.gcd(d, *r)
            seen.add((d // g, *(x // g for x in r)))
    if not seen:
        raise EmptyPolyhedronError("polyhedron contains no points")
    return sorted(tuple(Fraction(x, d) for x in r) for d, *r in seen)


def integer_points(p: PolyhedronH, budget: int = DEFAULT_POINT_BUDGET) -> list[tuple[int, ...]]:
    """All lattice points of a bounded polyhedron, sorted.

    The first n - 1 coordinates scan the bounding box of the vertices; for
    each such head x', the last column c of A and the slack b - A' x' clip
    x_n to one integer interval (floor of slack / c where c > 0, ceiling
    where c < 0; a row with c = 0 and negative slack empties it).  The
    budget covers the whole bounding box.
    """
    vertices = vertices_of_polyhedron(p, budget)
    lows = [min(v[i] for v in vertices) for i in range(p.dim)]
    highs = [max(v[i] for v in vertices) for i in range(p.dim)]
    ranges = [range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in zip(lows, highs)]
    _check_budget(math.prod(len(r) for r in ranges), budget, "box scan")
    m, n = p.a.rows, p.dim
    if n == 1:
        heads = [((), (0,) * m)]
    else:
        heads = box_images(p.a.submatrix(range(m), range(n - 1)), ranges[:-1])
    rows = list(zip(p.a.column(n - 1), p.b))
    points = []
    for head, image in heads:
        lo, hi = ranges[-1].start, ranges[-1].stop - 1
        for (c, bound), y in zip(rows, image):
            slack = bound - y
            if c > 0:
                top = slack // c
                if top < hi:
                    hi = top
            elif c < 0:
                bottom = -(slack // -c)
                if bottom > lo:
                    lo = bottom
            elif slack < 0:
                hi = lo - 1
                break
        points.extend(head + (x,) for x in range(lo, hi + 1))
    return points


def _has_nonneg_combination(columns: list[tuple[int, ...]], rhs: list[int]) -> bool:
    """Exact feasibility of {M lambda = rhs, lambda >= 0}.

    Phase-1 simplex with Bland's rule on both the entering and the leaving
    choice, which guarantees termination.  The tableau is kept as integers
    times 1/d, with d the last pivot: every pivot is fraction-free, and d
    stays positive because each pivot entry is, so reduced costs keep their
    signs and the ratio test compares cross products.  The phase-1
    objective is one more row (d times the reduced costs, then minus d
    times the infeasibility), updated by the same pivots and left out of
    the ratio test.
    """
    r = len(rhs)
    v = len(columns)
    if v == 0:
        return not any(rhs)
    tableau: list[list[int]] = []
    for i in range(r):
        row = [columns[j][i] for j in range(v)]
        row.extend(int(i == t) for t in range(r))
        row.append(rhs[i])
        if rhs[i] < 0:
            row = [-x for x in row]
        tableau.append(row)
    basis = [v + i for i in range(r)]
    width = v + r
    objective = [int(v <= j < width) - sum(col) for j, col in enumerate(zip(*tableau))]
    tableau.append(objective)
    d = 1

    while True:
        entering = next((j for j in range(width) if objective[j] < 0), None)
        if entering is None:
            break
        leaving = None
        for i in range(r):
            coeff = tableau[i][entering]
            if coeff > 0:
                if leaving is None:
                    leaving = i
                    continue
                # ratio_i < ratio_leaving, both denominators positive
                here = tableau[i][-1] * tableau[leaving][entering]
                best = tableau[leaving][-1] * coeff
                if here < best or (here == best and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:
            raise InvariantError("phase-1 objective cannot be unbounded")
        _pivot(tableau, leaving, entering, d, 0)
        objective = tableau[r]
        d = tableau[leaving][entering]
        basis[leaving] = entering

    return objective[width] == 0


def integer_hull_vertices(
    p: PolyhedronH, budget: int = DEFAULT_POINT_BUDGET
) -> list[tuple[int, ...]]:
    """Vertices of the convex hull of the lattice points of P, sorted.

    The points are taken in sorted order against the points still kept.  A
    point v is dropped when 2v - q is a kept point for some kept q != v (an
    integer midpoint), or else when the integer phase-1 simplex writes it
    as a convex combination of the other kept points.  A dropped point lies
    in the hull of the others, so removing it leaves conv(kept) equal to
    conv(points), and each later test decides extremality in P_I itself.
    """
    points = integer_points(p, budget)
    kept = dict.fromkeys(points)
    hull = []
    for v in points:
        twice = [2 * x for x in v]
        if any(q != v and tuple(map(sub, twice, q)) in kept for q in kept) or (
            _has_nonneg_combination([q + (1,) for q in kept if q != v], list(v) + [1])
        ):
            del kept[v]
        else:
            hull.append(v)
    return hull


def min_face_dimension(p: PolyhedronH, point: Sequence[int]) -> int:
    """Dimension of the smallest face of P containing the point.

    Equals dim minus the rank of the rows tight at the point (zero slack
    b - A x); an interior point gives the full dimension.
    """
    if len(point) != p.dim:
        raise DimensionError("point dimension mismatch")
    slacks = [bound - sum(map(mul, row, point)) for row, bound in zip(p.a.entries, p.b)]
    if any(slack < 0 for slack in slacks):
        raise ContainmentError("point is not in the polyhedron")
    tight = [i for i, slack in enumerate(slacks) if slack == 0]
    if not tight:
        return p.dim
    return p.dim - rank(p.a.submatrix_rows(tight))


@dataclass(frozen=True)
class FaceDimensionReport:
    """Per-vertex face dimensions of the integer hull against the bound."""

    delta: int
    bound: int
    entries: tuple[tuple[tuple[int, ...], int], ...]
    passed: bool

    def lines(self) -> list[str]:
        out = [
            f"face-dimension bound for delta={self.delta}: "
            f"dimensions must be <= {self.bound}"
        ]
        for vertex, dim in self.entries:
            verdict = "ok" if dim <= self.bound else "VIOLATION"
            out.append(f"  hull vertex {list(vertex)}: face dimension {dim} [{verdict}]")
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return out


def verify_face_dimension_bound(
    p: PolyhedronH, delta: int, budget: int = DEFAULT_POINT_BUDGET
) -> FaceDimensionReport:
    """Checks every integer-hull vertex sits on a face of dimension at most
    the threshold bound for delta.  The caller vouches that the matrix of P
    is delta-modular; a failing report on certified input is build-breaking.
    """
    bound = dimension_threshold(delta)
    entries = []
    for vertex in integer_hull_vertices(p, budget):
        entries.append((vertex, min_face_dimension(p, vertex)))
    passed = all(dim <= bound for _, dim in entries)
    return FaceDimensionReport(delta, bound, tuple(entries), passed)


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


def solve_standard_form_ilp(
    ilp: StandardFormILP,
    box: Sequence[int],
    budget: int = DEFAULT_POINT_BUDGET,
) -> list[tuple[int, ...]]:
    """All optimal solutions of the program within the given box, by
    complete enumeration of 0 <= x <= box.  Empty list means infeasible in
    the box; the caller owns box completeness.
    """
    if len(box) != ilp.a.cols:
        raise DimensionError("box length must match variable count")
    if any(x < 0 for x in box):
        raise DomainError("box entries must be nonnegative")
    _check_budget(math.prod(x + 1 for x in box), budget, "ILP scan")
    best_value: int | None = None
    best: list[tuple[int, ...]] = []
    for x, image in box_images(ilp.a, [range(b + 1) for b in box]):
        if image != ilp.b:
            continue
        value = sum(ci * xi for ci, xi in zip(ilp.c, x))
        if best_value is None or value > best_value:
            best_value = value
            best = [x]
        elif value == best_value:
            best.append(x)
    return best


def support_size(x: Sequence[int]) -> int:
    return sum(1 for value in x if value != 0)


@dataclass(frozen=True)
class SupportReport:
    """Minimum optimal-solution support against m plus the threshold bound."""

    delta: int
    bound: int
    optimal_value: int | None
    min_support: int | None
    optimizer_count: int
    passed: bool

    def lines(self) -> list[str]:
        out = [f"support bound for delta={self.delta}: min support must be <= {self.bound}"]
        if self.min_support is None:
            out.append("  infeasible within the box (vacuously fine)")
        else:
            out.append(
                f"  optimal value {self.optimal_value}, "
                f"{self.optimizer_count} optimizer(s), min support {self.min_support}"
            )
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return out


def verify_support_bound(
    ilp: StandardFormILP,
    delta: int,
    box: Sequence[int],
    budget: int = DEFAULT_POINT_BUDGET,
) -> SupportReport:
    """Checks some optimal solution has support at most m plus the
    threshold bound for delta (vacuous when infeasible in the box)."""
    bound = ilp.a.rows + dimension_threshold(delta)
    optimizers = solve_standard_form_ilp(ilp, box, budget)
    if not optimizers:
        return SupportReport(delta, bound, None, None, 0, True)
    value = sum(ci * xi for ci, xi in zip(ilp.c, optimizers[0]))
    smallest = min(support_size(x) for x in optimizers)
    return SupportReport(delta, bound, value, smallest, len(optimizers), smallest <= bound)


def derive_box(a: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """Per-variable upper bounds implied by A x = b, x >= 0, by iterated
    interval propagation over the rows.  Returns None when some variable
    stays unbounded by this reasoning.
    """
    m, n = a.rows, a.cols
    upper: list[int | None] = [None] * n
    for _ in range(n + 1):
        changed = False
        for i in range(m):
            row = a.row(i)
            for j in range(n):
                if row[j] <= 0:
                    continue
                slack = b[i]
                ok = True
                for t in range(n):
                    if t == j or row[t] == 0:
                        continue
                    if row[t] < 0:
                        if upper[t] is None:
                            ok = False
                            break
                        slack -= row[t] * upper[t]
                if not ok:
                    continue
                candidate = max(slack // row[j], 0)
                if upper[j] is None or candidate < upper[j]:
                    upper[j] = candidate
                    changed = True
        if not changed:
            break
    if any(u is None for u in upper):
        return None
    return tuple(u for u in upper if u is not None)


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

    def lines(self) -> list[str]:
        out = [
            f"dense-support construction for delta={self.delta}: "
            f"{self.m} equations, {self.n} variables",
            f"  derived enumeration box: {list(self.box)}",
            f"  nonnegative integer solutions found: {len(self.solutions)}",
        ]
        if self.support is not None:
            out.append(
                f"  unique solution support {self.support} "
                f"(expected {self.expected_support})"
            )
        out.append(f"  totally {self.delta}-modular: {self.totally_modular}")
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return out


def verify_sparsity_construction(
    delta: int,
    budget: int = DEFAULT_POINT_BUDGET,
    minor_budget: int = DEFAULT_MINOR_BUDGET,
) -> SparsityReport:
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
    objective = tuple([0] * a.cols)
    ilp = StandardFormILP(a, b, objective)
    solutions = tuple(solve_standard_form_ilp(ilp, box, budget))
    all_ones = tuple([1] * a.cols)
    unique = solutions == (all_ones,)
    support = support_size(solutions[0]) if len(solutions) == 1 else None
    totally = is_totally_delta_modular(a, delta, minor_budget)
    expected = a.rows + delta - 1
    passed = unique and support == expected and totally
    return SparsityReport(
        delta, a.rows, a.cols, box, solutions, support, expected, totally, passed
    )
