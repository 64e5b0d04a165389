"""Independent oracles for the test suite.

Deliberately separate implementations: cofactor expansion for determinants
and adjugates, schoolbook matrix products, Fraction-based elimination for
rank and inverses, plain full scans (no split, no caching) for minimum
norms, preimage witnesses, lattice points, integer-program optima and the
tail images that the program's dynamic program keeps at each stage,
Fraction solves of every row subset for polyhedron vertices and
boundedness, a plain loop over the rows for the tight rows at a point and
the Fraction rank of those rows for face dimensions, a plain loop over
pairs of points for midpoints, one Fraction phase-1 program per point for
hull vertices, and every cofactor
minor for coprime maximal minors, and every element of every small
abelian group for the counts behind the same-class selection.  Nothing
here imports deltasvp, so nothing here can call the implementation paths
it is used to check; matrices come in as their entries, or as any object
with the entries, rows and columns of one.  One seeded instance family,
the unit-rows-first walks, is drawn here too.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product


def cofactor_det(entries) -> int:
    rows = [tuple(r) for r in entries]
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [tuple(r[t] for t in range(n) if t != j) for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def cofactor_adjugate(entries) -> tuple[tuple[int, ...], ...]:
    rows = [tuple(r) for r in entries]
    n = len(rows)
    if n == 1:
        return ((1,),)
    out = []
    for i in range(n):
        line = []
        for j in range(n):
            minor = [
                tuple(rows[r][c] for c in range(n) if c != i)
                for r in range(n)
                if r != j
            ]
            value = cofactor_det(minor)
            line.append(value if (i + j) % 2 == 0 else -value)
        out.append(tuple(line))
    return tuple(out)


def plain_product(left, right) -> tuple[tuple[int, ...], ...]:
    """left * right by the schoolbook triple loop."""
    columns = list(zip(*right))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in columns) for row in left
    )


def fraction_rank(entries) -> int:
    work = [[Fraction(x) for x in row] for row in entries]
    n_rows = len(work)
    n_cols = len(work[0])
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][c]
        work[r] = [x / lead for x in work[r]]
        for i in range(n_rows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
        if r == n_rows:
            break
    return r


def coprime_maximal_minors(entries) -> bool:
    """True iff the k x k minors of an m x k matrix (m >= k), one per
    k-row subset, have gcd 1."""
    rows = [tuple(r) for r in entries]
    subsets = combinations(range(len(rows)), len(rows[0]))
    return math.gcd(*(cofactor_det([rows[i] for i in s]) for s in subsets)) == 1


def box_min_norm(entries, k: int) -> int:
    """Minimum of ||A z||_inf over nonzero z in [-k, k]^n, full scan."""
    rows = [tuple(r) for r in entries]
    n = len(rows[0])
    best = None
    for z in product(range(-k, k + 1), repeat=n):
        if not any(z):
            continue
        norm = max(abs(sum(a * b for a, b in zip(row, z))) for row in rows)
        if best is None or norm < best:
            best = norm
    assert best is not None
    return best


def _image(rows, x) -> tuple[int, ...]:
    return tuple(sum(a * b for a, b in zip(row, x)) for row in rows)


def box_first_minimizer(entries, k: int):
    """(z, A z, norm) for the lexicographically first minimizer of
    ||A z||_inf over nonzero z in [-k, k]^n: a plain scan in order that
    stops at the first norm-1 point."""
    rows = [tuple(r) for r in entries]
    best = None
    for z in product(range(-k, k + 1), repeat=len(rows[0])):
        if not any(z):
            continue
        y = _image(rows, z)
        norm = max(abs(x) for x in y)
        if best is None or norm < best[2]:
            best = (z, y, norm)
            if norm == 1:
                break
    assert best is not None
    return best


def unimodular_scramble(entries, seed: int, steps: int, bits: int) -> list[list[int]]:
    """entries times a unimodular matrix: steps seeded column operations
    col_i += f * col_j (i != j), each f of exactly bits bits and either sign.
    The lattice {A z} and |det| of every full-rank row subset are unchanged."""
    rng = random.Random(seed)
    rows = [list(row) for row in entries]
    for _ in range(steps):
        i, j = rng.sample(range(len(rows[0])), 2)
        f = rng.choice((-1, 1)) * rng.randrange(1 << (bits - 1), 1 << bits)
        for row in rows:
            row[i] += f * row[j]
    return rows


def greedy_rows(entries) -> list[tuple[int, ...]]:
    """Rows kept in order iff they raise the Fraction rank of those kept."""
    kept: list[tuple[int, ...]] = []
    for row in entries:
        if fraction_rank(kept + [tuple(row)]) > len(kept):
            kept.append(tuple(row))
    return kept


def _fraction_solve(rows, right) -> list[list[Fraction]] | None:
    """B^-1 R by Fraction Gauss-Jordan on [B | R], or None when B is
    singular."""
    n = len(rows)
    work = [[Fraction(x) for x in (*row, *extra)] for row, extra in zip(rows, right)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot is None:
            return None
        work[c], work[pivot] = work[pivot], work[c]
        lead = work[c][c]
        work[c] = [x / lead for x in work[c]]
        for i in range(n):
            if i != c and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return [row[n:] for row in work]


def lp_minimum(columns, rhs, cost) -> Fraction | None:
    """min cost . lambda over {M lambda = rhs, lambda >= 0} for M with the
    given columns, when that set is bounded, or None when it is empty: the
    least cost over its vertices, each the Fraction solve of k columns on
    k independent rows of M (k = rank M) that is nonnegative and meets every
    row."""
    rows = [list(row) for row in zip(*columns)]
    independent: list[int] = []
    for i, row in enumerate(rows):
        if fraction_rank([rows[j] for j in independent] + [row]) > len(independent):
            independent.append(i)
    best = None
    for subset in combinations(range(len(columns)), len(independent)):
        square = [[rows[i][j] for j in subset] for i in independent]
        solution = _fraction_solve(square, [[rhs[i]] for i in independent])
        if solution is None:
            continue
        point = [Fraction(0)] * len(columns)
        for j, (x,) in zip(subset, solution):
            point[j] = x
        if min(point) < 0 or any(
            sum(a * x for a, x in zip(row, point)) != value for row, value in zip(rows, rhs)
        ):
            continue
        value = sum(c * x for c, x in zip(cost, point))
        best = value if best is None else min(best, value)
    return best


def layer_preimages(entries, r: int):
    """Layer r of the layered scan written out, lazily: B the greedy rows,
    z = B^-1 v in Fractions for nonzero v over [-r, r]^n in lexicographic
    order, every integral z with ||A z||_inf <= r."""
    rows = [tuple(x) for x in entries]
    basis = greedy_rows(rows)
    n = len(rows[0])
    assert len(basis) == n, "full column rank required"
    inverse = _fraction_solve(basis, [[int(i == j) for j in range(n)] for i in range(n)])
    for v in product(range(-r, r + 1), repeat=n):
        z = [sum(a * b for a, b in zip(row, v)) for row in inverse]
        if not any(v) or any(x.denominator != 1 for x in z):
            continue
        z = tuple(int(x) for x in z)
        if max(abs(x) for x in _image(rows, z)) <= r:
            yield z


def preimage_first_witness(entries):
    """The 3^n preimage scan: the first z of layer 1, or None."""
    return next(layer_preimages(entries, 1), None)


def layered_least_minimizer(entries):
    """(z, A z, r) for the lexicographically least z of the first layer
    r = 1, 2, ... that has any."""
    r = 0
    while True:
        r += 1
        kept = list(layer_preimages(entries, r))
        if kept:
            z = min(kept)
            return z, _image([tuple(x) for x in entries], z), r


def ilp_optimizers(entries, b, c, box) -> list[tuple[int, ...]]:
    """All maximizers of c x over A x = b, 0 <= x <= box, in lexicographic
    order, by a plain scan of the box."""
    rows = [tuple(r) for r in entries]
    best_value, best = None, []
    for x in product(*(range(u + 1) for u in box)):
        if list(_image(rows, x)) != list(b):
            continue
        value = sum(ci * xi for ci, xi in zip(c, x))
        if best_value is None or value > best_value:
            best_value, best = value, [x]
        elif value == best_value:
            best.append(x)
    return best


def reachable_tails(entries, b, box) -> list[set[tuple[int, ...]]]:
    """Stage n, the image 0 of the empty tail, then for j = n - 1, ..., 0
    the images t = A[:, j:] x[j:] over 0 <= x[j:] <= box[j:] for which, in
    every row i, b_i - t_i lies between the least and the greatest value of
    A[i, :j] x[:j] over the box of the heads, both found by scanning that
    box."""
    rows = [tuple(r) for r in entries]
    n = len(box)
    stages = [{(0,) * len(rows)}]
    for j in range(n - 1, -1, -1):
        head_rows, tail_rows = [r[:j] for r in rows], [r[j:] for r in rows]
        heads = [_image(head_rows, x) for x in product(*(range(u + 1) for u in box[:j]))]
        reach = [(min(h[i] for h in heads), max(h[i] for h in heads)) for i in range(len(rows))]
        tails = set()
        for x in product(*(range(u + 1) for u in box[j:])):
            t = _image(tail_rows, x)
            if all(lo <= bi - ti <= hi for (lo, hi), bi, ti in zip(reach, b, t)):
                tails.add(t)
        stages.append(tails)
    return stages


def propagated_box(entries, b) -> tuple[int, ...] | None:
    """Per-variable bounds from A x = b, x >= 0 by interval propagation,
    the slack recomputed for every (row, positive coefficient) pair: up to
    n + 1 rounds over the rows in order, each bound tightened in place.
    None when some variable is left without a bound."""
    rows = [tuple(r) for r in entries]
    n = len(rows[0]) if rows else 0
    upper: list[int | None] = [None] * n
    for _ in range(n + 1):
        changed = False
        for row, bound in zip(rows, b):
            for j in range(n):
                if row[j] <= 0:
                    continue
                slack = bound
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
    return tuple(upper)


def polytope_points(entries, b, radius: int) -> list[tuple[int, ...]]:
    """Lattice points x of [-radius, radius]^n with A x <= b, sorted."""
    rows = [tuple(r) for r in entries]
    return [
        x
        for x in product(range(-radius, radius + 1), repeat=len(rows[0]))
        if all(y <= bound for y, bound in zip(_image(rows, x), b))
    ]


def _feasible_basic_solutions(rows, b):
    """Yields every point where n linearly independent rows are tight and
    all of A x <= b holds (the vertices of {A x <= b}, with repeats)."""
    n = len(rows[0])
    for subset in combinations(range(len(rows)), n):
        solution = _fraction_solve([rows[i] for i in subset], [[b[i]] for i in subset])
        if solution is None:
            continue
        x = tuple(row[0] for row in solution)
        if all(
            sum(a * v for a, v in zip(row, x)) <= bound for row, bound in zip(rows, b)
        ):
            yield x


def polyhedron_vertices(entries, b):
    """Sorted vertices of {A x <= b}, or "unbounded" / "empty".

    Bounded iff the recession cone {A x <= 0} cut by the box [-1, 1]^n is
    {0}, i.e. iff the cone box [A; I; -I] <= (0, 1, 1) has no nonzero
    vertex; that is decided first, so an empty unbounded polyhedron reads
    "unbounded"."""
    rows = [tuple(r) for r in entries]
    n = len(rows[0])
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    cone_box = rows + units + [tuple(-x for x in u) for u in units]
    if any(any(x) for x in _feasible_basic_solutions(cone_box, [0] * len(rows) + [1] * 2 * n)):
        return "unbounded"
    vertices = set(_feasible_basic_solutions(rows, list(b)))
    return sorted(vertices) if vertices else "empty"


def face_dimension(entries, b, point) -> int:
    """Dimension of the least face of {A x <= b} holding the point: n minus
    the Fraction rank of the rows tight at it.  Raises ValueError on a
    point outside the polyhedron."""
    slacks = [bound - sum(a * x for a, x in zip(row, point)) for row, bound in zip(entries, b)]
    if min(slacks) < 0:
        raise ValueError("point is not in the polyhedron")
    tight = [row for row, slack in zip(entries, slacks) if slack == 0]
    return len(point) - (fraction_rank(tight) if tight else 0)


def tight_rows(entries, b, point) -> int:
    """The bitmask of the rows of {A x <= b} tight at the point: bit i is
    set iff row i has slack 0 there."""
    mask = 0
    for i, (row, bound) in enumerate(zip(entries, b)):
        if sum(a * x for a, x in zip(row, point)) == bound:
            mask |= 1 << i
    return mask


def midpoint_pair(points, v):
    """The first pair (q, r) of lattice points, in the order given, with
    q != v and q + r = 2 v, or None: v is the midpoint of two other
    points iff there is one."""
    for q in points:
        for r in points:
            if q != v and all(a + c == 2 * x for a, c, x in zip(q, r, v)):
                return q, r
    return None


def convex_hull_2d(points) -> list[tuple[int, int]]:
    """Vertices of the convex hull of 2-D integer points, by monotone
    chain with exact integer cross products.  Collinear boundary points are
    dropped, so the result is exactly the vertex set, sorted."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(sequence):
        chain = []
        for p in sequence:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(reversed(pts))
    return sorted(set(lower[:-1] + upper[:-1]))


def assert_hnf_shape(h) -> None:
    """Lower-triangular profile: pivot rows strictly increase, pivots are
    positive, entries left of a pivot in its row lie in [0, pivot), zero
    columns trail."""
    pivot_rows = []
    seen_zero_column = False
    for j in range(h.cols):
        column = h.column(j)
        nonzero = [i for i, x in enumerate(column) if x != 0]
        if not nonzero:
            seen_zero_column = True
            continue
        assert not seen_zero_column, "zero columns must trail"
        top = nonzero[0]
        assert column[top] > 0, "pivot must be positive"
        if pivot_rows:
            assert top > pivot_rows[-1], "pivot rows must strictly increase"
        pivot_rows.append(top)
        pivot = column[top]
        for j_left in range(j):
            assert 0 <= h.entries[top][j_left] < pivot, "left entries must be reduced"


def assert_same_column_lattice(a, h, u) -> None:
    """Columns of A and of H generate the same lattice, certified by U."""
    assert plain_product(a.entries, u.entries) == h.entries
    d = cofactor_det(u.entries)
    assert abs(d) == 1, "transform must be unimodular"
    u_inverse = [tuple(d * x for x in row) for row in cofactor_adjugate(u.entries)]
    assert plain_product(h.entries, u_inverse) == a.entries


def _in_convex_hull(v, others) -> bool:
    """True when v is a convex combination of the other points: phase 1
    of a Fraction simplex under Bland's rule on sum lambda_q q = v,
    sum lambda_q = 1, lambda >= 0, with one artificial per row (a row of
    negative right side negated first, so the artificials start feasible);
    v is in the hull iff the least infeasibility is 0."""
    rows = [[Fraction(q[i]) for q in others] + [Fraction(v[i])] for i in range(len(v))]
    rows.append([Fraction(1)] * (len(others) + 1))
    rows = [row if row[-1] >= 0 else [-x for x in row] for row in rows]
    k, r = len(others), len(rows)
    for i, row in enumerate(rows):
        row[k:k] = [Fraction(int(i == j)) for j in range(r)]
    basis = [k + i for i in range(r)]
    # reduced costs of the phase-1 objective (the sum of the artificials)
    objective = [-sum(column) for column in zip(*rows)]
    objective[k : k + r] = [Fraction(0)] * r
    while True:
        entering = next((j for j in range(k + r) if objective[j] < 0), None)
        if entering is None:
            return objective[-1] == 0
        candidates = [i for i in range(r) if rows[i][entering] > 0]
        leaving = min(candidates, key=lambda i: (rows[i][-1] / rows[i][entering], basis[i]))
        lead = rows[leaving][entering]
        rows[leaving] = [x / lead for x in rows[leaving]]
        for row in rows + [objective]:
            if row is not rows[leaving] and row[entering] != 0:
                f = row[entering]
                row[:] = [x - f * y for x, y in zip(row, rows[leaving])]
        basis[leaving] = entering


def convex_hull_vertices(points) -> list[tuple[int, ...]]:
    """Vertices of the convex hull of integer points in R^n, sorted: the
    points outside the hull of all the others, one phase-1 program each."""
    pts = sorted(set(map(tuple, points)))
    return [v for v in pts if not _in_convex_hull(v, [q for q in pts if q != v])]


def abelian_groups(largest: int) -> list[tuple[int, ...]]:
    """Every abelian group of order 2 to largest, once each, as its
    invariant factors s_1 | s_2 | ... | s_k with s_1 > 1, by order."""

    def chains(left: int, previous: int):
        if left == 1:
            yield ()
        for s in range(2, left + 1):
            if left % s == 0 and s % previous == 0:
                for rest in chains(left // s, s):
                    yield (s,) + rest

    return [group for d in range(2, largest + 1) for group in chains(d, 1)]


def class_orders(invariants) -> list[int]:
    """The order of each class {x, -x} of the nonzero elements of
    Z_s1 x ... x Z_sk, by listing the elements."""
    seen, orders = set(), []
    for x in product(*map(range, invariants)):
        if any(x) and x not in seen:
            seen.add(tuple(-v % s for v, s in zip(x, invariants)))
            orders.append(math.lcm(*(s // math.gcd(s, v) for v, s in zip(x, invariants))))
    return orders


def unit_first_walk(rng: random.Random, delta: int, n: int) -> list[list[int]]:
    """Unit rows, then network rows (totally unimodular) and one row v with
    ||v||_1 <= delta and an entry of size >= 2, in random order.  Every
    basis has |det| <= ||v||_1 <= delta and the greedy start is the
    identity, so the solver must replace rows to grow the determinant."""
    tail = []
    for _ in range(2 * n):
        row = [0] * n
        i = rng.randrange(n)
        row[i] = 1
        if rng.random() < 0.8:
            j = rng.randrange(n - 1)
            row[j + (j >= i)] = -1
        tail.append(row)
    v = [0] * n
    big = rng.randint(2, delta)
    v[rng.randrange(n)] = big * rng.choice((1, -1))
    left = delta - big
    while left > 0 and rng.random() < 0.7:
        j = rng.randrange(n)
        if v[j]:
            continue
        s = rng.randint(1, left)
        v[j] = s * rng.choice((1, -1))
        left -= s
    tail.append(v)
    rng.shuffle(tail)
    return [[int(i == j) for j in range(n)] for i in range(n)] + tail
