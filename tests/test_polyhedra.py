import random
from dataclasses import replace
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deltasvp import linalg, polyhedra
from deltasvp.errors import (
    BudgetExceededError,
    DimensionError,
    DomainError,
    EmptyPolyhedronError,
    InvariantError,
    RankError,
    UnboundedPolyhedronError,
)
from deltasvp.generators import (
    lower_bound_instance,
    random_delta_modular,
    random_full_rank,
    sparsity_instance,
)
from deltasvp.linalg import IntMatrix, max_abs_full_rank_subdet, rank
from deltasvp.polyhedra import (
    PolyhedronH,
    StandardFormILP,
    derive_box,
    integer_points,
    kernel_lattice_basis,
    solve_standard_form_ilp,
    verify_face_dimension_bound,
    verify_kernel_identity,
    verify_sparsity_construction,
    verify_support_bound,
)

from oracles import (
    convex_hull_vertices,
    coprime_maximal_minors,
    face_dimension,
    fraction_rank,
    ilp_optimizers,
    lp_minimum,
    midpoint_pair,
    polyhedron_vertices,
    polytope_points,
    propagated_box,
    reachable_tails,
    tight_rows,
    unimodular_scramble,
)

M = IntMatrix.from_rows


@st.composite
def equation_systems(draw, max_rows: int, max_cols: int):
    """(entries, b) with at most max_rows x max_cols entries in [-3, 3] and
    b in [-5, 12]."""
    m, n = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    entries = draw(st.lists(row, min_size=m, max_size=m))
    return entries, draw(st.lists(st.integers(-5, 12), min_size=m, max_size=m))


@st.composite
def small_programs(draw):
    """(A, b, c, box) with full row rank A of at most 3 rows and 6 columns,
    entries in [-2, 3] and box entries in [0, 3]; b is the image of a box
    point, shifted off it in about a quarter of the draws."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 6))
    row = st.lists(st.integers(-2, 3), min_size=n, max_size=n)
    entries = draw(st.lists(row, min_size=m, max_size=m))
    assume(fraction_rank(entries) == m)
    box = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    x0 = [draw(st.integers(0, u)) for u in box]
    b = [sum(a * x for a, x in zip(r, x0)) for r in entries]
    if draw(st.integers(0, 3)) == 0:
        b = [value + draw(st.integers(-2, 2)) for value in b]
    c = tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    return entries, tuple(b), c, box


def box_polyhedron(n, radius=1):
    rows = []
    for i in range(n):
        unit = [0] * n
        unit[i] = 1
        rows.append(tuple(unit))
        rows.append(tuple(-x for x in unit))
    return PolyhedronH(M(rows), tuple([radius] * 2 * n))


def hull(p, budget=polyhedra.DEFAULT_POINT_BUDGET):
    """The integer-hull vertices that verify facedim reads, sorted."""
    return list(polyhedra._integer_hull(p, budget))


def unit_rows(n):
    """-e_1, e_1, ..., -e_n, e_n: the objectives of the 2n box programs."""
    return [[sign * (j == i) for j in range(n)] for i in range(n) for sign in (-1, 1)]


UNIT_SQUARE = PolyhedronH(M([[1, 0], [0, 1], [-1, 0], [0, -1]]), (1, 1, 0, 0))


class TestVertices:
    """What P's vertices decide, against the Fraction vertex reference:
    whether P is bounded and nonempty, and its bounding box."""

    def test_boundedness_is_one_program(self, monkeypatch):
        """The box of a nonempty bounded P builds one _Simplex; an empty
        bounded P builds two, its own and the one of its cone {A x <= 0}."""
        built = []
        real = polyhedra._Simplex.__init__

        def counted(simplex, columns, rhs, cost):
            built.append(tuple(cost))
            real(simplex, columns, rhs, cost)

        monkeypatch.setattr(polyhedra._Simplex, "__init__", counted)
        polyhedra._box_optima(box_polyhedron(3))
        assert built == [(1,) * 6]
        built.clear()
        empty = PolyhedronH(M([[1, 0], [-1, 0], [0, 1], [0, -1]]), (-1, 0, 1, 1))
        with pytest.raises(EmptyPolyhedronError):
            polyhedra._box_optima(empty)
        assert built == [(-1, 0, 1, 1), (0, 0, 0, 0)]

    def test_positive_zero_combination_below_full_rank_is_unbounded(self):
        """{x_1 <= 1, -x_1 <= 0} in R^2: the rows sum to 0 with positive
        weights, but they span only a line, so x_2 is free.  With the right
        side (-1, 0) P is empty too, and its cone still reports x_2."""
        for b in ((1, 0), (-1, 0)):
            p = PolyhedronH(M([[1, 0], [-1, 0]]), b)
            with pytest.raises(UnboundedPolyhedronError):
                integer_points(p)

    @settings(max_examples=200)
    @given(st.data())
    def test_cone_programs_match_fraction_reference(self, data):
        """_box_optima at b = 0 raises UnboundedPolyhedronError iff the
        Fraction reference finds {A x <= 0} unbounded, and otherwise every
        optimum is 0.  Half the draws zero a column, and some have fewer
        rows than columns, so rank below n comes up often.  An empty P, A
        with one more pair
        a x <= beta, -a x <= -beta - 1, gets the verdict of its own cone."""
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 7))
        row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
        entries = data.draw(st.lists(row, min_size=m, max_size=m))
        if data.draw(st.booleans()):
            k = data.draw(st.integers(0, n - 1))
            entries = [r[:k] + [0] + r[k + 1 :] for r in entries]
        a, beta = data.draw(row), data.draw(st.integers(-3, 3))
        empty = entries + [a, [-x for x in a]]
        for rows, b in ((entries, [0] * m), (empty, [0] * m + [beta, -beta - 1])):
            unbounded = polyhedron_vertices(rows, [0] * len(rows)) == "unbounded"
            p = PolyhedronH(M(rows), tuple(b))
            if unbounded:
                with pytest.raises(UnboundedPolyhedronError):
                    polyhedra._box_optima(p)
            elif any(b):
                with pytest.raises(EmptyPolyhedronError):
                    polyhedra._box_optima(p)
            else:
                assert [top for top, _ in polyhedra._box_optima(p)] == [0] * 2 * n

    def test_matches_fraction_reference(self):
        """The verdict of _box_optima and of integer_points against the
        Fraction solve of every row subset, with boundedness read off the
        cone box [A; I; -I]: "unbounded" iff UnboundedPolyhedronError,
        "empty" iff EmptyPolyhedronError, and otherwise the box optima are
        the extremes of each -e_i and e_i over the vertices.  Half the
        draws contain the rows e_1, ..., e_n, -(e_1 + ... + e_n), which
        bound the polyhedron, so all three outcomes come up often."""
        outcomes = set()

        def verdict(run, p):
            try:
                run(p)
            except UnboundedPolyhedronError:
                return "unbounded"
            except EmptyPolyhedronError:
                return "empty"
            except BudgetExceededError:
                pass  # integer_points gates its box only once P is decided
            return "vertices"

        @settings(max_examples=100)
        @given(st.data())
        def check(data):
            n = data.draw(st.integers(1, 4))
            closed = data.draw(st.booleans())
            m = data.draw(st.integers(n + 1 if closed else 1, 7))
            row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
            entries = data.draw(st.lists(row, min_size=m, max_size=m))
            if closed:
                units = [[int(i == j) for i in range(n)] for j in range(n)]
                entries[: n + 1] = units + [[-1] * n]
                entries = data.draw(st.permutations(entries))
            b = data.draw(st.lists(st.integers(-2, 4), min_size=m, max_size=m))
            vertices = polyhedron_vertices(entries, b)
            expected = vertices if isinstance(vertices, str) else "vertices"
            p = PolyhedronH(M(entries), tuple(b))
            assert verdict(polyhedra._box_optima, p) == expected
            assert verdict(lambda p: integer_points(p, 10_000), p) == expected
            if expected == "vertices":
                optima = [Fraction(*optimum) for optimum in polyhedra._box_optima(p)]
                assert optima == [max(sum(map(mul, u, v)) for v in vertices) for u in unit_rows(n)]
            outcomes.add(expected)

        check()
        assert outcomes == {"vertices", "unbounded", "empty"}


#: catalog polytope hull/41, whose reduced box is larger than its box as written
HULL_41 = PolyhedronH(M([[1, 0], [1, 3], [-1, 0], [-1, -3]]), (0, 3, 0, 3))


class TestIntegerPoints:
    def test_right_side_length_validated(self):
        with pytest.raises(DimensionError, match="^right-hand side length must match row count$"):
            PolyhedronH(M([[1, 0], [0, 1]]), (1,))

    def test_unit_square(self):
        assert len(integer_points(UNIT_SQUARE)) == 4

    def test_symmetric_box(self):
        assert len(integer_points(box_polyhedron(2))) == 9

    def test_small_simplex(self):
        p = PolyhedronH(M([[2, 2], [-1, 0], [0, -1]]), (3, 0, 0))
        assert list(integer_points(p)) == [(0, 0), (0, 1), (1, 0)]

    @settings(max_examples=80)
    @given(st.data())
    def test_matches_plain_scan(self, data):
        """A box [-r, r]^n cut by random half-spaces through or beyond the
        origin, some with last coefficient 0 (a head of the box with no
        last coordinate in P): the sorted point list against a plain scan
        of the box."""
        n = data.draw(st.integers(1, 4))
        radius = data.draw(st.integers(1, 3 if n < 4 else 2))
        box = box_polyhedron(n, radius)
        row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        flat_last = st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1).map(
            lambda head: head + [0]
        )
        cuts = data.draw(st.lists(row, max_size=3)) + data.draw(st.lists(flat_last, max_size=2))
        bounds = data.draw(st.lists(st.integers(0, 6), min_size=len(cuts), max_size=len(cuts)))
        entries = [list(r) for r in box.a.entries] + cuts
        b = list(box.b) + bounds
        assert list(integer_points(PolyhedronH(M(entries), tuple(b)))) == polytope_points(
            entries, b, radius
        )

    def test_budget_covers_the_bounding_box(self):
        with pytest.raises(BudgetExceededError) as info:
            integer_points(box_polyhedron(2, 10**5))
        assert str(info.value) == "box scan of size 40000400001 exceeds budget 10000000"

    def test_no_interior_integer_point_in_certified_instance(self):
        a = lower_bound_instance(3)
        rows = list(a.entries) + [tuple(-x for x in row) for row in a.entries]
        p = PolyhedronH(M(rows), tuple([1] * 6))
        assert list(integer_points(p)) == [(0, 0)]

    @settings(max_examples=80)
    @given(st.data())
    def test_each_coordinate_can_be_the_clipped_one(self, data):
        """A box whose coordinate k has radius 3 and every other at most
        2, cut by rows that are flat in x_k (any bound in [0, 6]) and by
        rows with bound at least 3 |a_k| (so x_k still reaches -3 and 3):
        k has the most integer values, so x_k is the clipped coordinate,
        and the sorted points match a plain scan."""
        n = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(0, n - 1))
        radii = [data.draw(st.integers(0, 2 if n < 4 else 1)) for _ in range(n)]
        radii[k] = 3
        entries = [[s * (j == i) for j in range(n)] for i in range(n) for s in (1, -1)]
        b = [r for r in radii for _ in (1, -1)]
        row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        for cut in data.draw(st.lists(row, max_size=4)):
            flat = data.draw(st.booleans())
            if flat:
                cut[k] = 0
            entries.append(cut)
            b.append(data.draw(st.integers(0, 6)) + (0 if flat else 3 * abs(cut[k])))
        points = integer_points(PolyhedronH(M(entries), tuple(b)))
        assert list(points) == polytope_points(entries, b, 3)

    def test_budget_counts_the_integer_values_of_the_box(self):
        """-3/2 <= x <= 7/2 and -4/3 <= y <= 5/3, cut by x + y <= 3: the
        box holds the 5 x 3 integer points of [-1, 3] x [-1, 1] (ceiling
        of each least value, floor of each greatest), so a budget of 15
        admits the scan and 14 refuses it."""
        entries, b = [[2, 0], [-2, 0], [0, 3], [0, -3], [1, 1]], [7, 3, 5, 4, 3]
        p = PolyhedronH(M(entries), tuple(b))
        assert list(integer_points(p, 15)) == polytope_points(entries, b, 4)
        with pytest.raises(BudgetExceededError) as info:
            integer_points(p, 14)
        assert str(info.value) == "box scan of size 15 exceeds budget 14"

    def test_reduced_box_of_hull_41_is_larger_than_the_box_as_written(self):
        """The columns (1, 1, -1, -1) and (0, 3, 0, -3) of catalog polytope
        hull/41 reduce to (1, 1, -1, -1) and (-2, 1, 2, -1): a box of 5 x 3
        points, where the box as written has 1 x 3."""
        reduced, v = linalg._lll([HULL_41.a.column(0), HULL_41.a.column(1)])
        assert (reduced, v) == ([[1, 1, -1, -1], [-2, 1, 2, -1]], [[1, 0], [-2, 1]])
        q = PolyhedronH(M(list(zip(*reduced))), HULL_41.b)
        assert [hi - lo + 1 for lo, hi in polyhedra._integer_box(q)] == [5, 3]
        assert [hi - lo + 1 for lo, hi in polyhedra._integer_box(HULL_41)] == [1, 3]

    def test_reduced_box_past_the_budget_falls_back_to_the_box_as_written(self):
        """At a budget of 3, below hull/41's reduced box of 15 points, the
        scan falls back to the box as written and answers; at 2 both boxes
        are refused, with the size of the box as written."""
        p = HULL_41
        expected = {(0, -1): 0b1101, (0, 0): 0b0101, (0, 1): 0b0111}
        assert integer_points(p, 3) == expected == integer_points(p)
        with pytest.raises(BudgetExceededError) as info:
            integer_points(p, 2)
        assert str(info.value) == "box scan of size 3 exceeds budget 2"


class TestLatticePoints:
    @settings(max_examples=100)
    @given(st.data())
    def test_masks_match_the_plain_loop(self, data):
        """Each point with the bitmask of its tight rows, against a plain
        scan and a plain loop over the rows: coordinate k has radius 3 and
        every other at most 2, and every cut keeps x_k = -3 and 3 (so k is
        the clipped coordinate), some cuts are flat in x_k, and one row is
        all zero, tight everywhere at bound 0 and nowhere at bound 1."""
        n = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(0, n - 1))
        radii = [data.draw(st.integers(0, 2 if n < 4 else 1)) for _ in range(n)]
        radii[k] = 3
        entries = [[s * (j == i) for j in range(n)] for i in range(n) for s in (1, -1)]
        b = [r for r in radii for _ in (1, -1)]
        row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        for cut in data.draw(st.lists(row, max_size=4)):
            entries.append(cut)
            b.append(data.draw(st.integers(0, 6)) + 3 * abs(cut[k]))
        for cut in data.draw(st.lists(row, min_size=1, max_size=2)):
            cut[k] = 0
            entries.append(cut)
            b.append(data.draw(st.integers(0, 6)))
        at = data.draw(st.integers(0, len(entries)))
        entries.insert(at, [0] * n)
        b.insert(at, data.draw(st.integers(0, 1)))
        points = integer_points(PolyhedronH(M(entries), tuple(b)), 10_000)
        expected = [(x, tight_rows(entries, b, x)) for x in polytope_points(entries, b, 3)]
        assert list(points.items()) == expected

    def test_sloped_row_tight_only_where_its_column_divides_the_slack(self):
        """0 <= x <= 1, -3 <= y <= 3, 2 y - 2 x <= 1: y is clipped, and the
        last row's slack 1 + 2 x - 2 y is odd on every line, so it is tight
        at no point."""
        entries, b = [[1, 0], [-1, 0], [0, 1], [0, -1], [-2, 2]], [1, 0, 3, 3, 1]
        points = integer_points(PolyhedronH(M(entries), tuple(b)), 100)
        assert list(points) == [(0, y) for y in range(-3, 1)] + [(1, y) for y in range(-3, 2)]
        assert all(mask >> 4 & 1 == 0 for mask in points.values())
        assert points == {x: tight_rows(entries, b, x) for x in points}

    def test_flat_row_tight_along_a_whole_line(self):
        """0 <= x <= 1, -2 <= y <= 2 and x + 0 y <= 1 again: y is clipped,
        and rows 0 and 4 are tight at every point of the line x = 1 and at
        no point of x = 0."""
        entries, b = [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 0]], [1, 0, 2, 2, 1]
        points = integer_points(PolyhedronH(M(entries), tuple(b)), 100)
        ends = {-2: 1 << 3, 2: 1 << 2}
        assert points == {
            (x, y): (0b10001 if x else 0b10) | ends.get(y, 0) for x in (0, 1) for y in range(-2, 3)
        }


def cold_minimum(columns, rhs, cost):
    """The least cost over a nonempty {M lambda = rhs, lambda >= 0} from one
    cold _Simplex with a cost row (phase 1, then phase 2), or None when it
    is unbounded below."""
    simplex = polyhedra._Simplex(columns, rhs, cost)
    assert simplex.phase_one()
    return Fraction(*simplex.optimum()) if simplex.phase_two() else None


# -l1 - l2 = 0 and l1 + l3 = 1 with cost -l1: phase 1 ends with an
# artificial basic at level 0, which phase 2 pivots out
DRIVE_OUT = ([(-1, 1), (-1, 0), (0, 1)], [0, 1], (-1, 0, 0))


class TestSimplexCostRow:
    """_Simplex with a cost row: the least cost over
    {M lambda = rhs, lambda >= 0}, None when unbounded below."""

    def test_artificial_left_basic_is_pivoted_out(self):
        """-l1 - l2 = 0 forces l1 = l2 = 0, so phase 1 ends with its
        artificial basic at level 0 and a row of negative entries; left
        there, phase 2 would raise l1 to 1 and the artificial with it."""
        assert cold_minimum(*DRIVE_OUT) == 0

    def test_unbounded_below(self):
        assert cold_minimum([(1,), (-1,)], [0], (0, -1)) is None

    def test_empty_set_is_refused(self):
        """Phase 1 reports an empty set, so no phase 2 runs on it."""
        assert not polyhedra._Simplex([(1,), (2,)], [-1], (0, 0)).phase_one()

    @settings(max_examples=150)
    @given(st.data())
    def test_matches_the_vertex_minimum(self, data):
        """Up to 3 random rows in [-2, 2] and a row of ones with right side
        in [0, 3] (so the set is bounded); in half the draws one random row
        has only entries <= 0 and right side 0, which forces its variables
        to 0.  Against the least cost over the vertices."""
        v = data.draw(st.integers(1, 5))
        entry = st.integers(-2, 2)
        rows = data.draw(st.lists(st.lists(entry, min_size=v, max_size=v), max_size=3))
        rhs = data.draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        if rows and data.draw(st.booleans()):
            rows[0], rhs[0] = [-abs(x) for x in rows[0]], 0
        rows.append([1] * v)
        rhs.append(data.draw(st.integers(0, 3)))
        cost = data.draw(st.lists(entry, min_size=v, max_size=v))
        columns = list(zip(*rows))
        least = lp_minimum(columns, rhs, cost)
        assert polyhedra._Simplex(columns, rhs, None).phase_one() == (least is not None)
        if least is not None:
            assert cold_minimum(columns, rhs, cost) == least


def spoil_pivot(monkeypatch, chosen, factor):
    """Wraps polyhedra._pivot so that its call number chosen (from 1)
    leaves its pivot entry times factor (0 spoils none); returns the list
    of calls."""
    real, calls = polyhedra._pivot, []

    def pivot(work, r, c, prev, first):
        real(work, r, c, prev, first)
        calls.append((r, c))
        if len(calls) == chosen:
            work[r][c] *= factor

    monkeypatch.setattr(polyhedra, "_pivot", pivot)
    return calls


@pytest.mark.parametrize("factor", [0, -1], ids=["zero", "negative"])
class TestPivotInvariant:
    """Every pivot of _Simplex keeps d positive or raises InvariantError,
    on the primal, the drive-out and the dual path alike."""

    def test_primal_pivot(self, monkeypatch, factor):
        simplex = polyhedra._Simplex([(1,), (1,)], [1], None)
        spoil_pivot(monkeypatch, 1, factor)
        with pytest.raises(InvariantError, match="^a pivot entry must be positive$"):
            simplex.phase_one()

    def test_drive_out_pivot(self, monkeypatch, factor):
        simplex = polyhedra._Simplex(*DRIVE_OUT)
        assert simplex.phase_one()
        assert max(simplex.basis) >= simplex.v  # an artificial is still basic
        spoil_pivot(monkeypatch, 1, factor)
        with pytest.raises(InvariantError, match="^a pivot entry must be positive$"):
            simplex.phase_two()

    def test_dual_pivot(self, monkeypatch, factor):
        """The first pivot after the cold program of _box_optima (-e_1)."""
        p = box_polyhedron(2)
        with monkeypatch.context() as patch:
            cold = spoil_pivot(patch, 0, factor)
            simplex = polyhedra._Simplex(p.a.entries, [-1, 0], p.b)
            assert simplex.phase_one() and simplex.phase_two()
        spoil_pivot(monkeypatch, len(cold) + 1, factor)
        with pytest.raises(InvariantError, match="^a pivot entry must be positive$"):
            polyhedra._box_optima(p)


@st.composite
def bounded_polyhedra(draw):
    """(entries, b) of a bounded polyhedron in R^n, n <= 3: the rows
    e_1, ..., e_n and -(e_1 + ... + e_n) close random rows, in a random
    order.  A quarter of the draws add max(n - 1, 1) (a segment or a
    point) or n (a point) equation pairs a x <= a x0, -a x <= -a x0
    through a point x0; another quarter add a x <= beta and -a x <= -beta - 1,
    which leaves P empty.  Every row and its bound are scaled by a factor
    of up to 70 bits in a third of the draws, which leaves P alone."""
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    entries = draw(st.lists(row, max_size=3)) + [[int(i == j) for i in range(n)] for j in range(n)]
    entries.append([-1] * n)
    b = draw(st.lists(st.integers(-2, 6), min_size=len(entries), max_size=len(entries)))
    b[-n - 1 :] = [draw(st.integers(0, 6)) for _ in range(n + 1)]
    shape = draw(st.sampled_from(("random", "random", "flat", "empty")))
    if shape == "flat":
        x0 = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        for a in draw(st.lists(row, min_size=max(n - 1, 1), max_size=n)):
            entries += [a, [-x for x in a]]
            value = sum(x * y for x, y in zip(a, x0))
            b += [value, -value]
    elif shape == "empty":
        a, beta = draw(row), draw(st.integers(-3, 3))
        entries += [a, [-x for x in a]]
        b += [beta, -beta - 1]
    if draw(st.integers(0, 2)) == 0:
        factors = draw(st.lists(st.integers(1, 2**70), min_size=len(b), max_size=len(b)))
        entries = [[f * x for x in r] for f, r in zip(factors, entries)]
        b = [f * x for f, x in zip(factors, b)]
    order = draw(st.permutations(range(len(b))))
    return [entries[i] for i in order], [b[i] for i in order]


@st.composite
def degenerate_polyhedra(draw):
    """(entries, b) of a bounded nonempty polyhedron in R^n, n <= 3, whose
    dual programs tie: n + 2 to n + 4 random rows tight at a point x0 (the
    apex of a pyramid), closed by e_1, ..., e_n and -(e_1 + ... + e_n) with
    slack in [0, 3] at x0 (slack 0 on all of them leaves only x0), up to
    three rows repeated, and in half the draws every row and its bound
    scaled by a factor of up to 70 bits, in a random order."""
    n = draw(st.integers(1, 3))
    x0 = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    entries = draw(st.lists(row, min_size=n + 2, max_size=n + 4))
    entries += [[int(i == j) for i in range(n)] for j in range(n)] + [[-1] * n]
    b = [sum(map(mul, a, x0)) for a in entries]
    for k in range(-n - 1, 0):
        b[k] += draw(st.integers(0, 3))
    for k in draw(st.lists(st.integers(0, len(b) - 1), max_size=3)):
        entries.append(entries[k])
        b.append(b[k])
    if draw(st.booleans()):
        factors = draw(st.lists(st.integers(1, 2**70), min_size=len(b), max_size=len(b)))
        entries = [[f * x for x in r] for f, r in zip(factors, entries)]
        b = [f * x for f, x in zip(factors, b)]
    order = draw(st.permutations(range(len(b))))
    return [entries[i] for i in order], [b[i] for i in order]


def assert_box_programs_match_the_vertices(entries, b):
    """The 2n box programs, min b y subject to A^T y = -e_1, e_1, ...,
    -e_n, e_n and y >= 0, on one shared basis (polyhedra._box_optima), each
    against the same program run cold on its own _Simplex and against the
    Fraction vertices: the program at e_i is max x_i over P and the one at
    -e_i is minus min x_i.  On an empty P each cold program is unbounded
    below (None), and the shared run raises."""
    vertices = polyhedron_vertices(entries, b)
    units = unit_rows(len(entries[0]))
    cold = [cold_minimum(entries, unit, b) for unit in units]
    p = PolyhedronH(M(entries), tuple(b))
    if vertices == "empty":
        assert cold == [None] * len(units)
        with pytest.raises(EmptyPolyhedronError, match="^polyhedron contains no points$"):
            polyhedra._box_optima(p)
    else:
        shared = [Fraction(*optimum) for optimum in polyhedra._box_optima(p)]
        assert shared == cold == [max(sum(map(mul, u, v)) for v in vertices) for u in units]


@settings(max_examples=150)
@given(bounded_polyhedra())
def test_bounding_box_programs_match_the_vertices(case):
    assert_box_programs_match_the_vertices(*case)


@settings(max_examples=150)
@given(degenerate_polyhedra())
def test_bounding_box_programs_tie_and_still_match(case):
    assert_box_programs_match_the_vertices(*case)


@pytest.mark.parametrize(
    "entries,b",
    [
        ([[2], [-3]], [3, 4]),  # n = 1: -4/3 <= x <= 3/2
        ([[1], [-1]], [-2, 2]),  # n = 1, the point -2
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]], [1, -2, 0, 1]),  # the point (1, -2, 0)
        (  # a square pyramid with apex (0, 0, 1) on five rows, two of them repeated
            [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1], [1, 1, 1], [0, 0, -1], [1, 0, 1],
             [1, 1, 1]],
            [1, 1, 1, 1, 1, 0, 1, 1],
        ),
    ],
    ids=["segment", "n1_point", "point", "pyramid_repeated"],
)
def test_bounding_box_programs_on_small_cases(entries, b):
    assert_box_programs_match_the_vertices(entries, b)


class TestBoxErrors:
    """_box_optima decides P as it solves: a recession direction comes
    before an empty P, whichever of its steps finds it."""

    @pytest.mark.parametrize(
        "entries,b,error",
        [
            # x <= 1, y <= 1: phase 1 of the first program, -e_1, fails
            ([[1, 0], [0, 1]], [1, 1], UnboundedPolyhedronError),
            # -1 <= x <= 1 in R^2: the first program has an optimum with
            # an artificial left basic, rank 1 < 2
            ([[1, 0], [-1, 0]], [1, 1], UnboundedPolyhedronError),
            # -1 <= x <= 1, y <= 1: the dual simplex finds -e_2 infeasible
            ([[1, 0], [-1, 0], [0, 1]], [1, 1, 1], UnboundedPolyhedronError),
            # x <= -1, x >= 0, y <= 5: empty, and y is free below
            ([[1, 0], [-1, 0], [0, 1]], [-1, 0, 5], UnboundedPolyhedronError),
            # x <= -1, x >= 0 in R^2: empty, and the rows have rank 1
            ([[1, 0], [-1, 0]], [-1, 0], UnboundedPolyhedronError),
            # x <= -1, x >= 0, -1 <= y <= 1: empty and bounded
            ([[1, 0], [-1, 0], [0, 1], [0, -1]], [-1, 0, 1, 1], EmptyPolyhedronError),
        ],
        ids=["phase_one", "rank", "dual_ratio_test", "empty_unbounded", "empty_rank", "empty"],
    )
    def test_error_and_message(self, entries, b, error):
        p = PolyhedronH(M(entries), tuple(b))
        message = {
            UnboundedPolyhedronError: "^polyhedron has a nonzero recession direction$",
            EmptyPolyhedronError: "^polyhedron contains no points$",
        }[error]
        for run in (polyhedra._box_optima, integer_points):
            with pytest.raises(error, match=message):
                run(p)

    def test_rank_below_n_stops_before_the_dual_simplex(self, monkeypatch):
        """-1 <= x <= 1 in R^2: the first program has an optimum, and the
        artificial of the row for x_2 stays basic, so no later program runs
        (one would find A^T y = +-e_2 infeasible)."""

        def never(simplex, i, sign):
            raise AssertionError("a later program ran")

        monkeypatch.setattr(polyhedra._Simplex, "reoptimize", never)
        with pytest.raises(UnboundedPolyhedronError):
            polyhedra._box_optima(PolyhedronH(M([[1, 0], [-1, 0]]), (1, 1)))

    def test_bounded_p_runs_one_phase_one_and_no_boundedness_program(self, monkeypatch):
        """The box of a nonempty bounded P builds one tableau and runs
        phase 1 once; the programs of its cone {A x <= 0}, which would be a
        second phase 1 on n rows, never run."""
        runs = []
        real = polyhedra._Simplex.phase_one

        def counted(simplex):
            runs.append(simplex.r)
            return real(simplex)

        monkeypatch.setattr(polyhedra._Simplex, "phase_one", counted)
        for n in (1, 3):
            runs.clear()
            assert len(integer_points(box_polyhedron(n))) == 3**n
            assert runs == [n]


@st.composite
def criterion_7_polytopes(draw):
    """(P, delta): [A; -A] x <= b with A a random delta-modular m x n
    matrix (n in {2, 3}, m <= n + 2) whose stacked maximum is delta, b in
    [0, 3], and at most 60 lattice points in a bounding box of at most
    20,000."""
    delta, n = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    m = n + draw(st.integers(0, 2))
    a = random_delta_modular(delta, m, n, draw(st.integers(0, 2**32 - 1)))
    stacked = M(list(a.entries) + [tuple(-x for x in row) for row in a.entries])
    assume(max_abs_full_rank_subdet(stacked)[0] == delta)
    b = tuple(draw(st.lists(st.integers(0, 3), min_size=2 * m, max_size=2 * m)))
    p = PolyhedronH(stacked, b)
    try:
        assume(len(integer_points(p, budget=20_000)) <= 60)
    except BudgetExceededError:
        assume(False)  # the rare draw whose bounding box is huge
    return p, delta


@st.composite
def caratheodory_polytopes(draw):
    """n = 1..4: a box (many interior midpoints; [-1, 1] x [0, 1]^3 in
    4-D) cut by random half-spaces through or beyond the origin; in 3-D
    it may be flattened onto a plane or a line through the origin by
    pairs a x <= 0, -a x <= 0."""
    n = draw(st.integers(1, 4))
    radius = draw(st.integers(1, {1: 3, 2: 2, 3: 1, 4: 1}[n]))
    box = box_polyhedron(n, radius)
    lows = [radius] * n if n < 4 else [1, 0, 0, 0]
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    cuts = draw(st.lists(row, max_size=3))
    bounds = draw(st.lists(st.integers(0, 4), min_size=len(cuts), max_size=len(cuts)))
    flats = draw(st.lists(row, max_size=2)) if n == 3 else []
    entries = [list(r) for r in box.a.entries] + cuts + flats + [[-x for x in f] for f in flats]
    b = [x for low in lows for x in (radius, low)] + bounds + [0] * 2 * len(flats)
    return PolyhedronH(M(entries), tuple(b))


class TestIntegerHull:
    def test_box_corners(self):
        assert hull(box_polyhedron(2)) == [
            (-1, -1),
            (-1, 1),
            (1, -1),
            (1, 1),
        ]

    def test_collinear_segment_keeps_endpoints(self):
        p = PolyhedronH(
            M([[1, -1], [-1, 1], [1, 0], [-1, 0]]), (0, 0, 2, 0)
        )  # segment from (0,0) to (2,2)
        assert hull(p) == [(0, 0), (2, 2)]

    def test_shaved_simplex(self):
        p = PolyhedronH(M([[2, 2], [-1, 0], [0, -1]]), (3, 0, 0))
        assert hull(p) == [(0, 0), (0, 1), (1, 0)]

    def test_matches_monotone_chain_oracle(self):
        from oracles import convex_hull_2d

        rng = random.Random(2718)
        done = 0
        while done < 25:
            rows = [
                (rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 5))
            ]
            stacked = rows + [(-a, -b) for a, b in rows]
            matrix = M(stacked)
            try:
                if max_abs_full_rank_subdet(matrix)[0] < 1:
                    continue
            except RankError:
                continue
            b = tuple(rng.randint(1, 4) for _ in stacked)
            p = PolyhedronH(matrix, b)
            points = integer_points(p, budget=20_000)
            if len(points) > 50:
                continue
            assert hull(p) == convex_hull_2d(points)
            done += 1

    @settings(max_examples=60)
    @given(caratheodory_polytopes())
    def test_matches_caratheodory_oracle(self, p):
        assert hull(p) == convex_hull_vertices(integer_points(p))

    @pytest.mark.parametrize(
        "flats,expected",
        [
            (
                [[1, 1, -1]],  # a hexagon on the plane z = x + y
                [(-2, 0, -2), (-2, 2, 0), (0, -2, -2), (0, 2, 2), (2, -2, 0), (2, 0, 2)],
            ),
            ([[1, -1, 0], [0, 1, -1]], [(-2, -2, -2), (2, 2, 2)]),  # x = y = z
        ],
        ids=["plane", "line"],
    )
    def test_flat_point_sets(self, flats, expected):
        box = box_polyhedron(3, 2)
        entries = list(box.a.entries) + flats + [[-x for x in f] for f in flats]
        p = PolyhedronH(M(entries), box.b + (0,) * 2 * len(flats))
        assert hull(p) == convex_hull_vertices(integer_points(p)) == expected


class TestHullWork:
    """The work the hull scan saves, counted on the hull LPs (the
    phase-1 programs on n + 1 rows; the bounding-box programs, and those
    of the cone of an empty P, have n rows)."""

    @staticmethod
    def hull_lps(p):
        """The hull and, for each hull LP, its point and its column count."""
        calls = []
        real = polyhedra._Simplex.phase_one

        def counted(simplex):
            if simplex.r == p.dim + 1:
                # a row starts negated iff its right side is negative, and
                # its artificial entry, 1 or -1, tells which
                rhs = [row[-1] * row[simplex.v + i] for i, row in enumerate(simplex.rows[:-1])]
                calls.append((tuple(rhs[:-1]), simplex.v))
            return real(simplex)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(polyhedra._Simplex, "phase_one", counted)
            return hull(p), calls

    @staticmethod
    def lps_needed(p):
        """By the plain oracles, each lattice point that needs an LP, with
        the number of other points on its face: a point on a face of
        dimension at least 2, with another point on that face and no
        midpoint pair."""
        points = list(integer_points(p))
        masks = {v: tight_rows(p.a.entries, p.b, v) for v in points}
        needed = []
        for v in points:
            face = [q for q in points if q != v and masks[q] & masks[v] == masks[v]]
            if face_dimension(p.a.entries, p.b, v) >= 2 and face:
                if midpoint_pair(points, v) is None:
                    needed.append((v, len(face)))
        return needed

    def check_lps_only_where_needed(self, p):
        hull, calls = self.hull_lps(p)
        assert calls == self.lps_needed(p)
        assert hull == convex_hull_vertices(integer_points(p))

    def test_midpoints_run_no_lp(self):
        """Each corner is alone on its face of P and every other point is
        a midpoint on its own face, so no LP runs."""
        hull, calls = self.hull_lps(box_polyhedron(2))
        assert hull == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        assert calls == []

    def test_proved_points_leave_later_lps(self):
        """Lattice points (0,0), (1,1), (1,2), (2,1): (0,0), (1,2) and (2,1)
        are vertices of P, alone on their faces, and (1,1) is interior but
        no midpoint, so one LP over the three other points drops it."""
        p = PolyhedronH(M([[1, -2], [-2, 1], [1, 1]]), (0, 0, 3))
        hull, calls = self.hull_lps(p)
        assert hull == [(0, 0), (1, 2), (2, 1)]
        assert calls == [((1, 1), 3)]

    def test_each_lp_sees_its_face_only(self):
        """x, y >= 0, 2x + 2y <= 5: (0,2) and (2,0) are not vertices of P,
        and each ends the lattice points of its edge, with no midpoint pair
        there, so the edge rule keeps it and no LP runs; (0,1), (1,0) and
        (1,1) are midpoints."""
        p = PolyhedronH(M([[-1, 0], [0, -1], [2, 2]]), (0, 0, 5))
        hull, calls = self.hull_lps(p)
        assert hull == [(0, 0), (0, 2), (2, 0)]
        assert calls == []

    @pytest.mark.parametrize("top", [4, 5], ids=["vertex_of_p", "edge_end"])
    def test_edge_along_a_non_unit_direction(self, top):
        """P is the segment x = 2y, 0 <= x <= top, whose lattice points
        (0,0), (2,1), (4,2) step by (2,1): (2,1) is their midpoint, and
        (4,2) is a vertex of P at top 4 and ends the edge at top 5."""
        p = PolyhedronH(M([[1, -2], [-1, 2], [1, 0], [-1, 0]]), (0, 0, top, 0))
        assert self.hull_lps(p) == ([(0, 0), (4, 2)], [])

    def test_edge_with_two_lattice_points(self):
        """x, y >= 0, 3x + 3y <= 4: the edge on each axis holds two lattice
        points and no midpoint, so (0,1) and (1,0), which are not vertices
        of P, are kept by the edge rule with no LP."""
        p = PolyhedronH(M([[-1, 0], [0, -1], [3, 3]]), (0, 0, 4))
        assert self.hull_lps(p) == ([(0, 0), (0, 1), (1, 0)], [])

    def test_edge_of_a_3d_polytope(self):
        """x, y, z >= 0, 2x + 2y + 2z <= 5: the lattice points 0, e_i, 2 e_i
        of each axis edge are no vertices of P but 2 e_i, which ends its
        edge, is one of P_I; e_i and each point of a facet, such as
        (1, 1, 0), are midpoints, so no LP runs."""
        p = PolyhedronH(M([[-1, 0, 0], [0, -1, 0], [0, 0, -1], [2, 2, 2]]), (0, 0, 0, 5))
        hull, calls = self.hull_lps(p)
        assert hull == [(0, 0, 0), (0, 0, 2), (0, 2, 0), (2, 0, 0)]
        assert calls == []
        assert verify_face_dimension_bound(p, 1).entries == (
            ((0, 0, 0), 0),
            ((0, 0, 2), 1),
            ((0, 2, 0), 1),
            ((2, 0, 0), 1),
        )

    def test_interior_vertex_of_the_hull_runs_the_one_lp(self):
        """The verify-hull catalog polytope hull/49-d3-n2, the only one of
        the 52 that needs an LP: (11,-6) is interior to P and no midpoint of
        the six lattice points, and the LP over the five others keeps it, a
        vertex of P_I on a face of dimension 2."""
        a = M([[13, 24], [-8, -15], [5, 9], [-13, -24], [8, 15], [-5, -9]])
        p = PolyhedronH(a, (3, 3, 3, 2, 1, 0))
        hull, calls = self.hull_lps(p)
        assert calls == [((11, -6), 5)]
        assert verify_face_dimension_bound(p, 3).entries == (
            ((0, 0), 1),
            ((2, -1), 1),
            ((11, -6), 2),
            ((15, -8), 0),
            ((24, -13), 0),
        )

    @settings(max_examples=40)
    @given(criterion_7_polytopes())
    def test_criterion_7_lps_only_where_needed(self, case):
        self.check_lps_only_where_needed(case[0])

    @settings(max_examples=60)
    @given(caratheodory_polytopes())
    def test_caratheodory_lps_only_where_needed(self, p):
        self.check_lps_only_where_needed(p)


class TestMinFaceDimension:
    """The face-dimension reference that verify facedim is checked
    against, on points whose least face is known."""

    SQUARE = box_polyhedron(2).a.entries, box_polyhedron(2).b

    def test_corner(self):
        assert face_dimension(*self.SQUARE, (1, 1)) == 0

    def test_edge_midpoint(self):
        assert face_dimension(*self.SQUARE, (1, 0)) == 1

    def test_interior(self):
        assert face_dimension(*self.SQUARE, (0, 0)) == 2

    def test_outside_rejected(self):
        with pytest.raises(ValueError):
            face_dimension(*self.SQUARE, (3, 0))

    def test_vertex_iff_dimension_zero(self):
        entries, b = [[2, 2], [-1, 0], [0, -1]], [3, 0, 0]
        vertices = set(polyhedron_vertices(entries, b))
        for point in integer_points(PolyhedronH(M(entries), tuple(b))):
            expected = tuple(Fraction(x) for x in point) in vertices
            assert (face_dimension(entries, b, point) == 0) == expected


class TestFaceDimensionBound:
    def test_unimodular_hull_vertices_are_vertices(self):
        report = verify_face_dimension_bound(box_polyhedron(2), 1)
        assert report.passed
        assert report.bound == 0
        assert all(dim == 0 for _, dim in report.entries)

    def test_certified_instance_with_interior_origin(self):
        a = lower_bound_instance(3)
        rows = list(a.entries) + [tuple(-x for x in row) for row in a.entries]
        p = PolyhedronH(M(rows), tuple([1] * 6))
        report = verify_face_dimension_bound(p, 3)
        assert report.passed
        assert report.entries == (((0, 0), 2),)

    def test_violation_reported(self):
        # a segment with a strictly interior lattice-free stretch: the only
        # integer point (0) sits inside a 1-face, violating a delta=1 claim
        p = PolyhedronH(M([[2], [-2]]), (1, 1))
        report = verify_face_dimension_bound(p, 1)
        assert not report.passed
        assert report.bound == 0


@settings(max_examples=60)
@given(criterion_7_polytopes())
def test_face_dimensions_are_min_face_dimension(case):
    """verify facedim reads each vertex's face dimension off the hull
    scan's tight-row mask; the reference takes the vertices from one
    Fraction phase-1 program per lattice point and recomputes each
    dimension from the slacks."""
    p, delta = case
    report = verify_face_dimension_bound(p, delta)
    vertices = convex_hull_vertices(integer_points(p))
    assert report.entries == tuple((v, face_dimension(p.a.entries, p.b, v)) for v in vertices)


class TestFaceDimensionMetamorphic:
    """verify facedim depends on P, not on its presentation: a row
    permutation and x -> U x + t with U unimodular (A -> A U and
    b -> b + A U t) keep the multiset of face dimensions and the verdict,
    and a column permutation moves each hull vertex with its face
    dimension (the scan clips another coordinate)."""

    @staticmethod
    def summary(p, delta):
        report = verify_face_dimension_bound(p, delta)
        return sorted(dim for _, dim in report.entries), report.passed

    @settings(max_examples=40)
    @given(criterion_7_polytopes(), st.data())
    def test_row_permutation(self, case, data):
        p, delta = case
        order = data.draw(st.permutations(range(p.a.rows)))
        permuted = PolyhedronH(p.a.submatrix_rows(order), tuple(p.b[i] for i in order))
        assert self.summary(permuted, delta) == self.summary(p, delta)

    @settings(max_examples=40)
    @given(criterion_7_polytopes(), st.data())
    def test_unimodular_affine_map(self, case, data):
        p, delta = case
        seed, steps = data.draw(st.integers(0, 2**16)), data.draw(st.integers(1, 3))
        a = unimodular_scramble(p.a.entries, seed, steps, data.draw(st.integers(1, 2)))
        t = data.draw(st.lists(st.integers(-2, 2), min_size=p.dim, max_size=p.dim))
        b = tuple(bound + sum(x * y for x, y in zip(row, t)) for row, bound in zip(a, p.b))
        assert self.summary(PolyhedronH(M(a), b), delta) == self.summary(p, delta)

    @staticmethod
    def mapped_report(p, delta, scramble, t):
        """The report on P' = {x : A U x <= b + A U t}, U the unimodular
        matrix of unimodular_scramble(A, *scramble), with each vertex x'
        of P' moved back to U (x' - t), its point of P."""
        u = unimodular_scramble(IntMatrix.identity(p.dim).entries, *scramble)
        a = unimodular_scramble(p.a.entries, *scramble)
        b = tuple(bound + sum(map(mul, row, t)) for row, bound in zip(a, p.b))
        report = verify_face_dimension_bound(PolyhedronH(M(a), b), delta)
        moved = sorted(
            (tuple(sum(x * (y - s) for x, y, s in zip(row, v, t)) for row in u), dim)
            for v, dim in report.entries
        )
        return replace(report, entries=tuple(moved))

    def test_scramble_whose_box_is_past_the_budget(self):
        """A criterion-7 polytope with 4 lattice points in a box of 1,120,
        whose scramble stretches the box as written to 351 x 269 x 118 =
        11,141,442 points, past DEFAULT_POINT_BUDGET: the scan runs in the
        reduced basis, so the mapped P gets the report of P."""
        entries = [[0, -3, 7], [-1, 4, -9], [1, 0, 0], [0, 4, -9], [0, 3, -7], [1, -4, 9]]
        entries += [[-1, 0, 0], [0, -4, 9]]
        p = PolyhedronH(M(entries), (0, 0, 0, 0, 3, 0, 1, 1))
        report = verify_face_dimension_bound(p, 1)
        assert len(report.entries) == 4 and report.passed
        assert self.mapped_report(p, 1, (3551, 3, 2), (0, 0, 0)) == report

    @settings(max_examples=40)
    @given(criterion_7_polytopes(), st.data())
    def test_larger_scrambles_keep_the_report(self, case, data):
        """Up to 6 column operations of up to 4 bits each, and a shift:
        no refusal, and the same vertices, face dimensions and verdict."""
        p, delta = case
        steps, bits = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
        scramble = (data.draw(st.integers(0, 2**16)), steps, bits)
        t = tuple(data.draw(st.lists(st.integers(-2, 2), min_size=p.dim, max_size=p.dim)))
        report = verify_face_dimension_bound(p, delta)
        assert self.mapped_report(p, delta, scramble, t) == report


    @settings(max_examples=40)
    @given(criterion_7_polytopes(), st.data())
    def test_column_permutation(self, case, data):
        p, delta = case
        order = data.draw(st.permutations(range(p.dim)))
        permuted = PolyhedronH(M([[row[j] for j in order] for row in p.a.entries]), p.b)
        report = verify_face_dimension_bound(p, delta)
        moved = {tuple(v[j] for j in order): dim for v, dim in report.entries}
        permuted_report = verify_face_dimension_bound(permuted, delta)
        assert dict(permuted_report.entries) == moved
        assert permuted_report.passed == report.passed


class TestKernelLatticeBasis:
    def test_sum_constraint(self):
        w = kernel_lattice_basis(M([[1, 1]]))
        assert w.entries in (((1,), (-1,)), ((-1,), (1,)))

    def test_scaled_constraint(self):
        w = kernel_lattice_basis(M([[2, 4]]))
        assert w.entries in (((2,), (-1,)), ((-2,), (1,)))

    def test_three_ones(self):
        a = M([[1, 1, 1]])
        w = kernel_lattice_basis(a)
        assert all(all(x == 0 for x in row) for row in a.matmul(w).entries)
        assert coprime_maximal_minors(w.entries)

    def test_random_bases_are_primitive(self):
        rng = random.Random(88)
        for _ in range(30):
            m = rng.randint(1, 3)
            n = rng.randint(m + 1, 6)
            a = random_full_rank(rng, m, n, -9, 9)
            w = kernel_lattice_basis(a)
            assert w.shape == (n, n - m)
            assert all(all(x == 0 for x in row) for row in a.matmul(w).entries)
            assert coprime_maximal_minors(w.entries)

    def test_square_rejected(self):
        with pytest.raises(DimensionError):
            kernel_lattice_basis(IntMatrix.identity(2))

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankError):
            kernel_lattice_basis(M([[1, 1, 0], [1, 1, 0]]))


class TestKernelIdentity:
    def test_sum_row(self):
        assert verify_kernel_identity(M([[1, 1]]))

    def test_gcd_two(self):
        assert verify_kernel_identity(M([[2, 4]]))

    def test_wide_random(self):
        rng = random.Random(99)
        for _ in range(40):
            a = random_full_rank(rng, 2, 4, -9, 9)
            assert verify_kernel_identity(a)

    def test_square_is_trivial(self):
        assert verify_kernel_identity(IntMatrix.identity(3))

    def test_row_rank_deficient_rejected(self):
        with pytest.raises(RankError, match="^full row rank required$"):
            verify_kernel_identity(M([[1, 2, 3], [2, 4, 6]]))

    def test_one_rank_elimination(self, monkeypatch):
        """The full-row-rank test runs once; the kernel basis reads the rank
        off its Hermite normal form instead of eliminating A again."""
        calls = []

        def counting_rank(a):
            calls.append(a)
            return rank(a)

        monkeypatch.setattr(polyhedra, "rank", counting_rank)
        assert verify_kernel_identity(M([[1, 2, 3, 4], [0, 1, 5, -2]]))
        assert len(calls) == 1


class TestStandardFormIlp:
    def test_unique_optimum(self):
        ilp = StandardFormILP(M([[1, 1]]), (2,), (1, 0))
        assert solve_standard_form_ilp(ilp, (2, 2)) == [(2, 0)]

    def test_sparsity_instance_is_rigid(self):
        a, b = sparsity_instance(2)
        ilp = StandardFormILP(a, b, (0, 0, 0))
        assert solve_standard_form_ilp(ilp, (2, 2, 2)) == [(1, 1, 1)]

    def test_all_optimizers_returned(self):
        ilp = StandardFormILP(M([[1, 1]]), (2,), (1, 1))
        assert solve_standard_form_ilp(ilp, (2, 2)) == [(0, 2), (1, 1), (2, 0)]

    @settings(max_examples=120)
    @given(small_programs())
    def test_matches_plain_scan(self, program):
        """The whole optimizer list against a plain scan of the box, on
        programs with up to 3 rows and 6 variables, box entries from 0, and
        a right-hand side that a point of the box may or may not reach."""
        entries, b, c, box = program
        optimizers = solve_standard_form_ilp(StandardFormILP(M(entries), b, c), box)
        assert optimizers == ilp_optimizers(entries, b, c, box)

    @pytest.mark.parametrize("k", [0, 1, 4, 30])
    def test_many_optima(self, k):
        """[[1, -1]] x = 0 on the box (k, k): every point of the diagonal
        is optimal for c = (1, -1), in lexicographic order."""
        ilp = StandardFormILP(M([[1, -1]]), (0,), (1, -1))
        assert solve_standard_form_ilp(ilp, (k, k)) == [(i, i) for i in range(k + 1)]
        report = verify_support_bound(ilp, 1, (k, k))
        assert (report.optimal_value, report.optimizer_count, report.min_support) == (0, k + 1, 0)

    def test_infeasible_empty(self):
        ilp = StandardFormILP(M([[2, 2]]), (3,), (1, 0))
        assert solve_standard_form_ilp(ilp, (1, 1)) == []

    def test_budget(self):
        ilp = StandardFormILP(M([[1, 1]]), (2,), (1, 0))
        with pytest.raises(BudgetExceededError):
            solve_standard_form_ilp(ilp, (9, 9), budget=10)

    def test_rank_validated(self):
        with pytest.raises(RankError):
            StandardFormILP(M([[1, 1], [1, 1]]), (2, 2), (1, 0))

    @pytest.mark.parametrize(
        "b,c,message",
        [
            ((2, 2), (1, 0), "right-hand side length must match row count"),
            ((2,), (1,), "objective length must match column count"),
        ],
        ids=["b", "c"],
    )
    def test_lengths_validated(self, b, c, message):
        with pytest.raises(DimensionError, match=f"^{message}$"):
            StandardFormILP(M([[1, 1]]), b, c)

    def test_box_length_validated(self):
        ilp = StandardFormILP(M([[1, 1]]), (2,), (1, 0))
        with pytest.raises(DimensionError, match="^box length must match variable count$"):
            solve_standard_form_ilp(ilp, (2,))


class TestValueToGo:
    """Each stage of the DP keeps exactly the tail images whose remainder
    b - t the head variables can reach, row by row."""

    def test_enumerate_workload_program(self):
        """A program of the benchmark's enumerate workload, on its derived
        box.  A reach bound of max(1, a u) in place of max(0, a u) keeps
        every answer but gives the stage sizes 1, 5, 16, 5, 1."""
        entries, b, box = [[1, 1, 1, 0], [0, 2, 0, 2], [0, 2, 0, 1]], (3, 8, 6), (3, 3, 3, 4)
        stages = list(polyhedra._value_to_go(StandardFormILP(M(entries), b, (2, 1, 3, -1)), box))
        assert [len(stage) for stage in stages] == [1, 4, 16, 2, 1]
        assert [set(stage) for stage in stages] == reachable_tails(entries, b, box)

    @settings(max_examples=100)
    @given(small_programs())
    def test_matches_plain_reach(self, program):
        entries, b, c, box = program
        stages = polyhedra._value_to_go(StandardFormILP(M(entries), b, c), box)
        assert [set(stage) for stage in stages] == reachable_tails(entries, b, box)


class TestSupportBound:
    @settings(max_examples=120)
    @given(small_programs(), st.integers(1, 3))
    def test_matches_plain_scan(self, program, delta):
        """Value, optimizer count and least support against the optimizers
        of a plain scan of the box."""
        entries, b, c, box = program
        report = verify_support_bound(StandardFormILP(M(entries), b, c), delta, box)
        optimizers = ilp_optimizers(entries, b, c, box)
        if not optimizers:
            assert (report.optimal_value, report.optimizer_count, report.min_support) == (
                None, 0, None
            )
            assert report.passed
            return
        value = sum(ci * xi for ci, xi in zip(c, optimizers[0]))
        smallest = min(sum(1 for xi in x if xi) for x in optimizers)
        assert (report.optimal_value, report.optimizer_count, report.min_support) == (
            value, len(optimizers), smallest
        )
        assert report.passed == (smallest <= report.bound)

    def test_sparsity_instance_meets_bound_exactly(self):
        a, b = sparsity_instance(2)
        report = verify_support_bound(StandardFormILP(a, b, (1, 1, 1)), 2, (2, 2, 2))
        assert report.passed
        assert report.min_support == 3
        assert report.bound == 3

    def test_network_flow_instances(self):
        # totally unimodular constraints: optimal support stays within m
        rng = random.Random(2023)
        from deltasvp.generators import complete_digraph_incidence

        t = complete_digraph_incidence(3, ordered=False).transpose()  # 3 x 3
        for _ in range(10):
            b = t.matvec([rng.randint(0, 2) for _ in range(3)])
            c = tuple(rng.randint(-2, 2) for _ in range(3))
            ilp_rows = [list(r) for r in t.entries[:-1]]  # drop a row: full row rank
            ilp = StandardFormILP(M(ilp_rows), b[:-1], c)
            report = verify_support_bound(ilp, 1, (4, 4, 4))
            assert report.passed

    def test_infeasible_is_vacuous(self):
        report = verify_support_bound(
            StandardFormILP(M([[2, 2]]), (3,), (1, 0)), 1, (1, 1)
        )
        assert report.passed
        assert report.min_support is None


class TestDeriveBox:
    def test_sparsity_boxes(self):
        a2, b2 = sparsity_instance(2)
        assert derive_box(a2, b2) == (2, 2, 1)
        a3, b3 = sparsity_instance(3)
        assert derive_box(a3, b3) == (2, 2, 2, 2, 3, 3, 1)

    def test_underivable(self):
        assert derive_box(M([[1, -1]]), (0,)) is None

    @pytest.mark.parametrize("b", [(3,), (3, 1, 7)], ids=["short", "long"])
    def test_right_side_length_must_match(self, b):
        """A b of another length than the row count is refused, not cut."""
        with pytest.raises(DimensionError, match="^right-hand side length must match row count$"):
            derive_box(M([[1, 1], [1, -1]]), b)

    @settings(max_examples=400)
    @given(equation_systems(4, 6))
    def test_matches_the_per_pair_reference(self, system):
        """One slack per row gives the bounds that recomputing it for
        every positive coefficient gives, None included."""
        entries, b = system
        assert derive_box(M(entries), tuple(b)) == propagated_box(entries, b)

    @settings(max_examples=100)
    @given(equation_systems(3, 3))
    def test_every_solution_lies_in_the_box(self, system):
        """Each nonnegative solution that a plain scan of a cube reaching
        past the box finds satisfies x <= box."""
        entries, b = system
        box = derive_box(M(entries), tuple(b))
        assume(box is not None and max(box) <= 20)
        reach = [max(box) + 2] * len(box)
        for x in ilp_optimizers(entries, b, [0] * len(box), reach):
            assert all(xi <= u for xi, u in zip(x, box))


class TestSparsityConstruction:
    def test_delta_two(self):
        report = verify_sparsity_construction(2)
        assert report.passed
        assert report.solutions == ((1, 1, 1),)
        assert report.support == 3 == report.expected_support
        assert report.totally_modular

    def test_delta_three(self):
        report = verify_sparsity_construction(3)
        assert report.passed
        assert report.solutions == (tuple([1] * 7),)
        assert report.support == 7 == report.expected_support

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            verify_sparsity_construction(4)


class TestRandomModularPolytopes:
    def test_face_dimensions_within_bound(self):
        rng = random.Random(31415)
        done = 0
        while done < 12:
            delta = rng.randint(1, 3)
            n = rng.randint(2, 3)
            m = n + rng.randint(0, 2)
            a = random_delta_modular(delta, m, n, rng.randrange(2**32))
            rows = list(a.entries) + [tuple(-x for x in row) for row in a.entries]
            stacked = M(rows)
            if max_abs_full_rank_subdet(stacked)[0] != delta:
                continue
            b = tuple(rng.randint(0, 3) for _ in range(2 * m))
            p = PolyhedronH(stacked, b)
            report = verify_face_dimension_bound(p, delta)
            assert report.passed
            if delta == 1:
                assert all(dim == 0 for _, dim in report.entries)
            done += 1
