import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deltasvp import polyhedra
from deltasvp.errors import (
    BudgetExceededError,
    ContainmentError,
    DimensionError,
    DomainError,
    EmptyPolyhedronError,
    RankError,
    UnboundedPolyhedronError,
)
from deltasvp.generators import (
    lower_bound_instance,
    random_delta_modular,
    random_full_row_rank,
    sparsity_instance,
)
from deltasvp.linalg import IntMatrix, gcd_full_rank_subdets, max_abs_full_rank_subdet, rank
from deltasvp.polyhedra import (
    PolyhedronH,
    StandardFormILP,
    derive_box,
    integer_hull_vertices,
    integer_points,
    kernel_lattice_basis,
    min_face_dimension,
    solve_standard_form_ilp,
    verify_face_dimension_bound,
    verify_kernel_identity,
    verify_sparsity_construction,
    verify_support_bound,
    vertices_of_polyhedron,
)

from oracles import (
    convex_hull_vertices,
    fraction_rank,
    ilp_optimizers,
    polyhedron_vertices,
    polytope_points,
)

M = IntMatrix.from_rows


def box_polyhedron(n, radius=1):
    rows = []
    for i in range(n):
        unit = [0] * n
        unit[i] = 1
        rows.append(tuple(unit))
        rows.append(tuple(-x for x in unit))
    return PolyhedronH(M(rows), tuple([radius] * 2 * n))


UNIT_SQUARE = PolyhedronH(M([[1, 0], [0, 1], [-1, 0], [0, -1]]), (1, 1, 0, 0))


class TestVertices:
    def test_unit_square(self):
        vertices = vertices_of_polyhedron(UNIT_SQUARE)
        assert len(vertices) == 4
        assert (Fraction(1), Fraction(1)) in vertices

    def test_simplex(self):
        p = PolyhedronH(M([[1, 1], [-1, 0], [0, -1]]), (1, 0, 0))
        assert vertices_of_polyhedron(p) == [
            (Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)),
        ]

    def test_fractional_vertices(self):
        p = PolyhedronH(M([[2, 0], [-2, 0], [0, 1], [0, -1]]), (1, 1, 1, 1))
        vertices = vertices_of_polyhedron(p)
        assert (Fraction(1, 2), Fraction(1)) in vertices

    def test_unbounded_rejected(self):
        with pytest.raises(UnboundedPolyhedronError):
            vertices_of_polyhedron(PolyhedronH(M([[1, 0], [0, 1]]), (1, 1)))

    def test_empty_rejected(self):
        p = PolyhedronH(M([[1, 0], [-1, 0], [0, 1], [0, -1]]), (-1, 0, 1, 1))
        with pytest.raises(EmptyPolyhedronError):
            vertices_of_polyhedron(p)

    def test_dimension_cap(self):
        with pytest.raises(DimensionError):
            vertices_of_polyhedron(box_polyhedron(6))

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            vertices_of_polyhedron(box_polyhedron(3), budget=5)

    def test_budget_covers_the_vertex_scan_only(self):
        """Boundedness no longer scans the C(m + 2n, n) subsets of the cone
        box, so a budget of C(m, n) = 6 < C(8, 2) = 28 is enough."""
        assert vertices_of_polyhedron(box_polyhedron(2), budget=6) == [
            (Fraction(x), Fraction(y)) for x in (-1, 1) for y in (-1, 1)
        ]

    def test_boundedness_is_one_program(self, monkeypatch):
        calls = []
        real = polyhedra._has_nonneg_combination

        def counted(columns, rhs):
            calls.append(rhs)
            return real(columns, rhs)

        monkeypatch.setattr(polyhedra, "_has_nonneg_combination", counted)
        polyhedra._assert_bounded(box_polyhedron(3))
        assert calls == [[0, 0, 0]]

    def test_positive_zero_combination_below_full_rank_is_unbounded(self):
        """{x_1 <= 1, -x_1 <= 0} in R^2: the rows sum to 0 with positive
        weights, but they span only a line, so x_2 is free."""
        p = PolyhedronH(M([[1, 0], [-1, 0]]), (1, 0))
        with pytest.raises(UnboundedPolyhedronError):
            polyhedra._assert_bounded(p)

    def test_matches_fraction_reference(self):
        """Vertex list or error type against the Fraction solve of every row
        subset, with boundedness read off the cone box [A; I; -I].  Half the
        draws contain the rows e_1, ..., e_n, -(e_1 + ... + e_n), which
        bound the polyhedron, so all three outcomes come up often."""
        outcomes = set()

        @settings(max_examples=100, deadline=None)
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
            expected = polyhedron_vertices(entries, b)
            try:
                got = vertices_of_polyhedron(PolyhedronH(M(entries), tuple(b)))
            except UnboundedPolyhedronError:
                got = "unbounded"
            except EmptyPolyhedronError:
                got = "empty"
            assert got == expected
            outcomes.add(expected if isinstance(expected, str) else "vertices")

        check()
        assert outcomes == {"vertices", "unbounded", "empty"}


class TestIntegerPoints:
    def test_unit_square(self):
        assert len(integer_points(UNIT_SQUARE)) == 4

    def test_symmetric_box(self):
        assert len(integer_points(box_polyhedron(2))) == 9

    def test_small_simplex(self):
        p = PolyhedronH(M([[2, 2], [-1, 0], [0, -1]]), (3, 0, 0))
        assert integer_points(p) == [(0, 0), (0, 1), (1, 0)]

    @settings(max_examples=80, deadline=None)
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
        assert integer_points(PolyhedronH(M(entries), tuple(b))) == polytope_points(
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
        assert integer_points(p) == [(0, 0)]


class TestIntegerHull:
    def test_box_corners(self):
        assert integer_hull_vertices(box_polyhedron(2)) == [
            (-1, -1),
            (-1, 1),
            (1, -1),
            (1, 1),
        ]

    def test_collinear_segment_keeps_endpoints(self):
        p = PolyhedronH(
            M([[1, -1], [-1, 1], [1, 0], [-1, 0]]), (0, 0, 2, 0)
        )  # segment from (0,0) to (2,2)
        assert integer_hull_vertices(p) == [(0, 0), (2, 2)]

    def test_shaved_simplex(self):
        p = PolyhedronH(M([[2, 2], [-1, 0], [0, -1]]), (3, 0, 0))
        assert integer_hull_vertices(p) == [(0, 0), (0, 1), (1, 0)]

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
            assert integer_hull_vertices(p) == convex_hull_2d(points)
            done += 1

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_caratheodory_oracle(self, data):
        """n = 1..4: a box (many interior midpoints; [-1, 1] x [0, 1]^3 in
        4-D) cut by random half-spaces through or beyond the origin; in 3-D
        it may be flattened onto a plane or a line through the origin by
        pairs a x <= 0, -a x <= 0."""
        n = data.draw(st.integers(1, 4))
        radius = data.draw(st.integers(1, {1: 3, 2: 2, 3: 1, 4: 1}[n]))
        box = box_polyhedron(n, radius)
        lows = [radius] * n if n < 4 else [1, 0, 0, 0]
        row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
        cuts = data.draw(st.lists(row, max_size=3))
        bounds = data.draw(st.lists(st.integers(0, 4), min_size=len(cuts), max_size=len(cuts)))
        flats = data.draw(st.lists(row, max_size=2)) if n == 3 else []
        entries = [list(r) for r in box.a.entries] + cuts + flats + [[-x for x in f] for f in flats]
        b = [x for low in lows for x in (radius, low)] + bounds + [0] * 2 * len(flats)
        p = PolyhedronH(M(entries), tuple(b))
        assert integer_hull_vertices(p) == convex_hull_vertices(integer_points(p))

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
        assert integer_hull_vertices(p) == convex_hull_vertices(integer_points(p)) == expected


class TestHullWork:
    """The work integer_hull_vertices saves, counted on the hull LPs (the
    phase-1 programs of length n + 1; the boundedness programs have length
    n)."""

    @staticmethod
    def hull_lps(monkeypatch, p):
        calls = []
        real = polyhedra._has_nonneg_combination

        def counted(columns, rhs):
            if len(rhs) == p.dim + 1:
                calls.append((tuple(rhs[:-1]), len(columns)))
            return real(columns, rhs)

        monkeypatch.setattr(polyhedra, "_has_nonneg_combination", counted)
        return integer_hull_vertices(p), calls

    def test_midpoints_run_no_lp(self, monkeypatch):
        hull, calls = self.hull_lps(monkeypatch, box_polyhedron(2))
        assert hull == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        assert [point for point, _ in calls] == hull

    def test_proved_points_leave_later_lps(self, monkeypatch):
        """Lattice points (0,0), (1,1), (1,2), (2,1): (1,1) is interior but
        no midpoint, so an LP drops it and the two LPs after it see two
        columns, not three."""
        p = PolyhedronH(M([[1, -2], [-2, 1], [1, 1]]), (0, 0, 3))
        hull, calls = self.hull_lps(monkeypatch, p)
        assert hull == [(0, 0), (1, 2), (2, 1)]
        assert calls == [((0, 0), 3), ((1, 1), 3), ((1, 2), 2), ((2, 1), 2)]


class TestMinFaceDimension:
    def test_corner(self):
        assert min_face_dimension(box_polyhedron(2), (1, 1)) == 0

    def test_edge_midpoint(self):
        assert min_face_dimension(box_polyhedron(2), (1, 0)) == 1

    def test_interior(self):
        assert min_face_dimension(box_polyhedron(2), (0, 0)) == 2

    def test_outside_rejected(self):
        with pytest.raises(ContainmentError):
            min_face_dimension(box_polyhedron(2), (3, 0))

    def test_wrong_length_rejected_first(self):
        # (3, 0, 0) would also lie outside; the length is checked first
        with pytest.raises(DimensionError, match="^point dimension mismatch$"):
            min_face_dimension(box_polyhedron(2), (3, 0, 0))

    def test_vertex_iff_dimension_zero(self):
        p = PolyhedronH(M([[2, 2], [-1, 0], [0, -1]]), (3, 0, 0))
        vertices = set(vertices_of_polyhedron(p))
        for point in integer_points(p):
            expected = tuple(Fraction(x) for x in point) in vertices
            assert (min_face_dimension(p, point) == 0) == expected


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
        assert gcd_full_rank_subdets(w.transpose()) == 1

    def test_random_bases_are_primitive(self):
        rng = random.Random(88)
        for _ in range(30):
            m = rng.randint(1, 3)
            n = rng.randint(m + 1, 6)
            a = random_full_row_rank(rng, m, n, -9, 9)
            w = kernel_lattice_basis(a)
            assert w.shape == (n, n - m)
            assert all(all(x == 0 for x in row) for row in a.matmul(w).entries)
            assert gcd_full_rank_subdets(w.transpose()) == 1

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
            a = random_full_row_rank(rng, 2, 4, -9, 9)
            assert verify_kernel_identity(a)

    def test_square_is_trivial(self):
        assert verify_kernel_identity(IntMatrix.identity(3))

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

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_plain_scan(self, data):
        """The whole optimizer list against a plain scan of the box, on
        programs made feasible by a point of the box."""
        m = data.draw(st.integers(1, 2))
        n = data.draw(st.integers(m, 4))
        row = st.lists(st.integers(-2, 3), min_size=n, max_size=n)
        entries = data.draw(st.lists(row, min_size=m, max_size=m))
        assume(fraction_rank(entries) == m)
        box = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        x0 = [data.draw(st.integers(0, u)) for u in box]
        b = tuple(sum(a * x for a, x in zip(r, x0)) for r in entries)
        c = tuple(data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
        optimizers = solve_standard_form_ilp(StandardFormILP(M(entries), b, c), box)
        assert optimizers == ilp_optimizers(entries, b, c, box)

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


class TestSupportBound:
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
