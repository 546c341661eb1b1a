import random
from fractions import Fraction

import pytest

from toricdeg import (
    HPolytope,
    LatticePointSet,
    dilate,
    hull,
    is_delzant_smooth,
    is_normal,
    lattice_points,
    minkowski_sum,
    normalize_at_vertex,
    vertices,
)
from toricdeg.errors import (
    EmptyPolytopeError,
    LowerDimensionalError,
    NotIntegralError,
    UnboundedError,
)
from toricdeg.geometry import HalfSpace

from conftest import brute_force_decomposition, random_integral_polygon, unit_box


def fr(x):
    return Fraction(x)


def vset(p):
    return {tuple(v) for v in p.vertex_set()}


class TestVertices:
    def test_unit_square(self):
        sq = unit_box([1, 1])
        assert vset(sq) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_hirzebruch_trapezoid(self):
        # n=2 trapezoid with slant 2 and lengths (1, 5)
        p = HPolytope.from_inequalities(
            2, [[-1, 0, 0], [0, -1, 0], [1, 0, 1], [2, 1, 5]])
        assert vset(p) == {(0, 0), (1, 0), (1, 3), (0, 5)}

    def test_degenerate_point(self):
        p = HPolytope.from_inequalities(2, [[-1, 0, 0], [0, -1, 0], [1, 1, 0]])
        assert vset(p) == {(0, 0)}
        assert not p.is_full_dimensional()

    def test_unbounded(self):
        p = HPolytope.from_inequalities(2, [[-1, 0, 0], [0, -1, 0]])
        with pytest.raises(UnboundedError):
            vertices(p)

    def test_empty(self):
        p = HPolytope.from_inequalities(2, [[1, 0, 0], [-1, 0, -1], [0, 1, 1], [0, -1, 0]])
        with pytest.raises(EmptyPolytopeError):
            vertices(p)

    def test_empty_with_few_constraints(self):
        p = HPolytope.from_inequalities(2, [[1, 0, 0], [-1, 0, -1]])
        with pytest.raises(EmptyPolytopeError):
            vertices(p)


class TestHull:
    def test_standard_simplex(self):
        h = hull([(0, 0), (1, 0), (0, 1)])
        assert {(hs.normal, hs.rhs) for hs in h.halfspaces} == {
            ((-1, 0), fr(0)), ((0, -1), fr(0)), ((1, 1), fr(1))}

    def test_slide_image_trapezoid(self):
        pts = [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 0), (1, 1)]
        h = hull(pts)
        assert {(hs.normal, hs.rhs) for hs in h.halfspaces} == {
            ((-1, 0), fr(0)), ((0, -1), fr(0)), ((1, 0), fr(1)), ((4, 1), fr(5))}

    def test_collinear_flagged(self):
        h = hull([(0, 0), (0, 1), (0, 2)])
        assert not h.is_full_dimensional()
        assert h.affine_hull_dim() == 1
        assert vset(h) == {(0, 0), (0, 2)}

    def test_single_point(self):
        h = hull([(2, 3)])
        assert vset(h) == {(2, 3)}

    def test_empty_input(self):
        with pytest.raises(ValueError):
            hull([], 2)

    def test_round_trip(self, rng):
        for _ in range(12):
            p = random_integral_polygon(rng)
            q = hull(p.vertex_set(), 2)
            assert vset(q) == vset(p)
            # mutual implication: every vertex of one satisfies the other
            assert all(q.contains(v) for v in p.vertex_set())
            assert all(p.contains(v) for v in q.vertex_set())

    def test_3d_round_trip(self, rng):
        pts = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (2, 2, 2), (1, 1, 3)]
        p = hull(pts)
        assert vset(hull(p.vertex_set(), 3)) == vset(p)


class TestLatticePoints:
    def test_rectangle_count(self):
        r = hull([(0, 0), (1, 0), (1, 3), (0, 3)])
        pts = lattice_points(r)
        assert len(pts) == 8
        assert pts.points == tuple(sorted((a, b) for a in (0, 1) for b in range(4)))

    def test_square_nine(self):
        assert len(lattice_points(unit_box([2, 2]))) == 9

    def test_closed_boundary_semantics(self):
        # closure of the half-open corner simplex: boundary points included
        s = hull([(0, 0), (1, 0), (0, 1)])
        assert lattice_points(s).points == ((0, 0), (0, 1), (1, 0))

    def test_unbounded_error(self):
        p = HPolytope.from_inequalities(1, [[-1, 0]])
        with pytest.raises(UnboundedError):
            lattice_points(p)


class TestDilate:
    def test_identity(self):
        sq = unit_box([1, 1])
        assert dilate(sq, 1) == sq

    def test_square_by_three(self):
        assert vset(dilate(unit_box([1, 1]), 3)) == {(0, 0), (3, 0), (0, 3), (3, 3)}

    def test_trapezoid_scaling(self):
        p = HPolytope.from_inequalities(
            2, [[-1, 0, 0], [0, -1, 0], [1, 0, 1], [2, 1, 5]])
        assert vset(dilate(p, 2)) == {(0, 0), (2, 0), (2, 6), (0, 10)}

    def test_vertices_scale_elementwise(self, rng):
        for _ in range(6):
            p = random_integral_polygon(rng)
            m = rng.randint(2, 4)
            scaled = {tuple(m * x for x in v) for v in p.vertex_set()}
            assert vset(dilate(p, m)) == scaled


class TestNormality:
    def test_polygons_are_normal(self, rng):
        for _ in range(10):
            p = random_integral_polygon(rng)
            ok, witness = is_normal(p, 3)
            assert ok, witness

    def test_tall_simplex_fails(self):
        p = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)])
        ok, witness = is_normal(p, 2)
        assert not ok
        assert witness == (2, (1, 1, 1))
        # independent decomposition search confirms the counterexample
        base = list(lattice_points(p))
        assert not brute_force_decomposition((1, 1, 1), base, 2)
        assert (1, 1, 1) in lattice_points(dilate(p, 2))

    def test_dilated_simplex_passes(self):
        p = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)])
        ok, _ = is_normal(dilate(p, 2), 3)
        assert ok

    def test_requires_integral(self):
        p = hull([(0, 0), (Fraction(1, 2), 0), (0, 1)])
        with pytest.raises(NotIntegralError):
            is_normal(p, 2)

    def test_minkowski_inclusion_and_equivalence(self, rng):
        p = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)])
        base = lattice_points(p)
        sums = base
        for m in (2, 3):
            sums = minkowski_sum(sums, base)
            target = lattice_points(dilate(p, m)).as_set()
            assert sums.as_set() <= target
        assert is_normal(p, 3)[0] == (minkowski_sum(base, base).as_set()
                                      == lattice_points(dilate(p, 2)).as_set()
                                      and minkowski_sum(minkowski_sum(base, base),
                                                        base).as_set()
                                      == lattice_points(dilate(p, 3)).as_set())


class TestSmoothness:
    def test_boxes(self):
        assert is_delzant_smooth(unit_box([2, 3]))[0]
        assert is_delzant_smooth(unit_box([1, 1, 2]))[0]

    def test_hirzebruch_family(self):
        for a, lam in ((0, (1, 3)), (2, (1, 5)), (3, (2, 11))):
            p = HPolytope.from_inequalities(
                2, [[-1, 0, 0], [0, -1, 0], [1, 0, lam[0]], [a, 1, lam[1]]])
            assert is_delzant_smooth(p)[0]

    def test_non_smooth_triangle(self):
        p = hull([(0, 0), (2, 0), (0, 1)])
        ok, vertex = is_delzant_smooth(p)
        assert not ok
        assert vertex == (fr(0), fr(1))

    def test_lower_dimensional_rejected(self):
        with pytest.raises(LowerDimensionalError):
            is_delzant_smooth(hull([(0, 0), (0, 1)]))

    def test_unimodular_invariance(self, rng):
        maps = [((0, 1), (1, 0)), ((1, 1), (0, 1)), ((1, 0), (2, 1)),
                ((-1, 0), (0, -1)), ((1, -2), (0, -1))]
        for p in (unit_box([1, 2]), hull([(0, 0), (2, 0), (0, 1)])):
            verdict = is_delzant_smooth(p)[0]
            for m in maps:
                t = (rng.randint(-3, 3), rng.randint(-3, 3))
                q = p.affine_unimodular_image(m, t)
                assert is_delzant_smooth(q)[0] == verdict


class TestNormalizeAtVertex:
    def test_square_far_corner(self):
        sq = unit_box([1, 1])
        img, (m, t) = normalize_at_vertex(sq, (1, 1))
        assert img == sq
        assert m == ((-1, 0), (0, -1))

    def test_already_normalized(self):
        p = HPolytope.from_inequalities(
            2, [[-1, 0, 0], [0, -1, 0], [1, 0, 1], [2, 1, 5]])
        img, (m, t) = normalize_at_vertex(p, (0, 0))
        assert img == p
        assert m == ((1, 0), (0, 1))
        assert t == (fr(0), fr(0))

    def test_trapezoid_corner(self):
        from toricdeg.geometry import _edges_at_vertices
        p = hull([(0, 0), (1, 0), (1, 1), (0, 5)])
        img, (m, t) = normalize_at_vertex(p, (1, 1))
        origin = (fr(0), fr(0))
        assert origin in vset(img)
        # every edge at the new origin points along a positive axis direction
        for w in _edges_at_vertices(img)[origin]:
            nonzero = [i for i, x in enumerate(w) if x != 0]
            assert len(nonzero) == 1 and w[nonzero[0]] > 0

    def test_non_smooth_vertex_rejected(self):
        from toricdeg.errors import NotSmoothError
        p = hull([(0, 0), (2, 0), (0, 1)])
        with pytest.raises(NotSmoothError):
            normalize_at_vertex(p, (0, 1))


class TestEquality:
    def test_same_set_different_presentation(self):
        a = unit_box([1, 1])
        b = HPolytope.from_inequalities(
            2, [[-1, 0, 0], [0, -1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 2]])
        assert a == b

    def test_distinct(self):
        assert unit_box([1, 1]) != unit_box([1, 2])

    def test_hash_agrees_with_eq(self):
        a = unit_box([2, 2])
        b = HPolytope.from_inequalities(
            2, [[-1, 0, 0], [0, -1, 0], [1, 0, 2], [0, 1, 2], [1, 1, 5]])
        assert a == b
        assert hash(a) == hash(b)
        assert b in {a}

    def test_hash_of_unbounded_and_empty(self):
        ray = HPolytope.from_inequalities(1, [[-1, 0]])
        empty = HPolytope.from_inequalities(1, [[1, 0], [-1, -1]])
        assert ray in {HPolytope.from_inequalities(1, [[-2, 0]])}
        assert empty in {HPolytope.from_inequalities(1, [[1, 0], [-1, -1]])}
        assert ray != empty


class TestLatticePointSet:
    def test_membership_builds_one_set(self, monkeypatch):
        from toricdeg import geometry
        pts = LatticePointSet.make(2, [(x, y) for x in range(300) for y in range(300)])
        builds = []

        def counting(kind):
            def build(*args):
                if args and args[0] is pts.points:
                    builds.append(kind)
                return kind(*args)
            return build

        monkeypatch.setattr(geometry, "set", counting(set), raising=False)
        monkeypatch.setattr(geometry, "frozenset", counting(frozenset), raising=False)
        assert all((i, 2 * i) in pts for i in range(100))
        assert (300, 0) not in pts
        assert pts.as_set() == {(x, y) for x in range(300) for y in range(300)}
        assert len(builds) == 1

    def test_cache_ignored_by_eq_and_hash(self):
        a = LatticePointSet.make(1, [(0,), (1,)])
        b = LatticePointSet.make(1, [(1,), (0,)])
        assert (0,) in a
        assert a == b and hash(a) == hash(b)
