"""Differential tests: the double-description kernel against the slow
subset-enumeration oracles in oracles.py.

Hulls must agree on the exact canonical halfspace tuple, vertex enumeration
on the exact vertex tuple or on the exception class raised, and the
boundedness test on its verdict.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from toricdeg import hull
from toricdeg.errors import EmptyPolytopeError, UnboundedError
from toricdeg.geometry import HPolytope

from oracles import hull_oracle, recession_trivial, vertex_set_oracle


def rational(rng, lo=-6, hi=6):
    q = rng.choice((1, 1, 2, 3))
    return Fraction(rng.randint(lo * q, hi * q), q)


def random_points(rng, dim, count):
    return [tuple(rational(rng) for _ in range(dim)) for _ in range(count)]


def assert_same_hull(pts, dim=None):
    got = hull(pts, dim)
    want = hull_oracle(pts, dim)
    assert got.halfspaces == want.halfspaces, pts


def outcome(fn, p):
    try:
        return fn(p)
    except (UnboundedError, EmptyPolytopeError) as exc:
        return type(exc)


def assert_same_vertices(dim, rows):
    # Fresh objects per call: both results are cached on the polytope.
    def make():
        return HPolytope.from_inequalities(dim, rows)
    assert outcome(HPolytope.vertex_set, make()) == outcome(vertex_set_oracle, make()), rows
    assert make().is_bounded() == recession_trivial(make()), rows


class TestHullAgainstOracle:
    def test_random_2d_rational(self):
        rng = random.Random(2201)
        for _ in range(300):
            assert_same_hull(random_points(rng, 2, rng.randint(3, 12)))

    def test_random_3d_rational(self):
        rng = random.Random(2202)
        for _ in range(150):
            assert_same_hull(random_points(rng, 3, rng.randint(4, 10)))

    def test_random_4d_rational(self):
        rng = random.Random(2203)
        for _ in range(20):
            assert_same_hull(random_points(rng, 4, rng.randint(5, 8)))

    def test_degenerate_4d(self):
        # In dimension 4 and up, two candidate facets can share D - 2 points
        # without sharing a ridge; only the zero-set adjacency test tells.
        assert_same_hull([p for p in product(range(3), repeat=4) if sum(p) <= 2])
        assert_same_hull(list(product((0, 1), repeat=4)))
        assert_same_hull([tuple(s if j == i else 0 for j in range(4))
                          for i in range(4) for s in (1, -1)])
        rng = random.Random(2207)
        grid = list(product(range(3), repeat=4))
        for _ in range(30):
            assert_same_hull(rng.sample(grid, rng.randint(6, 9)))

    def test_one_dimensional(self):
        rng = random.Random(2204)
        for _ in range(20):
            assert_same_hull(random_points(rng, 1, rng.randint(1, 5)), 1)

    def test_many_points_on_one_facet(self):
        # Lattice grids put many points on every facet, so most DD steps
        # add a row that is tight on several current rays.
        assert_same_hull([(x, y) for x in range(5) for y in range(4)])
        assert_same_hull([(x, y, z) for x, y, z in product(range(3), range(3), range(2))])
        square = [(x, y, 0) for x in range(4) for y in range(4)]
        assert_same_hull(square + [(1, 1, 2)])
        assert_same_hull(square + [(0, 0, 1), (3, 3, 1), (Fraction(3, 2), 0, 1)])
        edge = [(Fraction(k, 3), 0) for k in range(10)]
        assert_same_hull(edge + [(0, 2), (3, 1)])
        simplex = [p for p in product(range(4), repeat=3) if sum(p) <= 3]
        assert_same_hull(simplex)

    def test_duplicate_points(self):
        rng = random.Random(2205)
        for _ in range(40):
            pts = random_points(rng, rng.choice((2, 3)), 5)
            assert_same_hull(pts + pts[:3] + [tuple(reversed(pts[0]))])

    def test_lower_dimensional(self):
        rng = random.Random(2206)
        assert_same_hull([(2, 3)])
        assert_same_hull([(1, 2, 3)])
        for _ in range(30):
            # collinear in 2-d and 3-d, coplanar in 3-d
            a, d = random_points(rng, 2, 2)
            assert_same_hull([tuple(x + k * y for x, y in zip(a, d)) for k in range(4)], 2)
            a, d = random_points(rng, 3, 2)
            assert_same_hull([tuple(x + k * y for x, y in zip(a, d)) for k in (0, 1, 3)], 3)
            a, d, e = random_points(rng, 3, 3)
            plane = [tuple(x + s * y + t * z for x, y, z in zip(a, d, e))
                     for s, t in ((0, 0), (1, 0), (0, 1), (2, 3), (Fraction(1, 2), 1))]
            assert_same_hull(plane, 3)


class TestVerticesAgainstOracle:
    def test_random_systems(self):
        rng = random.Random(2211)
        for _ in range(250):
            dim = rng.choice((2, 2, 3))
            rows = []
            for _ in range(rng.randint(1, 7)):
                normal = [rng.randint(-3, 3) for _ in range(dim)]
                if not any(normal):
                    normal[0] = 1
                rows.append(normal + [rational(rng, -4, 8)])
            if rng.random() < 0.5:
                for i in range(dim):
                    e = [0] * dim
                    e[i] = 1
                    rows.append(e + [rng.randint(1, 6)])
                    rows.append([-x for x in e] + [rng.randint(1, 6)])
            assert_same_vertices(dim, rows)

    def test_redundant_and_duplicate_rows(self):
        box = [[-1, 0, 0], [0, -1, 0], [1, 0, 2], [0, 1, 3]]
        assert_same_vertices(2, box + [[1, 1, 5]])
        assert_same_vertices(2, box + [[2, 0, 4], [1, 0, 7], [3, 3, 20]])
        assert_same_vertices(2, box + [[1, 1, 5], [1, 1, 6], [-1, -1, 0]])
        cube = [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0],
                [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
        assert_same_vertices(3, cube + [[1, 1, 1, 3], [1, 1, 0, 2], [2, 2, 2, 6]])
        # a tight redundant row through a vertex (degenerate vertex)
        assert_same_vertices(3, cube + [[1, 1, 1, 3], [1, 1, 0, 2], [1, 0, 1, 2]])

    def test_unbounded(self):
        assert_same_vertices(2, [[-1, 0, 0], [0, -1, 0]])
        assert_same_vertices(2, [[-1, 0, 0], [0, -1, 0], [1, -1, 2]])
        assert_same_vertices(3, [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [1, 1, 0, 4]])

    def test_empty(self):
        assert_same_vertices(2, [[1, 0, 0], [-1, 0, -1], [0, 1, 1], [0, -1, 0]])
        assert_same_vertices(1, [[1, 0], [-1, -1]])
        # empty with a nontrivial recession cone
        assert_same_vertices(2, [[1, 0, 0], [-1, 0, -1], [0, -1, 0]])
        assert_same_vertices(3, [[1, 1, 1, -1], [-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0]])

    def test_not_pointed(self):
        assert_same_vertices(2, [[1, 0, 1], [-1, 0, 0]])             # strip
        assert_same_vertices(2, [[1, 0, 0], [-1, 0, -1]])            # empty strip
        assert_same_vertices(2, [[1, 1, 3]])                         # halfplane
        assert_same_vertices(3, [[1, 0, 0, 1], [0, 1, 0, 1], [-1, -1, 0, 0]])
        assert_same_vertices(3, [[1, 1, 0, 0], [-1, -1, 0, -1]])

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_boxes_and_simplices(self, dim):
        box = []
        for i in range(dim):
            e = [0] * dim
            e[i] = 1
            box.append(e + [i + 1])
            box.append([-x for x in e] + [0])
        assert_same_vertices(dim, box)
        simplex = [row for row in box if row[-1] == 0] + [[1] * dim + [Fraction(5, 2)]]
        assert_same_vertices(dim, simplex)
