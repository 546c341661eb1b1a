"""Differential tests: the double-description kernel against the slow
subset-enumeration oracles in oracles.py.

Hulls must agree on the exact canonical halfspace tuple, vertex enumeration
on the exact vertex tuple or on the exception class raised, the boundedness
test on its verdict, emptiness with Fourier-Motzkin feasibility (also for
systems whose homogenized cone is not pointed), and Delzant smoothness
(tangent-cone rays against the pairwise edge scan) on the (verdict, vertex)
pair or the exception class.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from toricdeg import hull, is_delzant_smooth, linalg
from toricdeg.bott import bott_polytope
from toricdeg.errors import EmptyPolytopeError, LowerDimensionalError, UnboundedError
from toricdeg.geometry import HalfSpace, HPolytope

from conftest import random_bott_hypercube
from oracles import (
    affine_unimodular_image,
    flat_hull_oracle,
    hull_oracle,
    is_delzant_smooth_oracle,
    is_empty,
    recession_trivial,
    vertex_set_oracle,
)


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

    def test_flat_hulls_match_greedy_basis(self):
        # The reduced rows of the differences and a greedy subset of them
        # span the same directions, so the lifted facets agree exactly.
        rng = random.Random(2207)
        for t in range(400):
            dim = 2 + t % 4
            k = rng.randint(0, dim - 1)
            x0, *dirs = random_points(rng, dim, k + 1)
            pts = [tuple(x + sum(c * d[i] for c, d in zip(coefs, dirs))
                         for i, x in enumerate(x0))
                   for coefs in (random_points(rng, k, 1)[0]
                                 for _ in range(rng.randint(1, k + 5)))]
            got = hull(pts, dim)
            assert not got.is_full_dimensional()
            assert got.halfspaces == flat_hull_oracle(pts, dim).halfspaces, pts


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


class TestEmptinessAndBoundednessAgainstFM:
    def test_low_rank_systems(self):
        # Normals drawn mostly from a random subspace of rank < dim leave a
        # lineality space; FM decides feasibility on its own.
        rng = random.Random(2231)
        seen = Counter()
        for t in range(2000):
            dim = 1 + t % 4
            rank = rng.randint(1, dim - 1) if dim > 1 and rng.random() < 0.6 else dim
            basis = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rank)]
            rows = []
            for _ in range(rng.randint(1, dim + 3)):
                normal = [sum(rng.randint(-2, 2) * b[i] for b in basis) for i in range(dim)]
                if not any(normal):
                    normal = basis[0] if any(basis[0]) else [1] + [0] * (dim - 1)
                rows.append(normal + [rational(rng, -4, 4)])

            def make():         # fresh: each entry point fills the cache alone
                return HPolytope.from_inequalities(dim, rows)

            pointed = linalg.mat_rank([h.normal for h in make().halfspaces]) == dim
            feasible = linalg.fm_feasible([(h.normal, h.rhs) for h in make().halfspaces], dim)
            bounded = recession_trivial(make())
            assert is_empty(make()) == (not feasible), rows
            assert make().is_bounded() == bounded, rows
            got = outcome(HPolytope.vertex_set, make())
            want = EmptyPolytopeError if not feasible else UnboundedError if not bounded else tuple
            assert (tuple if isinstance(got, tuple) else got) is want, rows
            seen[pointed, want] += 1
        assert sum(n for (pointed, _), n in seen.items() if not pointed) >= 500, seen
        assert min(seen[False, e] for e in (UnboundedError, EmptyPolytopeError)) >= 80, seen
        assert min(seen[True, e] for e in (tuple, UnboundedError, EmptyPolytopeError)) >= 50, seen


def smoothness(fn, p):
    try:
        return fn(p)
    except (UnboundedError, LowerDimensionalError) as exc:
        return type(exc)


def random_unimodular(rng, dim):
    """Integer matrix of determinant +-1: shears, a row shuffle, a sign."""
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(3):
        i, j = rng.sample(range(dim), 2)
        k = rng.randint(-2, 2)
        m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    rng.shuffle(m)
    if rng.random() < 0.5:
        m[0] = [-x for x in m[0]]
    return tuple(map(tuple, m))


def with_tight_redundant_row(p, rng):
    """p plus the sum of two rows tight at one vertex: redundant, and tight
    at that vertex (and along the face the two rows share)."""
    v = rng.choice(p.vertex_set())
    tight = [h for h in p.halfspaces if h.value(v) == h.rhs]
    g, h = rng.sample(tight, 2)
    normal = tuple(a + b for a, b in zip(g.normal, h.normal))
    if not any(normal):
        return p
    return HPolytope(p.dim, p.halfspaces + (HalfSpace.make(normal, g.rhs + h.rhs),))


class TestSmoothnessAgainstOracle:
    def check(self, p, rng=None):
        """Compare on p and, with an rng, on an affine unimodular image of p;
        return the verdicts seen."""
        polys = [p]
        if rng is not None:
            t = tuple(rational(rng, -3, 3) for _ in range(p.dim))
            polys.append(affine_unimodular_image(p, random_unimodular(rng, p.dim), t))
        seen = set()
        for q in polys:
            got = smoothness(is_delzant_smooth, q)
            assert got == smoothness(is_delzant_smooth_oracle, q), q.halfspaces
            seen.add(got if isinstance(got, type) else got[0])
        return seen

    def test_random_hulls(self):
        rng = random.Random(2221)
        seen = set()
        for t in range(150):
            dim = 2 + t % 3
            count = rng.randint(dim + 1, dim + 5)
            if rng.random() < 0.7:
                pts = [tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(count)]
            else:
                pts = random_points(rng, dim, count)
            p = hull(pts)
            if p.is_full_dimensional() and rng.random() < 0.5:
                p = with_tight_redundant_row(p, rng)
            seen |= self.check(p, rng)
        assert {True, False, LowerDimensionalError} <= seen

    def test_redundant_rows_tight_at_a_vertex(self):
        rng = random.Random(2222)
        seen = set()
        for t in range(40):
            dim = 2 + t % 3
            pts = [tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(dim + 4)]
            p = hull(pts)
            if not p.is_full_dimensional():
                continue
            q = with_tight_redundant_row(with_tight_redundant_row(p, rng), rng)
            assert is_delzant_smooth(q) == is_delzant_smooth(p)
            seen |= self.check(q, rng)
        assert {True, False} <= seen
        # the unit square with its diagonal row x + y <= 2 tight at (1, 1)
        square = [[-1, 0, 0], [0, -1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 2]]
        assert self.check(HPolytope.from_inequalities(2, square)) == {True}

    def test_non_simple_vertices(self):
        pyramid = hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)])
        octahedron = hull([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                           (0, 0, 1), (0, 0, -1)])
        cross4 = hull([tuple(s * int(i == j) for j in range(4))
                       for i in range(4) for s in (1, -1)])
        rng = random.Random(2223)
        for p in (pyramid, octahedron, cross4):
            assert self.check(p, rng) == {False}
        # every base corner has three edges of determinant +-1; the apex has four
        assert is_delzant_smooth(pyramid) == (False, (1, 1, 1))
        assert is_delzant_smooth(octahedron) == (False, (-1, 0, 0))

    def test_bott_cubes(self):
        rng = random.Random(2224)
        for t in range(30):
            b = random_bott_hypercube(rng, 2 + t % 3, entry_bound=2, lam_bound=4)
            assert self.check(bott_polytope(b), rng) == {True}

    def test_errors_keep_their_class(self):
        quadrant = HPolytope.from_inequalities(2, [[-1, 0, 0], [0, -1, 0]])
        wedge = HPolytope.from_inequalities(
            3, [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [1, 1, 0, 4]])
        for p in (quadrant, wedge):
            assert self.check(p) == {UnboundedError}
        for pts in ([(0, 0), (0, 1)], [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
                    [(0, 0, 0, 0), (1, 1, 1, 1)]):
            assert self.check(hull(pts)) == {LowerDimensionalError}
