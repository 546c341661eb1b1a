"""Differential tests: fibre-scan lattice point enumeration and the
degree-capped normality check against the box-scan and uncapped oracles in
oracles.py, and the integer fibre kernel against the per-prefix scan.

Lattice points must agree on the exact point tuple, order included;
normality on the exact (ok, witness) pair; fibres on the exact
(prefix, a, b) sequence, every entry an int.
"""

import random
from fractions import Fraction

import pytest

from toricdeg import geometry, hull
from toricdeg.errors import EmptyPolytopeError, UnboundedError
from toricdeg.geometry import HPolytope, is_normal, lattice_fibres, lattice_points

from conftest import corner_simplex, random_integral_polygon, unit_box
from oracles import (
    is_empty,
    is_normal_oracle,
    lattice_fibres_oracle,
    lattice_points_oracle,
)


def rational(rng, lo=-5, hi=5):
    q = rng.choice((1, 2, 3, 4))
    return Fraction(rng.randint(lo * q, hi * q), q)


def assert_same_points(p):
    got = lattice_points(p)
    want = lattice_points_oracle(p)
    assert got.points == want.points, p.halfspaces
    return got


def random_lattice_hull(rng, dim, box, count):
    """Full-dimensional hull of random points of {0..box}^dim."""
    while True:
        pts = {tuple(rng.randint(0, box) for _ in range(dim)) for _ in range(count)}
        p = hull(sorted(pts), dim)
        if p.is_full_dimensional():
            return p


def reeve(r):
    """Reeve tetrahedron conv(0, e1, e2, (1, 1, r)): no lattice points but
    its vertices, not normal for r >= 2."""
    return hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, r)])


class TestLatticePointsAgainstOracle:
    def test_rational_hulls_dims_1_to_4(self):
        rng = random.Random(6101)
        for dim, cases in ((1, 40), (2, 120), (3, 60), (4, 15)):
            for _ in range(cases):
                pts = [tuple(rational(rng) for _ in range(dim))
                       for _ in range(rng.randint(dim + 1, dim + 5))]
                assert_same_points(hull(pts, dim))

    def test_lower_dimensional_hulls(self):
        rng = random.Random(6102)
        for _ in range(60):
            dim = rng.randint(2, 4)
            span = rng.randint(0, dim - 1)
            x0 = tuple(rational(rng) for _ in range(dim))
            dirs = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(span)]
            pts = [tuple(x + sum(t * d[i] for t, d in zip(ts, dirs))
                         for i, x in enumerate(x0))
                   for ts in ([rational(rng, 0, 2) for _ in dirs] for _ in range(span + 3))]
            p = hull(pts, dim)
            assert not p.is_full_dimensional()
            assert_same_points(p)
        # integral points, segments and facets of boxes
        assert assert_same_points(hull([(1, 2, 3)])).points == ((1, 2, 3),)
        assert assert_same_points(hull([(0, 0), (4, 2)])).points == (
            (0, 0), (2, 1), (4, 2))
        assert len(assert_same_points(hull([(0, 0, 1), (2, 0, 1), (0, 3, 1)]))) == 7

    def test_prefixes_with_empty_interval(self):
        third = Fraction(1, 3)
        sliver = hull([(0, 0), (4, 1), (4, 1 + third), (0, third)])
        pts = assert_same_points(sliver)
        assert pts.points == ((0, 0), (3, 1), (4, 1))     # x = 1, 2 are empty
        # a 3-d slab tilted against the prefix box
        tilted = hull([(0, 0, 0), (5, 0, 2), (0, 5, 2), (5, 5, 4),
                       (0, 0, third), (5, 0, 2 + third), (0, 5, 2 + third),
                       (5, 5, 4 + third)])
        prefixes = {q[:2] for q in assert_same_points(tilted)}
        assert 0 < len(prefixes) < 36      # the 6 x 6 prefix box has empty slabs
        # no lattice point at all
        empty = hull([(third, third), (2 * third, third), (third, 2 * third)])
        assert len(assert_same_points(empty)) == 0

    def test_fractional_right_hand_sides(self):
        rng = random.Random(6103)
        for _ in range(40):
            dim = rng.randint(2, 3)
            rows = []
            for i in range(dim):
                e = [0] * dim
                e[i] = -1
                rows.append(e + [rational(rng, 0, 2)])
            rows.append([rng.randint(1, 3) for _ in range(dim)] + [rational(rng, 3, 6)])
            last = rng.choice((-1, 1))
            rows.append([rng.randint(-2, 2) for _ in range(dim - 1)]
                        + [last, rational(rng, 1, 5)])
            p = HPolytope.from_inequalities(dim, rows)
            if not is_empty(p):
                assert_same_points(p)


def random_h_polytope(rng, dim, width, flat):
    """A rational box, often reaching below 0, cut by up to three random
    rows (last entry 0 for some); with `flat`, also one equality pair
    through a rational point of the box."""
    rows, point = [], []
    for i in range(dim):
        lo = rational(rng, -3, 1)
        hi = lo + rational(rng, 0, width)
        e = [int(j == i) for j in range(dim)]
        rows += [e + [hi], [-x for x in e] + [-lo]]
        point.append(lo + (hi - lo) * Fraction(rng.randint(0, 4), 4))
    for _ in range(rng.randint(0, 3)):
        normal = [rng.randint(-2, 2) for _ in range(dim)]
        if dim > 1 and rng.random() < 0.5:
            normal[-1] = 0
        if any(normal):
            rows.append(normal + [sum(a * x for a, x in zip(normal, point))
                                  + rational(rng, 0, 2)])
    if flat:
        normal = [rng.randint(-2, 2) for _ in range(dim)]
        normal[rng.randrange(dim)] = rng.choice((-1, 1))
        r = sum(a * x for a, x in zip(normal, point))
        rows += [normal + [r], [-a for a in normal] + [-r]]
    return HPolytope.from_inequalities(dim, rows)


class TestFibreKernelAgainstOracle:
    def test_rational_h_polytopes_dims_1_to_5(self):
        rng = random.Random(6106)
        seen = dict.fromkeys(("zero last entry", "negative", "fractional", "flat"), 0)
        for dim, width, cases in ((1, 4, 60), (2, 5, 120), (3, 3, 80), (4, 2, 40),
                                  (5, 2, 15)):
            for case in range(cases):
                flat = dim > 1 and case % 4 == 0
                p = random_h_polytope(rng, dim, width, flat)
                if is_empty(p):
                    continue
                verts = p.vertex_set()
                seen["zero last entry"] += any(h.normal[-1] == 0 and sum(map(abs, h.normal)) > 1
                                               for h in p.halfspaces)
                seen["negative"] += any(x < 0 for v in verts for x in v)
                seen["fractional"] += not p.is_integral() and any(
                    h.rhs.denominator > 1 for h in p.halfspaces)
                seen["flat"] += not p.is_full_dimensional()
                for m in (1, 2, 3, 4):
                    got = list(lattice_fibres(p, m))
                    assert got == list(lattice_fibres_oracle(p, m)), (p.halfspaces, m)
                    assert all(type(x) is int for prefix, a, b in got
                               for x in prefix + (a, b)), got
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("rows, error", [
        ([[1, 0, 0], [-1, 0, -1], [0, 1, 1], [0, -1, 0]], EmptyPolytopeError),
        ([[-1, 0, 0], [0, -1, 0], [0, 1, 1]], UnboundedError),
    ])
    def test_empty_and_unbounded_raise_alike(self, rows, error):
        p = HPolytope.from_inequalities(2, rows)
        for fibres in (lattice_fibres, lattice_fibres_oracle):
            with pytest.raises(error):
                list(fibres(p, 2))


class TestNormalityAgainstOracle:
    def test_random_lattice_hulls_3d_4d(self):
        rng = random.Random(6104)
        verdicts = []
        for dim, box, count, cases in ((3, 3, 4, 30), (3, 4, 5, 30), (4, 2, 5, 12),
                                       (4, 3, 5, 12)):
            for _ in range(cases):
                p = random_lattice_hull(rng, dim, box, count)
                want = is_normal_oracle(p, 4)
                assert is_normal(p, 4) == want, p.vertex_set()
                verdicts.append(want[0])
        assert verdicts.count(False) >= 10 and verdicts.count(True) >= 10

    def test_reeve_tetrahedra(self):
        for r in range(1, 7):
            p = reeve(r)
            assert is_normal(p, 4) == is_normal_oracle(p, 4)
            assert is_normal(p, 4) == ((True, None) if r == 1 else (False, (2, (1, 1, 1))))
            assert is_normal(geometry.dilate(p, 2), 4) == (True, None)

    def test_smooth_bodies_agree(self):
        for p in (unit_box([2, 1, 1]), corner_simplex(3, 2), corner_simplex(4, 1)):
            assert is_normal(p, 4) == is_normal_oracle(p, 4) == (True, None)

    def test_polygons_skip_enumeration(self, monkeypatch):
        rng = random.Random(6105)
        polygons = [random_integral_polygon(rng) for _ in range(5)]

        def refuse(p):
            raise AssertionError("polygons need no lattice points")

        monkeypatch.setattr(geometry, "lattice_points", refuse)
        for p in polygons:
            assert is_normal(p, 5) == (True, None)
