"""Differential tests: the line-fibre slide and move verification against
the point-set oracles in oracles.py.

The fibre scan at level m must expand to the box-scanned lattice points of
m*P; the slide level read off the fibres in line coordinates must equal the
slide of those points, or raise the same ValueError when they leave the
orthant; and `verify_degeneration_move` must return the very
`MoveVerification` that the per-level set comparison returns, failing
levels' detail included.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from toricdeg import bott, hull
from toricdeg.bott import BottData, bott_polytope, verify_degeneration_move
from toricdeg.errors import MoveError
from toricdeg.geometry import HPolytope, dilate, lattice_fibres
from toricdeg.valuation import SlideDirection, line_coordinates, slide_level

from conftest import random_bott_hypercube
from oracles import (
    lattice_points_oracle,
    level_verdicts_oracle,
    slide_oracle,
    verify_degeneration_move_oracle,
)


def random_lattice_body(rng, dim, box, shift):
    """Hull of random points of {shift..shift + box}^dim; mostly
    full-dimensional, sometimes flat."""
    count = rng.randint(2, dim + 3)
    pts = {tuple(shift + rng.randint(0, box) for _ in range(dim)) for _ in range(count)}
    return hull(sorted(pts), dim)


def directions(dim):
    for k in range(1, dim):
        for l in range(k + 1, dim + 1):
            for c in range(4):
                yield SlideDirection(k, l, c)


def hirz(a, lam):
    return BottData.make(((0, a), (0, 0)), lam)


class TestFibresAgainstOracle:
    def test_levels_of_rational_and_integral_bodies(self):
        rng = random.Random(6401)
        for dim, cases in ((1, 20), (2, 60), (3, 30), (4, 8)):
            for _ in range(cases):
                if rng.random() < 0.5:
                    p = random_lattice_body(rng, dim, 3, rng.randint(-2, 1))
                else:
                    q = rng.choice((2, 3))
                    p = hull([tuple(Fraction(rng.randint(-2 * q, 3 * q), q)
                                    for _ in range(dim)) for _ in range(dim + 2)], dim)
                for m in (1, 2, 3):
                    fibres = list(lattice_fibres(p, m))
                    assert all(a <= b for _, a, b in fibres)
                    prefixes = [z for z, _, _ in fibres]
                    assert prefixes == sorted(set(prefixes))
                    points = tuple(z + (x,) for z, a, b in fibres for x in range(a, b + 1))
                    assert points == lattice_points_oracle(dilate(p, m)).points


class TestSlideLevelAgainstOracle:
    def test_every_direction_dims_2_to_4(self):
        rng = random.Random(6402)
        raised = 0
        for dim, box, cases, top in ((2, 4, 30, 3), (3, 3, 12, 2), (4, 2, 4, 2)):
            for _ in range(cases):
                p = random_lattice_body(rng, dim, box, rng.choice((0, 0, -1)))
                for d in directions(dim):
                    lines = line_coordinates(p, d)
                    for m in range(1, top + 1):
                        points = lattice_points_oracle(dilate(p, m))
                        try:
                            want = slide_oracle(points, d)
                        except ValueError as exc:
                            with pytest.raises(ValueError, match=str(exc)):
                                slide_level(lines, d, m)
                            raised += 1
                            continue
                        assert slide_level(lines, d, m).points == want.points, (p, d, m)
        assert raised > 50

    @pytest.mark.parametrize("route, vertices, d", [
        # x_k < 0 only: the fibre starts below 0
        ("a", [(-1, 1), (0, 1), (-1, 3), (0, 3)], SlideDirection(1, 2, 1)),
        # another coordinate (x_3, kept in the key) < 0 only
        ("key", [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (-1, 0)],
         SlideDirection(1, 2, 1)),
        # x_l < 0 only, at the top of a fibre; every vertex of P in line
        # coordinates is nonnegative, so this is the only test that runs
        ("x_l", [(0, 0), (1, -1), (1, 0), (0, 1)], SlideDirection(1, 2, 1)),
    ])
    def test_each_orthant_route_raises_alone(self, route, vertices, d):
        p = hull(vertices)
        lines = line_coordinates(p, d)
        l = d.l - 2
        for m in (1, 2):
            fibres = list(lattice_fibres(lines, m))
            failing = {"a": any(a < 0 for _, a, _ in fibres),
                       "key": any(x < 0 for key, _, _ in fibres for x in key),
                       "x_l": any(key[l] < d.c * b for key, _, b in fibres)}
            assert [r for r, bad in failing.items() if bad] == [route]
            with pytest.raises(ValueError) as want:
                slide_oracle(lattice_points_oracle(dilate(p, m)), d)
            with pytest.raises(ValueError, match=str(want.value)):
                slide_level(lines, d, m)
        negative = any(x < 0 for v in lines.vertex_set() for x in v)
        assert negative == (route != "x_l")

    def test_shear_keeps_normals_primitive_and_vertices_exact(self):
        rng = random.Random(6403)
        for _ in range(20):
            p = hull([tuple(Fraction(rng.randint(0, 6), 2) for _ in range(3))
                      for _ in range(5)], 3)
            for d in directions(3):
                lines = line_coordinates(p, d)
                assert all(gcd(*h.normal) == 1 for h in lines.halfspaces)
                # the carried vertex cache is what a fresh description finds
                fresh = HPolytope(lines.dim, lines.halfspaces)
                assert lines.vertex_set() == fresh.vertex_set()
                for v in p.vertex_set():
                    assert d.from_line(d.to_line(v)[:-1], v[d.k - 1]) == v

    def test_direction_beyond_dimension_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            line_coordinates(hull([(0, 0), (1, 0), (0, 1)]), SlideDirection(1, 3, 1))


class TestVerifyMoveAgainstOracle:
    def test_random_towers(self):
        rng = random.Random(6404)
        verdicts = []
        for n, cases, level, bound in ((2, 40, 5, 2), (3, 15, 3, 1)):
            done = 0
            while done < cases:
                b = random_bott_hypercube(rng, n, entry_bound=bound, lam_bound=2)
                k = rng.randint(1, n - 1)
                l = rng.randint(k + 1, n)
                c = rng.choice((None, 0, 1, 2, 3))
                try:
                    rep = verify_degeneration_move(b, k, l, c=c, max_level=level)
                except MoveError:
                    continue
                assert rep == verify_degeneration_move_oracle(b, k, l, c, level)
                verdicts.append(rep.all_pass)
                done += 1
        # every legal move passes, the zero-shift ones (c = entry) included
        assert all(verdicts) and len(verdicts) == 55

    def test_failing_levels_against_wrong_targets(self):
        # the slide of D(0; 1, 3) by c = 2 is D(4; 1, 5), not D(4; 1, 6)
        d = SlideDirection(1, 2, 2)
        small = bott_polytope(hirz(0, (1, 3)))
        got = bott._level_verdicts(small, bott_polytope(hirz(4, (1, 6))), d, 3)
        assert got == level_verdicts_oracle(small, bott_polytope(hirz(4, (1, 6))), d, 3)
        assert [ok for _, ok, _ in got] == [False] * 3
        assert got[0][2] == {"missing": [(0, 6), (1, 2)], "extra": []}
        rng = random.Random(6405)
        failed = 0
        for _ in range(40):
            n = rng.choice((2, 3))
            small = bott_polytope(random_bott_hypercube(rng, n, entry_bound=2, lam_bound=3))
            big = bott_polytope(random_bott_hypercube(rng, n, entry_bound=2, lam_bound=3))
            d = SlideDirection(*sorted(rng.sample(range(1, n + 1), 2)), rng.randint(0, 3))
            got = bott._level_verdicts(small, big, d, 2)
            assert got == level_verdicts_oracle(small, big, d, 2)
            failed += not got[0][1]
        assert failed >= 30
