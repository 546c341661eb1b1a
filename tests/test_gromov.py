import random
from fractions import Fraction
from itertools import permutations

import pytest

from toricdeg import gromov, hull
from toricdeg.errors import LowerDimensionalError, WorkLimitError, ZeroOrbitError
from toricdeg.geometry import HPolytope
from toricdeg.gromov import (
    RootSystemSpec,
    SimplexFit,
    best_simplex_lb,
    coroots,
    fits,
    gw_formula,
    simplex,
    simplex_vertices,
    _fit_value,
    _load_groups,
)

from conftest import corner_simplex, random_integral_polygon, unit_box
from oracles import (
    affine_unimodular_image,
    best_fit_for_psi_oracle,
    best_simplex_lb_oracle,
    load_groups_oracle,
    unimodular_candidates_oracle,
)


def oracle_best_a(delta, bound):
    """Brute-force maximum simplex size: the full (a, x) constraint system of
    every bounded-entry unimodular map, solved by vertex enumeration.

    Kept independent of the production path, which collapses the per-facet
    constraints and optimizes by Fourier-Motzkin elimination.
    """
    n = delta.dim
    best = None
    seen_cols = set()
    for psi in unimodular_candidates_oracle(n, bound):
        cols = tuple(sorted(zip(*psi)))
        if cols in seen_cols:  # column order never changes the simplex image
            continue
        seen_cols.add(cols)
        rows = []
        for h in delta.halfspaces:
            rows.append([0] + list(h.normal) + [h.rhs])
            for col in zip(*psi):
                coef = sum(a * b for a, b in zip(h.normal, col))
                rows.append([coef] + list(h.normal) + [h.rhs])
        rows.append([-1] + [0] * n + [0])
        poly = HPolytope.from_inequalities(n + 1, rows)
        amax = max(v[0] for v in poly.vertex_set())
        if best is None or amax > best:
            best = amax
    return best


class TestCoroots:
    def test_a2_count(self):
        cr = coroots(RootSystemSpec("A", 2))
        assert len(cr) == 6
        assert all(sorted(v) == [-1, 0, 1] for v in cr)

    def test_c2_list(self):
        cr = set(coroots(RootSystemSpec("C", 2)))
        assert cr == {(1, -1), (-1, 1), (1, 1), (-1, -1), (1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_c_family_pairing_normalization(self):
        # long roots 2e_i pair to 2 with their coroots e_i, short roots
        # e_i - e_j pair to 2 with themselves
        cr = coroots(RootSystemSpec("C", 3))
        for alpha in [(2, 0, 0), (0, 2, 0), (0, 0, 2)]:
            matching = [v for v in cr if all(a * b >= 0 for a, b in zip(alpha, v))
                        and sum(a * b for a, b in zip(alpha, v)) == 2
                        and sum(map(abs, v)) == 1]
            assert matching

    def test_b_family(self):
        cr = set(coroots(RootSystemSpec("B", 2)))
        assert (2, 0) in cr and (0, -2) in cr and (1, 1) in cr

    def test_d2_boundary_case(self):
        cr = set(coroots(RootSystemSpec("D", 2)))
        assert cr == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_root_counts(self):
        assert len(coroots(RootSystemSpec("B", 3))) == 18
        assert len(coroots(RootSystemSpec("C", 3))) == 18
        assert len(coroots(RootSystemSpec("D", 3))) == 12
        assert len(coroots(RootSystemSpec("G2", 2))) == 12

    def test_invalid_ranks(self):
        with pytest.raises(ValueError):
            RootSystemSpec("G2", 3)
        with pytest.raises(ValueError):
            RootSystemSpec("D", 1)
        with pytest.raises(ValueError):
            RootSystemSpec("A", 0)
        with pytest.raises(ValueError):
            RootSystemSpec("E", 6)


class TestFormula:
    def test_unitary_examples(self):
        a2 = RootSystemSpec("A", 2)
        assert gw_formula(a2, (5, 3, 0)) == 2
        assert gw_formula(a2, (2, 2, 0)) == 2

    def test_c2_example(self):
        assert gw_formula(RootSystemSpec("C", 2), (3, 1)) == 1

    def test_zero_orbit(self):
        with pytest.raises(ZeroOrbitError):
            gw_formula(RootSystemSpec("A", 2), (1, 1, 1))

    def test_matches_pairwise_differences(self, rng):
        for _ in range(50):
            rank = rng.randint(1, 4)
            spec = RootSystemSpec("A", rank)
            lam = [rng.randint(-9, 9) for _ in range(rank + 1)]
            diffs = {abs(a - b) for a in lam for b in lam if a != b}
            if not diffs:
                with pytest.raises(ZeroOrbitError):
                    gw_formula(spec, lam)
            else:
                assert gw_formula(spec, lam) == min(diffs)

    def test_weyl_invariance(self, rng):
        for fam, rank in (("A", 3), ("B", 3), ("C", 2), ("D", 3)):
            spec = RootSystemSpec(fam, rank)
            dim = spec.ambient_dim
            lam = [rng.randint(1, 9) for _ in range(dim)]
            base = gw_formula(spec, lam)
            for _ in range(8):
                perm = list(range(dim))
                rng.shuffle(perm)
                image = [lam[perm[i]] for i in range(dim)]
                if fam != "A":
                    image = [x if rng.random() < 0.5 else -x for x in image]
                assert gw_formula(spec, image) == base

    def test_linear_scaling(self, rng):
        spec = RootSystemSpec("C", 3)
        lam = (5, 3, 1)
        base = gw_formula(spec, lam)
        for t in (Fraction(1, 2), 2, Fraction(7, 3)):
            assert gw_formula(spec, [t * x for x in lam]) == t * base

    def test_g2_sum_zero_consistency(self):
        spec = RootSystemSpec("G2", 2)
        # weight on the sum-zero plane; pairings against e_i classes are
        # well defined there
        lam = (3, 1, -4)
        vals = {abs(sum(a * b for a, b in zip(lam, v))) for v in coroots(spec)}
        assert gw_formula(spec, lam) == min(v for v in vals if v)


class TestSimplex:
    def test_triangle(self):
        poly, flags = simplex(2, 1)
        assert {tuple(v) for v in poly.vertex_set()} == {(0, 0), (1, 0), (0, 1)}
        open_facets = [h for h, f in zip(poly.halfspaces, flags) if f]
        assert len(open_facets) == 1
        assert open_facets[0].normal == (1, 1)

    def test_segment(self):
        poly, flags = simplex(1, Fraction(5, 2))
        assert {tuple(v) for v in poly.vertex_set()} == {(0,), (Fraction(5, 2),)}

    def test_volume(self):
        # vol of the corner simplex is a^n / n!
        from toricdeg import linalg
        from math import factorial
        for n in (1, 2, 3):
            a = Fraction(3, 2)
            verts = simplex_vertices(n, a)
            edges = [tuple(x - y for x, y in zip(v, verts[0])) for v in verts[1:]]
            vol = abs(linalg.mat_det(edges)) / factorial(n)
            assert vol == a ** n / factorial(n)

    def test_positive_size_required(self):
        with pytest.raises(ValueError):
            simplex(2, 0)


class TestFits:
    def test_identity_in_square(self):
        sq = unit_box([1, 1])
        assert fits(sq, SimplexFit(Fraction(1), ((1, 0), (0, 1)), (0, 0)))
        assert not fits(sq, SimplexFit(Fraction(101, 100), ((1, 0), (0, 1)), (0, 0)))

    def test_det_gate(self):
        sq = unit_box([1, 1])
        with pytest.raises(ValueError):
            fits(sq, SimplexFit(Fraction(1), ((2, 0), (0, 1)), (0, 0)))

    def test_sheared_fit_in_trapezoid(self):
        trap = hull([(0, 0), (1, 0), (1, 1), (0, 5)])
        fit = SimplexFit(Fraction(1), ((0, 1), (1, -4)), (0, 4))
        assert fits(trap, fit)


class TestBestSimplex:
    def test_unit_square(self):
        fit = best_simplex_lb(unit_box([1, 1]), 1)
        assert fit.a == 1
        assert fits(unit_box([1, 1]), fit)

    def test_thin_rectangle(self):
        fit = best_simplex_lb(unit_box([1, 3]), 4)
        assert fit.a == 1

    def test_monotone_in_bound(self, rng):
        for _ in range(4):
            p = random_integral_polygon(rng)
            a1 = best_simplex_lb(p, 1).a
            a2 = best_simplex_lb(p, 2).a
            assert a1 <= a2

    def test_oracle_agreement_small(self, rng):
        for _ in range(4):
            p = random_integral_polygon(rng, npoints=3)
            fit = best_simplex_lb(p, 2)
            assert fit.a == oracle_best_a(p, 2)
            assert fits(p, fit)

    def test_unimodular_transport(self, rng):
        lam = ((1, 1), (0, 1))
        for _ in range(3):
            p = random_integral_polygon(rng)
            fit = best_simplex_lb(p, 2)
            t = (rng.randint(-2, 2), rng.randint(-2, 2))
            q = affine_unimodular_image(p, lam, t)
            moved_psi = tuple(tuple(sum(lam[i][k] * fit.psi[k][j] for k in range(2))
                                    for j in range(2)) for i in range(2))
            moved_x = tuple(sum(lam[i][k] * fit.x[k] for k in range(2)) + t[i]
                            for i in range(2))
            assert fits(q, SimplexFit(fit.a, moved_psi, moved_x))
            assert best_simplex_lb(q, 4).a >= fit.a

    def test_degeneration_trapezoid_bound_five(self):
        # frozen after a one-off oracle run at bound 5 (7.7 s): the width-1
        # strip argument caps every unimodular simplex image at size 1
        trap = hull([(0, 0), (1, 0), (1, 1), (0, 5)])
        fit = best_simplex_lb(trap, 5)
        assert fit.a == 1
        assert fits(trap, fit)
        assert fit.a == oracle_best_a(trap, 2)

    def test_heuristic_certifies(self, rng):
        p = random_integral_polygon(rng)
        fit = best_simplex_lb(p, mode="heuristic", seed=3)
        assert fits(p, fit)
        assert fit.a >= 0

    def test_heuristic_deterministic(self):
        p = hull([(0, 0), (4, 0), (0, 3), (4, 3)])
        a1 = best_simplex_lb(p, mode="heuristic", seed=11)
        a2 = best_simplex_lb(p, mode="heuristic", seed=11)
        assert (a1.a, a1.psi, a1.x) == (a2.a, a2.psi, a2.x)

    @pytest.mark.parametrize("points, seed, expected", [
        ([(0, 0), (3, 1), (4, 4), (1, 3)], 0,
         (Fraction(8, 3), ((0, -1), (1, 0)), (3, 1))),
        ([(0, 0), (3, 1), (4, 4), (1, 3)], 11,
         (Fraction(8, 3), ((-1, 0), (0, 1)), (3, 1))),
        ([(0, 0), (2, 0), (7, 5), (5, 5)], 0,
         (2, ((0, -1), (1, 0)), (2, 0))),
        ([(0, 0), (2, 0), (7, 5), (5, 5)], 11,
         (2, ((-1, 0), (0, 1)), (2, 0))),
    ])
    def test_heuristic_frozen(self, points, seed, expected):
        # the full certificate is pinned, so a seed always reproduces the
        # same walk, not just the same size
        fit = best_simplex_lb(hull(points), mode="heuristic", seed=seed)
        assert (fit.a, fit.psi, fit.x) == expected

    def test_full_dim_required(self):
        seg = hull([(0, 0), (0, 3)])
        with pytest.raises(LowerDimensionalError):
            best_simplex_lb(seg, 1)


def rational_polygon(rng):
    """A lattice polygon with every right hand side pushed out by a seeded
    nonnegative rational: same normals, so still bounded and full."""
    p = random_integral_polygon(rng)
    rows = [list(h.normal) + [h.rhs + Fraction(rng.randint(0, 5), rng.randint(1, 4))]
            for h in p.halfspaces]
    return HPolytope.from_inequalities(2, rows)


def certificate(fit):
    return (fit.a, fit.psi, fit.x)


def box_3d():
    return unit_box([1, 2, 1])


def rational_body_3d():
    return HPolytope.from_inequalities(3, [
        [-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0],
        [1, 0, 0, Fraction(3, 2)], [0, 1, 0, 2], [0, 0, 1, Fraction(5, 3)],
        [1, 1, 1, Fraction(7, 2)]])


def with_redundant_rows(rng, p):
    """p plus two rows that cut nothing: one parallel to a facet and one
    with a fresh normal, each pushed out by a seeded slack >= 0 (so the
    second may touch a vertex)."""
    verts = p.vertex_set()
    h = rng.choice(p.halfspaces)
    normal = (rng.randint(-3, 3), rng.choice((-2, -1, 1, 2)))
    top = max(sum(a * x for a, x in zip(normal, v)) for v in verts)
    return HPolytope.from_inequalities(2, [
        list(g.normal) + [g.rhs] for g in p.halfspaces] + [
        list(h.normal) + [h.rhs + Fraction(rng.randint(1, 5), rng.randint(1, 3))],
        list(normal) + [top + Fraction(rng.randint(0, 3), rng.randint(1, 3))]])


def segment(lo, hi):
    return HPolytope.from_inequalities(1, [[-1, -Fraction(lo)], [1, Fraction(hi)]])


class TestSearchOracle:
    """The load-vector quotient against one LP per unimodular candidate."""

    @pytest.mark.parametrize("n, bound", [(2, 1), (2, 2), (2, 3), (3, 1)])
    def test_load_groups_match_oracle(self, rng, n, bound):
        # the column-set enumeration gives every load vector the same
        # representative psi as the first candidate of the full scan
        bodies = [box_3d()] if n == 3 else [
            random_integral_polygon(rng) for _ in range(3)] + [rational_polygon(rng)]
        for p in bodies:
            assert _load_groups(p, bound) == load_groups_oracle(p, bound), p

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_polygons_match_oracle(self, rng, bound):
        for t in range(8):
            p = rational_polygon(rng) if t % 2 else random_integral_polygon(rng)
            assert certificate(best_simplex_lb(p, bound)) == \
                certificate(best_simplex_lb_oracle(p, bound)), p

    def test_3d_bodies_match_oracle(self):
        box = box_3d()
        bodies = [box, corner_simplex(3, 2), rational_body_3d()]
        wants = [best_simplex_lb_oracle(p, 1) for p in bodies]
        for p, want in zip(bodies, wants):
            assert certificate(best_simplex_lb(p, 1)) == certificate(want)
        # bound 2 scans C(125, 3) = 317750 column sets, 22568 of them unimodular
        fit = best_simplex_lb(box, 2)
        assert fits(box, fit)
        assert fit.a == wants[0].a


class TestDualRays:
    """Every load group's dual-ray value against Fourier-Motzkin on the same
    LP (one `fm_maximize` per group, through the per-psi oracle)."""

    @staticmethod
    def check(p, bound):
        value = _fit_value(p)
        groups = _load_groups(p, bound)
        assert groups
        for loads, psi in groups.items():
            assert value(loads) == best_fit_for_psi_oracle(p, psi).a, (p, loads)

    def test_integer_polygons(self, rng):
        for _ in range(10):
            self.check(random_integral_polygon(rng, npoints=rng.randint(3, 7)), 2)

    def test_rational_polygons(self, rng):
        for _ in range(10):
            self.check(rational_polygon(rng), 2)

    def test_redundant_rows(self, rng):
        for t in range(10):
            p = rational_polygon(rng) if t % 2 else random_integral_polygon(rng)
            q = with_redundant_rows(rng, p)
            assert len(q.halfspaces) > len(p.halfspaces)
            self.check(q, 2)

    def test_segments(self, rng):
        for _ in range(10):
            lo = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            self.check(segment(lo, lo + Fraction(rng.randint(1, 9), rng.randint(1, 4))), 3)

    @pytest.mark.parametrize("body", [box_3d, lambda: corner_simplex(3, 2),
                                      rational_body_3d])
    def test_3d_bodies(self, body):
        self.check(body(), 1)


class TestSearchCap:
    """The exhaustive search is capped by its real work, C((2b+1)^n, n)
    column sets, and refuses before it enumerates anything."""

    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        class Enumerated(Exception):
            pass

        def enumerate_(*args, **kwargs):
            raise Enumerated

        monkeypatch.setattr(gromov, "product", enumerate_)
        monkeypatch.setattr(gromov, "combinations", enumerate_)
        return Enumerated

    @pytest.mark.parametrize("n, bound", [(2, 22), (3, 3)])
    def test_refused_before_enumeration(self, no_enumeration, n, bound):
        # C(45^2, 2) = 2049300 and C(343, 3) = 6666891 column sets
        with pytest.raises(WorkLimitError, match="candidate space too large"):
            best_simplex_lb(unit_box([1] * n), bound)

    @pytest.mark.parametrize("n, bound", [(2, 21), (3, 2)])
    def test_largest_admitted(self, no_enumeration, n, bound):
        # C(43^2, 2) = 1708476 and C(125, 3) = 317750 reach the enumeration
        with pytest.raises(no_enumeration):
            best_simplex_lb(unit_box([1] * n), bound)
