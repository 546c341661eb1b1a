import random
from fractions import Fraction

import pytest

from toricdeg import bott, dilate, hull, lattice_points
from toricdeg.errors import (
    DependentBasisError,
    MoveError,
    NotNormalError,
    ZeroPolynomialError,
)
from toricdeg.geometry import LatticePointSet, minkowski_sum
from toricdeg.valuation import (
    GradedSemigroup,
    SlideDirection,
    UPolynomial,
    build_semigroup,
    check_cone_condition,
    check_saturation,
    expand_monomial,
    line_coordinates,
    lowest_term,
    okounkov_approx,
    slide,
    slide_level,
    valuation_image,
)

from conftest import (
    identity_semigroup,
    random_bott_hypercube,
    random_smooth_polytope,
    unit_box,
)
from oracles import check_additivity, slide_oracle, verify_degeneration_move_oracle

D12 = SlideDirection(1, 2, 2)

RECT = hull([(0, 0), (1, 0), (1, 3), (0, 3)])
RECT_IMAGE = tuple(sorted([(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
                           (1, 0), (1, 1)]))
SQUARE2 = hull([(0, 0), (2, 0), (2, 2), (0, 2)])
# Values certified by the elimination oracle for the 3x3 square: the column
# x = 1 keeps heights {0, 2}, because the line 2x + y = 4 contains (2, 0)
# which pins the translation at one step.
SQUARE2_IMAGE = tuple(sorted([(0, j) for j in range(7)] + [(1, 0), (1, 2)]))


class TestSlideDirection:
    def test_bounds(self):
        with pytest.raises(ValueError):
            SlideDirection(2, 1, 1)
        with pytest.raises(ValueError):
            SlideDirection(1, 1, 1)
        with pytest.raises(ValueError):
            SlideDirection(1, 2, -1)

    def test_vector(self):
        assert SlideDirection(1, 3, 2).vector(3) == (-1, 0, 2)


class TestExpandMonomial:
    def test_modified_generator(self):
        p = expand_monomial((1, 0), D12)
        assert p.terms == {(1, 0): 1, (0, 2): 1}

    def test_untouched_generator(self):
        assert expand_monomial((0, 3), D12).terms == {(0, 3): 1}

    def test_binomial_square(self):
        p = expand_monomial((2, 0), D12)
        assert p.terms == {(2, 0): 1, (1, 2): 2, (0, 4): 1}

    def test_c_zero_rejected(self):
        with pytest.raises(ValueError):
            expand_monomial((1, 0), SlideDirection(1, 2, 0))


class TestLowestTerm:
    def test_examples(self):
        assert lowest_term(expand_monomial((1, 0), D12)) == (0, 2)
        assert lowest_term(UPolynomial(2, {(0, 0): 1})) == (0, 0)
        assert lowest_term(expand_monomial((1, 2), D12)) == (0, 4)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            lowest_term(UPolynomial(2, {}))

    def test_additive_under_products(self, rng):
        for _ in range(40):
            n = rng.randint(2, 3)
            def rand_poly():
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    e = tuple(rng.randint(0, 3) for _ in range(n))
                    terms[e] = rng.randint(1, 5)
                return UPolynomial(n, terms)
            p, q = rand_poly(), rand_poly()
            assert lowest_term(p * q) == tuple(
                a + b for a, b in zip(lowest_term(p), lowest_term(q)))


class TestValuationImage:
    def test_rectangle(self):
        basis = [expand_monomial(a, D12) for a in lattice_points(RECT)]
        assert valuation_image(basis).points == RECT_IMAGE

    def test_pure_monomials(self):
        exps = [(0, 0), (2, 1), (1, 3)]
        basis = [UPolynomial(2, {e: 1}) for e in exps]
        assert valuation_image(basis).points == tuple(sorted(exps))

    def test_square_oracle_value(self):
        basis = [expand_monomial(a, D12) for a in lattice_points(SQUARE2)]
        assert valuation_image(basis).points == SQUARE2_IMAGE

    def test_dependent_basis(self):
        b = [UPolynomial(2, {(0, 0): 1}), UPolynomial(2, {(0, 0): 2})]
        with pytest.raises(DependentBasisError):
            valuation_image(b)

    def test_order_independence(self, rng):
        basis = [expand_monomial(a, D12) for a in lattice_points(SQUARE2)]
        expected = valuation_image(basis).points
        for _ in range(5):
            shuffled = basis[:]
            rng.shuffle(shuffled)
            assert valuation_image(shuffled).points == expected


class TestSlide:
    def test_rectangle(self):
        assert slide(lattice_points(RECT), D12).points == RECT_IMAGE

    def test_no_room_on_wall(self):
        s = LatticePointSet.make(2, [(0, 0), (0, 4), (0, 7)])
        assert slide(s, SlideDirection(1, 2, 3)) == s

    def test_pure_descent(self):
        s = LatticePointSet.make(2, [(1, 0), (2, 0)])
        assert slide(s, SlideDirection(1, 2, 0)).points == ((0, 0), (1, 0))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            slide(LatticePointSet.make(2, [(-1, 0)]), D12)

    def test_cardinality(self, rng):
        for _ in range(20):
            pts = {(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(8)}
            s = LatticePointSet.make(2, pts)
            d = SlideDirection(1, 2, rng.randint(0, 3))
            assert len(slide(s, d)) == len(s)

    def test_matches_valuation_oracle(self, rng):
        for _ in range(25):
            n = rng.choice((2, 3))
            p = random_smooth_polytope(rng, n)
            k = rng.randint(1, n - 1)
            l = rng.randint(k + 1, n)
            d = SlideDirection(k, l, rng.randint(1, 4))
            pts = lattice_points(p)
            via_slide = slide(pts, d)
            via_valuation = valuation_image([expand_monomial(a, d) for a in pts])
            assert via_slide == via_valuation

    def test_matches_rebuilding_oracle(self):
        rng = random.Random(61)
        for t in range(60):
            dim = 2 + t % 3
            pts = {tuple(rng.randint(0, 4) for _ in range(dim))
                   for _ in range(rng.randint(1, 30))}
            s = LatticePointSet.make(dim, pts)
            for k in range(1, dim + 1):
                for l in range(k + 1, dim + 1):
                    for c in range(4):
                        d = SlideDirection(k, l, c)
                        got = slide(s, d)
                        assert got.points == slide_oracle(s, d).points, (s, d)
                        assert len(got) == len(s)


class TestSemigroup:
    def test_rectangle_level_one(self):
        sg = build_semigroup(RECT, D12, 1)
        assert sg.levels[1].points == RECT_IMAGE
        assert sg.levels[0].points == ((0, 0),)

    def test_square_levels(self):
        sg = build_semigroup(SQUARE2, D12, 2)
        assert (1, 1) not in sg.levels[1]
        assert (2, 2) in sg.levels[2]

    def test_c_zero_rejected(self):
        with pytest.raises(ValueError):
            build_semigroup(RECT, SlideDirection(1, 2, 0), 2)

    def test_additivity(self, rng):
        for _ in range(5):
            p = random_smooth_polytope(rng, 2)
            sg = build_semigroup(p, D12, 3)
            for m1 in (1, 2):
                for m2 in range(m1, 4 - m1):
                    target = sg.levels[m1 + m2].as_set()
                    got = minkowski_sum(sg.levels[m1], sg.levels[m2]).as_set()
                    assert got <= target

    def test_slide_dilation_equivariance(self, rng):
        for _ in range(5):
            p = random_smooth_polytope(rng, 2)
            s1 = slide(lattice_points(p), D12)
            s2 = slide(lattice_points(dilate(p, 2)), D12)
            assert minkowski_sum(s1, s1).as_set() <= s2.as_set()

    def test_normality_gate(self):
        tall = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)])
        with pytest.raises(NotNormalError, match="dilate"):
            build_semigroup(tall, SlideDirection(1, 3, 1), 2)


class TestAdditivityProperty:
    """Level m1 plus level m2 lies in level m1 + m2: build_semigroup no
    longer re-checks this at run time, normality implies it."""

    def test_oracle_detects_a_gap(self):
        levels = {0: LatticePointSet(2, ((0, 0),)),
                  1: LatticePointSet(2, ((0, 0), (1, 0))),
                  2: LatticePointSet(2, ((0, 0), (2, 0)))}
        with pytest.raises(AssertionError, match="additivity"):
            check_additivity(GradedSemigroup(2, levels, 2))

    def test_delzant_polygons_and_3d_boxes(self):
        rng = random.Random(6201)
        for c in (1, 2, 3):
            for _ in range(3):
                check_additivity(build_semigroup(random_smooth_polytope(rng, 2),
                                                 SlideDirection(1, 2, c), 6))
            k = rng.randint(1, 2)
            box = unit_box([rng.randint(1, 2), rng.randint(1, 2), 1])
            check_additivity(build_semigroup(box, SlideDirection(k, rng.randint(k + 1, 3), c),
                                             rng.randint(4, 6)))

    def test_verify_move_semigroups(self):
        # verify_degeneration_move compares line fibres and builds no
        # semigroup, so the semigroup of its smaller, possibly dilated side
        # is built here from the same fibres.  Every drawn move passes, the
        # zero-shift ones (c = entry, no slide) included.
        rng = random.Random(6202)
        for n, level in ((2, 6), (3, 4)):
            checked = 0
            while checked < 8:
                b = random_bott_hypercube(rng, n, entry_bound=1, lam_bound=2)
                k = rng.randint(1, n - 1)
                l = rng.randint(k + 1, n)
                try:
                    rep = bott.verify_degeneration_move(b, k, l, c=rng.randint(0, 2),
                                                        max_level=level)
                except MoveError:
                    continue
                assert rep == verify_degeneration_move_oracle(b, k, l, rep.slide.c, level)
                assert rep.all_pass
                entry, target = rep.source.a[k - 1][l - 1], rep.target.a[k - 1][l - 1]
                small = rep.source if target >= entry else rep.target
                lines = line_coordinates(dilate(bott.bott_polytope(small), rep.dilated_by),
                                         rep.slide)
                levels = {m: slide_level(lines, rep.slide, m) for m in range(1, level + 1)}
                check_additivity(GradedSemigroup(n, levels, level))
                checked += 1


class TestOkounkov:
    def test_rectangle_level_one(self):
        sg = build_semigroup(RECT, D12, 2)
        body = okounkov_approx(sg, 1)
        assert body == hull([(0, 0), (1, 0), (1, 1), (0, 5)])

    def test_identity_slide_returns_input(self):
        # trapezoid with slant 2: sliding with c <= slant moves nothing,
        # every line already reaches the x_1 = 0 wall inside the polytope
        trap = hull([(0, 0), (1, 0), (1, 3), (0, 5)])
        sg = build_semigroup(trap, D12, 2)
        assert okounkov_approx(sg, 1) == trap
        assert okounkov_approx(sg, 2) == trap

    def test_hirzebruch_slant_formula(self):
        # slide with c=2 on the 1x3 rectangle: slant facet (4, 1), bound 5
        sg = build_semigroup(RECT, D12, 1)
        body = okounkov_approx(sg, 1)
        assert ((4, 1), Fraction(5)) in {(h.normal, h.rhs) for h in body.halfspaces}

    def test_slant_formula_with_twist(self):
        # trapezoid with slant 1, lengths (1, 5), slid with c=3 > slant:
        # the new slant facet is e_2 + (2c - 1) e_1 with bound 5 + (c - 1)
        from toricdeg.bott import BottData, bott_polytope
        p = bott_polytope(BottData.make(((0, 1), (0, 0)), (1, 5)))
        sg = build_semigroup(p, SlideDirection(1, 2, 3), 2)
        body = okounkov_approx(sg, 1)
        assert ((5, 1), Fraction(7)) in {(h.normal, h.rhs) for h in body.halfspaces}

    def test_level_one_body_is_integral(self):
        # level 1 is a set of lattice points, so its hull has lattice
        # vertices; semigroup tests the cone condition on it unchecked
        rng = random.Random(6203)
        for c in (1, 2, 3):
            for _ in range(3):
                sg = build_semigroup(random_smooth_polytope(rng, 2), SlideDirection(1, 2, c), 1)
                assert okounkov_approx(sg, 1).is_integral()
            k = rng.randint(1, 2)
            box = unit_box([rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 2)])
            sg = build_semigroup(box, SlideDirection(k, rng.randint(k + 1, 3), c), 1)
            assert okounkov_approx(sg, 1).is_integral()

    def test_level_range(self):
        sg = build_semigroup(RECT, D12, 1)
        with pytest.raises(ValueError):
            okounkov_approx(sg, 2)


class TestConeCondition:
    def test_rectangle_against_trapezoid(self):
        sg = build_semigroup(RECT, D12, 5)
        trap = hull([(0, 0), (1, 0), (1, 1), (0, 5)])
        assert check_cone_condition(sg, trap) == (True, None)

    def test_square_fails_with_certificate(self):
        sg = build_semigroup(SQUARE2, D12, 2)
        delta = hull(sg.levels[1])
        ok, cert = check_cone_condition(sg, delta)
        assert not ok
        assert cert == (1, (1, 1), "missing")

    def test_identity(self):
        sg = identity_semigroup(unit_box([1, 1]), 3)
        assert check_cone_condition(sg, unit_box([1, 1])) == (True, None)


class TestSaturation:
    def test_square_witness(self):
        sg = build_semigroup(SQUARE2, D12, 4)
        ok, witness = check_saturation(sg)
        assert not ok
        m, x, t = witness
        assert (m, x, t) == (1, (1, 1), 2)
        assert tuple(t * v for v in x) in sg.levels[t * m]

    def test_rectangle_saturated(self):
        sg = build_semigroup(RECT, D12, 5)
        assert check_saturation(sg) == (True, None)

    def test_identity_normal_saturated(self):
        sg = identity_semigroup(unit_box([2, 2]), 4)
        assert check_saturation(sg) == (True, None)
