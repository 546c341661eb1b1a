"""Acceptance suite: one test per release criterion, exact tolerances.

Every criterion prints a single PASS line on success (run with -s to see
them); failures surface as ordinary assertion errors.  Randomized criteria
use fixed seeds so the suite is reproducible run to run.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from toricdeg import dilate, hull, lattice_points, linalg
from toricdeg.bott import (
    BottData,
    CohRing,
    bott_polytope,
    decide_symplectomorphic,
    is_hypercube,
    standard_form,
    verify_degeneration_move,
)
from toricdeg.errors import ZeroOrbitError
from toricdeg.geometry import HPolytope
from toricdeg.gromov import RootSystemSpec, best_simplex_lb, fits, gw_formula
from toricdeg.valuation import (
    SlideDirection,
    build_semigroup,
    check_cone_condition,
    check_saturation,
    line_coordinates,
    slide,
    slide_level,
)

from conftest import (
    corner_simplex,
    random_bott_hypercube,
    random_integral_polygon,
    random_standard_bott,
    relation_class,
    scramble_bott,
    unit_box,
)
from oracles import (
    affine_unimodular_image,
    apply,
    expand_monomial,
    hirzebruch_oracle,
    omega_class,
    special_elements,
    valuation_image,
)
from test_gromov import oracle_best_a


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def hirz(a, lam):
    return BottData.make(((0, a), (0, 0)), lam)


def _sliding_corpus(rng, count):
    """Delzant-smooth 2-d/3-d integral polytopes at the origin corner."""
    out = []
    while len(out) < count:
        n = rng.choice((2, 2, 3))
        kind = rng.randrange(3)
        if kind == 0:
            p = unit_box([rng.randint(1, 4) for _ in range(n)])
        elif kind == 1:
            p = corner_simplex(n, rng.randint(1, 4))
        else:
            b = random_bott_hypercube(rng, n, entry_bound=1, lam_bound=3)
            p = bott_polytope(b)
        if len(lattice_points(p)) > 180:
            continue
        k = rng.randint(1, n - 1)
        l = rng.randint(k + 1, n)
        out.append((p, SlideDirection(k, l, rng.randint(1, 4))))
    return out


def test_criterion_1_sliding_lemma_oracle_equivalence():
    rng = random.Random(101)
    corpus = _sliding_corpus(rng, 50)
    for p, d in corpus:
        pts = lattice_points(p)
        symbolic = valuation_image([expand_monomial(a, d) for a in pts])
        assert slide(pts, d) == symbolic, (p, d)
        assert slide_level(line_coordinates(p, d), d, 1) == symbolic, (p, d)
        assert len(symbolic) == len(pts)
    report(1, "point and fibre slides equal the elimination image on "
              f"{len(corpus)} random smooth polytopes, exact set equality")


def test_criterion_2_rectangle_degeneration_reproduction():
    rect = hull([(0, 0), (1, 0), (1, 3), (0, 3)])
    d = SlideDirection(1, 2, 2)
    image = slide(lattice_points(rect), d)
    expected = {(0, j) for j in range(6)} | {(1, 0), (1, 1)}
    assert image.as_set() == expected
    trapezoid = hull(image)
    assert trapezoid == bott_polytope(hirz(4, (1, 5)))
    facets = {(h.normal, h.rhs) for h in trapezoid.halfspaces}
    # slant facet normal e_2 + (2c - a) e_1 with bound lam_2 + (c - a) lam_1
    assert ((4, 1), Fraction(5)) in facets
    report(2, "1x3 rectangle with c=2 reproduces the 8 expected values and "
              "the slant-4 trapezoid exactly")


def test_criterion_3_saturation_counterexample():
    square = unit_box([2, 2])
    sg = build_semigroup(square, SlideDirection(1, 2, 2), 2)
    saturated, witness = check_saturation(sg)
    assert not saturated
    m, x, t = witness
    assert m == 1 and t == 2
    assert x == (1, 1)
    assert x not in sg.levels[1]
    double = tuple(2 * v for v in x)
    assert double in sg.levels[2]
    report(3, "the 2x2 square with c=2 is not saturated: level-1 witness "
              f"{x} with double {double} present at level 2")


def test_criterion_4_hirzebruch_degeneration_end_to_end():
    rep = verify_degeneration_move(hirz(0, (1, 3)), 1, 2, c=2, max_level=4)
    assert rep.target.a == ((0, 4), (0, 0))
    assert rep.target.lam == (Fraction(1), Fraction(5))
    assert rep.all_pass
    assert [m for m, ok, _ in rep.levels if ok] == [1, 2, 3, 4]
    report(4, "slide semigroup of the (1,3) box matches every dilate of the "
              "slant-4 trapezoid up to level 4")


def test_criterion_5_gromov_formula():
    rng = random.Random(105)
    checked = 0
    while checked < 100:
        rank = rng.randint(1, 4)
        spec = RootSystemSpec("A", rank)
        lam = [rng.randint(-9, 9) for _ in range(rank + 1)]
        diffs = {abs(a - b) for a in lam for b in lam if a != b}
        if not diffs:
            with pytest.raises(ZeroOrbitError):
                gw_formula(spec, lam)
            continue
        value = gw_formula(spec, lam)
        assert value == min(diffs)
        # Weyl invariance: coordinate permutations fix the value
        perm = list(range(rank + 1))
        rng.shuffle(perm)
        assert gw_formula(spec, [lam[i] for i in perm]) == value
        # exact linear scaling
        t = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        assert gw_formula(spec, [t * x for x in lam]) == t * value
        checked += 1
    report(5, "coroot formula equals min pairwise gap on 100 random weights, "
              "Weyl invariant and exactly homogeneous")


def test_criterion_6_simplex_search_against_oracle():
    assert best_simplex_lb(unit_box([1, 1]), 1).a == 1
    rng = random.Random(106)
    for i in range(25):
        p = random_integral_polygon(rng, npoints=4)
        fit = best_simplex_lb(p, 3)
        assert fits(p, fit)
        assert fit.a == oracle_best_a(p, 3), f"disagreement on polygon {i}"
    report(6, "exhaustive search matches the vertex-enumeration oracle on "
              "25 random lattice polygons, exact rational agreement")


def test_criterion_7_bott_ring_identities():
    rng = random.Random(107)
    for _ in range(100):
        n = rng.randint(2, 5)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.7:
                    rows[i][j] = rng.randint(-5, 5)
        ring = CohRing(n, rows)
        # free rank 2^n: distinct square-free monomials stay distinct
        seen = set()
        for mask in range(2 ** n):
            exp = tuple((mask >> i) & 1 for i in range(n))
            assert ring.reduce_exponents(exp) == {mask: Fraction(1)}
            seen.add(mask)
        assert len(seen) == 2 ** n
        for i in range(1, n + 1):
            assert relation_class(ring, i).is_zero()
        b = BottData.make(rows, [1] * n)
        for k in range(1, n + 1):
            alpha, y = special_elements(b, k)
            assert (y * y) == (alpha * alpha).scaled(Fraction(1, 4))
    report(7, "rank, relation annihilation, and the square identity hold on "
              "100 random presentations up to n = 5")


def test_criterion_8_decision_on_scripted_pairs():
    rng = random.Random(108)
    yes = no = 0
    while yes < 50:
        n = rng.randint(2, 4)
        base = random_standard_bott(rng, n)
        b1 = scramble_bott(base, rng, steps=rng.randint(2, 5))
        b2 = scramble_bott(base, rng, steps=rng.randint(2, 5))
        dec = decide_symplectomorphic(b1, b2)
        assert dec.yes, (base, b1, b2, dec.reason)
        # certificate: identity permutation matrix carries one standard
        # polytope to the other exactly
        s1, s2 = dec.standard
        p1 = bott_polytope(BottData(n, s1.data.a, s1.lam))
        p2 = bott_polytope(BottData(n, s2.data.a, s2.lam))
        lam_t = linalg.transpose(dec.lam_matrix)
        assert affine_unimodular_image(p2, lam_t, (0,) * n) == p1
        # certificate: the ring map carries one symplectic class to the other
        omega1 = omega_class(CohRing.of(b1), b1.lam)
        omega2 = omega_class(CohRing.of(b2), b2.lam)
        assert apply(dec.ring_map, omega1) == omega2
        yes += 1
    while no < 50:
        n = rng.randint(2, 4)
        base = random_standard_bott(rng, n)
        lam = list(base.lam)
        lam[rng.randrange(n)] += 1
        bumped = BottData.make(base.a, lam)
        b1 = scramble_bott(base, rng, steps=rng.randint(1, 4))
        b2 = scramble_bott(bumped, rng, steps=rng.randint(1, 4))
        dec = decide_symplectomorphic(b1, b2)
        assert not dec.yes, (base, bumped)
        no += 1
    report(8, "50 scripted equivalent pairs decided Yes with exact polytope "
              "and symplectic-class certificates; 50 perturbed pairs denied")


def test_criterion_9_hirzebruch_consistency():
    """Full even-entry grid agreement between the pipeline and the formula.

    Every instance is mapped to its standard-form signature and to the
    classification invariant (width, area).  The decision procedure answers
    Yes exactly when signatures match and the formula answers Yes exactly
    when invariants match, so pairwise agreement on all instance pairs is
    equivalent to the two fibrations coinciding, which is checked directly;
    seeded spot checks confirm the premise on explicit pairs.
    """
    instances = []
    for a in range(-8, 9, 2):
        for l1 in range(1, 11):
            for l2 in range(1, 11):
                b = hirz(a, (l1, l2))
                if is_hypercube(b):
                    instances.append(b)
    assert len(instances) > 400
    by_invariant = {}
    by_signature = {}
    for b in instances:
        a = b.a[0][1]
        # width and area as an unordered pair: the even-class invariant
        inv = tuple(sorted((b.lam[0], b.lam[1] - Fraction(a, 2) * b.lam[0])))
        sf = standard_form(b)
        sig = (sf.partition, sf.lam)
        by_invariant.setdefault(inv, set()).add(sig)
        by_signature.setdefault(sig, set()).add(inv)
    assert all(len(v) == 1 for v in by_invariant.values())
    assert all(len(v) == 1 for v in by_signature.values())
    rng = random.Random(109)
    sample = rng.sample(instances, 30)
    agree_yes = agree_no = 0
    for b1 in sample[:15]:
        for b2 in sample[15:]:
            expected = hirzebruch_oracle(b1.a[0][1], b1.lam, b2.a[0][1], b2.lam)
            got = decide_symplectomorphic(b1, b2).yes
            assert got == expected
            agree_yes += got
            agree_no += not got
    assert agree_no > 0
    report(9, f"decision and classification agree on all {len(instances)} "
              "even-entry instances (signature fibrations coincide; "
              f"{agree_yes + agree_no} explicit cross-checks)")


def test_criterion_10_documented_limits():
    """The headline theorems beyond desk scale are documented, not claimed."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    assert "Limitations" in text
    for phrase in ("string polytope", "flat famil"):
        assert phrase in text, f"README must document the {phrase} limitation"
    report(10, "README documents the out-of-scope constructions and the "
               "computational substitutes exercised by criteria 1-6")
