import random
from fractions import Fraction

import pytest

from toricdeg import dilate, hull, is_delzant_smooth, is_normal, lattice_points, linalg
from toricdeg.bott import (
    BottData,
    CohRing,
    Move,
    RingMap,
    bott_polytope,
    decide_symplectomorphic,
    elementary_move,
    exceptional_type,
    flip,
    is_hypercube,
    is_q_trivial,
    parametrized_move,
    permutation_move,
    ring_map_check,
    standard_form,
    verify_degeneration_move,
)
from toricdeg.errors import InternalError, MoveError, NotIntegralError, NotQTrivialError
from toricdeg.valuation import SlideDirection, build_semigroup, check_cone_condition

from conftest import (
    primitive_square_zero,
    random_bott_hypercube,
    random_standard_bott,
    relation_class,
    replay_trace,
    scramble_bott,
)
from oracles import (
    CohClass,
    affine_unimodular_image,
    apply,
    hirzebruch_oracle,
    images,
    is_hypercube_oracle,
    is_normal_oracle,
    omega_class,
    sign_choice_vertices,
    special_elements,
    verify_degeneration_move_oracle,
)


def hirz(a, lam):
    return BottData.make(((0, a), (0, 0)), lam)


def vset(p):
    return {tuple(v) for v in p.vertex_set()}


def random_upper(rng, n, bound=5, density=0.6):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                rows[i][j] = rng.randint(-bound, bound)
    return rows


def random_tower(rng, n):
    """Small entries and small, often rational lengths, so that the boundary
    cases u_j = 0 and u_j < 0 come up about as often as cubes do."""
    lam = []
    for j in range(n):
        q = rng.choice((1, 1, 2, 3))
        boost = rng.randint(0, 2 * j * j) if rng.random() < 0.7 else 0
        lam.append(Fraction(rng.randint(1, 4 * q), q) + boost)
    return BottData.make(random_upper(rng, n, bound=3), lam)


def min_fibre_bound(b):
    """Least u_j over the sign-choice vertices, read off the oracle's
    forward-solved candidates."""
    return min(b.lam[j] - sum(b.a[i][j] * p[i] for i in range(j))
               for p in sign_choice_vertices(b) for j in range(b.n))


def legal_permutations(rng, b, tries=20):
    out = []
    for _ in range(tries):
        perm = list(range(b.n))
        rng.shuffle(perm)
        if all(perm[i] < perm[j] for i in range(b.n) for j in range(b.n) if b.a[i][j]):
            out.append(perm)
    return out


class TestBottPolytope:
    def test_unit_square(self):
        p = bott_polytope(BottData.make(((0, 0), (0, 0)), (1, 1)))
        assert vset(p) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_trapezoid(self):
        p = bott_polytope(hirz(2, (1, 5)))
        assert vset(p) == {(0, 0), (1, 0), (1, 3), (0, 5)}

    def test_block_model_is_cube(self):
        b = BottData.make(((0, 0, -1), (0, 0, -1), (0, 0, 0)), (1, 1, 3))
        p = bott_polytope(b)
        assert len(p.vertex_set()) == 8
        assert is_hypercube(b)

    def test_strict_triangularity_enforced(self):
        with pytest.raises(ValueError):
            BottData.make(((0, 0), (1, 0)), (1, 1))
        with pytest.raises(ValueError):
            BottData.make(((1, 0), (0, 0)), (1, 1))

    def test_positive_lengths(self):
        with pytest.raises(ValueError):
            BottData.make(((0, 0), (0, 0)), (1, 0))


class TestHypercube:
    def test_generous_lengths(self, rng):
        for _ in range(8):
            b = random_bott_hypercube(rng, rng.randint(2, 4))
            assert is_hypercube(b)

    def test_collapsed_facet(self):
        assert not is_hypercube(hirz(2, (1, 1)))
        assert not is_hypercube(hirz(2, (1, 2)))  # vertex collision

    def test_interval(self):
        assert is_hypercube(BottData.make(((0,),), (4,)))

    def test_agrees_with_generic_oracle(self, rng):
        seen = set()
        for t in range(3000):
            n = 1 + t % 5
            b = random_tower(rng, n)
            got = is_hypercube(b)
            assert got == is_hypercube_oracle(b), b
            least = min_fibre_bound(b)
            seen.add((n, got, (least > 0) - (least < 0)))
        # cubes at every n; collisions (u_j = 0) and u_j < 0 at every n >= 2
        for n in range(1, 6):
            assert (n, True, 1) in seen
        for n in range(2, 6):
            assert (n, False, 0) in seen and (n, False, -1) in seen

    def test_boundary_cases_agree_with_oracle(self):
        cases = [
            (hirz(2, (1, 2)), False),      # u_2 = 0: vertex collision
            (hirz(2, (1, 1)), False),      # u_2 < 0: collapsed facet
            (hirz(3, (Fraction(1, 3), 1)), False),
            (hirz(-3, (Fraction(1, 2), Fraction(1, 2))), True),
            # u_3 vanishes at the prefix vertex (1, 2) only
            (BottData.make(((0, 1, 2), (0, 0, 1), (0, 0, 0)), (1, 3, 4)), False),
            (BottData.make(((0, 1, 2), (0, 0, 1), (0, 0, 0)), (1, 3, 5)), True),
        ]
        for b, want in cases:
            assert is_hypercube(b) is want, b
            assert is_hypercube_oracle(b) is want, b


class TestRing:
    def test_hirzebruch_rewrites(self):
        ring = CohRing.of(hirz(2, (1, 5)))
        x1, x2 = CohClass.generator(ring, 1), CohClass.generator(ring, 2)
        assert (x1 * x1).coeffs == {0b11: Fraction(-2)}
        assert (x2 * x2).is_zero()
        assert ((x1 * x2) * x1).is_zero()

    def test_relations_annihilate(self, rng):
        for _ in range(20):
            n = rng.randint(2, 5)
            ring = CohRing(n, random_upper(rng, n))
            for i in range(1, n + 1):
                assert relation_class(ring, i).is_zero()

    def test_rank_and_idempotence(self, rng):
        n = 4
        ring = CohRing(n, random_upper(rng, n))
        # products of basis monomials stay inside the 2^n square-free span
        masks = list(range(2 ** n))
        for m1 in masks[:8]:
            for m2 in masks[:8]:
                c1 = ring.reduce_exponents(
                    tuple(((m1 >> i) & 1) for i in range(n)))
                prod = ring.multiply(c1, ring.reduce_exponents(
                    tuple(((m2 >> i) & 1) for i in range(n))))
                assert all(0 <= m < 2 ** n for m in prod)
        # reducing an already reduced exponent vector changes nothing
        exp = (1, 0, 1, 0)
        once = ring.reduce_exponents(exp)
        assert once == {0b0101: Fraction(1)}

    def test_y_square_identity(self, rng):
        for _ in range(20):
            n = rng.randint(2, 5)
            b = BottData.make(random_upper(rng, n), [1] * n)
            for k in range(1, n + 1):
                alpha, y = special_elements(b, k)
                assert (y * y) == (alpha * alpha).scaled(Fraction(1, 4))


class TestSpecialElements:
    def test_zero_matrix(self):
        b = BottData.make(((0, 0), (0, 0)), (1, 1))
        alpha, y = special_elements(b, 1)
        assert alpha.is_zero()
        assert y == CohClass.generator(CohRing.of(b), 1)

    def test_block_model(self):
        b = BottData.make(((0, 0, -1), (0, 0, -1), (0, 0, 0)), (1, 1, 1))
        ring = CohRing.of(b)
        for k in (1, 2):
            alpha, _ = special_elements(b, k)
            assert alpha == CohClass.generator(ring, 3)

    def test_hirzebruch(self):
        b = hirz(3, (1, 5))
        alpha, _ = special_elements(b, 1)
        assert alpha == CohClass.generator(CohRing.of(b), 2).scaled(-3)


class TestExceptionalType:
    def test_block_model_odd(self):
        b = BottData.make(((0, 0, -1), (0, 0, -1), (0, 0, 0)), (1, 1, 1))
        ex = exceptional_type(b, 1)
        assert (ex.kind, ex.l, ex.c) == ("odd", 3, 1)

    def test_hirzebruch_even(self):
        ex = exceptional_type(hirz(4, (1, 5)), 1)
        assert (ex.kind, ex.l, ex.c) == ("even", 2, -4)

    def test_zero_row_sentinel(self):
        ex = exceptional_type(BottData.make(((0, 0), (0, 0)), (1, 1)), 1)
        assert (ex.kind, ex.l, ex.c) == ("even", 3, 0)

    def test_non_exceptional(self):
        b = BottData.make(((0, 1, 1), (0, 0, 1), (0, 0, 0)), (1, 1, 1))
        assert exceptional_type(b, 1) is None


class TestQTrivial:
    def test_all_hirzebruch(self, rng):
        for _ in range(10):
            a = rng.randint(-6, 6)
            lam2 = abs(a) * 3 + rng.randint(1, 5)
            assert is_q_trivial(hirz(a, (1, lam2)))

    def test_block_products(self, rng):
        for n in (2, 3, 4):
            assert is_q_trivial(random_standard_bott(rng, n))

    def test_negative_example(self):
        b = BottData.make(((0, 1, 1), (0, 0, 1), (0, 0, 0)), (1, 1, 1))
        assert not is_q_trivial(b)

    def test_squares_agree_with_exceptional_types(self, rng):
        verdicts = set()
        for t in range(120):
            n = 1 + t % 4
            if t % 3 == 0:
                b = scramble_bott(random_standard_bott(rng, n), rng, steps=3)
            else:
                b = BottData.make(random_upper(rng, n, bound=2, density=0.4), [1] * n)
            by_types = all(exceptional_type(b, k) is not None for k in range(1, n + 1))
            assert is_q_trivial(b) == by_types, b
            verdicts.add(by_types)
        assert verdicts == {True, False}


def inverse_respects_relations(f: RingMap):
    """The inverse on generators kills every relation x_i^2 + sum_j a_ij x_j x_i
    of the target ring.  ring_map_check leaves this out: it follows from the
    unimodularity and source-relation checks."""
    g = f.inverse()
    imgs = images(g)
    for i, xi in enumerate(imgs):
        rel = xi * xi
        for j, coef in enumerate(g.source.a[i]):
            if coef:
                rel = rel + (imgs[j] * xi).scaled(coef)
        if not rel.is_zero():
            return False
    return True


class TestRingMapCheck:
    def test_hirzebruch_isomorphism(self):
        src = hirz(0, (1, 3))
        dst = hirz(4, (1, 5))
        f = RingMap(CohRing.of(src), CohRing.of(dst), ((1, 2), (0, 1)))
        assert ring_map_check(f, src.lam, dst.lam)

    def test_omega_condition_fails(self):
        src = hirz(0, (1, 3))
        dst = hirz(4, (1, 6))
        f = RingMap(CohRing.of(src), CohRing.of(dst), ((1, 2), (0, 1)))
        assert not ring_map_check(f, src.lam, dst.lam)

    def test_identity(self):
        b = hirz(2, (1, 5))
        ring = CohRing.of(b)
        f = RingMap(ring, ring, linalg.identity(2))
        assert ring_map_check(f, b.lam, b.lam)

    def test_odd_parity_gate(self):
        # displacement between A=0 and A=1 is odd: no half-integer map exists
        with pytest.raises(MoveError):
            parametrized_move(hirz(0, (1, 3)), 1, 2, 1)

    def test_inverse_half_fails_off_the_relations(self):
        ring_s, ring_d = CohRing.of(hirz(0, (1, 3))), CohRing.of(hirz(4, (1, 5)))
        f = RingMap(ring_s, ring_d, ((1, 0), (0, 1)))
        assert not inverse_respects_relations(f)
        assert not ring_map_check(f, (1, 3), (1, 5))

    def test_accepted_moves_and_decisions_invert(self, rng):
        moves = []
        for t in range(30):
            n = 2 + t % 3
            if t % 2:
                b = scramble_bott(random_standard_bott(rng, n), rng, steps=3)
            else:
                b = random_bott_hypercube(rng, n)
            for k in range(1, n + 1):
                steps = [lambda: flip(b, k)]
                for l in range(k + 1, n + 1):
                    steps += [lambda l=l: elementary_move(b, k, l),
                              lambda l=l: parametrized_move(
                                  b, k, l, b.a[k - 1][l - 1] + 2 * rng.choice((-2, -1, 1, 2)))]
                for step in steps:
                    try:
                        moves.append(step())
                    except MoveError:
                        pass
        assert sum(mv.certified for mv in moves) > 20 and len(moves) > 60
        for mv in moves:
            assert inverse_respects_relations(mv.ring_map), (mv.kind, mv.params)
        for t in range(9):
            base = random_standard_bott(rng, 2 + t % 3)
            dec = decide_symplectomorphic(scramble_bott(base, rng, steps=3),
                                          scramble_bott(base, rng, steps=3))
            assert dec.yes and inverse_respects_relations(dec.ring_map)

    def test_inverse_is_integral(self):
        ring = CohRing(2, ((0, 0), (0, 0)))
        g = RingMap(ring, ring, ((1, 2), (0, 1))).inverse()
        assert g.m == ((1, -2), (0, 1))
        assert all(type(x) is int for row in g.m for x in row)
        # det 1, but neither the matrix nor its inverse is integral
        with pytest.raises(ValueError, match="over the integers"):
            RingMap(ring, ring, ((2, 0), (0, Fraction(1, 2)))).inverse()
        with pytest.raises(ValueError, match="over the integers"):
            RingMap(ring, ring, ((2, 0), (0, 1))).inverse()

    def test_non_unimodular_rejected(self):
        # x1 -> 2 x1 descends in the untwisted ring but does not invert over Z
        ring = CohRing(2, ((0, 0), (0, 0)))
        f = RingMap(ring, ring, ((2, 0), (0, 1)))
        assert not ring_map_check(f, (1, 1), (1, 1))


class TestMoves:
    def test_spec_move(self):
        mv = elementary_move(BottData.make(((0, 4), (0, 0)), (1, 5)), 1, 2)
        assert mv.result.a == ((0, 0), (0, 0))
        assert mv.result.lam == (Fraction(1), Fraction(3))
        assert mv.certified

    def test_identity_move(self):
        b = hirz(0, (1, 3))
        mv = elementary_move(b, 1, 2)
        assert mv.result == b
        assert mv.ring_map.matrix() == linalg.identity(2)

    def test_odd_normalization(self):
        mv = elementary_move(hirz(3, (1, 5)), 1, 2)
        assert mv.result.a[0][1] == -1
        assert mv.certified

    def test_round_trip(self, rng):
        for _ in range(10):
            b = random_bott_hypercube(rng, rng.randint(2, 4))
            ks = [k for k in range(1, b.n) if any(b.a[k - 1])]
            if not ks:
                continue
            k = rng.choice(ks)
            l = next(j + 1 for j in range(b.n) if b.a[k - 1][j])
            entry = b.a[k - 1][l - 1]
            try:
                fwd = parametrized_move(b, k, l, entry + 2)
            except MoveError:
                continue
            back = parametrized_move(fwd.result, k, l, entry)
            assert back.result == b
            assert fwd.ring_map.compose(back.ring_map).matrix() == linalg.identity(b.n)

    def test_move_preserves_omega(self, rng):
        for _ in range(10):
            b = random_bott_hypercube(rng, 3)
            try:
                mv = parametrized_move(b, 1, 2, b.a[0][1] + 2)
            except MoveError:
                continue
            assert apply(mv.ring_map, omega_class(CohRing.of(b), b.lam)) == omega_class(
                CohRing.of(mv.result), mv.result.lam)

    def test_flip_involution(self, rng):
        for _ in range(8):
            b = random_bott_hypercube(rng, 3)
            k = rng.randint(1, 3)
            once = flip(b, k)
            twice = flip(once.result, k)
            assert twice.result == b

    def test_flip_is_lattice_equivalence(self, rng):
        # the swapped datum describes the same polytope in new coordinates:
        # p_k -> lam_k - p_k - sum_{i<k} A^i_k p_i, other coordinates fixed
        for _ in range(8):
            b = random_bott_hypercube(rng, rng.randint(2, 4))
            k = rng.randint(1, b.n)
            swapped = flip(b, k).result
            m = [[1 if i == j else 0 for j in range(b.n)] for i in range(b.n)]
            m[k - 1] = [-(b.a[i][k - 1]) if i < k - 1 else 0 for i in range(b.n)]
            m[k - 1][k - 1] = -1
            t = [0] * b.n
            t[k - 1] = b.lam[k - 1]
            image = affine_unimodular_image(bott_polytope(b), tuple(tuple(r) for r in m), t)
            assert image == bott_polytope(swapped)

    def test_random_certified_moves_verify(self, rng):
        # every certified move must pass the level-by-level cone check
        checked = 0
        while checked < 8:
            b = random_bott_hypercube(rng, 2, entry_bound=2, lam_bound=4)
            entry = b.a[0][1]
            target = entry + 2 * rng.randint(0, 2)
            try:
                rep = verify_degeneration_move(b, 1, 2, c=(entry + target) // 2,
                                               max_level=2)
            except MoveError:
                continue
            assert rep.all_pass, (b, target)
            checked += 1

    def test_flip_and_permutation_maps_descend(self, rng):
        def check(b, mv):
            assert ring_map_check(mv.ring_map, b.lam, mv.result.lam), (b, mv.kind, mv.params)

        flips = perms = 0
        for t in range(40):
            n = 2 + t % 3
            if t % 2:
                b = scramble_bott(random_standard_bott(rng, n), rng, steps=3)
            else:
                b = random_bott_hypercube(rng, n)
            for k in range(1, n + 1):
                try:
                    mv = flip(b, k)
                except MoveError:
                    continue
                check(b, mv)
                flips += 1
            for perm in legal_permutations(rng, b):
                check(b, permutation_move(b, perm))
                perms += 1
        assert flips > 50 and perms > 50

    def test_non_exceptional_rejected(self):
        b = BottData.make(((0, 1, 1), (0, 0, 1), (0, 0, 0)), (1, 1, 1))
        with pytest.raises(MoveError):
            elementary_move(b, 1, 2)


class TestStandardForm:
    def test_block_model_fixed_point(self):
        b = BottData.make(((0, 0, -1), (0, 0, -1), (0, 0, 0)), (1, 1, 3))
        sf = standard_form(b)
        assert sf.partition == (3,)
        assert sf.data.a == b.a
        assert all(kind == "permute" for kind, _ in sf.trace)

    def test_even_hirzebruch(self):
        sf = standard_form(hirz(2, (1, 5)))
        assert sf.partition == (1, 1)
        assert sf.lam == (Fraction(1), Fraction(4))

    def test_even_negative_orientation(self):
        sf = standard_form(hirz(-4, (1, 5)))
        assert sf.partition == (1, 1)
        assert sf.lam == (Fraction(1), Fraction(7))
        assert any(kind == "flip" for kind, _ in sf.trace)

    def test_odd_hirzebruch(self):
        sf = standard_form(hirz(3, (1, 5)))
        assert sf.partition == (2,)
        assert sf.data.a[0][1] == -1

    def test_rational_lengths_rescaled(self):
        sf = standard_form(hirz(2, (Fraction(1, 2), Fraction(5, 2))))
        assert sf.scale == 2
        assert sf.lam == (Fraction(1, 2), Fraction(2))

    def test_rejects_non_trivial(self):
        b = BottData.make(((0, 1, 1), (0, 0, 1), (0, 0, 0)), (1, 1, 1))
        with pytest.raises(NotQTrivialError):
            standard_form(b)

    def test_multi_round_row_reduction(self):
        # row 1 needs flip, move, flip, move before it is standard
        b = BottData.make(((0, -2, 2), (0, 0, -2), (0, 0, 0)), (1, 10, 30))
        assert is_q_trivial(b) and is_hypercube(b)
        sf = standard_form(b)
        kinds = [kind for kind, _ in sf.trace]
        assert kinds.count("flip") >= 2
        assert sf.partition == (1, 1, 1)
        assert all(all(x == 0 for x in row) for row in sf.data.a)

    def test_scrambles_return_home(self, rng):
        for _ in range(6):
            n = rng.randint(2, 4)
            base = random_standard_bott(rng, n)
            canon = standard_form(base)
            scrambled = scramble_bott(base, rng, steps=4)
            sf = standard_form(scrambled)
            assert sf.partition == canon.partition
            assert sf.lam == canon.lam

    def test_trace_composes_to_ring_map(self, rng):
        b = scramble_bott(random_standard_bott(rng, 3), rng, steps=3)
        sf = standard_form(b)
        ring = CohRing.of(b.scaled(sf.scale))
        composed = RingMap(ring, ring, linalg.identity(b.n))
        steps = replay_trace(b, sf)
        for step in steps:
            composed = composed.compose(step.ring_map)
        assert composed.matrix() == sf.ring_map.matrix()
        assert steps[-1].result == sf.data


class TestPrimitiveSquareZero:
    def test_single_block(self):
        ring = CohRing(2, ((0, -1), (0, 0)))
        found = {tuple(sorted(z.coeffs.items())) for z in primitive_square_zero(ring)}
        x1 = (1, Fraction(1))
        x2 = (2, Fraction(1))
        expected = set()
        for sign in (1, -1):
            expected.add(((2, Fraction(sign)),))
            expected.add(((1, Fraction(2 * sign)), (2, Fraction(-sign))))
        assert found == expected

    def test_product_of_lines(self):
        ring = CohRing(2, ((0, 0), (0, 0)))
        found = {tuple(sorted(z.coeffs.items())) for z in primitive_square_zero(ring)}
        assert found == {((1, Fraction(1)),), ((1, Fraction(-1)),),
                         ((2, Fraction(1)),), ((2, Fraction(-1)),)}

    def test_block_model_count(self):
        ring = CohRing(3, ((0, 0, -1), (0, 0, -1), (0, 0, 0)))
        zs = primitive_square_zero(ring)
        assert len(zs) == 6
        gens = {frozenset(z.coeffs.items()) for z in zs}
        assert frozenset([(4, Fraction(1))]) in gens
        assert frozenset([(1, Fraction(2)), (4, Fraction(-1))]) in gens

    def test_counts_match_closed_form(self, rng):
        for _ in range(4):
            n = rng.randint(2, 4)
            b = random_standard_bott(rng, n)
            zs = primitive_square_zero(CohRing.of(b))
            assert len(zs) == 2 * n


class TestDecision:
    def test_spec_pair(self):
        dec = decide_symplectomorphic(hirz(0, (1, 3)), hirz(4, (1, 5)))
        assert dec.yes
        assert dec.ring_map.matrix() == ((1, 2), (0, 1))

    def test_identity_certificate(self):
        b = hirz(2, (1, 5))
        dec = decide_symplectomorphic(b, b)
        assert dec.yes
        assert dec.sigma == (1, 2)
        assert dec.lam_matrix == linalg.identity(2)

    def test_distinct_lengths(self):
        dec = decide_symplectomorphic(hirz(-1, (1, 3)), hirz(-1, (1, 4)))
        assert not dec.yes
        assert "mismatch" in dec.reason

    def test_partition_mismatch(self):
        dec = decide_symplectomorphic(
            BottData.make(((0, -1), (0, 0)), (1, 1)),
            BottData.make(((0, 0), (0, 0)), (1, 1)))
        assert not dec.yes
        assert "partition" in dec.reason

    def test_symmetric_with_inverse_certificates(self, rng):
        base = random_standard_bott(rng, 3)
        b1 = scramble_bott(base, rng, 3)
        b2 = scramble_bott(base, rng, 3)
        d12 = decide_symplectomorphic(b1, b2)
        d21 = decide_symplectomorphic(b2, b1)
        assert d12.yes and d21.yes
        assert d12.ring_map.compose(d21.ring_map).matrix() == linalg.identity(3)

    def test_certificate_polytope_equality(self, rng):
        base = random_standard_bott(rng, 3)
        b1 = scramble_bott(base, rng, 3)
        b2 = scramble_bott(base, rng, 3)
        dec = decide_symplectomorphic(b1, b2)
        assert dec.yes
        s1, s2 = dec.standard
        p1 = bott_polytope(BottData(3, s1.data.a, s1.lam))
        p2 = bott_polytope(BottData(3, s2.data.a, s2.lam))
        lam_t = linalg.transpose(dec.lam_matrix)
        assert affine_unimodular_image(p2, lam_t, (0, 0, 0)) == p1

    def test_yes_means_equal_standard_data(self, rng):
        for t in range(12):
            n = 2 + t % 3
            base = random_standard_bott(rng, n)
            dec = decide_symplectomorphic(scramble_bott(base, rng, steps=3),
                                          scramble_bott(base, rng, steps=3))
            assert dec.yes
            s1, s2 = dec.standard
            std1 = BottData(n, s1.data.a, s1.lam)
            std2 = BottData(n, s2.data.a, s2.lam)
            assert std1 == std2
            assert bott_polytope(std1) == bott_polytope(std2)

    def test_certificates_are_integral(self, rng):
        for t in range(9):
            base = random_standard_bott(rng, 2 + t % 4)
            dec = decide_symplectomorphic(scramble_bott(base, rng, steps=3),
                                          scramble_bott(base, rng, steps=3))
            assert dec.yes
            for f in (dec.ring_map, dec.standard[0].ring_map, dec.standard[1].ring_map):
                assert all(type(x) is int for row in f.m for x in row), f.m

    def test_requires_q_trivial(self):
        bad = BottData.make(((0, 1, 1), (0, 0, 1), (0, 0, 0)), (1, 1, 1))
        with pytest.raises(NotQTrivialError):
            decide_symplectomorphic(bad, bad)

    def test_requires_hypercube(self):
        collapsed = hirz(4, (1, 2))      # slant eats the facet: not a hypercube
        with pytest.raises(MoveError):
            decide_symplectomorphic(collapsed, collapsed)

    def test_q_triviality_tested_once_per_input(self, monkeypatch):
        from toricdeg import bott
        calls = []
        original = bott.is_q_trivial

        def counted(b):
            calls.append(b)
            return original(b)

        monkeypatch.setattr(bott, "is_q_trivial", counted)
        b1, b2 = hirz(0, (1, 3)), hirz(4, (1, 5))
        assert decide_symplectomorphic(b1, b2).yes
        assert calls == [b1, b2]
        calls.clear()
        assert not decide_symplectomorphic(hirz(-1, (1, 3)), hirz(-1, (1, 4))).yes
        assert len(calls) == 2
        calls.clear()
        standard_form(b1)
        assert calls == [b1]

    def test_precondition_errors_keep_order(self):
        bad = BottData.make(((0, 1, 1), (0, 0, 1), (0, 0, 0)), (1, 1, 1))
        collapsed = hirz(4, (1, 2))
        msg = "decision requires rationally trivial data"
        with pytest.raises(NotQTrivialError, match=msg):
            decide_symplectomorphic(hirz(0, (1, 3)), bad)
        # the first input is checked in full before the second
        with pytest.raises(MoveError, match="combinatorial-hypercube"):
            decide_symplectomorphic(collapsed, bad)
        with pytest.raises(NotQTrivialError, match=msg):
            decide_symplectomorphic(bad, collapsed)
        with pytest.raises(NotQTrivialError,
                           match="standard form requires rationally trivial data"):
            standard_form(bad)

    def test_broken_invariant_is_internal(self, monkeypatch):
        # D(-4; 1, 5) is flipped first and then moved: an exceptional type
        # that vanishes between the two steps breaks standardization
        from toricdeg import bott
        calls = []

        def vanishing(b, k):
            calls.append(k)
            return exceptional_type(b, k) if len(calls) == 1 else None

        monkeypatch.setattr(bott, "exceptional_type", vanishing)
        b = hirz(-4, (1, 5))
        with pytest.raises(InternalError, match="must stay exceptional"):
            decide_symplectomorphic(b, b)
        assert calls == [1, 1]

    def test_rational_lengths(self):
        # lengths are cleared to integers internally and rescaled at the end
        b1 = hirz(0, (Fraction(1, 2), Fraction(3, 2)))
        b2 = hirz(4, (Fraction(1, 2), Fraction(5, 2)))
        dec = decide_symplectomorphic(b1, b2)
        assert dec.yes
        assert apply(dec.ring_map, omega_class(CohRing.of(b1), b1.lam)) == omega_class(
            CohRing.of(b2), b2.lam)


class TestHirzebruchClassify:
    def test_spec_triples(self):
        for a, lam, a_t, lam_t, verdict in ((0, (1, 3), 4, (1, 5), True),
                                            (0, (1, 3), 1, (1, 3), False),
                                            (2, (1, 5), 2, (1, 5), True)):
            assert hirzebruch_oracle(a, lam, a_t, lam_t) == verdict
            assert decide_symplectomorphic(hirz(a, lam), hirz(a_t, lam_t)).yes == verdict

    def test_consistency_with_decision(self, rng):
        instances = []
        for a in range(-4, 5, 2):
            for l1 in (1, 2):
                for l2 in range(1, 8):
                    b = hirz(a, (l1, l2))
                    if is_hypercube(b):
                        instances.append(b)
        sample = rng.sample(instances, 12)
        for b1 in sample[:6]:
            for b2 in sample[6:]:
                expected = hirzebruch_oracle(b1.a[0][1], b1.lam, b2.a[0][1], b2.lam)
                assert decide_symplectomorphic(b1, b2).yes == expected

    def test_odd_twists_agree_with_oracle(self):
        # every twist in -3..3, odd ones included, against every other; a
        # collapsed trapezoid on either side raises MoveError in both
        sides = [(a, (l1, l2)) for a in range(-3, 4)
                 for l1 in (1, 2, Fraction(1, 2)) for l2 in (1, 2, 3, 5, Fraction(3, 2))]
        odd_yes = 0
        for a, lam in sides:
            for a_t, lam_t in sides:
                try:
                    expected = hirzebruch_oracle(a, lam, a_t, lam_t)
                except MoveError:
                    with pytest.raises(MoveError):
                        decide_symplectomorphic(hirz(a, lam), hirz(a_t, lam_t))
                    continue
                assert decide_symplectomorphic(hirz(a, lam), hirz(a_t, lam_t)).yes == expected
                odd_yes += expected and a % 2 == 1
        assert odd_yes == 91


class TestVerifyMove:
    def test_figure_scenario(self):
        rep = verify_degeneration_move(hirz(0, (1, 3)), 1, 2, c=2, max_level=4)
        assert rep.all_pass
        assert rep.target.a[0][1] == 4
        assert rep.target.lam == (Fraction(1), Fraction(5))

    def test_identity_passes(self):
        rep = verify_degeneration_move(hirz(0, (1, 3)), 1, 2, c=0, max_level=3)
        assert rep.all_pass

    def test_zero_shift_is_identity(self):
        # c = entry leaves the data unchanged; on these 3-d towers the slide
        # by c would not be the identity, so no level may be slid
        for rows, k, l, c in ((((0, 1, -1), (0, 0, 0), (0, 0, 0)), 1, 2, 1),
                              (((0, -1, 0), (0, 0, 0), (0, 0, 0)), 1, 3, 0)):
            b = BottData.make(rows, (2, 4, 5))
            rep = verify_degeneration_move(b, k, l, c=c, max_level=3)
            assert rep.target == b and rep.all_pass
            assert rep.levels == ((1, True, None), (2, True, None), (3, True, None))
            assert rep.slide == SlideDirection(k, l, c) and rep.dilated_by == 1
            assert rep == verify_degeneration_move_oracle(b, k, l, c, 3)

    def test_wrong_target_fails_at_level_one(self):
        # negative control: semigroup of the slide vs a wrong target polytope
        sg = build_semigroup(bott_polytope(hirz(0, (1, 3))), SlideDirection(1, 2, 2), 2)
        wrong = bott_polytope(hirz(4, (1, 6)))
        ok, cert = check_cone_condition(sg, wrong)
        assert not ok
        assert cert[0] == 1

    def test_uncertified_direction_rejected(self):
        with pytest.raises(MoveError):
            verify_degeneration_move(hirz(-4, (1, 5)), 1, 2)

    def test_sum_zero_pair_via_wall_slide(self):
        # entry -2 to entry 2: related by a facet swap; the c=0 wall slide
        # realizes the same lattice correspondence level by level
        rep = verify_degeneration_move(BottData.make(((0, -2), (0, 0)), (3, 10)),
                                       1, 2, c=0, max_level=3)
        assert rep.all_pass
        assert rep.target.a[0][1] == 2
        assert rep.target.lam == (Fraction(3), Fraction(16))

    def test_collapsing_target_rejected(self):
        # entry 1 with lengths (3, 4): pushing the entry to 3 would force a
        # negative facet length on the target, so no move exists
        with pytest.raises(MoveError):
            verify_degeneration_move(BottData.make(((0, 1), (0, 0)), (3, 4)),
                                     1, 2, c=2, max_level=2)

    def test_three_dimensional_tower(self):
        # slide in the (2,3)-plane of a 3-d tower; levels must match the
        # dilates of the twisted target
        b = BottData.make(((0, 0, 0), (0, 0, 2), (0, 0, 0)), (1, 1, 5))
        rep = verify_degeneration_move(b, 2, 3, max_level=3)
        assert rep.all_pass
        assert rep.target.a == ((0, 0, 0), (0, 0, 0), (0, 0, 0))
        assert rep.target.lam == (Fraction(1), Fraction(1), Fraction(4))
        assert rep.slide.c == 1

    def test_non_cube_rejected(self):
        # A^1_2 = 2 with lengths (1, 2) collapses the facet p_1 = 1; the
        # move data is no tower, so there is nothing to verify
        b = hirz(2, (1, 2))
        assert not is_hypercube(b)
        for c in (1, 2):
            with pytest.raises(MoveError, match="combinatorial-hypercube"):
                verify_degeneration_move(b, 1, 2, c=c, max_level=3)

    def test_rational_lengths_rejected(self):
        for c in (0, 1):
            with pytest.raises(NotIntegralError, match="integral lengths"):
                verify_degeneration_move(hirz(0, (Fraction(1, 2), 3)), 1, 2, c=c,
                                         max_level=2)
        # the move's own MoveError comes first
        with pytest.raises(MoveError, match="combinatorial-hypercube"):
            verify_degeneration_move(hirz(2, (Fraction(1, 2), 1)), 1, 2, c=1, max_level=2)

    def test_max_level_below_one_rejected(self):
        for c in (0, 1, 2):
            with pytest.raises(ValueError, match="max_level"):
                verify_degeneration_move(hirz(0, (1, 3)), 1, 2, c=c, max_level=0)

    def test_bott_polytopes_need_no_revalidation(self):
        """What `build_semigroup` would re-check holds for every cube with
        integral lengths: the polytope and its (n - 1)-dilate are integral,
        have the origin vertex, lie in the orthant and are Delzant, and both
        are normal, so `verify_degeneration_move` never dilates.  The
        polytope itself is checked up to degree n - 1, and below dimension 4
        also by the uncapped oracle up to degree n.  In dimension 4 the
        dilate is checked in degree 2 when it has at most 1000 lattice
        points, to keep the test fast."""
        rng = random.Random(8801)
        normal_4d = 0
        for t in range(30):
            n = 2 + t % 3
            b = random_bott_hypercube(rng, n, entry_bound=1, lam_bound=2 if n == 2 else 1)
            poly = bott_polytope(b)
            big = dilate(poly, n - 1)
            for q in (poly, big):
                verts = q.vertex_set()
                assert q.is_integral()
                assert (Fraction(0),) * n in verts
                assert all(x >= 0 for v in verts for x in v)
                assert is_delzant_smooth(q) == (True, None)
            assert is_normal(poly, n - 1) == (True, None)
            if n < 4:
                assert is_normal_oracle(poly, n) == (True, None)
                assert is_normal(big, n - 1) == (True, None)
            elif len(lattice_points(big)) <= 1000:
                assert is_normal(big, 2) == (True, None)
                normal_4d += 1
        assert normal_4d >= 3


class TestLargerTowers:
    def test_five_dimensional_decision(self, rng):
        base = random_standard_bott(rng, 5)
        scrambled = scramble_bott(base, rng, steps=3)
        dec = decide_symplectomorphic(base, scrambled)
        assert dec.yes
        assert apply(dec.ring_map, omega_class(CohRing.of(base), base.lam)) == omega_class(
            CohRing.of(scrambled), scrambled.lam)
