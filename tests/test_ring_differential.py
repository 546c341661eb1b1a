"""The closed degree-2 forms of the Bott decision path against the ring
arithmetic they replace: q-triviality, exceptional types, the product of
two linear classes, ring-map composition and `ring_map_check`; and the
dict normal form of `CohRing.reduce_exponents` against plain rewriting."""

import random
from fractions import Fraction

import pytest

from toricdeg import linalg
from toricdeg.bott import (
    BottData,
    CohRing,
    RingMap,
    _product,
    elementary_move,
    exceptional_type,
    flip,
    is_q_trivial,
    parametrized_move,
    permutation_move,
    ring_map_check,
    standard_form,
)
from toricdeg.errors import MoveError

from conftest import random_bott_hypercube, random_standard_bott, replay_trace, scramble_bott
from oracles import (
    apply,
    compose_oracle,
    exceptional_type_oracle,
    is_q_trivial_oracle,
    omega_class,
    reduce_exponents_oracle,
    ring_map_check_oracle,
)


def random_tower(rng, n):
    """Upper-triangular entries in -3..3 at a random density, so that both
    q-triviality verdicts and every exceptional kind come up."""
    density = rng.choice((0.15, 0.35, 0.7))
    rows = [[rng.randint(-3, 3) if j > i and rng.random() < density else 0
             for j in range(n)] for i in range(n)]
    return BottData.make(rows, [rng.randint(1, 4) for _ in range(n)])


def random_unimodular(rng, n, steps=6):
    """Product of random elementary row operations and sign changes."""
    m = [list(row) for row in linalg.identity(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            t = rng.choice((-2, -1, 1, 2))
            m[i] = [x + t * y for x, y in zip(m[i], m[j])]
    return m


def image_row(f, lam):
    """The coefficient row of f(sum lam_i x_i), through the class oracle."""
    omega = apply(f, omega_class(f.source, lam))
    return tuple(omega.coeffs.get(1 << i, 0) for i in range(f.target.n))


def random_matrix(rng, n):
    return [[rng.choice((0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)))
             for _ in range(n)] for _ in range(n)]


def accepted_moves(rng, b):
    """Every flip, elementary and parametrized move of b that is legal."""
    steps = []
    for k in range(1, b.n + 1):
        steps.append(lambda k=k: flip(b, k))
        for l in range(k + 1, b.n + 1):
            steps += [lambda k=k, l=l: elementary_move(b, k, l),
                      lambda k=k, l=l: parametrized_move(
                          b, k, l, b.a[k - 1][l - 1] + 2 * rng.choice((-2, -1, 1, 2)))]
    out = []
    for step in steps:
        try:
            out.append(step())
        except MoveError:
            pass
    return out


class TestClosedForms:
    def test_q_triviality_matches_oracle(self):
        rng = random.Random(71)
        verdicts = set()
        for t in range(600):
            n = 1 + t % 6
            b = random_tower(rng, n)
            got = is_q_trivial(b)
            assert got == is_q_trivial_oracle(b), b
            verdicts.add((n, got))
        for n in range(3, 7):
            assert (n, True) in verdicts and (n, False) in verdicts

    def test_exceptional_types_match_oracle(self):
        rng = random.Random(72)
        kinds = set()
        for t in range(600):
            n = 1 + t % 6
            b = random_tower(rng, n)
            if t % 5 == 0:
                b = scramble_bott(random_standard_bott(rng, n), rng, steps=3)
            for k in range(1, n + 1):
                got = exceptional_type(b, k)
                assert got == exceptional_type_oracle(b, k), (b, k)
                kinds.add(None if got is None else (got.kind, got.c == 0))
        assert kinds == {None, ("even", True), ("even", False), ("odd", False)}

    def test_product_matches_ring_multiply(self):
        rng = random.Random(73)
        values = (0, 0, 1, -1, 3, -3, Fraction(1, 2), Fraction(-5, 3))
        for t in range(300):
            n = 1 + t % 6
            b = random_tower(rng, n)
            ring = CohRing.of(b)
            u = [rng.choice(values) for _ in range(n)]
            v = [rng.choice(values) for _ in range(n)]
            prod = ring.multiply({1 << i: c for i, c in enumerate(u) if c},
                                 {1 << i: c for i, c in enumerate(v) if c})
            pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
            want = tuple(prod.get((1 << p) | (1 << q), 0) for p, q in pairs)
            assert _product(b.a, u, v) == want, (b, u, v)
            assert set(prod) <= {(1 << p) | (1 << q) for p, q in pairs}
            assert all(prod.values())

    def test_reduce_exponents_matches_oracle(self):
        # exponents 0..3 reach every degree from 0 to 3n, so past the basis
        # in degree n, where the normal form is zero
        rng = random.Random(76)
        zero_past_n = 0
        for t in range(1200):
            n = 1 + t % 6
            b = random_tower(rng, n)
            ring = CohRing.of(b)
            for _ in range(5):
                exp = tuple(rng.randint(0, 3) for _ in range(n))
                got = ring.reduce_exponents(exp)
                assert got == reduce_exponents_oracle(b.a, exp), (b, exp)
                assert all(got.values())
                assert all(bin(m).count("1") == sum(exp) for m in got)
                if sum(exp) > n:
                    assert got == {}
                    zero_past_n += 1
        assert zero_past_n > 1000


class TestRingMapOracle:
    def cases(self, rng):
        """(label, map, lam, lam_t) on every kind of map."""
        out = []
        for t in range(36):
            n = 2 + t % 4
            if t % 2:
                b = scramble_bott(random_standard_bott(rng, n), rng, steps=3)
            else:
                b = random_bott_hypercube(rng, n)
            src = CohRing.of(b)
            moves = accepted_moves(rng, b)
            perm = list(range(n))
            rng.shuffle(perm)
            try:
                moves.append(permutation_move(b, perm))
            except MoveError:
                pass
            for mv in moves:
                out.append((mv.kind, mv.ring_map, b.lam, mv.result.lam))
                # the inverse, back onto the source
                out.append(("inverse", mv.ring_map.inverse(), mv.result.lam, b.lam))
                lam = list(mv.result.lam)
                lam[rng.randrange(n)] += 1
                out.append(("omega", mv.ring_map, b.lam, lam))
            other = CohRing.of(random_tower(rng, n))
            for tgt in (src, other):
                u = RingMap(src, tgt, random_unimodular(rng, n))
                # lam_t is the image of lam, so only the relations decide
                out.append(("unimodular", u, b.lam, image_row(u, b.lam)))
            m = random_unimodular(rng, n)
            m[rng.randrange(n)] = [2 * x for x in m[rng.randrange(n)]]
            out.append(("non-unimodular", RingMap(src, src, m), b.lam, b.lam))
            m = random_unimodular(rng, n)
            m[0][rng.randrange(n)] += Fraction(1, 2)
            out.append(("fractional", RingMap(src, src, m), b.lam, b.lam))
            # On the untwisted ring (x_i^2 = 0) diagonal maps respect the
            # relations and carry omega to its image, so only integrality,
            # respectively the determinant, can reject them.
            flat = CohRing(n, [[0] * n for _ in range(n)])
            for label, d in (("fractional", (Fraction(1, 2), 2)), ("non-unimodular", (2, 1))):
                m = [list(row) for row in linalg.identity(n)]
                m[0][0], m[1][1] = d
                f = RingMap(flat, flat, m)
                out.append((label, f, b.lam, image_row(f, b.lam)))
        return out

    def test_ring_map_check_matches_oracle(self):
        rng = random.Random(74)
        seen = {}
        for label, f, lam, lam_t in self.cases(rng):
            got = ring_map_check(f, lam, lam_t)
            assert got == ring_map_check_oracle(f, lam, lam_t), (label, f)
            seen.setdefault(label, set()).add(got)
        for label in ("move", "flip", "permute", "inverse"):
            assert seen[label] == {True}, label
        for label in ("omega", "non-unimodular", "fractional"):
            assert seen[label] == {False}, label
        # unimodular maps that break the relations, and some that do not
        assert seen["unimodular"] == {True, False}

    def test_compose_matches_oracle(self):
        rng = random.Random(75)
        for t in range(120):
            n = 1 + t % 5
            rings = [CohRing.of(random_tower(rng, n)) for _ in range(3)]
            f = RingMap(rings[0], rings[1], random_matrix(rng, n))
            g = RingMap(rings[1], rings[2], random_matrix(rng, n))
            assert f.compose(g).matrix() == compose_oracle(f, g).matrix()
            if rings[2] != rings[0]:
                with pytest.raises(ValueError):
                    g.compose(f)
        for t in range(12):
            b = scramble_bott(random_standard_bott(rng, 2 + t % 3), rng, steps=4)
            sf = standard_form(b)
            ring = CohRing.of(b.scaled(sf.scale))
            fast = slow = RingMap(ring, ring, linalg.identity(b.n))
            for step in replay_trace(b, sf):
                fast = fast.compose(step.ring_map)
                slow = compose_oracle(slow, step.ring_map)
            assert fast.matrix() == slow.matrix() == sf.ring_map.matrix()
            back = sf.ring_map.inverse()
            assert sf.ring_map.compose(back).matrix() == compose_oracle(
                sf.ring_map, back).matrix() == linalg.identity(b.n)
