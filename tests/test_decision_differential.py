"""The Bott decision path against the code it replaced: the prefix-minimum
cube test against vertex growth (`is_hypercube_growth_oracle`), and
standardization by generator shifts against standardization through the
checked public moves (`standard_form_oracle`); plus a scale check that
keeps decisions polynomial in n."""

import random
import time
from fractions import Fraction

from toricdeg.bott import BottData, decide_symplectomorphic, is_hypercube, standard_form

from conftest import random_standard_bott, replay_trace, scramble_bott
from oracles import is_hypercube_growth_oracle, sign_choice_vertices, standard_form_oracle


def random_tower(rng, n):
    """Entries in -3..3 at a random density and rational lengths."""
    density = rng.choice((0.3, 0.6, 0.9))
    rows = [[rng.randint(-3, 3) if j > i and rng.random() < density else 0
             for j in range(n)] for i in range(n)]
    lam = [Fraction(rng.randint(1, 12), rng.randint(1, 3)) for _ in range(n)]
    return BottData.make(rows, lam)


def on_boundary(b, j):
    """b with lam_j set so that min u_j over the prefix cube is exactly 0
    (the maximum of sum_{i<j} A^i_j p_i over the prefix sign-choice
    vertices), or None when that maximum is not positive."""
    prefix = BottData.make([row[:j] for row in b.a[:j]], b.lam[:j])
    top = max(sum(b.a[i][j] * p[i] for i in range(j)) for p in sign_choice_vertices(prefix))
    if top <= 0:
        return None
    lam = list(b.lam)
    lam[j] = top
    return BottData.make(b.a, lam)


def test_cube_test_matches_vertex_growth():
    rng = random.Random(2501)
    cubes = boundary = 0
    for t in range(20000):
        b = random_tower(rng, 1 + t % 7)
        if t % 4 == 0 and b.n >= 2:
            j = rng.randint(1, b.n - 1)
            edge = on_boundary(b, j)
            if edge is not None:
                b = edge
                # a cube prefix makes u_j = 0 the deciding fact
                if is_hypercube_growth_oracle(BottData.make(
                        [row[:j] for row in b.a[:j]], b.lam[:j])):
                    assert not is_hypercube(b), b
                    boundary += 1
        got = is_hypercube(b)
        assert got == is_hypercube_growth_oracle(b), b
        cubes += got
    assert cubes >= 4000 and boundary >= 1000, (cubes, boundary)


def rationally_trivial_cubes(rng, count):
    """Scrambled standard block products, n = 2..7, some with rational
    lengths."""
    for t in range(count):
        base = random_standard_bott(rng, 2 + t % 6)
        b = scramble_bott(base, rng, steps=rng.randint(2, 8))
        if t % 3 == 0:
            b = b.scaled(Fraction(1, rng.randint(2, 4)))
        yield b


def test_standard_form_matches_checked_moves():
    rng = random.Random(2502)
    kinds = dict.fromkeys(("flip", "move", "permute"), 0)
    for b in rationally_trivial_cubes(rng, 320):
        sf = standard_form(b)
        want = standard_form_oracle(b)
        assert (sf.partition, sf.lam, sf.data, sf.scale) == \
            (want.partition, want.lam, want.data, want.scale), b
        assert sf.ring_map == want.ring_map, b
        assert sf.trace == tuple((mv.kind, mv.params) for mv in want.trace), b
        for kind, _ in sf.trace:
            kinds[kind] += 1
    assert kinds["permute"] == 320 and kinds["move"] >= 300 and kinds["flip"] >= 50, kinds


def test_trace_replays_through_checked_moves():
    """Every standardizing step is accepted by the checked public move, its
    map descends, and the steps compose to the standard form's map."""
    rng = random.Random(2503)
    for b in rationally_trivial_cubes(rng, 150):
        sf = standard_form(b)
        moves = replay_trace(b, sf)
        composed = moves[0].ring_map
        for mv in moves[1:]:
            composed = composed.compose(mv.ring_map)
        assert composed.m == sf.ring_map.m
        assert moves[-1].result == sf.data
        assert all(is_hypercube(mv.result) for mv in moves)


def test_twenty_dimensional_decisions_are_quick():
    """A scrambled three-block Yes pair and a No pair of different volume
    at n = 20, each decided in well under the exponential cost of visiting
    the 2^20 cube vertices."""
    rng = random.Random(2504)
    rows = [[0] * 20 for _ in range(20)]
    for start, end in ((0, 5), (5, 12), (12, 20)):
        for i in range(start, end - 1):
            rows[i][end - 1] = -1
    lam = [rng.randint(1, 9) for _ in range(20)]
    base = BottData.make(rows, lam)
    longer = BottData.make(rows, lam[:-1] + [lam[-1] + 1])
    for other, want in ((base, True), (longer, False)):
        b1 = scramble_bott(base, rng, steps=8)
        b2 = scramble_bott(other, rng, steps=8)
        assert b1 != base and b2 != other
        start = time.perf_counter()
        dec = decide_symplectomorphic(b1, b2)
        assert time.perf_counter() - start < 5.0
        assert dec.yes is want, dec.reason
