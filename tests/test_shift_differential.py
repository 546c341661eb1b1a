"""The generator-shift kernel `bott._shift` against the entry-by-entry
move and facet-swap rules it replaced (`move_data_oracle`, `flip_oracle`):
the target data, the ring-map matrix, and every parity or nonpositive-length
refusal, message for message."""

import random
from fractions import Fraction

from toricdeg.bott import BottData, _shift, flip, parametrized_move
from toricdeg.errors import MoveError

from oracles import flip_oracle, move_data_oracle


def random_tower(rng, n):
    """Entries in -3..3 and small, sometimes rational lengths, so that the
    shifted lengths often reach zero or below."""
    rows = [[rng.randint(-3, 3) if j > i and rng.random() < 0.6 else 0
             for j in range(n)] for i in range(n)]
    lam = [Fraction(rng.randint(1, 6), rng.choice((1, 1, 2))) for _ in range(n)]
    return BottData.make(rows, lam)


def outcome(fn, *args):
    try:
        return fn(*args)
    except MoveError as exc:
        return str(exc)


def test_moves_match_entrywise_rule():
    rng = random.Random(2001)
    seen = dict.fromkeys(("data", "accepted", "parity", "length"), 0)
    for _ in range(3000):
        b = random_tower(rng, rng.randint(2, 6))
        k = rng.randint(1, b.n - 1)
        l = rng.randint(k + 1, b.n)
        target = b.a[k - 1][l - 1] + rng.randint(-6, 6)
        want = outcome(move_data_oracle, b, k, l, target)
        if isinstance(want, str):
            # the parity gate and the kernel's length check come first
            assert outcome(parametrized_move, b, k, l, target) == want
            seen["parity" if "parity" in want else "length"] += 1
            continue
        shift = (target - b.a[k - 1][l - 1]) // 2
        v = [shift * (j == l - 1) for j in range(b.n)]
        assert _shift(b, k, v, "move") == want
        move = outcome(parametrized_move, b, k, l, target)
        if not isinstance(move, str):
            assert (move.result, move.ring_map.m) == want
            seen["accepted"] += 1
        seen["data"] += 1
    assert min(seen.values()) >= 100, seen


def test_facet_swaps_match_entrywise_rule():
    rng = random.Random(2002)
    refused = 0
    for _ in range(2000):
        b = random_tower(rng, rng.randint(2, 6))
        k = rng.randint(1, b.n)
        want = outcome(flip_oracle, b, k)
        got = outcome(flip, b, k)
        if isinstance(want, str):
            assert got == want
            refused += 1
        else:
            assert (got.result, got.ring_map.m) == want
    assert 200 <= refused <= 1800
