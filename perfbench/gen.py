"""Seeded job lists for the four workloads.

Everything here uses the standard library and its own exact arithmetic; it
never imports toricdeg, so set-up time does not move when the library gets
faster.  Every job is valid by construction: polygons come from closed-form
families (Delzant ones at the origin corner where a slide needs it), Bott data is accepted only
when the generator's own sign-choice positivity test says its polytope is a
combinatorial cube, and towers are scrambled only by operations whose
legality is decided here in closed form (relabelings, facet swaps, and
moves on product or standard-block rows).

A job list is a sequence of blocks.  Each block holds the same mix of job
classes and balances the seeded variants inside itself (for example the
slide parameters c = 1, 2, 3 appear once each), so the cost of a block, and
with it the wall time of a run, hardly depends on the seed.  The contents of
block b depend only on (workload, seed, b), never on how many blocks a run
has, so job ids are stable across run lengths.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path

WORKLOADS = ("semigroup", "equiv", "simplex", "lattice")

# Nominal seconds one block takes on a 2-vCPU Xeon VM with CPython 3.11;
# a run of S seconds gets round(S / BLOCK_SECONDS) blocks.
BLOCK_SECONDS = {"semigroup": 2.2, "equiv": 2.9, "simplex": 1.8, "lattice": 1.2}


@dataclass
class Job:
    """One CLI call: argv with {name} placeholders for the input files."""

    id: str
    argv: list
    files: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


def _rng(workload, seed, block):
    return random.Random(f"{workload}:{seed}:{block}")


def block_count(workload, seconds):
    return max(1, round(seconds / BLOCK_SECONDS[workload]))


def make_jobs(workload, seed, seconds, fixture_dir):
    """The seeded job list of one run, fixtures first."""
    make_block = _BLOCKS[workload]
    jobs = list(_fixture_jobs(workload, Path(fixture_dir)))
    for b in range(block_count(workload, seconds)):
        rng = _rng(workload, seed, b)
        block = make_block(rng, b)
        rng.shuffle(block)
        for slot, job in enumerate(block):
            job.id = f"b{b:03d}.s{slot:02d}.{job.id}"
            jobs.append(job)
    return jobs


# --- fixtures ------------------------------------------------------------------

FIXTURES = {
    "semigroup": ("rectangle_slide", "square2_saturation"),
    "equiv": ("untwisted_vs_slant4",),
    "simplex": (),
    "lattice": ("degeneration_move",),
}


def _fixture_jobs(workload, fixture_dir):
    for name in FIXTURES[workload]:
        base = fixture_dir / name
        req = json.loads((base / "request.json").read_text(encoding="utf-8"))
        expected = (base / "expected.json").read_text(encoding="utf-8")
        cmd = req["command"]
        if cmd == "semigroup":
            job = Job(name, [cmd, "--request", "{request}"], {"request": req})
        elif cmd == "bott-equiv":
            job = Job(name, [cmd, "{first}", "{second}"],
                      {"first": req["first"], "second": req["second"]})
        elif cmd == "bott-verify-move":
            job = Job(name, [cmd, "--bott", "{bott}", "--k", str(req["k"]),
                             "--l", str(req["l"]), "--c", str(req["c"]),
                             "--max-level", str(req["max_level"])],
                      {"bott": req["bott"]})
        else:
            raise ValueError(f"fixture {name} uses unsupported command {cmd!r}")
        job.id = f"fixture.{name}"
        job.expect = {"kind": "fixture", "text": expected}
        yield job


# --- polytopes -----------------------------------------------------------------


def box(dims):
    """prod [0, d_i] as inequality rows [a_1..a_n, b]."""
    n = len(dims)
    rows = []
    for i, d in enumerate(dims):
        rows.append([-1 if j == i else 0 for j in range(n)] + [0])
        rows.append([1 if j == i else 0 for j in range(n)] + [d])
    return rows


def corner_simplex(n, size):
    rows = [[-1 if j == i else 0 for j in range(n)] + [0] for i in range(n)]
    rows.append([1] * n + [size])
    return rows


def trapezoid(width, height, twist):
    """Hirzebruch trapezoid {0 <= x <= width, 0 <= y, twist*x + y <= height}."""
    return [[-1, 0, 0], [0, -1, 0], [1, 0, width], [twist, 1, height]]


def polytope(rows):
    return {"dim": len(rows[0]) - 1, "inequalities": [list(r) for r in rows]}


# --- Bott data -------------------------------------------------------------------


def is_cube(a, lam):
    """Sign-choice positivity: every upper facet stays strictly above its
    lower facet at every vertex of the cube below it."""
    n = len(lam)

    def feasible(j, p):
        if j == n:
            return True
        upper = lam[j] - sum(a[i][j] * p[i] for i in range(j))
        return upper > 0 and feasible(j + 1, p + [0]) and feasible(j + 1, p + [upper])

    return feasible(0, [])


def cube_vertices(a, lam):
    """The 2^n sign-choice vertices (forward solve)."""
    n = len(lam)
    out = set()
    for choice in product((0, 1), repeat=n):
        p = [Fraction(0)] * n
        for j in range(n):
            if choice[j]:
                p[j] = lam[j] - sum(a[i][j] * p[i] for i in range(j))
        out.add(tuple(p))
    return out


def bott_json(a, lam):
    """Bott data as the CLI reads and reports it."""
    return {"n": len(lam), "A": [list(r) for r in a],
            "lambda": [str(_fmt(x)) for x in lam]}


def bott_rows(a, lam):
    """Inequality rows of the Bott polytope."""
    n = len(lam)
    rows = []
    for j in range(n):
        rows.append([-1 if i == j else 0 for i in range(n)] + [0])
        rows.append([(1 if i == j else 0) + a[i][j] for i in range(n)] + [_fmt(lam[j])])
    return rows


def _fmt(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def block_product(sizes, lengths):
    """Standard block product: in each block every nonterminal row holds a
    single -1 at the block's terminal, which is the block's last index."""
    n = sum(sizes)
    a = [[0] * n for _ in range(n)]
    start = 0
    for s in sizes:
        t = start + s - 1
        for k in range(start, t):
            a[k][t] = -1
        start += s
    return a, list(lengths)


def block_moves(rng, a, lam):
    """A certified move on every nonterminal row: entry -1 -> 1 or 3.

    Row k holds a single -1 at terminal t, t has a zero row and nothing
    points at k, so x_k is odd exceptional along t and the move descends;
    -1 + target >= 0 makes it a symplectomorphism.  Target 3 is kept only
    when the result is still a combinatorial cube; target 1 always is.
    """
    n = len(lam)
    for k in range(n):
        nz = [j for j in range(n) if a[k][j]]
        if len(nz) != 1 or a[k][nz[0]] != -1:
            continue
        t = nz[0]
        if any(a[t]) or any(a[i][k] for i in range(n)):
            continue
        for target in ((3, 1) if rng.random() < 0.5 else (1,)):
            b = [row[:] for row in a]
            b[k][t] = target
            mu = list(lam)
            mu[t] = lam[t] + lam[k] * ((target + 1) // 2)
            if is_cube(b, mu):
                a, lam = b, mu
                break
    return a, lam


def flip(a, lam, k):
    """Swap the two facets of coordinate k (an affine lattice symmetry)."""
    n = len(lam)
    b = [row[:] for row in a]
    mu = list(lam)
    for j in range(k + 1, n):
        coef = a[k][j]
        if coef == 0:
            continue
        b[k][j] = -coef
        for i in range(k):
            b[i][j] = a[i][j] - coef * a[i][k]
        mu[j] = lam[j] - coef * lam[k]
    return b, mu


def relabel(rng, a, lam):
    """Random relabeling that keeps A strictly upper triangular.

    The new order is a random linear extension of i -> j for A_ij != 0.
    """
    n = len(lam)
    indeg = [sum(1 for i in range(n) if a[i][j]) for j in range(n)]
    ready = [j for j in range(n) if indeg[j] == 0]
    order = []
    while ready:
        j = ready.pop(rng.randrange(len(ready)))
        order.append(j)
        for t in range(n):
            if a[j][t]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    ready.append(t)
    pos = {old: new for new, old in enumerate(order)}
    b = [[0] * n for _ in range(n)]
    mu = [None] * n
    for i in range(n):
        mu[pos[i]] = lam[i]
        for j in range(n):
            if a[i][j]:
                b[pos[i]][pos[j]] = a[i][j]
    return b, mu


def scramble(rng, a, lam):
    """Symplectomorphic scramble: a certified move on every nonterminal
    row, one facet swap, and a relabeling."""
    a, lam = block_moves(rng, a, lam)
    a, lam = flip(a, lam, rng.randrange(len(lam)))
    a, lam = relabel(rng, a, lam)
    if not is_cube(a, lam):
        raise AssertionError("scramble left the cube family")
    return a, lam


def composition(rng, n, parts):
    """A random composition of n into the given number of positive parts."""
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


# --- workloads -------------------------------------------------------------------
#
# Inside a block, cost-heavy choices are balanced (each slide parameter once,
# each shape once) or drawn from families of equal volume, so that the seed
# changes the inputs but hardly the cost of a block.


def _semigroup_job(tag, rows, k, l, c, level):
    req = {"polytope": polytope(rows), "k": k, "l": l, "c": c, "max_level": level}
    return Job(tag, ["semigroup", "--request", "{request}"], {"request": req},
               {"kind": "semigroup", "rows": rows, "k": k, "l": l, "c": c,
                "level": level})


def semigroup_block(rng, b):
    """Small Delzant polygons at levels 2-4 with every c = 1-3, a 3-d corner
    simplex at level 2, and on every third block a 3-d unit box at level 2."""
    jobs = []
    for c in rng.sample((1, 2, 3), 3):
        jobs.append(_semigroup_job("tri1", corner_simplex(2, 1), 1, 2, c, 4))
    for c in rng.sample((1, 2, 3), 3):
        jobs.append(_semigroup_job("tri2", corner_simplex(2, 2), 1, 2, c, 3))
    for shape, c in zip(((1, 2, 1), (1, 3, 2), (1, 2, -1)), rng.sample((1, 2, 3), 3)):
        jobs.append(_semigroup_job("trap", trapezoid(*shape), 1, 2, c, 3))
    for dims, c in zip(((1, 2), (2, 1)), rng.sample((1, 2, 3), 2)):
        jobs.append(_semigroup_job("box2", box(dims), 1, 2, c, 3))
    jobs.append(_semigroup_job("tri3", corner_simplex(2, 3), 1, 2, rng.choice((1, 2, 3)), 2))
    for k, l in rng.sample(((1, 2), (1, 3), (2, 3)), 2):
        jobs.append(_semigroup_job("simplex3", corner_simplex(3, 1), k, l,
                                   rng.choice((1, 2)), 2))
    if b % 3 == 0:
        k, l = ((1, 2), (1, 3), (2, 3))[(b // 3) % 3]
        jobs.append(_semigroup_job("box3", box((1, 1, 1)), k, l, 1, 2))
    return jobs


def _tower(rng, n, blocks):
    sizes = composition(rng, n, blocks)
    return sizes, [rng.randint(1, 4) for _ in range(n)]


def _equiv_job(rng, n, blocks, same):
    """`bott-equiv` on two scrambled standard block products.

    A symplectomorphic pair scrambles one product twice; otherwise the
    second product has one length grown, so its volume differs."""
    sizes, lengths = _tower(rng, n, blocks)
    other = list(lengths)
    if not same:
        other[rng.randrange(n)] += rng.randint(1, 2)
    a1, l1 = scramble(rng, *block_product(sizes, lengths))
    a2, l2 = scramble(rng, *block_product(sizes, other))
    return Job(f"equiv{n}", ["bott-equiv", "{first}", "{second}"],
               {"first": bott_json(a1, l1), "second": bott_json(a2, l2)},
               {"kind": "equiv", "verdict": same})


def _bott_polytope_job(rng, n):
    a, lam = scramble(rng, *block_product(*_tower(rng, n, rng.randint(1, 3))))
    return Job(f"polytope{n}", ["bott-polytope", "--bott", "{bott}"],
               {"bott": bott_json(a, lam)},
               {"kind": "bott-polytope", "A": a, "lambda": [_fmt(x) for x in lam]})


def equiv_block(rng, b):
    """`bott-equiv` on tower pairs with n = 3-5, half of them
    symplectomorphic, and `bott-polytope` with n = 3-6.  The two n = 6
    polytopes, whose cost hardly varies, hold the 90th latency percentile;
    above them sit an n = 5 pair on every other block and, on one block in
    six each, an n = 6 pair and an n = 7 polytope."""
    shapes = [(3, 1), (3, 2)] * 6 + [(4, 2), (4, 2)]
    if b % 2 == 0:
        shapes.append((5, 2))
    jobs = [_equiv_job(rng, n, blocks, same=(i + b) % 2 == 0)
            for i, (n, blocks) in enumerate(shapes)]
    for n in (3, 3, 4, 5, 6, 6):
        jobs.append(_bott_polytope_job(rng, n))
    if b % 6 == 1:
        jobs.append(_equiv_job(rng, 6, 3, same=b % 12 == 1))
    elif b % 6 == 4:
        jobs.append(_bott_polytope_job(rng, 7))
    return jobs


def _gw_job(tag, rows, bound):
    return Job(tag, ["gw-simplex", "--polytope", "{polytope}", "--bound", str(bound),
                     "--mode", "exhaustive"],
               {"polytope": polytope(rows)}, {"kind": "gw-simplex", "rows": rows})


def lattice_polygon(rng, facets):
    """A lattice polygon with a fixed normal fan per facet count.

    A box [x0, x0+w] x [y0, y0+h], with the corner cut by x + y <= ... for
    five facets and both diagonal corners cut for six; three facets give a
    corner triangle.  Sizes and position are seeded; the fan is not, so
    Fourier-Motzkin does the same work on every polygon of one facet count.
    """
    x0, y0 = rng.randint(0, 3), rng.randint(0, 3)
    if facets == 3:
        return [[-1, 0, -x0], [0, -1, -y0], [1, 1, x0 + y0 + rng.randint(2, 6)]]
    w, h = rng.randint(2, 5), rng.randint(2, 5)
    rows = [[-1, 0, -x0], [0, -1, -y0], [1, 0, x0 + w], [0, 1, y0 + h]]
    if facets >= 5:
        rows.append([1, 1, x0 + w + y0 + h - rng.randint(1, min(w, h) - 1)])
    if facets == 6:
        rows.append([-1, -1, -(x0 + y0 + rng.randint(1, min(w, h) - 1))])
    return rows


def simplex_block(rng, b):
    """Lattice polygons: at entry bound 2 three with 3 facets and two each
    with 4-6, which hold the median latency; at bound 3 one each with 4 and
    5 facets and two with 6, which hold the 90th percentile.  Every twelfth
    block adds a 3-d box at bound 1; boxes share their facet normals, so
    their cost hardly varies."""
    jobs = [_gw_job(f"polygon{f}", lattice_polygon(rng, f), 2)
            for f in (3, 3, 3, 4, 4, 5, 5, 6, 6)]
    jobs += [_gw_job(f"polygon{f}", lattice_polygon(rng, f), 3) for f in (4, 5, 6, 6)]
    if b % 12 == 0:
        jobs.append(_gw_job("body3", box([rng.randint(1, 3) for _ in range(3)]), 1))
    return jobs


def _move_job(tag, a, lam, k, l, c, level, target_a, target_lam):
    return Job(tag, ["bott-verify-move", "--bott", "{bott}", "--k", str(k), "--l", str(l),
                     "--c", str(c), "--max-level", str(level)],
               {"bott": bott_json(a, lam)},
               {"kind": "verify-move", "target": bott_json(target_a, target_lam)})


def hirzebruch_move(rng, level, c, area):
    """A legal move on a 2-d tower of the given area: entry a -> 2c - a.

    The trapezoid [0, 2] x [0, l2] cut by a*x + y <= l2 has area 2*l2 - 2a,
    so l2 = area/2 + a keeps it, and the move preserves it.  The source is
    a cube iff l2 > 2a and the target iff l2 > 2c.
    """
    while True:
        a = rng.randint(-2, 2)
        l2 = area // 2 + a
        if l2 > 2 * a and l2 > 2 * c:
            break
    lam = [2, l2]
    target = [[0, 2 * c - a], [0, 0]]
    return _move_job("move2", [[0, a], [0, 0]], lam, 1, 2, c, level, target,
                     [lam[0], lam[1] + lam[0] * (c - a)])


def tower_move(rng, level):
    """A legal move on a 3-d product or standard-block tower.

    Row k is zero (product) or a single -1 at l (standard block); row l is
    zero and no row points at k, so x_k is exceptional along l and the
    generator shift descends.  The move is kept when the target is a cube.
    """
    while True:
        k, l = rng.choice(((0, 1), (0, 2), (1, 2)))
        a = [[0] * 3 for _ in range(3)]
        if rng.random() < 0.5:
            a[k][l] = -1
        lam = rng.sample((1, 1, 2), 3)
        c = rng.randint(1, 2)
        entry = a[k][l]
        target = [row[:] for row in a]
        target[k][l] = 2 * c - entry
        mu = list(lam)
        mu[l] = lam[l] + lam[k] * (c - entry)
        if is_cube(a, lam) and is_cube(target, mu):
            return _move_job("move3", a, lam, k + 1, l + 1, c, level, target, mu)


def _saturation_job(tag, rows, c, level):
    req = {"polytope": polytope(rows), "k": 1, "l": 2, "c": c, "max_level": level}
    return Job(tag, ["saturation", "--request", "{request}"], {"request": req},
               {"kind": "saturation", "rows": rows, "c": c, "level": level})


def lattice_block(rng, b):
    """Moves on 2-d towers of area 8 at levels 6-8, moves on 3-d towers at
    levels 4-5, and saturation of Delzant polygons at level 6."""
    jobs = [hirzebruch_move(rng, level, c, 8)
            for level, c in ((6, rng.randint(1, 2)), (7, rng.randint(1, 2)),
                             (8, rng.randint(1, 2)), (8, 0))]
    jobs += [tower_move(rng, level) for level in (4, 5, 5)]
    for dims, c in zip(((2, 2), (2, 3), (3, 3)), rng.sample((1, 2, 3), 3)):
        jobs.append(_saturation_job("sat-box", box(rng.sample(dims, 2)), c, 6))
    for size, c in zip((2, 3), rng.sample((1, 2, 3), 2)):
        jobs.append(_saturation_job("sat-tri", corner_simplex(2, size), c, 6))
    return jobs


_BLOCKS = {
    "semigroup": semigroup_block,
    "equiv": equiv_block,
    "simplex": simplex_block,
    "lattice": lattice_block,
}
