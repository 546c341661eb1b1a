"""Shared generators and independent oracles for the test suite.

Random data is always drawn from explicitly seeded Random instances so every
run is reproducible.
"""

import random
from itertools import product
from math import gcd

import pytest

from toricdeg import dilate, hull, lattice_points, linalg
from toricdeg.bott import (
    BottData,
    bott_polytope,
    flip,
    is_hypercube,
    parametrized_move,
    permutation_move,
)
from toricdeg.errors import NotSmoothError
from toricdeg.geometry import HPolytope, LatticePointSet, frac_vec
from toricdeg.valuation import GradedSemigroup

from oracles import (
    CohClass,
    affine_unimodular_image,
    edges_at_vertices,
    primitive_int_vector,
)


def unit_box(dims):
    """Box prod [0, dims_i] as an H-polytope."""
    n = len(dims)
    rows = []
    for i, d in enumerate(dims):
        e = [0] * n
        e[i] = -1
        rows.append(e + [0])
        e = [0] * n
        e[i] = 1
        rows.append(e + [d])
    return HPolytope.from_inequalities(n, rows)


def corner_simplex(n, size):
    rows = []
    for i in range(n):
        e = [0] * n
        e[i] = -1
        rows.append(e + [0])
    rows.append([1] * n + [size])
    return HPolytope.from_inequalities(n, rows)


def random_bott_hypercube(rng, n, entry_bound=2, lam_bound=9, tries=60):
    """Random Bott datum whose polytope is a combinatorial hypercube."""
    for _ in range(tries):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    rows[i][j] = rng.randint(-entry_bound, entry_bound)
        lam = [rng.randint(1, lam_bound) for _ in range(n)]
        # Generous lengths make the hypercube condition likely; verify anyway.
        for j in range(1, n):
            lam[j] += sum(abs(rows[i][j]) for i in range(j)) * max(lam[:j] + [1])
        b = BottData.make(rows, lam)
        if is_hypercube(b):
            return b
    raise AssertionError("could not sample a hypercube Bott datum")


def random_smooth_polytope(rng, n):
    """Random integral Delzant polytope normalized at the origin (n = 2, 3)."""
    kind = rng.randrange(3)
    if kind == 0:
        return unit_box([rng.randint(1, 4) for _ in range(n)])
    if kind == 1:
        return corner_simplex(n, rng.randint(1, 4))
    b = random_bott_hypercube(rng, n, entry_bound=2, lam_bound=4)
    return bott_polytope(b)


def random_integral_polygon(rng, npoints=4, box=6):
    """Full-dimensional lattice polygon hull (triangles and quadrilaterals)."""
    while True:
        pts = {(rng.randint(0, box), rng.randint(0, box)) for _ in range(npoints)}
        if len(pts) < 3:
            continue
        p = hull(sorted(pts), 2)
        if p.is_full_dimensional():
            return p


def random_standard_bott(rng, n, lam_bound=9):
    """Random canonical block product: partition of n plus positive lengths."""
    sizes = []
    left = n
    while left:
        s = rng.randint(1, left)
        sizes.append(s)
        left -= s
    rows = [[0] * n for _ in range(n)]
    pos = 0
    for s in sizes:
        terminal = pos + s - 1
        for i in range(pos, terminal):
            rows[i][terminal] = -1
        pos += s
    lam = [rng.randint(1, lam_bound) for _ in range(n)]
    return BottData.make(rows, lam)


def scramble_bott(b, rng, steps=5):
    """Apply random certified-equivalence steps: moves, flips, relabelings."""
    from toricdeg.bott import flip, parametrized_move, permutation_move
    from toricdeg.errors import MoveError

    current = b
    applied = 0
    for _ in range(80):
        if applied >= steps:
            break
        op = rng.randrange(4)
        try:
            if op <= 1 and b.n >= 2:
                k = rng.randint(1, b.n - 1)
                l = rng.randint(k + 1, b.n)
                entry = current.a[k - 1][l - 1]
                t = entry + 2 * rng.randint(-3, 3)
                if t == entry:
                    continue
                mv = parametrized_move(current, k, l, t)
            elif op == 2:
                mv = flip(current, rng.randint(1, b.n))
            else:
                perm = list(range(b.n))
                rng.shuffle(perm)
                mv = permutation_move(current, perm)
        except MoveError:
            continue
        if not is_hypercube(mv.result):
            continue
        current = mv.result
        applied += 1
    return current


def replay_trace(b, sf):
    """The `Move`s of a standard form's trace, replayed from b scaled by
    sf.scale through the checked public steps; each must succeed and
    report the kind and parameters it was replayed with."""
    steps = {"flip": flip, "move": parametrized_move, "permute": permutation_move}
    current = b.scaled(sf.scale)
    out = []
    for kind, params in sf.trace:
        mv = steps[kind](current, *((params,) if kind == "permute" else params))
        assert (mv.kind, mv.params) == (kind, params)
        out.append(mv)
        current = mv.result
    return out


def brute_force_decomposition(point, base_points, m):
    """Independent check that point splits into m elements of base_points."""
    if m == 0:
        return all(x == 0 for x in point)
    for q in base_points:
        rest = tuple(a - b for a, b in zip(point, q))
        if brute_force_decomposition(rest, base_points, m - 1):
            return True
    return False


def relation_class(ring, i):
    """x_i^2 + sum_j A^i_j x_j x_i as an unreduced-then-reduced class."""
    exp = tuple(2 if t == i - 1 else 0 for t in range(ring.n))
    out = CohClass.monomial(ring, exp)
    for j in range(i, ring.n):
        coef = ring.a[i - 1][j]
        if coef == 0:
            continue
        exp = tuple((1 if t == i - 1 else 0) + (1 if t == j else 0)
                    for t in range(ring.n))
        out = out + CohClass.monomial(ring, exp).scaled(coef)
    return out


def primitive_square_zero(ring, bound=3):
    """All primitive integer degree-one classes squaring to zero.

    Brute force over coefficient vectors with entries in [-bound, bound];
    for a standard block product the answer is the closed-form list of
    2n classes (the terminal generator and 2 x_i - terminal per block, with
    signs).
    """
    out = []
    for coeffs in product(range(-bound, bound + 1), repeat=ring.n):
        if all(c == 0 for c in coeffs):
            continue
        g = 0
        for c in coeffs:
            g = gcd(g, abs(c))
        if g != 1:
            continue
        z = CohClass.linear(ring, coeffs)
        if (z * z).is_zero():
            out.append(z)
    return out


def identity_semigroup(p, max_level):
    """Semigroup of the trivial (no-op) degeneration: plain dilate levels."""
    levels = {0: LatticePointSet(p.dim, ((0,) * p.dim,))}
    for m in range(1, max_level + 1):
        levels[m] = lattice_points(dilate(p, m))
    return GradedSemigroup(p.dim, levels, max_level)


def normalize_at_vertex(p, v):
    """Affine-unimodular image placing vertex v at the origin, edges on axes.

    Returns (image, (matrix, translation)) with image = matrix @ p + t.
    """
    v = frac_vec(v)
    adj = edges_at_vertices(p)
    if v not in adj:
        raise ValueError(f"{v} is not a vertex of the polytope")
    # Pair each edge with the axis of its leading coordinate: axis-aligned
    # corners then get the identity and opposite box corners get -identity.
    dirs = sorted((primitive_int_vector(linalg.vec_sub(w, v)) for w in adj[v]),
                  key=lambda d: (next(i for i, x in enumerate(d) if x), d))
    if len(dirs) != p.dim or abs(linalg.mat_det(linalg.transpose(dirs))) != 1:
        raise NotSmoothError(f"vertex {v} is not smooth")
    u = linalg.transpose(dirs)              # columns are edge directions
    m = linalg.mat_inverse(u)
    m = tuple(tuple(int(x) for x in row) for row in m)
    t = tuple(-x for x in linalg.mat_vec(m, v))
    return affine_unimodular_image(p, m, t), (m, t)


@pytest.fixture
def rng():
    return random.Random(20260810)
