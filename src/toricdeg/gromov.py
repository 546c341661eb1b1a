"""Gromov width lower bounds: the coroot minimum formula and simplex fitting.

The coroot formula evaluates min |<lambda, coroot>| over nonzero pairings in
the standard orthogonal realizations of the classical families (plus G2).
The simplex search looks for the largest open simplex of size a whose image
under an integer unimodular map plus translation sits inside a polytope; the
search is exhaustive over bounded matrix entries and certifies its answer
with an explicit (a, Psi, x) triple.

The fit LP sees a map only through its facet loads, which depend only on
the set of its columns, so the search scans column sets, C((2b+1)^n, n)
determinants at entry bound b, and groups them by load vector.  By LP
duality each group's optimum is the least ratio (b.r) / (c.r) over the
extreme rays r of one cone per polytope, found once by the double
description kernel.  At the winning value a* the optimal translations are
the polytope with each facet moved in by a* times its load, the optimal
face of the LP; the witness x is its lex-least vertex, from the same kernel.

Openness is harmless here: a closed convex set contains Psi(int S(a)) + x
exactly when it contains the closed simplex vertices, so the fit test works
with the closed hull.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, lcm
from operator import mul

from . import linalg
from .errors import (
    EmptyPolytopeError,
    InternalError,
    LowerDimensionalError,
    UnboundedError,
    WorkLimitError,
    ZeroOrbitError,
)
from .geometry import HalfSpace, HPolytope, _extreme_rays, frac_vec

FAMILIES = ("A", "B", "C", "D", "G2")


@dataclass(frozen=True)
class RootSystemSpec:
    """Family label and rank; realization fixes the coroot list."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "G2":
            if self.rank != 2:
                raise ValueError("G2 has rank 2")
        elif self.family == "D":
            if self.rank < 2:
                raise ValueError("family D needs rank >= 2")
        elif self.rank < 1:
            raise ValueError("rank must be positive")

    @property
    def ambient_dim(self):
        if self.family == "A":
            return self.rank + 1
        if self.family == "G2":
            return 3
        return self.rank


def _signed_pairs(n, signs):
    out = []
    for i, j in combinations(range(n), 2):
        for si, sj in signs:
            v = [0] * n
            v[i] = si
            v[j] = sj
            out.append(tuple(v))
    return out


def coroots(spec: RootSystemSpec):
    """Full coroot list as integer vectors in the standard realization.

    A_r lives in R^(r+1) with coroots e_i - e_j.  B_n has coroots
    {+-e_i +- e_j} u {+-2 e_i}, C_n has {+-e_i +- e_j} u {+-e_i}, D_n has
    {+-e_i +- e_j} (D_2 degenerates to A_1 x A_1 and is kept for
    completeness).  G2 weights live in the sum-zero plane of R^3; its six
    long-root coroots are listed as the integer representatives +-e_i of
    their classes modulo (1,1,1), which pair correctly with every sum-zero
    weight.
    """
    n = spec.rank
    fam = spec.family
    if fam == "A":
        vecs = []
        for i, j in permutations(range(n + 1), 2):
            v = [0] * (n + 1)
            v[i] = 1
            v[j] = -1
            vecs.append(tuple(v))
        return sorted(vecs)
    if fam == "G2":
        short = []
        for i, j in permutations(range(3), 2):
            v = [0] * 3
            v[i] = 1
            v[j] = -1
            short.append(tuple(v))
        axes = []
        for i in range(3):
            for s in (1, -1):
                v = [0] * 3
                v[i] = s
                axes.append(tuple(v))
        return sorted(short + axes)
    pairs = _signed_pairs(n, [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    axes = []
    if fam in ("B", "C"):
        unit = 2 if fam == "B" else 1
        for i in range(n):
            for s in (unit, -unit):
                v = [0] * n
                v[i] = s
                axes.append(tuple(v))
    return sorted(pairs + axes)


def gw_formula(spec: RootSystemSpec, lam) -> Fraction:
    """min |<lambda, coroot>| over coroots pairing nonzero with lambda."""
    lam = frac_vec(lam)
    if len(lam) != spec.ambient_dim:
        raise ValueError(
            f"weight has dimension {len(lam)}, realization needs {spec.ambient_dim}")
    values = []
    for alpha in coroots(spec):
        pairing = linalg.vec_dot(lam, alpha)
        if pairing != 0:
            values.append(abs(pairing))
    if not values:
        raise ZeroOrbitError("zero orbit")
    return min(values)


def simplex_vertices(n: int, a):
    a = Fraction(a)
    verts = [tuple(Fraction(0) for _ in range(n))]
    for i in range(n):
        verts.append(tuple(a if j == i else Fraction(0) for j in range(n)))
    return verts


@dataclass(frozen=True)
class SimplexFit:
    """Certificate: unimodular psi and translation x place the size-a simplex."""

    a: Fraction
    psi: tuple
    x: tuple


def fits(delta: HPolytope, fit: SimplexFit) -> bool:
    """Is the (open) simplex image inside the closed polytope?

    Equivalent to closed containment of the mapped simplex vertices because
    delta is closed and convex.
    """
    if abs(linalg.mat_det(fit.psi)) != 1:
        raise ValueError("psi must be unimodular")
    for v in simplex_vertices(delta.dim, fit.a):
        w = linalg.vec_add(linalg.mat_vec(fit.psi, v), fit.x)
        if not delta.contains(w):
            return False
    return True


# Exhaustive search cap: the number of column sets C((2b+1)^n, n), each
# one determinant.
MAX_COLUMN_SETS = 2_000_000
# Heuristic search length: random row operations tried per walk.
HEURISTIC_STEPS = 400


def _column_sets(n, bound):
    """Unimodular psi with entries in [-bound, bound], one per set of
    columns: the columns in lexicographic order, which makes psi the
    row-major-least matrix with that column set."""
    cols = product(range(-bound, bound + 1), repeat=n)     # lexicographic
    for c in combinations(cols, n):
        if abs(linalg.mat_det(c)) == 1:
            yield tuple(zip(*c))


class _FacetDots(dict):
    """<u, v> for every facet normal u of delta, memoized per column v."""

    def __init__(self, delta: HPolytope):
        super().__init__()
        self.normals = [h.normal for h in delta.halfspaces]

    def __missing__(self, v):
        out = self[v] = tuple(linalg.vec_dot(u, v) for u in self.normals)
        return out


def _facet_loads(dots: _FacetDots, psi):
    """Per facet u, the load max(0, max_i <u, psi_col_i>) of the mapped
    simplex: the only way the fit LP depends on psi."""
    return tuple(max(0, *d) for d in zip(*(dots[col] for col in zip(*psi))))


def _load_groups(delta: HPolytope, bound):
    """{load vector: row-major-least psi producing it} over every unimodular
    psi with entries in [-bound, bound]."""
    dots = _FacetDots(delta)
    groups = {}
    for psi in _column_sets(delta.dim, bound):
        loads = _facet_loads(dots, psi)
        groups[loads] = min(groups.get(loads, psi), psi)
    return groups


def _fit_value(delta: HPolytope):
    """The optimum of the fit LP max{a : u_h.x + c_h a <= b_h, a >= 0} as a
    function of the load vector c, by LP duality.

    The dual minimizes b.y over {y >= 0 : sum_h y_h u_h = 0, c.y >= 1}, so
    its optimum sits on an extreme ray r of the pointed cone
    {y >= 0 : sum_h y_h u_h = 0} scaled to c.r = 1: the value is the least
    (b.r) / (c.r) over the rays with c.r > 0.  Delta is bounded and full
    dimensional, so every load vector of a unimodular psi has such a ray.
    The rays come from one double-description call per polytope; ratios are
    compared by integer cross-multiplication.
    """
    normals = [h.normal for h in delta.halfspaces]
    m = len(normals)
    rows = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    for col in zip(*normals):
        rows += [col, tuple(-x for x in col)]
    scale = lcm(*(h.rhs.denominator for h in delta.halfspaces))
    rhs = [h.rhs.numerator * (scale // h.rhs.denominator) for h in delta.halfspaces]
    rays = [(sum(map(mul, rhs, r)), r) for r in _extreme_rays(rows, m)[1]]

    def value(loads):
        num, den = None, 0
        for w, r in rays:
            d = sum(map(mul, loads, r))
            if d > 0 and (not den or w * den < num * d):
                num, den = w, d
        return Fraction(num, den * scale)

    return value


def _best_fit(delta: HPolytope, a, loads, psi):
    """The certificate for psi at its fit value a.

    Per facet u, the binding requirement over the simplex vertices collapses
    to u.x + a * load_u <= rhs, so the optimal translations form the face
    {x : u.x <= rhs - a * load_u}, bounded because delta is.  The witness x
    is its lex-least point, a vertex, so the first of its sorted vertices.
    """
    face = HPolytope(delta.dim, [HalfSpace(h.normal, h.rhs - a * c)
                                 for c, h in zip(loads, delta.halfspaces)])
    try:
        x = face.vertex_set()[0]
    except EmptyPolytopeError:
        raise InternalError("optimal face of the simplex fit is empty") from None
    return SimplexFit(a, psi, x)


def best_simplex_lb(delta: HPolytope, bound: int = 3, mode: str = "exhaustive",
                    seed: int = 0) -> SimplexFit:
    """Largest certified simplex over unimodular maps with bounded entries.

    Exhaustive mode (n <= 3, else WorkLimitError) scans every set of n
    columns with entries in [-bound, bound], C((2 bound + 1)^n, n)
    determinants (WorkLimitError above MAX_COLUMN_SETS).  The unimodular
    sets fall into groups by facet-load vector; each group's LP value is one
    exact ray ratio (`_fit_value`), the best value wins with ties broken
    lexicographically on the flattened psi, and the winner's optimal face
    gives the lex-least witness x (`_best_fit`).  The result is a valid
    lower bound for any bound, and grows monotonically with it.  Heuristic
    mode is a seeded random walk of HEURISTIC_STEPS unimodular row
    operations that uses the same values and the same witness; it certifies
    whatever it finds but makes no maximality claim.
    """
    if not delta.is_bounded():
        raise UnboundedError("unbounded")
    if not delta.is_full_dimensional():
        raise LowerDimensionalError("simplex fitting needs a full-dimensional polytope")
    n = delta.dim
    if mode == "exhaustive":
        if n > 3:
            raise WorkLimitError("exhaustive search supported for n <= 3; use heuristic")
        if bound < 1:
            raise ValueError("bound must be >= 1")
        if comb((2 * bound + 1) ** n, n) > MAX_COLUMN_SETS:
            raise WorkLimitError(
                "exhaustive candidate space too large at this bound and "
                "dimension; lower the bound or use the heuristic mode")
        value = _fit_value(delta)
        loads, psi = min(_load_groups(delta, bound).items(),
                         key=lambda g: (-value(g[0]), g[1]))
        return _best_fit(delta, value(loads), loads, psi)
    if mode == "heuristic":
        rng = random.Random(seed)
        dots = _FacetDots(delta)
        value = _fit_value(delta)
        best = current = linalg.identity(n)
        best_a = value(_facet_loads(dots, best))
        for _ in range(HEURISTIC_STEPS):
            cand = [list(row) for row in current]
            op = rng.randrange(3)
            i = rng.randrange(n)
            j = rng.randrange(n)
            if op == 0 and i != j:
                s = rng.choice((-1, 1))
                for col in range(n):
                    cand[i][col] += s * cand[j][col]
            elif op == 1:
                cand[i], cand[j] = cand[j], cand[i]
            else:
                cand[i] = [-x for x in cand[i]]
            cand = tuple(tuple(row) for row in cand)
            if abs(linalg.mat_det(cand)) != 1:
                continue
            a = value(_facet_loads(dots, cand))
            if a >= best_a:
                if a > best_a:
                    best, best_a = cand, a
                current = cand
        return _best_fit(delta, best_a, _facet_loads(dots, best), best)
    raise ValueError(f"unknown mode {mode!r}")
