"""Slow generic oracles for the polytope kernel, lattice points and
normality, the slide, the Bott cube test and ring-map checks, the simplex
search and Fourier-Motzkin elimination.

These are the exhaustive algorithms the library used before the
double-description kernel: facets from every dim-subset of points, vertices
from every n-subset of facets, and boundedness from every (n-1)-subset of
normals.  Lattice points come from a scan of the whole bounding box with an
exact membership test per point, normality from Minkowski sums at every
degree up to the bound, the fibres of the last coordinate from a scan of
every prefix of the box that meets every row in turn, Delzant smoothness
from edges found by a scan of every vertex pair, the additivity of
semigroup levels from every point pair, and the slide from a rebuilt,
re-counted point set.  The symbolic valuation route is the definition the
slide computes: expand every monomial under the coordinate change and
eliminate until the lowest terms are distinct.  Move
verification compares each level as two point sets, the slid lattice
points of the source and those of the target, where the library compares
one fibre per slide line.  The move and facet-swap oracles write the
target data out entry by entry, where the library applies one generator
shift to the whole matrix.  The Bott cube oracles are the generic
geometric test that preceded the fibration criterion and the vertex growth
that preceded its prefix-minimum closed form; the standard-form oracle
standardizes through the checked public moves and composes one matrix
product per step, where the library shifts generators directly.  The
Hirzebruch oracle decides dimension 2 by the twist-parity, width and area
criterion, where the library runs the general standard-form decision.  The
affine image and the emptiness test are the polytope methods nothing in
the library called.  The q-triviality, exceptional-type, composition and
ring-map oracles multiply ring classes through the general normal form,
where the library reads closed degree-2 forms off the matrices; the class
arithmetic they use (`CohClass`, `apply`, `special_elements`) is kept here,
since the library's classes are coefficient rows and dicts.  The
normal-form oracle rewrites the polynomial term by term, with neither memo
nor degree cut.
The simplex-search oracle solves one LP per unimodular candidate, found by
a scan of every bounded-entry matrix, by Fourier-Motzkin elimination,
where the library scans column sets, values each facet-load vector by a
dual-ray ratio and takes the witness from the vertices of the optimal face;
the elimination oracle normalizes every derived row through the Fraction
lcm path.  The linear algebra oracles are the eliminations `linalg.rref`
replaced: a forward-elimination determinant, Cramer's rule and Gauss-Jordan
solves, a per-column inverse, the primitive vector scaling `HalfSpace.make`
used, and a flat hull whose basis is picked greedily, one rank test per
point difference.  They are kept only to check the production code against;
most of them are exponential in the dimension.
"""

from fractions import Fraction
from itertools import combinations, product
from math import ceil, comb, floor, gcd
from unittest import mock

from toricdeg import linalg
from toricdeg.bott import (
    BottData,
    CohRing,
    ExceptionalType,
    MoveVerification,
    RingMap,
    StandardForm,
    _row_standard,
    bott_polytope,
    elementary_move,
    exceptional_type,
    flip,
    is_hypercube,
    parametrized_move,
    permutation_move,
)
from toricdeg.errors import (
    EmptyPolytopeError,
    InternalError,
    LowerDimensionalError,
    MoveError,
    ToricDegError,
    UnboundedError,
)
from toricdeg.geometry import (
    HalfSpace,
    HPolytope,
    LatticePointSet,
    dilate,
    frac_vec,
    hull,
    is_normal,
    minkowski_sum,
)
from toricdeg.gromov import SimplexFit
from toricdeg.valuation import SlideDirection


def _hull_full_dim(points, dim):
    """Facets of a full-dimensional point set: every affinely independent
    dim-subset spans a candidate hyperplane, kept when all points lie on one
    side of it."""
    half = set()
    for subset in combinations(points, dim):
        diffs = [linalg.vec_sub(q, subset[0]) for q in subset[1:]]
        if dim > 1:
            if linalg.mat_rank(diffs) != dim - 1:
                continue
            normals = linalg.nullspace(diffs)
            if len(normals) != 1:
                continue
            normal = normals[0]
        else:
            normal = (Fraction(1),)
        c = linalg.vec_dot(normal, subset[0])
        lo = hi = False
        for q in points:
            val = linalg.vec_dot(normal, q)
            if val < c:
                lo = True
            elif val > c:
                hi = True
            if lo and hi:
                break
        if lo and hi:
            continue
        if hi:
            normal = tuple(-x for x in normal)
            c = -c
        half.add(HalfSpace.make(normal, c))
    return HPolytope(dim, half)


def hull_oracle(points, dim=None):
    """Minimal H-representation by subset enumeration, lower-dimensional
    input reduced to its affine hull by `flat_hull_oracle`."""
    pts = sorted(set(map(frac_vec, points)))
    dim = dim or len(pts[0])
    diffs = [linalg.vec_sub(p, pts[0]) for p in pts[1:]]
    if diffs and linalg.mat_rank(diffs) == dim:
        return _hull_full_dim(pts, dim)
    return flat_hull_oracle(pts, dim, hull_oracle)


def flat_hull_oracle(points, dim=None, inner=hull):
    """`hull` of points with a lower-dimensional affine hull, whose
    directions come from a greedy basis of the point differences (one rank
    test per difference): equality pairs from the normals of the affine
    hull, then the facets of `inner` in the basis coordinates, lifted."""
    pts = sorted(set(map(frac_vec, points)))
    dim = dim or len(pts[0])
    x0 = pts[0]
    diffs = [linalg.vec_sub(p, x0) for p in pts[1:]]
    r = linalg.mat_rank(diffs) if diffs else 0
    half, basis = [], []
    for d in diffs:
        if len(basis) < r and linalg.mat_rank(basis + [d]) > len(basis):
            basis.append(d)
    for row in linalg.nullspace(basis) if basis else linalg.identity(dim):
        half.append(HalfSpace.make(row, linalg.vec_dot(row, x0)))
        neg = tuple(-x for x in row)
        half.append(HalfSpace.make(neg, linalg.vec_dot(neg, x0)))
    if not basis:
        return HPolytope(dim, half)
    tmat = linalg.left_inverse(linalg.transpose(basis))
    proj = [linalg.mat_vec(tmat, linalg.vec_sub(p, x0)) for p in pts]
    for h in inner(proj, r).halfspaces:
        coeffs = linalg.mat_vec(linalg.transpose(tmat), h.normal)
        half.append(HalfSpace.make(coeffs, h.rhs + linalg.vec_dot(coeffs, x0)))
    return HPolytope(dim, half)


def recession_trivial(p: HPolytope):
    """Boundedness: a pointed cone is nontrivial iff it has an extreme ray
    cut out by dim-1 independent normals."""
    normals = [h.normal for h in p.halfspaces]
    if linalg.mat_rank(normals) < p.dim:
        return False
    for subset in combinations(normals, p.dim - 1):
        if p.dim == 1:
            basis = [(Fraction(1),)]
        else:
            if linalg.mat_rank(subset) != p.dim - 1:
                continue
            basis = linalg.nullspace(subset)
            if len(basis) != 1:
                continue
        d = basis[0]
        for ray in (d, tuple(-x for x in d)):
            if all(sum(a * b for a, b in zip(n, ray)) <= 0 for n in normals):
                return False
    return True


def vertex_candidates(p: HPolytope):
    """Feasible basic solutions of every dim-subset of the facets."""
    seen = set()
    hs = p.halfspaces
    for subset in combinations(range(len(hs)), p.dim):
        sol = linalg.solve([hs[i].normal for i in subset], [hs[i].rhs for i in subset])
        if sol is None or sol in seen:
            continue
        if p.contains(sol):
            seen.add(sol)
    return sorted(seen)


def vertex_set_oracle(p: HPolytope):
    """Sorted vertices; raises UnboundedError or EmptyPolytopeError."""
    cands = vertex_candidates(p)
    if cands:
        if not recession_trivial(p):
            raise UnboundedError("unbounded")
    else:
        rows = [(h.normal, h.rhs) for h in p.halfspaces]
        if linalg.fm_feasible(rows, p.dim):
            raise UnboundedError("unbounded")
        raise EmptyPolytopeError("empty")
    return tuple(cands)


def is_empty(p: HPolytope) -> bool:
    """No point satisfies the system: its double description has no vertex."""
    p._describe()
    return not p._vertices


def affine_unimodular_image(p: HPolytope, m, t) -> HPolytope:
    """Image under x -> m x + t with m integer unimodular and t rational;
    carries the cached vertices over when P has them."""
    if abs(linalg.mat_det(m)) != 1:
        raise ValueError("transform matrix must be unimodular")
    minv = linalg.mat_inverse(m)
    t = frac_vec(t)
    half = []
    for h in p.halfspaces:
        a = linalg.mat_vec(linalg.transpose(minv), h.normal)
        half.append(HalfSpace.make(a, h.rhs + linalg.vec_dot(a, t)))
    img = HPolytope(p.dim, half)
    if p._vertices is not None:
        img._bounded = p._bounded
        img._vertices = tuple(
            sorted(linalg.vec_add(linalg.mat_vec(m, v), t) for v in p._vertices))
    return img


def lattice_points_oracle(p: HPolytope) -> LatticePointSet:
    """Every point of the bounding box that the polytope contains."""
    verts = p.vertex_set()
    lo = [ceil(min(v[i] for v in verts)) for i in range(p.dim)]
    hi = [floor(max(v[i] for v in verts)) for i in range(p.dim)]
    pts = [cand for cand in product(*(range(lo[i], hi[i] + 1) for i in range(p.dim)))
           if p.contains(cand)]
    return LatticePointSet(p.dim, tuple(sorted(pts)))


def lattice_fibres_oracle(p: HPolytope, m=1):
    """`geometry.lattice_fibres` as a scan of every prefix: each point of
    the bounding box of the first dim - 1 coordinates of m*P meets every
    row in turn, with the box and floor(m*rhs) taken from Fractions."""
    verts = p.vertex_set()
    n = p.dim - 1
    lo = [ceil(m * min(col)) for col in zip(*verts)]
    hi = [floor(m * max(col)) for col in zip(*verts)]
    rows = [(h.normal[:n], h.normal[n], floor(m * h.rhs)) for h in p.halfspaces]
    for prefix in product(*(range(lo[i], hi[i] + 1) for i in range(n))):
        a, b = lo[n], hi[n]
        for normal, c, rhs in rows:
            s = rhs - sum(x * y for x, y in zip(normal, prefix))
            if c > 0:
                b = min(b, s // c)
            elif c < 0:
                a = max(a, -(s // -c))
            elif s < 0:
                break
            if a > b:
                break
        else:
            yield prefix, a, b


def is_normal_oracle(p: HPolytope, max_degree: int):
    """`geometry.is_normal` without the degree cap: every degree
    2..max_degree is compared with the m-fold Minkowski sum."""
    base = lattice_points_oracle(p)
    sums = base
    for m in range(2, max_degree + 1):
        sums = minkowski_sum(sums, base)
        reachable = sums.as_set()
        for pt in lattice_points_oracle(dilate(p, m)):
            if pt not in reachable:
                return (False, (m, pt))
    return (True, None)


def edges_at_vertices(p: HPolytope):
    """Map vertex -> list of adjacent vertices: two vertices span an edge
    when the rows tight at both have rank dim - 1."""
    verts = p.vertex_set()
    active = []
    for v in verts:
        active.append({i for i, h in enumerate(p.halfspaces) if h.value(v) == h.rhs})
    adj = {v: [] for v in verts}
    for (i, v), (j, w) in combinations(enumerate(verts), 2):
        common = [p.halfspaces[k].normal for k in active[i] & active[j]]
        if not common:
            continue
        if linalg.mat_rank(common) == p.dim - 1:
            adj[v].append(w)
            adj[w].append(v)
    return adj


def is_delzant_smooth_oracle(p: HPolytope):
    """`geometry.is_delzant_smooth` from the pairwise vertex scan: the
    primitive directions to the adjacent vertices must form a Z-basis."""
    if not p.is_bounded():
        raise UnboundedError("unbounded")
    if not p.is_full_dimensional():
        raise LowerDimensionalError("smoothness requires a full-dimensional polytope")
    adj = edges_at_vertices(p)
    for v in sorted(adj):
        dirs = [primitive_int_vector(linalg.vec_sub(w, v)) for w in adj[v]]
        if len(dirs) != p.dim or abs(linalg.mat_det(dirs)) != 1:
            return (False, v)
    return (True, None)


def check_additivity(sg):
    """Raise AssertionError unless level m1 + level m2 lies in level
    m1 + m2 for every m1 + m2 <= max_level."""
    for m1 in range(1, sg.max_level + 1):
        for m2 in range(m1, sg.max_level - m1 + 1):
            target = sg.levels[m1 + m2].as_set()
            for p in sg.levels[m1]:
                for q in sg.levels[m2]:
                    s = tuple(a + b for a, b in zip(p, q))
                    if s not in target:
                        raise AssertionError(
                            f"additivity violated: {p} + {q} missing at level {m1 + m2}")


def slide_oracle(s: LatticePointSet, d: SlideDirection) -> LatticePointSet:
    """`valuation.slide` rebuilt through `LatticePointSet.make` with the
    cardinality re-checked."""
    if any(x < 0 for p in s for x in p):
        raise ValueError("slide requires points in the nonnegative orthant")
    if d.l > s.dim:
        raise ValueError("direction indices exceed dimension")
    k = d.k - 1
    l = d.l - 1
    lines = {}
    for p in s:
        key = tuple(x for i, x in enumerate(p) if i not in (k, l)) + (d.c * p[k] + p[l],)
        lines.setdefault(key, []).append(p)
    out = []
    for group in lines.values():
        a = min(p[k] for p in group)
        for p in group:
            q = list(p)
            q[k] -= a
            q[l] += d.c * a
            out.append(tuple(q))
    result = LatticePointSet.make(s.dim, out)
    if len(result) != len(s):
        raise AssertionError("slide must preserve cardinality")
    return result


class DependentBasisError(ToricDegError):
    """Valuation image requested for a linearly dependent family."""


class ZeroPolynomialError(ToricDegError):
    """Valuation of the zero polynomial is undefined."""


class UPolynomial:
    """Polynomial in the local coordinates, exponents in (Z>=0)^n."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        self.dim = dim
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    self.terms[tuple(int(x) for x in e)] = c

    def is_zero(self):
        return not self.terms

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, Fraction(0)) - c
            if v == 0:
                out.pop(e, None)
            else:
                out[e] = v
        return UPolynomial(self.dim, out)

    def scaled(self, factor):
        return UPolynomial(self.dim, {e: c * factor for e, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(e, Fraction(0)) + c1 * c2
                if v == 0:
                    out.pop(e, None)
                else:
                    out[e] = v
        return UPolynomial(self.dim, out)

    def __eq__(self, other):
        return isinstance(other, UPolynomial) and self.terms == other.terms

    def __repr__(self):
        return f"UPolynomial({self.terms!r})"


def expand_monomial(alpha, d: SlideDirection) -> UPolynomial:
    """Expansion of f^alpha after substituting f_k = u_k + u_l^c.

    Binomial theorem on the k-th factor; every other coordinate passes
    through unchanged.
    """
    if d.c == 0:
        raise ValueError("c = 0 is not a coordinate change; use c >= 1")
    alpha = tuple(int(a) for a in alpha)
    if any(a < 0 for a in alpha):
        raise ValueError("exponents must be nonnegative")
    n = len(alpha)
    if d.l > n:
        raise ValueError("direction indices exceed dimension")
    k = d.k - 1
    l = d.l - 1
    terms = {}
    for j in range(alpha[k] + 1):
        e = list(alpha)
        e[k] = j
        e[l] = alpha[l] + d.c * (alpha[k] - j)
        terms[tuple(e)] = Fraction(comb(alpha[k], j))
    return UPolynomial(n, terms)


def lowest_term(p: UPolynomial):
    """Lexicographically minimal exponent among nonzero terms."""
    if p.is_zero():
        raise ZeroPolynomialError("valuation of zero undefined")
    return min(p.terms)


def valuation_image(basis) -> LatticePointSet:
    """Valuation values over the span of a linearly independent family.

    Staged elimination: while two elements share a lowest term, cancel the
    later one against the earliest-staged representative, which strictly
    raises its value.  Supports only shrink inside a fixed finite set, so
    this terminates with exactly len(basis) values.
    """
    polys = [UPolynomial(p.dim, p.terms) for p in basis]
    if not polys:
        raise ValueError("empty basis")
    dim = polys[0].dim
    reps = {}
    work = sorted(polys, key=lowest_term)
    while work:
        work.sort(key=lowest_term)
        p = work.pop(0)
        v = lowest_term(p)
        q = reps.get(v)
        if q is None:
            reps[v] = p
            continue
        p = p - q.scaled(p.terms[v] / q.terms[v])
        if p.is_zero():
            raise DependentBasisError("family is linearly dependent")
        work.append(p)
    if len(reps) != len(polys):
        raise DependentBasisError("family is linearly dependent")
    return LatticePointSet.make(dim, reps)


def level_verdicts_oracle(small: HPolytope, big: HPolytope, d: SlideDirection,
                          max_level: int):
    """`bott._level_verdicts` by point sets: level m slides the box-scanned
    lattice points of m*small and compares them with those of m*big."""
    levels = []
    for m in range(1, max_level + 1):
        have = slide_oracle(lattice_points_oracle(dilate(small, m)), d).as_set()
        want = lattice_points_oracle(dilate(big, m)).as_set()
        detail = None
        if have != want:
            detail = {"missing": sorted(want - have)[:5],
                      "extra": sorted(have - want)[:5]}
        levels.append((m, have == want, detail))
    return tuple(levels)


def verify_degeneration_move_oracle(b: BottData, k: int, l: int, c=None,
                                    max_level: int = 4) -> MoveVerification:
    """`bott.verify_degeneration_move` with its levels compared as point sets
    (`level_verdicts_oracle`) instead of line fibres; valid (k, l) only.
    It keeps the normality test and the dilation by n - 1 that the library
    drops because Bott polytopes are normal; the test is the library's,
    which `is_normal_oracle` checks elsewhere: uncapped, it would dominate.
    A zero-shift move is the identity, so every level passes unslid."""
    entry = b.a[k - 1][l - 1]
    if c is None:
        move = elementary_move(b, k, l)
        c = (entry + move.result.a[k - 1][l - 1]) // 2
    else:
        move = parametrized_move(b, k, l, 2 * c - entry)
    small, big = ((b, move.result) if move.result.a[k - 1][l - 1] >= entry
                  else (move.result, b))
    dilated_by = 1
    poly_small = bott_polytope(small)
    if not is_normal(poly_small, max_level)[0]:
        dilated_by = b.n - 1
        big = big.scaled(dilated_by)
        poly_small = dilate(poly_small, dilated_by)
    d = SlideDirection(k, l, c)
    if move.result.a[k - 1][l - 1] == entry:
        levels = tuple((m, True, None) for m in range(1, max_level + 1))
    else:
        levels = level_verdicts_oracle(poly_small, bott_polytope(big), d, max_level)
    return MoveVerification(b, move.result, d, levels, all(ok for _, ok, _ in levels),
                            dilated_by)


def move_data_oracle(b: BottData, k: int, l: int, target_entry: int):
    """The data and ring-map matrix of `bott.parametrized_move` before its
    cube and descent checks, written out entry by entry: (data, matrix)."""
    ki, li = k - 1, l - 1
    entry = b.a[ki][li]
    if (target_entry - entry) % 2:
        raise MoveError("move displacement must be even (parity gate)")
    shift = (target_entry - entry) // 2
    rows = [list(r) for r in b.a]
    rows[ki][li] = target_entry
    for i in range(b.n):
        if i != ki and b.a[i][ki]:
            rows[i][li] = b.a[i][li] + shift * b.a[i][ki]
    lam = list(b.lam)
    lam[li] = b.lam[li] + b.lam[ki] * shift
    if lam[li] <= 0:
        raise MoveError("move would force a nonpositive length; data is not a "
                        "combinatorial hypercube")
    m = [[1 if i == j else 0 for j in range(b.n)] for i in range(b.n)]
    m[ki][li] = shift
    return BottData.make(rows, lam), tuple(map(tuple, m))


def flip_oracle(b: BottData, k: int):
    """The data and ring-map matrix of `bott.flip`, written out entry by
    entry: (data, matrix)."""
    ki = k - 1
    rows = [list(r) for r in b.a]
    lam = list(b.lam)
    for j in range(ki + 1, b.n):
        coef = b.a[ki][j]
        if coef == 0:
            continue
        rows[ki][j] = -coef
        for i in range(ki):
            rows[i][j] = b.a[i][j] - coef * b.a[i][ki]
        lam[j] = lam[j] - coef * b.lam[ki]
        if lam[j] <= 0:
            raise MoveError("facet swap would force a nonpositive length; data "
                            "is not a combinatorial hypercube")
    m = [[1 if i == j else 0 for j in range(b.n)] for i in range(b.n)]
    for j in range(ki + 1, b.n):
        m[ki][j] = -b.a[ki][j]
    return BottData.make(rows, lam), tuple(map(tuple, m))


def sign_choice_vertices(b: BottData):
    """Candidate vertex for each lower/upper facet choice (forward solve)."""
    verts = []
    for choice in product((0, 1), repeat=b.n):
        p = [Fraction(0)] * b.n
        for j in range(b.n):
            if choice[j]:
                p[j] = b.lam[j] - sum(b.a[i][j] * p[i] for i in range(j))
        verts.append(tuple(p))
    return verts


def is_hypercube_oracle(b: BottData) -> bool:
    """Combinatorial hypercube test by generic geometry: the 2^n sign-choice
    candidates are distinct, all feasible, exhaust the vertex set, and every
    one of the 2n inequalities supports a facet."""
    poly = bott_polytope(b)
    cands = sign_choice_vertices(b)
    if len(set(cands)) != 2 ** b.n:
        return False
    if not all(poly.contains(p) for p in cands):
        return False
    if set(poly.vertex_set()) != set(cands):
        return False
    for h in poly.halfspaces:
        active = [v for v in cands if h.value(v) == h.rhs]
        if not active:
            return False
        diffs = [linalg.vec_sub(v, active[0]) for v in active[1:]]
        if b.n > 1 and (not diffs or linalg.mat_rank(diffs) != b.n - 1):
            return False
    return True


def is_hypercube_growth_oracle(b: BottData) -> bool:
    """The fibration criterion by vertex growth: u_j > 0 at every
    sign-choice vertex of every prefix cube, the vertices grown one
    coordinate at a time (p_j = 0 or p_j = u_j), O(n 2^n) steps."""
    verts = [()]
    for j in range(b.n):
        grown = []
        for p in verts:
            u = b.lam[j] - sum(b.a[i][j] * p[i] for i in range(j))
            if u <= 0:
                return False
            grown += [p + (0,), p + (u,)]
        verts = grown
    return True


def standard_form_oracle(b: BottData) -> StandardForm:
    """`bott._standard_form` through the checked public moves: every step is
    a `flip` or `parametrized_move` (cube test and ring-map check each), the
    trace holds the `Move`s, and the certificate is composed one matrix
    product per step."""
    scale = 1
    for x in b.lam:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    scale = Fraction(scale)
    current = b.scaled(scale)
    trace = []
    ring = CohRing.of(current)
    composed = RingMap(ring, ring, linalg.identity(b.n))
    for k in range(b.n - 1, 0, -1):
        for _ in range(2 * b.n + 2):
            if _row_standard(current.a, k):
                break
            ex = exceptional_type(current, k)
            if ex is None or ex.c == 0:
                raise InternalError("nonzero row must stay exceptional during "
                                    "standardization")
            target_entry = 0 if ex.kind == "even" else -1
            if current.a[k - 1][ex.l - 1] + target_entry < 0:
                step = flip(current, k)
            else:
                step = parametrized_move(current, k, ex.l, target_entry)
            trace.append(step)
            composed = composed.compose(step.ring_map)
            current = step.result
        else:
            raise InternalError("standardization did not terminate")
    n = b.n
    pointer = {}
    for k in range(1, n + 1):
        nz = [j + 1 for j, x in enumerate(current.a[k - 1]) if x]
        if nz:
            pointer[k] = nz[0]
    members = {}
    for k in range(1, n + 1):
        t = pointer.get(k, k)
        if t in pointer:
            raise InternalError("block terminal must have a zero row")
        members.setdefault(t, []).append(k)
    blocks = []
    for t, ks in members.items():
        nonterm = sorted((current.lam[k - 1], k) for k in ks if k != t)
        blocks.append((len(ks), current.lam[t - 1], tuple(v for v, _ in nonterm),
                       min(ks), [k for _, k in nonterm] + [t]))
    blocks.sort(key=lambda blk: (blk[0], blk[1], blk[2], blk[3]))
    perm = [0] * n
    pos = 0
    for _, _, _, _, order in blocks:
        for k in order:
            perm[k - 1] = pos
            pos += 1
    step = permutation_move(current, perm)
    trace.append(step)
    composed = composed.compose(step.ring_map)
    current = step.result
    partition = tuple(blk[0] for blk in blocks)
    lam_out = tuple(x / scale for x in current.lam)
    return StandardForm(partition, lam_out, current, tuple(trace), composed, scale)


def hirzebruch_oracle(a12, lam, a12_t, lam_t) -> bool:
    """Dimension-2 classification: twist parity plus width and area.

    The invariant pair (lam_1, lam_2 - a/2 * lam_1) carries the lattice
    width (its minimum) and the area (its product) of the trapezoid.  In the
    even class the two rulings of the untwisted model can be swapped, so the
    pair compares as a multiset; in the odd class the terminal generator is
    distinguished (it is the unique square-zero class mod 2), so the pair
    compares in order.
    """
    lam = tuple(Fraction(x) for x in lam)
    lam_t = tuple(Fraction(x) for x in lam_t)
    b1 = BottData.make(((0, a12), (0, 0)), lam)
    b2 = BottData.make(((0, a12_t), (0, 0)), lam_t)
    if not (is_hypercube(b1) and is_hypercube(b2)):
        raise MoveError("classification requires combinatorial-hypercube data")
    if (a12 - a12_t) % 2:
        return False
    pair = (lam[0], lam[1] - Fraction(a12, 2) * lam[0])
    pair_t = (lam_t[0], lam_t[1] - Fraction(a12_t, 2) * lam_t[0])
    if a12 % 2 == 0:
        return sorted(pair) == sorted(pair_t)
    return pair == pair_t


def reduce_exponents_oracle(a, exp):
    """Normal form of a monomial by rewriting the polynomial itself: while a
    term has a square x_i^2, replace it by -sum_j A^i_j x_i x_j.  Terms are
    taken by least weight sum_i i e_i, which every rewrite raises, so none is
    met twice.  No memo and no degree cut: in degree > n every term dies
    when the rewriting runs out of indices."""
    n = len(exp)
    poly = {tuple(exp): Fraction(1)}
    out = {}
    while poly:
        e = min(poly, key=lambda t: sum(i * x for i, x in enumerate(t)))
        c = poly.pop(e)
        sq = next((i for i, x in enumerate(e) if x >= 2), None)
        if sq is None:
            mask = sum(1 << i for i, x in enumerate(e) if x)
            out[mask] = out.get(mask, 0) + c
            continue
        for j in range(sq + 1, n):
            if a[sq][j]:
                t = list(e)
                t[sq] -= 1
                t[j] += 1
                t = tuple(t)
                poly[t] = poly.get(t, 0) - a[sq][j] * c
    return {m: c for m, c in out.items() if c}


class CohClass:
    """A class of a `CohRing` with sums, scaling and products, the last
    through `CohRing.multiply`; keys are index bitmasks."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = {m: Fraction(c) for m, c in coeffs.items() if c != 0}

    @staticmethod
    def one(ring):
        return CohClass(ring, {0: 1})

    @staticmethod
    def generator(ring, i):
        """x_i for 1-based i."""
        return CohClass(ring, {1 << (i - 1): 1})

    @staticmethod
    def linear(ring, coeffs):
        return CohClass(ring, {1 << i: c for i, c in enumerate(coeffs)})

    @staticmethod
    def monomial(ring, exp):
        return CohClass(ring, ring.reduce_exponents(exp))

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return CohClass(self.ring, out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, factor):
        return CohClass(self.ring, {m: c * factor for m, c in self.coeffs.items()})

    def __mul__(self, other):
        return CohClass(self.ring, self.ring.multiply(self.coeffs, other.coeffs))

    def __eq__(self, other):
        return (isinstance(other, CohClass) and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"CohClass({self.coeffs!r})"


def omega_class(ring, lam) -> CohClass:
    return CohClass.linear(ring, lam)


def special_elements(b: BottData, k: int):
    """(alpha_k, y_k): alpha_k = -sum_j A^k_j x_j and y_k = x_k - alpha_k / 2."""
    ring = CohRing.of(b)
    alpha = CohClass.linear(ring, [-x for x in b.a[k - 1]])
    y = CohClass.generator(ring, k) - alpha.scaled(Fraction(1, 2))
    return alpha, y


def images(f: RingMap):
    """The generator images f(x_i) as classes of the target ring."""
    return tuple(CohClass.linear(f.target, row) for row in f.m)


def apply(f: RingMap, cls: CohClass) -> CohClass:
    """f on a class of any degree: each basis monomial goes to the product
    of its generator images."""
    if cls.ring != f.source:
        raise ValueError("class does not live in the source ring")
    imgs = images(f)
    out = CohClass(f.target, {})
    for mask, coef in cls.coeffs.items():
        term = CohClass.one(f.target)
        for i in range(f.source.n):
            if (mask >> i) & 1:
                term = term * imgs[i]
        out = out + term.scaled(coef)
    return out


def exceptional_type_oracle(b: BottData, k: int):
    """Least l > k with alpha_k = c * y_l compared as ring classes."""
    row = b.a[k - 1]
    if all(x == 0 for x in row):
        return ExceptionalType("even", b.n + 1, 0)
    alpha, _ = special_elements(b, k)
    for l in range(k + 1, b.n + 1):
        c = -row[l - 1]
        if c == 0:
            continue
        _, y_l = special_elements(b, l)
        if alpha == y_l.scaled(c):
            return ExceptionalType("even" if c % 2 == 0 else "odd", l, c)
    return None


def is_q_trivial_oracle(b: BottData) -> bool:
    """Every alpha_k squares to zero in the ring."""
    for k in range(1, b.n + 1):
        alpha, _ = special_elements(b, k)
        if not (alpha * alpha).is_zero():
            return False
    return True


def linear_matrix(images, n):
    """Coefficient rows of classes that must be linear in the generators."""
    out = []
    for img in images:
        row = [Fraction(0)] * n
        for mask, c in img.coeffs.items():
            idx = mask.bit_length() - 1
            if mask != (1 << idx):
                raise ValueError("image is not linear in the generators")
            row[idx] = c
        out.append(tuple(row))
    return tuple(out)


def compose_oracle(f: RingMap, after: RingMap) -> RingMap:
    """x -> after(self(x)) by applying `after` to each image class."""
    if f.target != after.source:
        raise ValueError("maps do not compose")
    imgs = tuple(apply(after, img) for img in images(f))
    return RingMap(f.source, after.target, linear_matrix(imgs, after.target.n))


def ring_map_check_oracle(f: RingMap, lam, lam_t) -> bool:
    """`bott.ring_map_check` with each source relation multiplied out as a
    ring class on the generator images, and omega carried by `apply`."""
    source = f.source
    imgs = images(f)
    m = linear_matrix(imgs, f.target.n)
    if any(c.denominator != 1 for row in m for c in row):
        return False
    if abs(linalg.mat_det(m)) != 1:
        return False
    for i in range(1, source.n + 1):
        xi = imgs[i - 1]
        rel = xi * xi
        for j in range(source.n):
            coef = source.a[i - 1][j]
            if coef:
                rel = rel + (imgs[j] * xi).scaled(coef)
        if not rel.is_zero():
            return False
    return apply(f, omega_class(source, lam)) == omega_class(f.target, lam_t)


def unimodular_candidates_oracle(n, bound):
    """All integer matrices with entries in [-bound, bound] and det +-1."""
    out = []
    for entries in product(range(-bound, bound + 1), repeat=n * n):
        m = tuple(tuple(entries[i * n + j] for j in range(n)) for i in range(n))
        if abs(linalg.mat_det(m)) == 1:
            out.append(m)
    return out


def best_fit_for_psi_oracle(delta: HPolytope, psi):
    """Exact LP in (a, x) for one psi: maximize a with every mapped simplex
    vertex inside delta, the per-facet requirement collapsed to
    u.x + a * max(0, max_i u.psi_col_i) <= rhs."""
    n = delta.dim
    cols = list(zip(*psi))
    rows = []
    for h in delta.halfspaces:
        c = max(0, max(linalg.vec_dot(h.normal, col) for col in cols))
        rows.append(((c,) + tuple(h.normal), h.rhs))
    rows.append(((-1,) + (0,) * n, Fraction(0)))
    value, witness = linalg.fm_maximize(rows, n + 1, objective_index=0)
    if value is None:
        return None
    return SimplexFit(Fraction(value), psi, tuple(witness[1:]))


def load_groups_oracle(delta: HPolytope, bound):
    """{facet-load vector: first psi producing it} over the full scan of
    unimodular candidates, in flattened lexicographic order."""
    groups = {}
    for psi in unimodular_candidates_oracle(delta.dim, bound):
        cols = list(zip(*psi))
        loads = tuple(max(0, max(linalg.vec_dot(h.normal, col) for col in cols))
                      for h in delta.halfspaces)
        groups.setdefault(loads, psi)
    return groups


def best_simplex_lb_oracle(delta: HPolytope, bound):
    """Exhaustive search with one LP per unimodular candidate; ties break
    lexicographically on the flattened psi."""
    best = None
    for psi in unimodular_candidates_oracle(delta.dim, bound):
        fit = best_fit_for_psi_oracle(delta, psi)
        if fit is None:
            continue
        key = (-fit.a, tuple(x for row in psi for x in row))
        if best is None or key < best[0]:
            best = (key, fit)
    return best[1]


def det_oracle(m):
    """Determinant by forward elimination over Fractions, no closed forms."""
    n = len(m)
    rows = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if factor:
                for c in range(col, n):
                    rows[r][c] -= factor * rows[col][c]
    return det


def rank_oracle(m):
    """The largest k with a nonzero k x k minor."""
    nrows, ncols = len(m), len(m[0]) if m else 0
    for k in range(min(nrows, ncols), 0, -1):
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                if det_oracle([[m[i][j] for j in cols] for i in rows]):
                    return k
    return 0


def solve_oracle(m, rhs):
    """Cramer's rule up to 3x3, else Gauss-Jordan; None when singular."""
    n = len(m)
    if n <= 3:
        det = det_oracle(m)
        if det == 0:
            return None
        cols = list(zip(*m))
        out = []
        for j in range(n):
            saved = cols[j]
            cols[j] = rhs
            out.append(det_oracle(list(zip(*cols))) / det)
            cols[j] = saved
        return tuple(out)
    rows = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(m, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return tuple(rows[i][n] for i in range(n))


def inverse_oracle(m):
    """Inverse by one `solve_oracle` per unit column, or None when singular."""
    n = len(m)
    if det_oracle(m) == 0:
        return None
    cols = [solve_oracle(m, [int(i == j) for i in range(n)]) for j in range(n)]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def primitive_int_vector(v):
    """Scale a nonzero rational vector to integer entries with gcd 1."""
    fracs = [Fraction(x) for x in v]
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


def normalize_ineq_oracle(coeffs, rhs):
    """Scale to primitive integer coefficients through the lcm of the
    coefficient denominators; rhs stays exact."""
    lcm = 1
    for c in coeffs:
        f = Fraction(c)
        lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    ints = [int(Fraction(c) * lcm) for c in coeffs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        return (tuple(0 for _ in coeffs), Fraction(rhs) * lcm)
    return (tuple(x // g for x in ints), Fraction(rhs) * lcm / g)


def fm_eliminate_oracle(ineqs, j):
    """Fourier-Motzkin projection that renormalizes every row it keeps or
    derives through `normalize_ineq_oracle`."""
    zero, pos, neg = [], [], []
    for coeffs, rhs in ineqs:
        c = coeffs[j]
        if c == 0:
            zero.append((coeffs, rhs))
        elif c > 0:
            pos.append((coeffs, rhs))
        else:
            neg.append((coeffs, rhs))
    out = set()
    for coeffs, rhs in zero:
        cc, rr = normalize_ineq_oracle(coeffs, rhs)
        if any(cc) or rr < 0:
            out.add((cc, rr))
    for pc, pr in pos:
        for nc, nr in neg:
            a = pc[j]
            b = -nc[j]
            comb = tuple(b * p + a * q for p, q in zip(pc, nc))
            rhs = b * pr + a * nr
            cc, rr = normalize_ineq_oracle(comb, rhs)
            if any(cc) or rr < 0:
                out.add((cc, rr))
    return sorted(out)


def fm_maximize_oracle(ineqs, nvars, objective_index=0):
    """`linalg.fm_maximize` with every row, input or derived, normalized by
    `normalize_ineq_oracle`."""
    with mock.patch.object(linalg, "primitive_row", normalize_ineq_oracle), \
            mock.patch.object(linalg, "fm_eliminate", fm_eliminate_oracle):
        return linalg.fm_maximize(ineqs, nvars, objective_index)
