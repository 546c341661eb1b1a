"""Exact rational convex polytope kernel.

H-polytopes carry primitive integer facet normals and rational right hand
sides; V-polytopes and lattice point sets are canonically sorted tuples.  All
predicates run in exact arithmetic, there is no floating point anywhere.

Both representation conversions (vertex enumeration H->V and convex hull
V->H) and the boundedness test run on one integer double-description kernel,
`_extreme_rays`.  Lattice point enumeration scans the bounding box; it is a
documented desk-scale choice (dimension <= 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd, lcm
from operator import mul

from . import linalg
from .errors import (
    EmptyPolytopeError,
    LowerDimensionalError,
    NotIntegralError,
    NotSmoothError,
    UnboundedError,
)

MAX_DIM = 8


def frac_vec(v):
    return tuple(Fraction(x) for x in v)


def is_integral_vec(v):
    return all(Fraction(x).denominator == 1 for x in v)


def _combine(p, u, q, v):
    """The nonzero integer vector p*u + q*v divided by the gcd of its entries."""
    w = [p * x + q * y for x, y in zip(u, v)]
    g = gcd(*w)
    return tuple(x // g for x in w)


def _extreme_rays(rows, D):
    """Extreme rays of the cone {y in Q^D : <a, y> >= 0 for every row a}.

    Double description method (Motzkin, Raiffa, Thompson and Thrall 1953;
    Fukuda and Prodon 1996).  The cone starts as all of Q^D, a lineality
    space spanned by e_1..e_D, and takes the rows one at a time.  A row that
    cuts the lineality space turns one lineality vector into a ray and
    projects the rest onto its hyperplane; any other row keeps the rays on
    its nonnegative side and combines each adjacent pair it separates
    (combinatorial zero-set test).  Rows are scaled by their denominator
    lcm, so all arithmetic is on integers.  Returns primitive integer rays,
    or None when the rows have rank < D (the cone is not pointed).
    """
    lin = [tuple(int(i == j) for j in range(D)) for i in range(D)]
    rays = []                       # (ray, bitmask of the rows it is tight on)
    done = 0                        # bitmask of the rows added so far
    for i, a in enumerate(rows):
        den = lcm(*(x.denominator for x in a))
        a = [x.numerator * (den // x.denominator) for x in a]
        bit = 1 << i
        cut = [sum(map(mul, a, l)) for l in lin]
        k = next((k for k, v in enumerate(cut) if v), None)
        if k is not None:
            l, s = lin.pop(k), cut.pop(k)
            l, s = (l, s) if s > 0 else (tuple(-x for x in l), -s)
            lin = [_combine(s, m, -v, l) for m, v in zip(lin, cut)]
            rays = [(_combine(s, r, -sum(map(mul, a, r)), l), z | bit) for r, z in rays]
            rays.append((l, done))
        else:
            vals = [sum(map(mul, a, r)) for r, _ in rays]
            nxt = [(r, z | bit if v == 0 else z) for (r, z), v in zip(rays, vals) if v >= 0]
            pos = [k for k, v in enumerate(vals) if v > 0]
            neg = [k for k, v in enumerate(vals) if v < 0]
            least = D - len(lin) - 2    # tight rows shared by adjacent rays
            for kp in pos:
                for kn in neg:
                    common = rays[kp][1] & rays[kn][1]
                    if common.bit_count() < least or any(
                            z & common == common for k, (_, z) in enumerate(rays)
                            if k != kp and k != kn):
                        continue
                    nxt.append((_combine(vals[kp], rays[kn][0], -vals[kn], rays[kp][0]),
                                common | bit))
            rays = nxt
        done |= bit
    return None if lin else [r for r, _ in rays]


@dataclass(frozen=True)
class HalfSpace:
    """Inequality <p, normal> <= rhs with a primitive integer normal."""

    normal: tuple
    rhs: Fraction

    @staticmethod
    def make(coeffs, rhs):
        normal = linalg.primitive_int_vector(coeffs)
        i = next(i for i, c in enumerate(normal) if c)
        return HalfSpace(normal, Fraction(rhs) * normal[i] / Fraction(coeffs[i]))

    def value(self, point):
        return sum(a * b for a, b in zip(self.normal, point))

    def holds(self, point):
        return self.value(point) <= self.rhs


@dataclass(frozen=True)
class VPolytope:
    """Vertex list in canonical (lexicographic) order."""

    dim: int
    vertices: tuple

    @staticmethod
    def make(dim, points):
        pts = sorted(set(frac_vec(p) for p in points))
        return VPolytope(dim, tuple(pts))

    def is_integral(self):
        return all(is_integral_vec(v) for v in self.vertices)


@dataclass(frozen=True)
class LatticePointSet:
    """Finite subset of Z^n in canonical lexicographic order."""

    dim: int
    points: tuple
    _set: frozenset = field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def make(dim, points):
        pts = set()
        for p in points:
            q = tuple(int(x) for x in p)
            if len(q) != dim:
                raise ValueError("point dimension mismatch")
            pts.add(q)
        return LatticePointSet(dim, tuple(sorted(pts)))

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __contains__(self, p):
        return tuple(p) in self.as_set()

    def as_set(self):
        """The points as a frozenset, built on first use and then cached."""
        if self._set is None:
            object.__setattr__(self, "_set", frozenset(self.points))
        return self._set


def minkowski_sum(a: LatticePointSet, b: LatticePointSet) -> LatticePointSet:
    """Pairwise sums {p + q}."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    sums = {tuple(x + y for x, y in zip(p, q)) for p in a for q in b}
    return LatticePointSet(a.dim, tuple(sorted(sums)))


class HPolytope:
    """Intersection of halfspaces in R^n, canonically sorted and deduplicated.

    Lower-dimensional sets are allowed and flagged (affine_hull_dim) rather
    than rejected; unbounded systems can be represented but most operations
    refuse them.
    """

    __slots__ = ("dim", "halfspaces", "_vertices", "_bounded")

    def __init__(self, dim, halfspaces, *, _bounded=None):
        if dim < 1 or dim > MAX_DIM:
            raise ValueError(f"dimension {dim} outside supported range 1..{MAX_DIM}")
        hs = sorted(set(halfspaces), key=lambda h: (h.normal, h.rhs))
        for h in hs:
            if len(h.normal) != dim:
                raise ValueError("halfspace dimension mismatch")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "halfspaces", tuple(hs))
        object.__setattr__(self, "_vertices", None)
        object.__setattr__(self, "_bounded", _bounded)

    @staticmethod
    def from_inequalities(dim, rows):
        """Rows [a_1..a_n, b] meaning sum(a_i p_i) <= b."""
        half = [HalfSpace.make(tuple(r[:-1]), r[-1]) for r in rows]
        return HPolytope(dim, half)

    def _key(self):
        """The vertex set when there is one, else the halfspaces.  Equal
        polytopes share it even when redundant rows set them apart."""
        try:
            return self.vertex_set()
        except (UnboundedError, EmptyPolytopeError):
            return self.halfspaces

    def __eq__(self, other):
        if not isinstance(other, HPolytope):
            return NotImplemented
        return self.dim == other.dim and (self.halfspaces == other.halfspaces
                                          or self._key() == other._key())

    def __hash__(self):
        return hash((self.dim, self._key()))

    def __repr__(self):
        return f"HPolytope(dim={self.dim}, facets={len(self.halfspaces)})"

    def contains(self, point):
        if len(point) != self.dim:
            raise ValueError("point dimension mismatch")
        return all(h.holds(point) for h in self.halfspaces)

    def is_bounded(self):
        """True when the recession cone of the inequality system is trivial."""
        if self._bounded is None:
            self._ray_vertices()
        return self._bounded

    def _ray_vertices(self):
        """Vertices from the extreme rays of {(x, t) : <a, x> <= b t, t >= 0}.

        Rays with t > 0 are the vertices and rays with t = 0 span the
        recession cone.  Caches boundedness; returns the sorted vertices, or
        None when the normals have rank < dim and the cone is not pointed.
        """
        n = self.dim
        rows = [(0,) * n + (1,)] + [tuple(-a for a in h.normal) + (h.rhs,)
                                    for h in self.halfspaces]
        rays = _extreme_rays(rows, n + 1)
        object.__setattr__(self, "_bounded", rays is not None and all(r[n] for r in rays))
        return None if rays is None else tuple(
            sorted(tuple(Fraction(x, r[n]) for x in r[:n]) for r in rays if r[n]))

    def vertex_set(self):
        """Sorted vertex tuples; raises UnboundedError or EmptyPolytopeError."""
        if self._vertices is None:
            verts = self._ray_vertices()
            # Without a pointed cone FM tells a nonempty system from an empty one.
            if (verts and not self._bounded) or (verts is None and linalg.fm_feasible(
                    [(h.normal, h.rhs) for h in self.halfspaces], self.dim)):
                raise UnboundedError("unbounded")
            if not verts:
                raise EmptyPolytopeError("empty")
            object.__setattr__(self, "_vertices", verts)
        return self._vertices

    def is_empty(self):
        try:
            self.vertex_set()
            return False
        except EmptyPolytopeError:
            return True
        except UnboundedError:
            return False

    def affine_hull_dim(self):
        """Dimension of the affine span; lower-dimensional sets report < dim."""
        verts = self.vertex_set()
        diffs = [linalg.vec_sub(v, verts[0]) for v in verts[1:]]
        return linalg.mat_rank(diffs)

    def is_full_dimensional(self):
        return self.affine_hull_dim() == self.dim

    def is_integral(self):
        return all(is_integral_vec(v) for v in self.vertex_set())

    def affine_unimodular_image(self, m, t):
        """Image under p -> m p + t with m integer unimodular, t rational."""
        if abs(linalg.mat_det(m)) != 1:
            raise ValueError("transform matrix must be unimodular")
        minv = linalg.mat_inverse(m)
        t = frac_vec(t)
        half = []
        for h in self.halfspaces:
            a = linalg.mat_vec(linalg.transpose(minv), h.normal)
            half.append(HalfSpace.make(a, h.rhs + linalg.vec_dot(a, t)))
        img = HPolytope(self.dim, half, _bounded=self._bounded)
        if self._vertices is not None:
            verts = sorted(linalg.vec_add(linalg.mat_vec(m, v), t) for v in self._vertices)
            object.__setattr__(img, "_vertices", tuple(verts))
        return img


def vertices(p: HPolytope) -> VPolytope:
    """Exact vertex enumeration of a bounded H-polytope."""
    return VPolytope(p.dim, p.vertex_set())


def dilate(p: HPolytope, m: int) -> HPolytope:
    """Scale by a positive integer: right hand sides and vertices scale by m."""
    if m < 1:
        raise ValueError("dilation factor must be a positive integer")
    out = HPolytope(p.dim, [HalfSpace(h.normal, h.rhs * m) for h in p.halfspaces],
                    _bounded=p._bounded)
    if p._vertices is not None:
        verts = sorted(linalg.vec_scale(Fraction(m), v) for v in p._vertices)
        object.__setattr__(out, "_vertices", tuple(verts))
    return out


def scale(p: HPolytope, factor) -> HPolytope:
    """Scale by a positive rational factor."""
    factor = Fraction(factor)
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    return HPolytope(p.dim, [HalfSpace(h.normal, h.rhs * factor) for h in p.halfspaces],
                     _bounded=p._bounded)


def hull(points, dim=None) -> HPolytope:
    """Minimal H-representation of the convex hull of rational points.

    Lower-dimensional input is supported: the affine hull is emitted as pairs
    of opposite inequalities and the result reports is_full_dimensional()
    False.
    """
    if isinstance(points, LatticePointSet):
        dim, pts = points.dim, list(points.points)      # distinct and sorted
    else:
        pts = sorted(set(map(frac_vec, points)))
    if not pts:
        raise ValueError("empty input")
    dim = dim or len(pts[0])
    # Facets c.x + b >= 0 are the extreme rays (c, b) of the cone cut out by
    # the rows (p, 1); it is pointed exactly when the hull is full-dimensional.
    rays = _extreme_rays([p + (1,) for p in pts], dim + 1)
    if rays is not None:
        return HPolytope(dim, [HalfSpace.make(tuple(-c for c in r[:dim]), r[dim])
                               for r in rays], _bounded=True)
    x0 = pts[0]
    diffs = [linalg.vec_sub(p, x0) for p in pts[1:]]
    r = linalg.mat_rank(diffs)
    # Lower-dimensional hull: cut out the affine hull with equality pairs,
    # then lift the facets of the hull taken inside the affine hull.
    half, basis = [], []
    for d in diffs:
        if len(basis) < r and linalg.mat_rank(basis + [d]) > len(basis):
            basis.append(d)
    # Equality pairs from the normals of the affine hull (every e_i for a point).
    for row in linalg.nullspace(basis) if basis else linalg.identity(dim):
        half.append(HalfSpace.make(row, linalg.vec_dot(row, x0)))
        neg = tuple(-x for x in row)
        half.append(HalfSpace.make(neg, linalg.vec_dot(neg, x0)))
    if not basis:
        return HPolytope(dim, half, _bounded=True)
    bmat = linalg.transpose(basis)          # dim x r, columns span directions
    tmat = linalg.left_inverse(bmat)        # r x dim with tmat @ bmat = I
    proj = [linalg.mat_vec(tmat, linalg.vec_sub(p, x0)) for p in pts]
    inner = hull(proj, r)
    for h in inner.halfspaces:
        coeffs = linalg.mat_vec(linalg.transpose(tmat), h.normal)
        half.append(HalfSpace.make(coeffs, h.rhs + linalg.vec_dot(coeffs, x0)))
    return HPolytope(dim, half, _bounded=True)


def lattice_points(p: HPolytope) -> LatticePointSet:
    """All integer vectors satisfying every inequality (bounding box scan)."""
    verts = p.vertex_set()          # raises on unbounded or empty input
    lo = [ceil(min(v[i] for v in verts)) for i in range(p.dim)]
    hi = [floor(max(v[i] for v in verts)) for i in range(p.dim)]
    pts = []
    for cand in product(*(range(lo[i], hi[i] + 1) for i in range(p.dim))):
        if p.contains(cand):
            pts.append(cand)
    return LatticePointSet(p.dim, tuple(sorted(pts)))


def is_normal(p: HPolytope, max_degree: int):
    """Check lattice decomposability of dilates up to max_degree.

    Returns (True, None) when for every 2 <= m <= max_degree each lattice
    point of m*P is a sum of m lattice points of P, else (False, (m, point))
    for the first failure in (degree, lex) order.
    """
    if not p.is_integral():
        raise NotIntegralError("normality check requires an integral polytope")
    base = lattice_points(p)
    sums = base
    for m in range(2, max_degree + 1):
        sums = minkowski_sum(sums, base)
        target = lattice_points(dilate(p, m))
        reachable = sums.as_set()
        for pt in target:
            if pt not in reachable:
                return (False, (m, pt))
    return (True, None)


def _edges_at_vertices(p: HPolytope):
    """Map vertex -> list of adjacent vertices (shared active set rank n-1)."""
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


def is_delzant_smooth(p: HPolytope):
    """Primitive edge directions at every vertex form a Z-basis.

    Returns (True, None) or (False, offending_vertex).
    """
    if not p.is_bounded():
        raise UnboundedError("unbounded")
    if not p.is_full_dimensional():
        raise LowerDimensionalError("smoothness requires a full-dimensional polytope")
    adj = _edges_at_vertices(p)
    for v in sorted(adj):
        dirs = [linalg.primitive_int_vector(linalg.vec_sub(w, v)) for w in adj[v]]
        if len(dirs) != p.dim:
            return (False, v)
        if abs(linalg.mat_det(dirs)) != 1:
            return (False, v)
    return (True, None)


def normalize_at_vertex(p: HPolytope, v):
    """Affine-unimodular image placing vertex v at the origin, edges on axes.

    Returns (image, (matrix, translation)) with image = matrix @ p + t.
    """
    v = frac_vec(v)
    adj = _edges_at_vertices(p)
    if v not in adj:
        raise ValueError(f"{v} is not a vertex of the polytope")
    # Pair each edge with the axis of its leading coordinate: axis-aligned
    # corners then get the identity and opposite box corners get -identity.
    dirs = sorted((linalg.primitive_int_vector(linalg.vec_sub(w, v)) for w in adj[v]),
                  key=lambda d: (next(i for i, x in enumerate(d) if x), d))
    if len(dirs) != p.dim or abs(linalg.mat_det(linalg.transpose(dirs))) != 1:
        raise NotSmoothError(f"vertex {v} is not smooth")
    u = linalg.transpose(dirs)              # columns are edge directions
    m = linalg.mat_inverse(u)
    m = tuple(tuple(int(x) for x in row) for row in m)
    t = tuple(-x for x in linalg.mat_vec(m, v))
    return p.affine_unimodular_image(m, t), (m, t)
