"""Exact rational convex polytope kernel.

H-polytopes carry primitive integer facet normals and rational right hand
sides; V-polytopes and lattice point sets are canonically sorted tuples.  All
predicates run in exact arithmetic, there is no floating point anywhere.

Both representation conversions (vertex enumeration H->V and convex hull
V->H) and Delzant smoothness (edges as the extreme rays of each vertex's
tangent cone) run on one integer double-description kernel, `_extreme_rays`;
an H-polytope reads boundedness, emptiness and its vertices from one cached
run on its homogenized cone.  Lattice points are enumerated by fibres of
the last coordinate on ints alone: for each point of the bounding box of
the first dim - 2 coordinates, the rows cut the next coordinate to one run
and bound the last coordinate along the whole run, one pass per row, so
every prefix gets one integer interval.  A level m scales the box and the
right hand sides instead of building m*P.  The prefix scan is a documented
desk-scale choice (dimension <= 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul

from . import linalg
from .errors import (
    EmptyPolytopeError,
    LowerDimensionalError,
    NotIntegralError,
    UnboundedError,
    WorkLimitError,
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
    lcm, so all arithmetic is on integers.  Returns (lineality, rays), the
    cone being their span plus the cone of the primitive integer rays; the
    lineality is empty (the cone pointed) exactly when the rows have rank D.
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
    return lin, [r for r, _ in rays]


@dataclass(frozen=True)
class HalfSpace:
    """Inequality <p, normal> <= rhs with a primitive integer normal."""

    normal: tuple
    rhs: Fraction

    @staticmethod
    def make(coeffs, rhs):
        normal, rhs = linalg.primitive_row(coeffs, rhs)
        if not any(normal):
            raise ValueError("zero vector has no primitive form")
        return HalfSpace(normal, rhs)

    def value(self, point):
        return sum(a * b for a, b in zip(self.normal, point))

    def holds(self, point):
        return self.value(point) <= self.rhs


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

    def __init__(self, dim, halfspaces):
        if dim < 1:
            raise ValueError(f"dimension {dim} outside supported range 1..{MAX_DIM}")
        if dim > MAX_DIM:
            raise WorkLimitError(f"dimension {dim} outside supported range 1..{MAX_DIM}")
        hs = sorted(set(halfspaces), key=lambda h: (h.normal, h.rhs))
        for h in hs:
            if len(h.normal) != dim:
                raise ValueError("halfspace dimension mismatch")
        self.dim = dim
        self.halfspaces = tuple(hs)
        self._vertices = None
        self._bounded = None

    @staticmethod
    def from_inequalities(dim, rows):
        """Rows [a_1..a_n, b] meaning sum(a_i p_i) <= b.  A row with a zero
        normal holds everywhere (b >= 0) and is dropped, or nowhere."""
        half = []
        for i, r in enumerate(rows, 1):
            if any(r[:-1]):
                half.append(HalfSpace.make(tuple(r[:-1]), r[-1]))
            elif r[-1] < 0:
                raise EmptyPolytopeError(f"inequality {i} reads 0 <= {r[-1]}")
        return HPolytope(dim, half)

    def _key(self):
        """The vertex set when there is one, else the halfspaces.  Equal
        polytopes share it even when redundant rows set them apart."""
        return self._vertices if self.is_bounded() and self._vertices else self.halfspaces

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

    def _describe(self):
        """One cached double description of {(x, t) : <a, x> <= b t, t >= 0}.

        The lineality and the rays with t = 0 span the recession cone; the
        points of the rays with t > 0 are the vertices when that cone is
        trivial, and there are none exactly when the system is empty.
        """
        if self._vertices is None:
            n = self.dim
            rows = [(0,) * n + (1,)] + [tuple(-a for a in h.normal) + (h.rhs,)
                                        for h in self.halfspaces]
            lin, rays = _extreme_rays(rows, n + 1)
            self._bounded = not lin and all(r[n] for r in rays)
            self._vertices = tuple(
                sorted(tuple(Fraction(x, r[n]) for x in r[:n]) for r in rays if r[n]))

    def is_bounded(self):
        """True when the recession cone of the inequality system is trivial."""
        self._describe()
        return self._bounded

    def vertex_set(self):
        """Sorted vertex tuples; raises UnboundedError or EmptyPolytopeError."""
        self._describe()
        if not self._vertices:
            raise EmptyPolytopeError("empty")
        if not self._bounded:
            raise UnboundedError("unbounded")
        return self._vertices

    def affine_hull_dim(self):
        """Dimension of the affine span; lower-dimensional sets report < dim."""
        verts = self.vertex_set()
        diffs = [linalg.vec_sub(v, verts[0]) for v in verts[1:]]
        return linalg.mat_rank(diffs)

    def is_full_dimensional(self):
        return self.affine_hull_dim() == self.dim

    def is_integral(self):
        return all(is_integral_vec(v) for v in self.vertex_set())


def integer_image(p: HPolytope, point_map, normal_map) -> HPolytope:
    """Image of a bounded P under an integer unimodular map g, given as g on
    points and as its inverse transpose on normals, which keeps them
    primitive and the right hand sides fixed.  The vertices carry over, so
    the image needs no double description of its own."""
    verts = p.vertex_set()
    img = HPolytope(p.dim, [HalfSpace(normal_map(h.normal), h.rhs) for h in p.halfspaces])
    img._bounded = True
    img._vertices = tuple(sorted(map(point_map, verts)))
    return img


def dilate(p: HPolytope, m) -> HPolytope:
    """Scale by a positive rational m: right hand sides and vertices scale by m."""
    m = Fraction(m)
    if m <= 0:
        raise ValueError("dilation factor must be positive")
    out = HPolytope(p.dim, [HalfSpace(h.normal, h.rhs * m) for h in p.halfspaces])
    if p._vertices is not None:
        out._bounded = p._bounded
        out._vertices = tuple(sorted(linalg.vec_scale(m, v) for v in p._vertices))
    return out


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
    lin, rays = _extreme_rays([p + (1,) for p in pts], dim + 1)
    if not lin:
        return HPolytope(dim, [HalfSpace.make(tuple(-c for c in r[:dim]), r[dim])
                               for r in rays])
    x0 = pts[0]
    rows, pivots, _ = linalg.rref([linalg.vec_sub(p, x0) for p in pts[1:]])
    # Lower-dimensional hull: cut out the affine hull with equality pairs,
    # then lift the facets of the hull taken inside the affine hull, whose
    # directions the nonzero reduced rows of the differences span.
    half, basis = [], rows[:len(pivots)]
    # Equality pairs from the normals of the affine hull (every e_i for a point).
    for row in linalg.nullspace(basis) if basis else linalg.identity(dim):
        half.append(HalfSpace.make(row, linalg.vec_dot(row, x0)))
        neg = tuple(-x for x in row)
        half.append(HalfSpace.make(neg, linalg.vec_dot(neg, x0)))
    if not basis:
        return HPolytope(dim, half)
    bmat = linalg.transpose(basis)          # dim x r, columns span directions
    tmat = linalg.left_inverse(bmat)        # r x dim with tmat @ bmat = I
    proj = [linalg.mat_vec(tmat, linalg.vec_sub(p, x0)) for p in pts]
    inner = hull(proj, len(basis))
    for h in inner.halfspaces:
        coeffs = linalg.mat_vec(linalg.transpose(tmat), h.normal)
        half.append(HalfSpace.make(coeffs, h.rhs + linalg.vec_dot(coeffs, x0)))
    return HPolytope(dim, half)


def _run(t, aj, k, u, v):
    """floor((t - aj*x) / k) for x = u..v and k > 0, as one sequence."""
    if not aj:
        return [t // k] * (v - u + 1)
    vals = range(t - aj * u, t - aj * (v + 1), -aj)
    return vals if k == 1 else [s // k for s in vals]


def lattice_fibres(p: HPolytope, m=1):
    """The lattice points of m*P by last-coordinate fibres, for a positive
    integer m: one (prefix, a, b) per point prefix of the bounding box of
    the first dim - 1 coordinates whose fibre {x : prefix + (x,) in m*P} is
    the nonempty integer interval [a, b], in lex order of prefix.

    The scan runs on ints alone.  The vertex box is taken over one common
    denominator and each row <a, x> <= b becomes <a, x> <= floor(m b), so
    no level builds its dilate.  For each outer prefix (the first dim - 2
    coordinates) the rows whose last entry is 0 cut the innermost prefix
    coordinate to one run [u, v]; every other row then bounds the fibres of
    the whole run in one pass, and the bounds meet by `min` (last entry
    > 0) and `max` (< 0) across rows.  A nonempty fibre of a bounded P has
    rows of both signs, so the box of the last coordinate adds nothing.
    """
    verts = p.vertex_set()          # raises on unbounded or empty input
    n = p.dim - 1
    box = list(zip(*verts))[:n]
    den = lcm(*(x.denominator for col in box for x in col))
    cols = [[x.numerator * (den // x.denominator) for x in col] for col in box]
    lo = [-(-m * min(col) // den) for col in cols]
    hi = [m * max(col) // den for col in cols]
    flat, up, down = [], [], []
    for h in p.halfspaces:
        c = h.normal[n]
        row = (h.normal[:n], m * h.rhs.numerator // h.rhs.denominator, c)
        (up if c > 0 else down if c < 0 else flat).append(row)
    if n == 0:
        a = max(-(r // -c) for _, r, c in down)
        b = min(r // c for _, r, c in up)
        if a <= b:
            yield (), a, b
        return
    j = n - 1                       # the innermost prefix coordinate
    for outer in product(*(range(lo[i], hi[i] + 1) for i in range(j))):
        u, v = lo[j], hi[j]
        for normal, r, _ in flat:
            t, aj = r - sum(map(mul, normal, outer)), normal[j]
            if aj > 0:
                v = min(v, t // aj)
            elif aj < 0:
                u = max(u, -(t // -aj))
            elif t < 0:
                v = u - 1
            if u > v:
                break
        else:
            # a row with last entry -k > 0 bounds x from below by
            # ceil((aj*x - t) / k) = floor((k - 1 - t + aj*x) / k)
            tops = [_run(r - sum(map(mul, normal, outer)), normal[j], c, u, v)
                    for normal, r, c in up]
            bottoms = [_run(sum(map(mul, normal, outer)) - r - c - 1, -normal[j], -c, u, v)
                       for normal, r, c in down]
            b = tops[0] if len(tops) == 1 else map(min, *tops)
            a = bottoms[0] if len(bottoms) == 1 else map(max, *bottoms)
            for x, ax, bx in zip(range(u, v + 1), a, b):
                if ax <= bx:
                    yield outer + (x,), ax, bx


def fibre_points(p: HPolytope, m=1):
    """The lattice points of m*P in lex order, from `lattice_fibres`."""
    return (prefix + (x,) for prefix, a, b in lattice_fibres(p, m) for x in range(a, b + 1))


def lattice_points(p: HPolytope) -> LatticePointSet:
    """All integer vectors satisfying every inequality, in lex order: the
    fibres of `lattice_fibres` expanded point by point."""
    return LatticePointSet(p.dim, tuple(fibre_points(p)))


def is_normal(p: HPolytope, max_degree: int):
    """Check lattice decomposability of dilates up to max_degree.

    Returns (True, None) when for every 2 <= m <= max_degree each lattice
    point of m*P is a sum of m lattice points of P, else (False, (m, point))
    for the first failure in (degree, lex) order.  Only degrees 2..dim-1 are
    checked: past them every lattice point of (c+1)P is one of cP plus one of
    P (Bruns, Gubeladze and Trung, J. reine angew. Math. 485, 1997).  Level
    m is read in lex order off `lattice_fibres(p, m)`, without a dilate.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    if not p.is_integral():
        raise NotIntegralError("normality check requires an integral polytope")
    top = min(max_degree, p.dim - 1)
    if top < 2:
        return (True, None)
    base = sums = lattice_points(p)
    for m in range(2, top + 1):
        sums = minkowski_sum(sums, base)
        reachable = sums.as_set()
        missing = next((x for x in fibre_points(p, m) if x not in reachable), None)
        if missing is not None:
            return (False, (m, missing))
    return (True, None)


def is_delzant_smooth(p: HPolytope):
    """Primitive edge directions at every vertex form a Z-basis.

    The edges at v are the extreme rays of its tangent cone {d : <u, d> <= 0
    for every row u tight at v}, exact with redundant rows or non-simple
    vertices.  Returns (True, None) or (False, first offending vertex).
    """
    if not p.is_bounded():
        raise UnboundedError("unbounded")
    if not p.is_full_dimensional():
        raise LowerDimensionalError("smoothness requires a full-dimensional polytope")
    for v in p.vertex_set():
        tight = [tuple(-a for a in h.normal) for h in p.halfspaces if h.value(v) == h.rhs]
        _, rays = _extreme_rays(tight, p.dim)
        if len(rays) != p.dim or abs(linalg.mat_det(rays)) != 1:
            return (False, v)
    return (True, None)
