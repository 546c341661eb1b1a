"""Lowest-term valuations and the lattice point sliding calculus.

A slide direction -e_k + c*e_l encodes the coordinate change u_k = f_k -
f_l^c at the origin corner of a polytope; the induced valuation image of the
monomial basis can be computed either symbolically (expand and eliminate) or
geometrically (slide the lattice points).  Both routes are implemented so one
can serve as an oracle for the other.

The value order is lexicographic with the first coordinate most significant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from . import geometry
from .errors import (
    DependentBasisError,
    NotIntegralError,
    NotNormalError,
    NotSmoothError,
    OriginCornerError,
    ZeroPolynomialError,
)
from .geometry import HPolytope, LatticePointSet, dilate, hull


@dataclass(frozen=True)
class SlideDirection:
    """Direction -e_k + c*e_l with 1 <= k < l <= n and c >= 0.

    c = 0 is a meaningful lattice operation (slide straight onto the wall
    x_k = 0) but not a valid coordinate change, so the symbolic routines
    reject it.
    """

    k: int
    l: int
    c: int

    def __post_init__(self):
        if not (1 <= self.k < self.l):
            raise ValueError("need 1 <= k < l")
        if self.c < 0:
            raise ValueError("c must be nonnegative")

    def vector(self, dim):
        if self.l > dim:
            raise ValueError("direction indices exceed dimension")
        v = [0] * dim
        v[self.k - 1] = -1
        v[self.l - 1] = self.c
        return tuple(v)

    def to_line(self, x):
        """Line coordinates of x: x without x_k, with x_l replaced by
        c*x_k + x_l, then x_k.  A line of this direction keeps the first
        dim - 1 of them (its key) and runs along the last."""
        z = list(x)
        z[self.l - 1] += self.c * x[self.k - 1]
        del z[self.k - 1]
        return tuple(z) + (x[self.k - 1],)

    def from_line(self, key, t):
        """The point with line coordinates key + (t,)."""
        x = list(key)
        x.insert(self.k - 1, t)
        x[self.l - 1] -= self.c * t
        return tuple(x)

    def line_normal(self, a):
        """The normal of <a, x> <= b in line coordinates: a without a_k,
        then a_k - c*a_l."""
        return a[:self.k - 1] + a[self.k:] + (a[self.k - 1] - self.c * a[self.l - 1],)


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


def slide(s: LatticePointSet, d: SlideDirection) -> LatticePointSet:
    """Per-line maximal translation of lattice points along -e_k + c*e_l.

    Points are grouped by the affine line containing them (the key of their
    line coordinates); each group moves rigidly by the largest nonnegative
    multiple of the direction that keeps it inside the nonnegative orthant.
    Cardinality is preserved.
    """
    if any(x < 0 for p in s for x in p):
        raise ValueError("slide requires points in the nonnegative orthant")
    if d.l > s.dim:
        raise ValueError("direction indices exceed dimension")
    lines = {}
    for p in s:
        z = d.to_line(p)
        lines.setdefault(z[:-1], []).append(z[-1])
    out = []
    for key, ts in lines.items():
        a = min(ts)
        out += [d.from_line(key, t - a) for t in ts]
    return LatticePointSet(s.dim, tuple(sorted(out)))


@dataclass(frozen=True)
class GradedSemigroup:
    """Level-indexed valuation images; level m holds the image of degree m."""

    dim: int
    levels: dict = field(compare=False)
    max_level: int


def _check_normalized_at_origin(p: HPolytope):
    verts = p.vertex_set()
    origin = tuple(Fraction(0) for _ in range(p.dim))
    if origin not in verts:
        raise OriginCornerError("polytope must have a vertex at the origin")
    if any(x < 0 for v in verts for x in v):
        raise OriginCornerError("polytope must lie in the nonnegative orthant")


def line_coordinates(p: HPolytope, d: SlideDirection) -> HPolytope:
    """P in the line coordinates of d (`SlideDirection.to_line`), an integer
    unimodular shear.  The lattice points of P on one slide line form one
    fibre of the last coordinate, an integer interval because P is convex
    and the direction is primitive."""
    if d.l > p.dim:
        raise ValueError("direction indices exceed dimension")
    return geometry.integer_image(p, d.to_line, d.line_normal)


def slide_fibres(lines: HPolytope, d: SlideDirection, m: int):
    """The slide of the lattice points of m*P line by line, for P given in
    line coordinates: (key, b - a) per nonempty line, whose fibre [a, b]
    slides to [0, b - a].  Raises the ValueError of `slide` when a point
    lies outside the nonnegative orthant.

    A point's x_l is key[l] - c*x_k, least at x_k = b, so every fibre is
    tested for key[l] >= c*b.  The other coordinates of a point are line
    coordinates, all nonnegative on m*P when no vertex of P in line
    coordinates has a negative one; only otherwise are `a` and the key
    tested as well."""
    l, c = d.l - 2, d.c
    orthant = all(x >= 0 for v in lines.vertex_set() for x in v)
    for key, a, b in geometry.lattice_fibres(lines, m):
        if key[l] < c * b or not orthant and (a < 0 or any(x < 0 for x in key)):
            raise ValueError("slide requires points in the nonnegative orthant")
        yield key, b - a


def slide_level(lines: HPolytope, d: SlideDirection, m: int) -> LatticePointSet:
    """`slide` of the lattice points of m*P, emitted from the line fibres of
    P in line coordinates without building either point set."""
    pts = [d.from_line(key, t) for key, length in slide_fibres(lines, d, m)
           for t in range(length + 1)]
    return LatticePointSet(lines.dim, tuple(sorted(pts)))


def build_semigroup(p: HPolytope, d: SlideDirection, max_level: int) -> GradedSemigroup:
    """Slide every dilate of an integral smooth polytope at the origin corner.

    Level m is the slide of the lattice points of m*P.  P is taken to the
    line coordinates of d once; each level then reads its slide off the
    fibres of m*P (`slide_level`), one integer interval per slide line.
    Requires the decomposition property up to max_level, which by the
    degree-(n-1) theorem of Bruns, Gubeladze and Trung is checked in
    degrees 2..n-1 only (see `geometry.is_normal`); without it the slide
    levels can fail additivity, and the caller should dilate by (n-1)
    first.  Levels are mutually independent, so callers may compute them in
    parallel and merge by degree; this implementation stays sequential.
    """
    if d.c == 0:
        raise ValueError("c = 0 is not a coordinate change; use c >= 1 or the "
                         "identity (no-op) degeneration")
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    if not p.is_integral():
        raise NotIntegralError("semigroup construction requires an integral polytope")
    _check_normalized_at_origin(p)
    ok, witness = geometry.is_normal(p, max_level)
    if not ok:
        raise NotNormalError(
            f"polytope is not normal up to degree {max_level} (first failure "
            f"{witness}); dilate by n-1 = {p.dim - 1} and retry")
    smooth, offender = geometry.is_delzant_smooth(p)
    if not smooth:
        raise NotSmoothError(f"polytope is not smooth at vertex {offender}")
    lines = line_coordinates(p, d)
    levels = {0: LatticePointSet(p.dim, ((0,) * p.dim,))}
    for m in range(1, max_level + 1):
        levels[m] = slide_level(lines, d, m)
    return GradedSemigroup(p.dim, levels, max_level)


def okounkov_approx(sg: GradedSemigroup, m: int) -> HPolytope:
    """Level-m convex body approximation: (1/m) * hull(level m)."""
    if m < 1 or m > sg.max_level:
        raise ValueError("level out of range")
    pts = sg.levels[m]
    if len(pts) == 0:
        raise ValueError("empty level")
    return dilate(hull(pts), Fraction(1, m))


def check_cone_condition(sg: GradedSemigroup, delta: HPolytope):
    """Does the semigroup equal the cone over delta, level by level?

    Returns (True, None) when level m matches the lattice points of m*delta
    for every 1 <= m <= max_level, else (False, (m, point, kind)) for the
    first mismatch; kind is "missing" (in the cone, not the semigroup) or
    "extra".
    """
    if not delta.is_integral():
        raise NotIntegralError("cone condition requires an integral polytope")
    for m in range(1, sg.max_level + 1):
        have = sg.levels[m].as_set()
        want = set(geometry.fibre_points(delta, m))
        mismatches = [(pt, "missing") for pt in want - have]
        mismatches += [(pt, "extra") for pt in have - want]
        if mismatches:
            pt, kind = min(mismatches)
            return (False, (m, pt, kind))
    return (True, None)


def check_saturation(sg: GradedSemigroup):
    """Search for saturation failures within the level budget.

    Returns (True, None) when no witness exists up to max_level, else
    (False, (m, x, t)) for the first (m, x) not in the semigroup whose
    multiple (t*m, t*x) is.
    """
    for m in range(1, sg.max_level + 1):
        level = sg.levels[m].as_set()
        for t in range(2, sg.max_level // m + 1):
            for y in sg.levels[t * m]:
                if any(x % t for x in y):
                    continue
                x = tuple(v // t for v in y)
                if x not in level:
                    return (False, (m, x, t))
    return (True, None)
