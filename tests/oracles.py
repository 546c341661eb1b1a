"""Slow subset-enumeration oracles for the polytope kernel.

These are the exhaustive algorithms the library used before the
double-description kernel: facets from every dim-subset of points, vertices
from every n-subset of facets, and boundedness from every (n-1)-subset of
normals.  They are kept only to check the production code against; all of
them are exponential in the dimension.
"""

from fractions import Fraction
from itertools import combinations

from toricdeg import linalg
from toricdeg.errors import EmptyPolytopeError, UnboundedError
from toricdeg.geometry import HalfSpace, HPolytope, frac_vec


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
    return HPolytope(dim, half, _bounded=True)


def hull_oracle(points, dim=None):
    """Minimal H-representation by subset enumeration, lower-dimensional
    input reduced to its affine hull exactly as `toricdeg.hull` does."""
    pts = [frac_vec(p) for p in points]
    if dim is None:
        dim = len(pts[0])
    pts = sorted(set(pts))
    x0 = pts[0]
    diffs = [linalg.vec_sub(p, x0) for p in pts[1:]]
    r = linalg.mat_rank(diffs) if diffs else 0
    if r == dim:
        return _hull_full_dim(pts, dim)
    half = []
    if r == 0:
        for i in range(dim):
            e = tuple(Fraction(1 if j == i else 0) for j in range(dim))
            half.append(HalfSpace.make(e, x0[i]))
            half.append(HalfSpace.make(tuple(-x for x in e), -x0[i]))
        return HPolytope(dim, half, _bounded=True)
    basis = []
    for d in diffs:
        if linalg.mat_rank(basis + [d]) > len(basis):
            basis.append(d)
        if len(basis) == r:
            break
    bmat = linalg.transpose(basis)
    for row in linalg.nullspace(basis):
        half.append(HalfSpace.make(row, linalg.vec_dot(row, x0)))
        neg = tuple(-x for x in row)
        half.append(HalfSpace.make(neg, linalg.vec_dot(neg, x0)))
    tmat = linalg.left_inverse(bmat)
    proj = [linalg.mat_vec(tmat, linalg.vec_sub(p, x0)) for p in pts]
    inner = hull_oracle(proj, r)
    for h in inner.halfspaces:
        coeffs = linalg.mat_vec(linalg.transpose(tmat), h.normal)
        half.append(HalfSpace.make(coeffs, h.rhs + linalg.vec_dot(coeffs, x0)))
    return HPolytope(dim, half, _bounded=True)


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
