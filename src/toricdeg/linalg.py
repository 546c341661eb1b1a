"""Exact linear algebra over rationals, sized for small dense systems.

Matrices are sequences of row sequences holding ints or Fractions.  Nothing
here is asymptotically clever; dimensions stay below ~10 throughout the
package.  `rref` is the one elimination: a Gauss-Jordan pass over Fractions
that returns the reduced rows, their pivot columns and the determinant of
the leading square block.  Rank and nullspace read the pivots, `solve` is
the RREF of [m | rhs], `mat_inverse` the RREF of [m | I], and `mat_det`
past its 3x3 closed forms is the pivot product (an int for an integer
matrix).  Fourier-Motzkin elimination gives the simplex search its reported
witness (`fm_maximize`) and the tests exact feasibility oracles; the
polytope kernel reads emptiness from its double description instead.
`primitive_row` scales each input row once to primitive integer
coefficients; every row that elimination derives is an integer combination
of such rows, so it is reduced by an integer gcd alone and only its right
hand side stays a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InternalError


def mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def vec_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a for a in v)


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


def transpose(m):
    return tuple(zip(*m))


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_det(m):
    """Determinant: closed forms up to 3x3, else the pivot product of `rref`.
    An integer matrix gives an int."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        a, b, c = m[0]
        d, e, f = m[1]
        g, h, i = m[2]
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    det = rref(m)[2]
    return int(det) if all(isinstance(x, int) for row in m for x in row) else det


def rref(m):
    """Reduced row echelon form by Gauss-Jordan elimination over Fractions.

    Returns (rows, pivots, det): the reduced rows, nonzero ones first, the
    pivot column of each nonzero row, and the determinant of the leading
    square block (the pivot product with the sign of the row swaps; 0 unless
    every row has its pivot in the leading block).
    """
    rows = [[Fraction(x) for x in row] for row in m]
    pivots = []
    det = Fraction(1)
    r = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            det = -det
        det *= rows[r][col]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    if pivots != list(range(len(rows))):
        det = Fraction(0)
    return rows, pivots, det


def solve(m, rhs):
    """Unique solution of a square system, or None when singular."""
    rows, _, det = rref([list(row) + [b] for row, b in zip(m, rhs)])
    return None if det == 0 else tuple(row[-1] for row in rows)


def mat_rank(m):
    return len(rref(m)[1])


def nullspace(m):
    """Basis of the right nullspace as a list of Fraction tuples."""
    if not m:
        return []
    ncols = len(m[0])
    rows, pivots, _ = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -rows[r][f]
        basis.append(tuple(vec))
    return basis


def mat_inverse(m):
    """Exact inverse from one `rref` of [m | I], or None when singular."""
    n = len(m)
    rows, _, det = rref([list(row) + list(e) for row, e in zip(m, identity(n))])
    return None if det == 0 else tuple(tuple(row[n:]) for row in rows)


def left_inverse(b):
    """Left inverse of a full-column-rank matrix: T with T b = identity."""
    bt = transpose(b)
    gram = mat_mul(bt, b)
    gram_inv = mat_inverse(gram)
    if gram_inv is None:
        return None
    return mat_mul(gram_inv, bt)


# --- Fourier-Motzkin ------------------------------------------------------
#
# An inequality is a pair (coeffs, rhs) meaning sum(coeffs[i]*x[i]) <= rhs.


def primitive_row(coeffs, rhs):
    """Scale the row <coeffs, x> <= rhs by a positive rational to primitive
    integer coefficients (all zero stays zero); rhs becomes an exact
    Fraction."""
    lcm = 1
    for c in coeffs:
        if not isinstance(c, int):
            d = Fraction(c).denominator
            lcm = lcm * d // gcd(lcm, d)
    ints = tuple(int(c * lcm) for c in coeffs)
    rhs = Fraction(rhs) * lcm
    g = gcd(*ints)
    if g > 1:
        return (tuple(x // g for x in ints), rhs / g)
    return (ints, rhs)


def fm_eliminate(ineqs, j):
    """Project the system onto the coordinates other than x_j.

    The rows must have primitive integer coefficients, as `primitive_row`
    leaves them; so do the returned rows, and column j of each is zero.
    Trivially true rows are dropped, contradictory constant rows are kept so
    infeasibility survives the projection.
    """
    out, pos, neg = set(), [], []
    for coeffs, rhs in ineqs:
        c = coeffs[j]
        if c > 0:
            pos.append((coeffs, rhs))
        elif c < 0:
            neg.append((coeffs, rhs))
        elif any(coeffs) or rhs < 0:
            out.add((coeffs, rhs))
    for pc, pr in pos:
        a = pc[j]
        for nc, nr in neg:
            b = -nc[j]
            comb = tuple(b * p + a * q for p, q in zip(pc, nc))
            rhs = b * pr + a * nr
            g = gcd(*comb)
            if g > 1:
                comb = tuple(x // g for x in comb)
                rhs = rhs / g
            if g or rhs < 0:
                out.add((comb, rhs))
    return sorted(out)


def fm_feasible(ineqs, nvars):
    """Exact feasibility of a linear inequality system."""
    system = [primitive_row(c, r) for c, r in ineqs]
    for j in range(nvars):
        system = fm_eliminate(system, j)
    return all(r >= 0 for c, r in system if not any(c))


def fm_maximize(ineqs, nvars, objective_index=0):
    """Maximize x_obj over the feasible region of the system.

    Returns (value, witness) where witness is the lexicographically smallest
    optimal point (coordinates resolved in index order), or (None, None) when
    the system is infeasible.  Raises InternalError when the objective is
    unbounded above: callers here only optimise over bounded regions.
    """
    order = [j for j in range(nvars) if j != objective_index]
    stages = []
    system = [primitive_row(c, r) for c, r in ineqs]
    for j in reversed(order):
        stages.append((j, system))
        system = fm_eliminate(system, j)
    upper = None
    lower = None
    for coeffs, rhs in system:
        c = coeffs[objective_index]
        if c == 0:
            if rhs < 0:
                return (None, None)
            continue
        bound = Fraction(rhs, c)
        if c > 0:
            upper = bound if upper is None else min(upper, bound)
        else:
            lower = bound if lower is None else max(lower, bound)
    if lower is not None and upper is not None and lower > upper:
        return (None, None)
    if upper is None:
        raise InternalError("objective unbounded above")
    point = {objective_index: upper}
    for j, stage in reversed(stages):
        lo, hi = None, None
        for coeffs, rhs in stage:
            c = coeffs[j]
            if c == 0:
                continue
            rest = rhs - sum(coeffs[i] * point[i] for i in point if coeffs[i])
            bound = Fraction(rest, c)
            if c > 0:
                hi = bound if hi is None else min(hi, bound)
            else:
                lo = bound if lo is None else max(lo, bound)
        if lo is not None:
            point[j] = lo
        elif hi is not None:
            point[j] = hi
        else:
            point[j] = Fraction(0)
    witness = tuple(point[i] for i in range(nvars))
    return (upper, witness)
