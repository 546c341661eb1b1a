"""Exact linear algebra over rationals, sized for small dense systems.

Matrices are sequences of row sequences holding ints or Fractions.  Nothing
here is asymptotically clever; dimensions stay below ~10 throughout the
package, so plain Gaussian elimination with exact arithmetic is the right
tool.  Fourier-Motzkin elimination lives here too because both the polytope
kernel and the simplex search need exact feasibility and 1-d optimisation.
Input rows are scaled once to primitive integer coefficients; every row
that elimination derives is an integer combination of such rows, so it is
reduced by an integer gcd alone and only its right hand side stays a
Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


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
    """Determinant by fraction-free style elimination on a working copy."""
    n = len(m)
    if n == 1:
        return Fraction(m[0][0])
    if n == 2:
        return Fraction(m[0][0] * m[1][1] - m[0][1] * m[1][0])
    if n == 3:
        a, b, c = m[0]
        d, e, f = m[1]
        g, h, i = m[2]
        return Fraction(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))
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


def int_det(m):
    """Determinant of an integer matrix as an int; closed form up to 3x3."""
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
    return int(mat_det(m))


def solve(m, rhs):
    """Unique solution of a square system, or None when singular."""
    n = len(m)
    if n <= 3:
        det = mat_det(m)
        if det == 0:
            return None
        cols = list(zip(*m))
        out = []
        for j in range(n):
            saved = cols[j]
            cols[j] = rhs
            out.append(mat_det(list(zip(*cols))) / det)
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


def _echelon(m):
    """Row echelon form; returns (rows, pivot column list)."""
    rows = [[Fraction(x) for x in row] for row in m]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
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
    return rows, pivots


def mat_rank(m):
    if not m:
        return 0
    return len(_echelon(m)[1])


def nullspace(m):
    """Basis of the right nullspace as a list of Fraction tuples."""
    if not m:
        return []
    ncols = len(m[0])
    rows, pivots = _echelon(m)
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
    """Exact inverse, or None when singular."""
    n = len(m)
    det = mat_det(m)
    if det == 0:
        return None
    cols = []
    for j in range(n):
        e = tuple(1 if i == j else 0 for i in range(n))
        cols.append(solve(m, e))
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def left_inverse(b):
    """Left inverse of a full-column-rank matrix: T with T b = identity."""
    bt = transpose(b)
    gram = mat_mul(bt, b)
    gram_inv = mat_inverse(gram)
    if gram_inv is None:
        return None
    return mat_mul(gram_inv, bt)


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


# --- Fourier-Motzkin ------------------------------------------------------
#
# An inequality is a pair (coeffs, rhs) meaning sum(coeffs[i]*x[i]) <= rhs.


def _normalize_ineq(coeffs, rhs):
    """Scale an input row to primitive integer coefficients; rhs becomes an
    exact Fraction."""
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

    The rows must have primitive integer coefficients, as `_normalize_ineq`
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
    system = [_normalize_ineq(c, r) for c, r in ineqs]
    for j in range(nvars):
        system = fm_eliminate(system, j)
    return all(r >= 0 for c, r in system if not any(c))


def fm_maximize(ineqs, nvars, objective_index=0):
    """Maximize x_obj over the feasible region of the system.

    Returns (value, witness) where witness is the lexicographically smallest
    optimal point (coordinates resolved in index order), or (None, None) when
    the system is infeasible.  Raises ValueError when the objective is
    unbounded above; callers here only optimise over bounded regions.
    """
    order = [j for j in range(nvars) if j != objective_index]
    stages = []
    system = [_normalize_ineq(c, r) for c, r in ineqs]
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
        raise ValueError("objective unbounded above")
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
