"""Bott tower data, its cohomology presentation, and the rigidity decision.

A pair (A, lam) with A strictly upper triangular over Z and lam positive
encodes a combinatorial-hypercube polytope with 2n facets and the quotient
ring Z[x_1..x_n]/(x_i^2 + sum_j A^i_j x_j x_i).  Degeneration moves and
facet swaps are generator shifts x_k -> x_k + sum_{j>k} v_j x_j, which carry
(A, lam) to (A + (col_k(A) + 2 e_k) v^T, lam + lam_k v) (`_shift`): a move
takes v = shift * e_l, a facet swap v = -row_k(A).  Composing moves, facet
swaps, and block permutations reduces any rationally trivial datum to a
canonical product of standard blocks, on which symplectomorphism is
decidable by direct comparison.

The cube test reads each prefix minimum of u_j in closed form, O(n^3).
Standardization shifts generators along exceptional directions, so its steps
descend by construction and a decision checks only the composed certificate.

The decision path works in degrees <= 2, where x_p^2 = -sum_q A^p_q x_p x_q
is the whole reduction.  A linear class is its coefficient row (the
symplectic class is the row lam), a ring map is its coefficient matrix, and
linear classes u, v multiply to sum_{p<q} (u_p v_q + u_q v_p - u_p v_p A^p_q)
x_p x_q (`_product`).  Only `bott-reduce` needs higher degrees: there a
class is a {bitmask: coefficient} dict on the square-free monomial basis
(`CohRing.reduce_exponents`).

Indices k, l in the public API are 1-based to match the inequality labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import linalg
from .errors import InternalError, MoveError, NotIntegralError, NotQTrivialError
from .geometry import HalfSpace, HPolytope, lattice_fibres
from .valuation import SlideDirection, line_coordinates


@dataclass(frozen=True)
class BottData:
    """Strictly upper triangular integer matrix plus positive length vector."""

    n: int
    a: tuple
    lam: tuple

    @staticmethod
    def make(a_rows, lam):
        rows = tuple(tuple(int(x) for x in row) for row in a_rows)
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("matrix must be square")
            if any(row[j] != 0 for j in range(i + 1)):
                raise ValueError("matrix must be strictly upper triangular")
        lam = tuple(Fraction(x) for x in lam)
        if len(lam) != n:
            raise ValueError("length vector size mismatch")
        if any(x <= 0 for x in lam):
            raise ValueError("lengths must be positive")
        return BottData(n, rows, lam)

    def scaled(self, factor):
        return BottData(self.n, self.a, tuple(x * Fraction(factor) for x in self.lam))


def bott_polytope(b: BottData) -> HPolytope:
    """The 2n-inequality polytope {p >= 0, <p, e_j + col_j(A)> <= lam_j}."""
    half = []
    for j in range(b.n):
        lower = tuple(-1 if i == j else 0 for i in range(b.n))
        half.append(HalfSpace(lower, Fraction(0)))
        upper = tuple((1 if i == j else 0) + b.a[i][j] for i in range(b.n))
        half.append(HalfSpace(upper, b.lam[j]))
    return HPolytope(b.n, half)


def is_hypercube(b: BottData) -> bool:
    """Combinatorial hypercube test by the prefix-minimum criterion.

    D fibres over the prefix (j-1)-cube with fibre [0, u_j], where
    u_j(p) = lam_j - sum_{i<j} A^i_j p_i is affine, so D is a cube iff every
    u_j has a positive minimum over its prefix cube.  Eliminate p_{j-1} down
    to p_1: p_i ranges over [0, u_i(p_<i)] (nonempty, u_i > 0 was checked
    first) and its coefficient c_i is free of p_<i, so p_i becomes 0 when
    c_i >= 0 and u_i when c_i < 0.  The constant left is the minimum: O(n^3).
    """
    for j in range(b.n):
        const = b.lam[j]
        c = [-b.a[i][j] for i in range(j)]
        for i in range(j - 1, -1, -1):
            if c[i] < 0:
                const += c[i] * b.lam[i]
                for h in range(i):
                    c[h] -= c[i] * b.a[h][i]
        if const <= 0:
            return False
    return True


# --- cohomology ring -------------------------------------------------------


@dataclass(frozen=True)
class CohRing:
    """The presentation Z[x_1..x_n]/(x_i^2 + sum_j A^i_j x_j x_i).

    A class is a dict {bitmask: coefficient} on the 2^n square-free
    monomials.  Reduction rewrites x_i^2 into -sum_j A^i_j x_j x_i, which
    keeps the degree and strictly raises the index multiset, so it
    terminates with a unique normal form; the basis stops at degree n, so
    every monomial of higher degree is zero.
    """

    n: int
    a: tuple
    # normal-form memo; entries are written once and idempotent, so
    # concurrent readers at worst duplicate a computation
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(tuple(int(x) for x in row) for row in self.a))

    @staticmethod
    def of(b: BottData) -> "CohRing":
        """The ring of b's presentation."""
        return CohRing(b.n, b.a)

    def reduce_exponents(self, exp) -> dict:
        """Normal form of the monomial with the given exponent vector.  The
        dict is the memo's own: read it, do not change it."""
        exp = tuple(int(e) for e in exp)
        if sum(exp) > self.n:
            return {}
        hit = self._memo.get(exp)
        if hit is not None:
            return hit
        sq = next((i for i, e in enumerate(exp) if e >= 2), None)
        if sq is None:
            out = {sum(1 << i for i, e in enumerate(exp) if e): 1}
        else:
            out = {}
            for j in range(sq + 1, self.n):
                if self.a[sq][j]:
                    term = list(exp)
                    term[sq] -= 1
                    term[j] += 1
                    _add_scaled(out, self.reduce_exponents(term), -self.a[sq][j])
        self._memo[exp] = out
        return out

    def multiply(self, u: dict, v: dict) -> dict:
        """The product of two classes."""
        out = {}
        for m1, a1 in u.items():
            for m2, a2 in v.items():
                exp = tuple(((m1 >> i) & 1) + ((m2 >> i) & 1) for i in range(self.n))
                _add_scaled(out, self.reduce_exponents(exp), a1 * a2)
        return out


def _add_scaled(out: dict, cls: dict, factor):
    """out += factor * cls, dropping the coefficients that cancel."""
    for m, c in cls.items():
        v = out.get(m, 0) + factor * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)


@dataclass(frozen=True)
class ExceptionalType:
    """alpha_k = c * y_l with l > k; parity of c distinguishes even/odd.

    alpha_k = 0 is reported as even with the sentinel l = n + 1 and c = 0.
    """

    kind: str
    l: int
    c: int


def _product(a, u, v):
    """x_p x_q (p < q) coefficients of u * v for linear classes u, v."""
    n = len(u)
    return tuple(u[p] * v[q] + u[q] * v[p] - u[p] * v[p] * a[p][q]
                 for p in range(n) for q in range(p + 1, n))


def exceptional_type(b: BottData, k: int):
    """Least l > k with alpha_k = c * y_l, or None: the integer test
    -2 A^k = c (2 e_l + A^l), whose l-th entry forces c = -A^k_l."""
    row = b.a[k - 1]
    if not any(row):
        return ExceptionalType("even", b.n + 1, 0)
    for l in range(k + 1, b.n + 1):
        c = -row[l - 1]
        if c and all(-2 * x == c * ((2 if j == l - 1 else 0) + b.a[l - 1][j])
                     for j, x in enumerate(row)):
            return ExceptionalType("even" if c % 2 == 0 else "odd", l, c)
    return None


def is_q_trivial(b: BottData) -> bool:
    """Rational triviality: every alpha_k = -A^k squares to zero."""
    return not any(any(_product(b.a, row, row)) for row in b.a)


# --- ring maps --------------------------------------------------------------


@dataclass(frozen=True)
class RingMap:
    """Degree-preserving map between presentations, stored as its coefficient
    matrix m (row i is the image of x_i).  The decision path works in degrees
    <= 2: composition is the matrix product, and images multiply by
    `_product` (u_p v_q + u_q v_p - u_p v_p A^p_q on x_p x_q)."""

    source: CohRing
    target: CohRing
    m: tuple

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(map(tuple, self.m)))

    def matrix(self):
        return self.m

    def compose(self, after: "RingMap") -> "RingMap":
        """x -> after(self(x))."""
        if self.target != after.source:
            raise ValueError("maps do not compose")
        return RingMap(self.source, after.target, linalg.mat_mul(self.m, after.m))

    def inverse(self) -> "RingMap":
        """Inverse on generators, with int entries; the coefficient matrix
        and its inverse must both be integral (so unimodular)."""
        inv = linalg.mat_inverse(self.m)
        if inv is None or any(x.denominator != 1 for row in self.m + inv for x in row):
            raise ValueError("map is not invertible over the integers")
        return RingMap(self.target, self.source, tuple(tuple(map(int, row)) for row in inv))


def ring_map_check(f: RingMap, lam, lam_t) -> bool:
    """Does f descend, invert over Z, and carry omega = sum lam_i x_i to
    omega_t = sum lam_t_i x_i exactly?  All in degrees <= 2: f kills relation
    i iff f(x_i) (f(x_i) + sum_j A^i_j f(x_j)) = 0, i.e. `_product(target.a,
    m_i, ((I + A_source) m)_i)` is zero, `_product` giving u_p v_q + u_q v_p -
    u_p v_p A^p_q on x_p x_q.  A unimodular f that respects the source
    relations maps onto a free Z-module of the same rank 2^n, so it is an
    isomorphism: no inverse check.  The image of omega is the row lam m."""
    m = f.m
    if any(c.denominator != 1 for row in m for c in row):
        return False
    if abs(linalg.mat_det(m)) != 1:
        return False
    am = linalg.mat_mul(f.source.a, m)
    if any(any(_product(f.target.a, mi, linalg.vec_add(mi, ami)))
           for mi, ami in zip(m, am)):
        return False
    return linalg.mat_vec(linalg.transpose(m), lam) == tuple(lam_t)


# --- degeneration moves ------------------------------------------------------


@dataclass(frozen=True)
class Move:
    """One pipeline step: the data it produced and the ring map into it."""

    kind: str
    params: tuple
    result: BottData
    ring_map: RingMap
    certified: bool


def _shift(b: BottData, k: int, v, noun: str):
    """The generator shift x_k -> x_k + sum_{j>k} v_j x_j: the target data
    A' = A + (col_k(A) + 2 e_k) v^T, lam' = lam + lam_k v, and the ring
    map's matrix I + e_k v^T.  A' stays strictly upper triangular (v is
    zero up to k, col_k(A) below k), so positivity of lam' is the one check;
    `noun` names the step in its MoveError."""
    ki = k - 1
    col = [row[ki] for row in b.a]
    col[ki] = 2
    rows = tuple(tuple(x + c * vj for x, vj in zip(row, v)) if c else row
                 for row, c in zip(b.a, col))
    lam = tuple(x + b.lam[ki] * vj if vj else x for x, vj in zip(b.lam, v))
    if any(x <= 0 for x in lam):
        raise MoveError(f"{noun} would force a nonpositive length; data is not a "
                        "combinatorial hypercube")
    m = linalg.identity(b.n)
    m = m[:ki] + (tuple(x + vj for x, vj in zip(m[ki], v)),) + m[ki + 1:]
    return BottData(b.n, rows, lam), m


def parametrized_move(b: BottData, k: int, l: int, target_entry: int) -> Move:
    """Rewrite entry (k, l) of A to target_entry, transporting lam and the ring.

    The ring map sends x_k to x_k + shift * x_l with shift = (target -
    current) / 2 and fixes the other generators; the move is only legal when
    this map descends, which is exactly the exceptionality condition, and
    when the target still defines tower data (its polytope must stay a
    combinatorial hypercube; a ring map into collapsed data is not a
    degeneration statement).  The symplectomorphism certificate holds iff
    current + target >= 0.
    """
    if not (1 <= k < l <= b.n):
        raise MoveError("need 1 <= k < l <= n")
    displacement = target_entry - b.a[k - 1][l - 1]
    if displacement % 2:
        raise MoveError("move displacement must be even (parity gate)")
    shift = displacement // 2
    data, m = _shift(b, k, [shift * (j == l - 1) for j in range(b.n)], "move")
    if shift != 0 and not is_hypercube(data):
        raise MoveError(
            f"move at (k={k}, l={l}) to entry {target_entry} collapses the "
            "target polytope; data would not define a tower")
    f = RingMap(CohRing.of(b), CohRing.of(data), m)
    if not ring_map_check(f, b.lam, data.lam):
        raise MoveError(
            f"no degeneration move at (k={k}, l={l}) to entry {target_entry}: "
            "the generator shift does not descend")
    certified = b.a[k - 1][l - 1] + target_entry >= 0
    return Move("move", (k, l, target_entry), data, f, certified)


def elementary_move(b: BottData, k: int, l: int) -> Move:
    """Normalize entry (k, l): to 0 for even exceptional x_k, to -1 for odd."""
    ex = exceptional_type(b, k)
    if ex is None:
        raise MoveError(f"x_{k} is not of exceptional type")
    if ex.c == 0:
        if not (k < l <= b.n):
            raise MoveError("need k < l <= n")
        return parametrized_move(b, k, l, 0)
    if ex.l != l:
        raise MoveError(f"x_{k} is exceptional along l={ex.l}, not l={l}")
    target_entry = 0 if ex.kind == "even" else -1
    return parametrized_move(b, k, l, target_entry)


def flip(b: BottData, k: int) -> Move:
    """Swap the two facets of coordinate k (a lattice symmetry, always
    a symplectomorphism of the underlying toric manifold): the shift of x_k
    by minus row k of A, which negates that row."""
    data, m = _shift(b, k, [-x for x in b.a[k - 1]], "facet swap")
    f = RingMap(CohRing.of(b), CohRing.of(data), m)
    return Move("flip", (k,), data, f, True)


def permutation_move(b: BottData, perm) -> Move:
    """Relabel coordinates by perm (0-based image list).

    Only permutations with perm[i] < perm[j] on every nonzero A^i_j are
    legal, so the image stays strictly upper triangular; its lengths are
    those of b, permuted, so the image is built without a second check.
    """
    n = b.n
    rows = [[0] * n for _ in range(n)]
    lam = [None] * n
    for i in range(n):
        lam[perm[i]] = b.lam[i]
        for j in range(n):
            if b.a[i][j]:
                if perm[i] >= perm[j]:
                    raise MoveError("permutation breaks upper triangularity")
                rows[perm[i]][perm[j]] = b.a[i][j]
    data = BottData(n, tuple(map(tuple, rows)), tuple(lam))
    m = [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    f = RingMap(CohRing.of(b), CohRing.of(data), m)
    return Move("permute", tuple(perm), data, f, True)


# --- standard form and the decision ------------------------------------------


@dataclass(frozen=True)
class StandardForm:
    """`trace` lists the steps from the data scaled by `scale` to `data` as
    ("flip", (k,)), ("move", (k, l, target_entry)) and ("permute", perm)."""

    partition: tuple
    lam: tuple
    data: BottData
    trace: tuple
    ring_map: RingMap
    scale: Fraction


def _row_standard(a, k):
    """Row k (1-based) is zero or a single -1."""
    row = a[k - 1]
    nz = [x for x in row if x]
    return not nz or nz == [-1]


def standard_form(b: BottData) -> StandardForm:
    """Reduce rationally trivial cube data to the canonical block product.

    Processing runs over k from n-1 down to 1; at each k the exceptional
    entry is either moved to its normalized value (0 or -1) when the
    symplectomorphism condition holds, or the coordinate is flipped first.
    Each move zeroes the leading entry of row k, so at most n steps suffice
    per row.  A final coordinate permutation sorts the blocks canonically:
    by size, then terminal length, then nonterminal length multiset.
    """
    if not is_q_trivial(b):
        raise NotQTrivialError("standard form requires rationally trivial data")
    if not is_hypercube(b):
        raise MoveError("standard form requires combinatorial-hypercube data")
    return _standard_form(b)


def _standard_form(b: BottData) -> StandardForm:
    """`standard_form` for rationally trivial cube data.  Each step is the
    `_shift` I + e_k v^T along the exceptional direction; the certificate M
    takes it as the column operation M <- M + (M e_k) v^T."""
    scale = Fraction(lcm(*(x.denominator for x in b.lam)))
    n = b.n
    current = b.scaled(scale)
    trace = []
    composed = [list(row) for row in linalg.identity(n)]
    for k in range(n - 1, 0, -1):
        # Each move strictly advances the leading column of row k and at most
        # one facet swap precedes each move, so 2n+2 steps always suffice.
        for _ in range(2 * n + 2):
            if _row_standard(current.a, k):
                break
            ex = exceptional_type(current, k)
            if ex is None or ex.c == 0:
                raise InternalError("nonzero row must stay exceptional during "
                                    "standardization")
            target_entry = 0 if ex.kind == "even" else -1
            entry = current.a[k - 1][ex.l - 1]
            if entry + target_entry < 0:
                trace.append(("flip", (k,)))
                v, noun = [-x for x in current.a[k - 1]], "facet swap"
            else:
                trace.append(("move", (k, ex.l, target_entry)))
                shift = (target_entry - entry) // 2
                v, noun = [shift * (j == ex.l - 1) for j in range(n)], "move"
            current, _ = _shift(current, k, v, noun)
            for row in composed:
                c = row[k - 1]
                if c:
                    row[:] = [x + c * vj for x, vj in zip(row, v)]
        else:
            raise InternalError("standardization did not terminate")
    # Read the block structure: every nonzero row points at its terminal.
    pointer = {}
    for k in range(1, n + 1):
        row = current.a[k - 1]
        nz = [j + 1 for j, x in enumerate(row) if x]
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
    trace.append(("permute", tuple(perm)))
    step = permutation_move(current, perm)
    current = step.result
    partition = tuple(blk[0] for blk in blocks)
    lam_out = tuple(x / scale for x in current.lam)
    ring_map = RingMap(CohRing.of(b), step.ring_map.target,
                       linalg.mat_mul(composed, step.ring_map.m))
    return StandardForm(partition, lam_out, current, tuple(trace), ring_map, scale)


@dataclass(frozen=True)
class Decision:
    yes: bool
    reason: str
    ring_map: RingMap = None
    lam_matrix: tuple = None
    sigma: tuple = None
    standard: tuple = None


def decide_symplectomorphic(b1: BottData, b2: BottData) -> Decision:
    """Symplectomorphism decision for rationally trivial data.

    Both inputs reduce to canonical standard form; they are equivalent
    exactly when the forms coincide, in which case the certificate is the
    composed ring isomorphism (carrying one symplectic class to the other)
    together with the identity permutation relating the two standard
    polytopes.
    """
    for b in (b1, b2):
        if not is_q_trivial(b):
            raise NotQTrivialError("decision requires rationally trivial data")
        if not is_hypercube(b):
            raise MoveError("decision requires combinatorial-hypercube data")
    s1 = _standard_form(b1)
    s2 = _standard_form(b2)
    if s1.partition != s2.partition:
        return Decision(False, f"partition mismatch: {s1.partition} vs {s2.partition}",
                        standard=(s1, s2))
    if s1.lam != s2.lam:
        return Decision(False,
                        f"length multiset mismatch in standard form: {s1.lam} vs {s2.lam}",
                        standard=(s1, s2))
    f = s1.ring_map.compose(s2.ring_map.inverse())
    if not ring_map_check(f, b1.lam, b2.lam):
        raise InternalError("composed certificate failed verification")
    n = b1.n
    return Decision(True, "standard forms agree", ring_map=f,
                    lam_matrix=linalg.identity(n), sigma=tuple(range(1, n + 1)),
                    standard=(s1, s2))


@dataclass(frozen=True)
class MoveVerification:
    source: BottData
    target: BottData
    slide: SlideDirection
    levels: tuple          # (m, ok, detail) per level
    all_pass: bool
    dilated_by: int        # always 1: a Bott polytope is normal


def _level_verdicts(small: HPolytope, big: HPolytope, d: SlideDirection,
                    max_level: int):
    """(m, ok, detail) for m = 1..max_level: does the slide of the lattice
    points of m*small equal the lattice points of m*big?

    Both sides go to the line coordinates of d once.  Level m passes iff
    both have the same nonempty lines and the fibre of m*big on each is
    [0, b - a] for the fibre [a, b] of m*small, which costs one scan of
    the lines and not of the points.  Both fibre lists come in lex order of
    key, so they are compared as lists.  Only a failing level expands its
    fibres into points, for the detail: the first five missing and extra.
    """
    src = line_coordinates(small, d)
    tgt = line_coordinates(big, d)
    levels = []
    for m in range(1, max_level + 1):
        have = [(key, 0, b - a) for key, a, b in lattice_fibres(src, m)]
        want = list(lattice_fibres(tgt, m))
        detail = None
        if have != want:
            have, want = ({d.from_line(key, t) for key, a, b in side
                           for t in range(a, b + 1)} for side in (have, want))
            detail = {"missing": sorted(want - have)[:5],
                      "extra": sorted(have - want)[:5]}
        levels.append((m, detail is None, detail))
    return tuple(levels)


def verify_degeneration_move(b: BottData, k: int, l: int, c: int = None,
                             max_level: int = 4) -> MoveVerification:
    """End-to-end check that the move's semigroup matches the target cone.

    The side with the smaller (k, l) entry is slid with parameter
    c = (entry + target entry) / 2; level by level the slide of its dilated
    lattice points must equal the lattice points of the dilated target.  In
    the line coordinates of the slide every slide line is a fibre of the last
    coordinate, so each level compares one integer interval per line
    (`_level_verdicts`) instead of two point sets.

    Needs 1 <= k < l <= n (else MoveError).  The data must be a
    combinatorial cube (else MoveError) with integral lengths (else
    NotIntegralError).  Its polytope {0 <= p_j <= u_j(p_<j)} is then
    integral, Delzant (the rows tight at a vertex are triangular with a +-1
    diagonal), in the orthant with the origin vertex, and normal: a lattice
    point of mP splits over a split of its prefix into m lattice points y_i,
    as u_n is affine with positive integer values u_n(y_i).  So the slide
    levels need no dilation (`dilated_by` is 1) and no re-validation by
    `build_semigroup`.

    A zero-shift move (c = entry, so the target entry is the entry) is the
    identity on the data and the ring: every level passes without a slide.
    """
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    if not (1 <= k < l <= b.n):
        raise MoveError("need 1 <= k < l <= n")
    if not is_hypercube(b):
        raise MoveError("verification requires combinatorial-hypercube data")
    entry = b.a[k - 1][l - 1]
    if c is None:
        move = elementary_move(b, k, l)
        target_entry = move.result.a[k - 1][l - 1]
        c = (entry + target_entry) // 2
        if c < 0:
            raise MoveError("certified direction needs entry + target >= 0; flip "
                            "the coordinate first")
    else:
        if c < 0:
            raise MoveError("slide parameter must be nonnegative")
        target_entry = 2 * c - entry
        move = parametrized_move(b, k, l, target_entry)
    if target_entry >= entry:
        small, big = b, move.result
    else:
        small, big = move.result, b
    poly_small = bott_polytope(small)
    if any(x.denominator != 1 for x in small.lam):
        raise NotIntegralError("move verification requires integral lengths")
    direction = SlideDirection(k, l, c)
    if target_entry == entry:
        levels = tuple((m, True, None) for m in range(1, max_level + 1))
    else:
        levels = _level_verdicts(poly_small, bott_polytope(big), direction, max_level)
    return MoveVerification(b, move.result, direction, levels,
                            all(ok for _, ok, _ in levels), 1)
