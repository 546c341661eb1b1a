import random
from fractions import Fraction

import pytest

from toricdeg import linalg
from toricdeg.errors import InternalError
from toricdeg.geometry import HalfSpace

from oracles import (
    det_oracle,
    inverse_oracle,
    primitive_int_vector,
    rank_oracle,
    solve_oracle,
)


def random_matrix(rng, n, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def random_entries(rng, nrows, ncols, kind):
    """Small int entries, or Fractions with denominators up to 4; about a
    fifth are zero, so pivots are sometimes missing."""
    def entry():
        x = rng.randint(-4, 4) if rng.random() < 0.9 else 0
        return x if kind is int else Fraction(x, rng.randint(1, 4))
    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def with_rank_at_most(rng, m, r):
    """Rows replaced by integer combinations of r of them, in shuffled order."""
    base = m[:r]
    rows = [[sum(c * row[j] for c, row in zip(coefs, base)) for j in range(len(m[0]))]
            for coefs in ([rng.randint(-2, 2) for _ in base] for _ in m[r:])]
    out = base + rows
    rng.shuffle(out)
    return out


def square_matrices(rng):
    """Square int and Fraction matrices of sizes 1..8, a third of them made
    rank-deficient, with their kinds."""
    for kind in (int, Fraction):
        for n in range(1, 9):
            for t in range(12):
                m = random_entries(rng, n, n, kind)
                if t % 3 == 0:
                    m = with_rank_at_most(rng, m, rng.randint(0, n - 1))
                yield kind, m


class TestDense:
    def test_det_agrees_with_expansion(self, rng):
        # cross-check the n=3 closed form against the generic eliminator
        for _ in range(30):
            m = random_matrix(rng, 3)
            padded = [row + [0] for row in m] + [[0, 0, 0, 1]]
            assert linalg.mat_det(m) == linalg.mat_det(padded)

    def test_integer_det_is_int(self, rng):
        for n in range(1, 6):
            for _ in range(100):
                m = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)]
                     for _ in range(n)]
                d = linalg.mat_det(m)
                assert type(d) is int
                assert d == det_oracle(m)

    def test_solve_round_trip(self, rng):
        for n in (2, 3, 4, 5):
            for _ in range(10):
                m = random_matrix(rng, n)
                if linalg.mat_det(m) == 0:
                    continue
                x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                rhs = linalg.mat_vec(m, x)
                assert linalg.solve(m, rhs) == tuple(x)

    def test_singular_returns_none(self):
        assert linalg.solve([[1, 2], [2, 4]], [1, 1]) is None
        assert linalg.mat_inverse([[1, 2], [2, 4]]) is None

    def test_inverse_round_trip(self, rng):
        for _ in range(15):
            m = random_matrix(rng, 3)
            inv = linalg.mat_inverse(m)
            if inv is None:
                continue
            assert linalg.mat_mul(m, inv) == linalg.identity(3)

    def test_rank_and_nullspace(self, rng):
        for _ in range(15):
            n = rng.randint(2, 4)
            m = random_matrix(rng, n)
            r = linalg.mat_rank(m)
            basis = linalg.nullspace(m)
            assert r + len(basis) == n
            for v in basis:
                assert all(x == 0 for x in linalg.mat_vec(m, v))

    def test_left_inverse(self):
        b = ((1, 0), (2, 1), (0, 3))        # 3x2 full column rank
        t = linalg.left_inverse(b)
        assert linalg.mat_mul(t, b) == linalg.identity(2)

    def test_primitive_vector(self):
        assert linalg.primitive_row((Fraction(2, 3), Fraction(-4, 3)), 1) == ((1, -2), Fraction(3, 2))
        assert linalg.primitive_row((6, -9, 3), 4) == ((2, -3, 1), Fraction(4, 3))
        assert linalg.primitive_row((0, 0), -1) == ((0, 0), -1)
        with pytest.raises(ValueError):
            HalfSpace.make((0, 0), 1)

    def test_halfspace_normalization_matches_oracle(self, rng):
        # HalfSpace.make scaled by primitive_int_vector and took the rhs
        # factor from the first nonzero coefficient
        for kind in (int, Fraction):
            for _ in range(200):
                row = random_entries(rng, 1, rng.randint(1, 5), kind)[0]
                if not any(row):
                    continue
                rhs = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                normal = primitive_int_vector(row)
                i = next(i for i, c in enumerate(row) if c)
                assert HalfSpace.make(row, rhs) == HalfSpace(normal, rhs * normal[i] / row[i])


class TestEliminationAgainstOracles:
    """`rref` and everything read off it against the eliminations it
    replaced: forward-elimination determinant, Cramer / Gauss-Jordan solve,
    per-column inverse, and rank by minors."""

    def test_det(self, rng):
        for kind, m in square_matrices(rng):
            d = linalg.mat_det(m)
            assert d == det_oracle(m), m
            assert type(d) is int or kind is Fraction
            assert linalg.rref(m)[2] == d

    def test_solve(self, rng):
        for kind, m in square_matrices(rng):
            rhs = random_entries(rng, 1, len(m), kind)[0]
            assert linalg.solve(m, rhs) == solve_oracle(m, rhs), m

    def test_inverse(self, rng):
        for _, m in square_matrices(rng):
            assert linalg.mat_inverse(m) == inverse_oracle(m), m

    def test_rank_and_nullspace_rectangular(self, rng):
        for kind in (int, Fraction):
            for nrows in range(1, 7):
                for ncols in range(1, 6):
                    m = random_entries(rng, nrows, ncols, kind)
                    m = with_rank_at_most(rng, m, rng.randint(0, min(nrows, ncols)))
                    r = linalg.mat_rank(m)
                    assert r == rank_oracle(m), m
                    basis = linalg.nullspace(m)
                    assert len(basis) == ncols - r
                    assert all(not any(linalg.mat_vec(m, v)) for v in basis)
                    assert not basis or rank_oracle(basis) == len(basis)


class TestFourierMotzkin:
    def test_feasibility(self):
        # unit square is feasible, contradictory strip is not
        square = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
        assert linalg.fm_feasible(square, 2)
        empty = [((1, 0), 0), ((-1, 0), -1)]
        assert not linalg.fm_feasible(empty, 2)

    def test_maximize_on_triangle(self):
        # maximize x over x,y >= 0, x + 2y <= 4
        rows = [((-1, 0), 0), ((0, -1), 0), ((1, 2), 4)]
        value, witness = linalg.fm_maximize(rows, 2, objective_index=0)
        assert value == 4
        assert witness == (4, 0)

    def test_maximize_reports_infeasible(self):
        rows = [((1,), 0), ((-1,), -1)]
        assert linalg.fm_maximize(rows, 1) == (None, None)

    def test_maximize_unbounded_raises(self):
        # a broken caller invariant, not malformed input
        with pytest.raises(InternalError, match="objective unbounded above") as info:
            linalg.fm_maximize([((-1, 0), 0)], 2, objective_index=0)
        assert isinstance(info.value, AssertionError)
        assert not isinstance(info.value, ValueError)

    def test_witness_is_lex_least(self):
        # max a over the square [0,1]^2 with a <= x1 + x2, a <= 2 - x1 - x2:
        # optimum a = 1 on the anti-diagonal; lex-least witness is x = (0, 1)
        rows = [
            ((1, -1, -1), 0),
            ((1, 1, 1), 2),
            ((0, 1, 0), 1), ((0, -1, 0), 0),
            ((0, 0, 1), 1), ((0, 0, -1), 0),
        ]
        value, witness = linalg.fm_maximize(rows, 3, objective_index=0)
        assert value == 1
        assert witness == (1, 0, 1)

    def test_matches_vertex_enumeration(self, rng):
        from toricdeg.geometry import HPolytope
        for _ in range(10):
            rows = []
            for _ in range(5):
                a = (rng.randint(-3, 3), rng.randint(-3, 3))
                if a == (0, 0):
                    a = (1, 0)
                rows.append((a, rng.randint(0, 6)))
            rows += [((1, 0), 8), ((-1, 0), 8), ((0, 1), 8), ((0, -1), 8)]
            poly = HPolytope.from_inequalities(
                2, [list(a) + [b] for a, b in rows])
            try:
                verts = poly.vertex_set()
            except Exception:
                assert not linalg.fm_feasible(rows, 2)
                continue
            value, witness = linalg.fm_maximize(rows, 2, objective_index=0)
            assert value == max(v[0] for v in verts)
