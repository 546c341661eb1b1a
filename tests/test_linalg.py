import random
from fractions import Fraction

import pytest

from toricdeg import linalg


def random_matrix(rng, n, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


class TestDense:
    def test_det_agrees_with_expansion(self, rng):
        # cross-check the n=3 closed form against the generic eliminator
        for _ in range(30):
            m = random_matrix(rng, 3)
            padded = [row + [0] for row in m] + [[0, 0, 0, 1]]
            assert linalg.mat_det(m) == linalg.mat_det(padded)

    def test_int_det_agrees_with_fraction_det(self, rng):
        for n in range(1, 6):
            for _ in range(100):
                m = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)]
                     for _ in range(n)]
                d = linalg.int_det(m)
                assert type(d) is int
                assert d == linalg.mat_det(m)

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
        assert linalg.primitive_int_vector((Fraction(2, 3), Fraction(-4, 3))) == (1, -2)
        assert linalg.primitive_int_vector((6, -9, 3)) == (2, -3, 1)
        with pytest.raises(ValueError):
            linalg.primitive_int_vector((0, 0))


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
        with pytest.raises(ValueError):
            linalg.fm_maximize([((-1, 0), 0)], 2, objective_index=0)

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
