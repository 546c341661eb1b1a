"""Property-based tests of the polytope kernel (skipped without hypothesis).

Examples are derandomized and no example database is written, so every run
checks the same cases.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from toricdeg import hull, lattice_points, linalg  # noqa: E402
from toricdeg.errors import EmptyPolytopeError  # noqa: E402
from toricdeg.geometry import HPolytope  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

coord = st.fractions(min_value=-5, max_value=5, max_denominator=3)


def points(dim, min_size=1, max_size=9):
    return st.lists(st.tuples(*[coord] * dim), min_size=min_size, max_size=max_size)


@st.composite
def boxed_systems(draw, dims=(2, 3), max_rows=5, box=4):
    """Random rows cut from the box [-box, box]^dim: always bounded."""
    dim = draw(st.sampled_from(dims))
    rows = []
    for i in range(dim):
        e = [0] * dim
        e[i] = 1
        rows.append(e + [box])
        rows.append([-x for x in e] + [box])
    normal = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any)
    for a in draw(st.lists(normal, max_size=max_rows)):
        rows.append(a + [draw(st.integers(-2, 6))])
    return HPolytope.from_inequalities(dim, rows)


@st.composite
def unimodular(draw, dim):
    """Products of elementary row operations, swaps and sign changes."""
    m = [list(row) for row in linalg.identity(dim)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.permutations(range(dim)))[:2]
        c = draw(st.integers(-2, 2))
        m[j] = [y + c * x for x, y in zip(m[i], m[j])]
    if draw(st.booleans()):
        m[0], m[-1] = m[-1], m[0]
    if draw(st.booleans()):
        m[0] = [-x for x in m[0]]
    return tuple(tuple(row) for row in m)


def irredundant(p):
    """Halfspaces whose hyperplane meets the polytope in a facet."""
    verts = p.vertex_set()
    out = []
    for h in p.halfspaces:
        active = [v for v in verts if h.value(v) == h.rhs]
        diffs = [linalg.vec_sub(v, active[0]) for v in active[1:]]
        if active and linalg.mat_rank(diffs) == p.dim - 1:
            out.append(h)
    return tuple(out)


@PROPERTY
@given(boxed_systems())
def test_hull_of_vertices_is_irredundant_facets(p):
    try:
        verts = p.vertex_set()
    except EmptyPolytopeError:
        assume(False)
    assume(p.is_full_dimensional())
    assert hull(verts, p.dim).halfspaces == irredundant(p)


@PROPERTY
@given(st.sampled_from((1, 2, 3)).flatmap(points), st.data())
def test_hull_invariant_under_permutation_and_duplication(pts, data):
    dim = len(pts[0])
    base = hull(pts, dim).halfspaces
    shuffled = data.draw(st.permutations(pts))
    extra = data.draw(st.lists(st.sampled_from(pts), max_size=5))
    assert hull(shuffled + extra, dim).halfspaces == base


@PROPERTY
@given(boxed_systems(box=3).flatmap(
    lambda p: st.tuples(st.just(p), unimodular(p.dim),
                        st.lists(st.integers(-4, 4), min_size=p.dim, max_size=p.dim))))
def test_lattice_points_commute_with_unimodular_maps(case):
    p, m, t = case
    try:
        pts = lattice_points(p)
    except EmptyPolytopeError:
        assume(False)
    image = p.affine_unimodular_image(m, t)
    moved = sorted(tuple(int(x) for x in linalg.vec_add(linalg.mat_vec(m, q), t))
                   for q in pts)
    assert list(lattice_points(image)) == moved


@PROPERTY
@given(boxed_systems(dims=(1, 2, 3)), st.fractions(min_value=Fraction(1, 3), max_value=3))
def test_equal_polytopes_hash_equal(p, factor):
    try:
        p.vertex_set()
    except EmptyPolytopeError:
        assume(False)
    rows = [list(h.normal) + [h.rhs] for h in p.halfspaces]
    redundant = [[2 * a for a in p.halfspaces[0].normal] + [2 * p.halfspaces[0].rhs + factor]]
    q = HPolytope.from_inequalities(p.dim, rows + redundant)
    assert q == p and hash(q) == hash(p)
