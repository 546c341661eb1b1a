"""Property-based tests of the polytope kernel, of Fourier-Motzkin
elimination and of the CLI's exit-code contract (skipped without
hypothesis).

Examples are derandomized and no example database is written, so every run
checks the same cases.
"""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from toricdeg import gromov, hull, lattice_points, linalg  # noqa: E402
from toricdeg.cli import main  # noqa: E402
from toricdeg.errors import EmptyPolytopeError, InternalError  # noqa: E402
from toricdeg.geometry import HPolytope  # noqa: E402

from oracles import affine_unimodular_image, fm_maximize_oracle  # noqa: E402

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
    image = affine_unimodular_image(p, m, t)
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


@st.composite
def fm_systems(draw):
    """Small systems for `fm_maximize`: integer or rational coefficients and
    rational right hand sides, with zero rows, loosened multiples of other
    rows, and tight or contradictory pairs mixed in; without the optional
    box the objective may be unbounded."""
    nvars = draw(st.integers(1, 4))
    coeff = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3))
    rhs = st.fractions(-6, 6, max_denominator=4)
    row = st.tuples(st.tuples(*[coeff] * nvars), rhs)
    rows = draw(st.lists(row, max_size=6))
    unit = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    if draw(st.booleans()):
        box = draw(st.integers(1, 5))
        rows += [(e, box) for e in unit] + [(tuple(-x for x in e), box) for e in unit]
    if rows and draw(st.booleans()):
        c, r = draw(st.sampled_from(rows))
        k = draw(st.integers(1, 3))
        rows.append((tuple(k * x for x in c), k * r + draw(st.fractions(0, 2, max_denominator=3))))
    if draw(st.booleans()):
        rows.append(((0,) * nvars, draw(rhs)))
    if draw(st.booleans()):
        e = draw(st.sampled_from(unit))
        r = draw(rhs)
        rows += [(e, r), (tuple(-x for x in e), -r - draw(st.sampled_from((0, Fraction(1, 2)))))]
    rows = draw(st.permutations(rows))
    return rows, nvars, draw(st.integers(0, nvars - 1))


def fm_outcome(solve, rows, nvars, objective):
    try:
        return repr(solve(rows, nvars, objective))
    except (ValueError, InternalError) as exc:
        return (type(exc).__name__, str(exc))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(fm_systems())
def test_integer_fm_rows_match_fraction_normalization(system):
    rows, nvars, objective = system
    assert fm_outcome(linalg.fm_maximize, rows, nvars, objective) == \
        fm_outcome(fm_maximize_oracle, rows, nvars, objective)


@st.composite
def verify_move_requests(draw):
    """bott-verify-move on mostly valid towers and indices; one request in
    five breaks one thing: the declared n, an entry on or below the
    diagonal, a zero, negative, fractional or malformed length, indices
    outside 1 <= k < l <= n, or the level bound."""
    n = draw(st.integers(2, 3))
    rows = [[draw(st.integers(-2, 2)) if j > i else 0 for j in range(n)] for i in range(n)]
    lam = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    k = draw(st.integers(1, n - 1))
    l = draw(st.integers(k + 1, n))
    level = draw(st.integers(1, 3))
    flaw = draw(st.sampled_from(("none",) * 16 + ("n", "diagonal", "length", "index")))
    body = {"n": n + (flaw == "n"), "A": rows, "lambda": lam}
    if flaw == "diagonal":
        i = draw(st.integers(0, n - 1))
        rows[i][draw(st.integers(0, i))] = 1
    elif flaw == "length":
        lam[draw(st.integers(0, n - 1))] = draw(st.sampled_from((0, -1, "1/2", "x", "1/0", 2.5)))
    elif flaw == "index":
        k, l, level = (draw(st.integers(-1, n + 1)) for _ in range(3))
    argv = ["bott-verify-move", "--bott", "{in0}", "--k", k, "--l", l, "--max-level", level]
    c = draw(st.none() | st.integers(-1, 3))
    return [body], argv + ([] if c is None else ["--c", c])


@st.composite
def gw_simplex_requests(draw):
    """gw-simplex on vertex lists or inequality systems of dimension 1 to 4,
    flat and unbounded ones included, and one in ten with the wrong dim; the
    exhaustive entry bound stays small enough in dimension 3 that each
    search is quick."""
    dim = draw(st.integers(1, 4))
    entry = st.integers(-2, 2)
    if draw(st.booleans()):
        body = {"dim": dim, "vertices": draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                                                      min_size=1, max_size=6))}
    else:
        row = st.lists(entry, min_size=dim, max_size=dim).map(lambda a: a + [1 + abs(a[0])])
        body = {"dim": dim, "inequalities": draw(st.lists(row, min_size=1, max_size=7))}
    if draw(st.integers(0, 9)) == 0:
        body["dim"] = dim + 1
    mode = draw(st.sampled_from(("exhaustive", "heuristic")))
    bound = draw(st.integers(-1, 1 if dim >= 3 else 3))
    argv = ["gw-simplex", "--polytope", "{in0}", "--mode", mode, "--bound", bound,
            "--seed", draw(st.integers(0, 3))]
    return [body], argv


@st.composite
def bott_towers(draw, max_n):
    """A tower with n = 1..max_n and entries in -3..3: either nonzero entries
    at a drawn density of 1, 3 or 7 in 10 (mostly not rationally trivial,
    often not a cube), or blocks whose rows point at their terminal with any
    entry (rationally trivial, a cube or not).  One tower in five has a
    length that is zero, negative or rational."""
    n = draw(st.integers(1, max_n))
    entry = st.integers(-3, 3)
    if draw(st.booleans()):
        density = draw(st.sampled_from((1, 3, 7)))
        rows = [[draw(entry.filter(bool)) if j > i and draw(st.integers(0, 9)) < density
                 else 0 for j in range(n)] for i in range(n)]
    else:
        rows = [[0] * n for _ in range(n)]
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
        for start, end in zip([0] + cuts, cuts + [n]):
            for i in range(start, end - 1):
                rows[i][end - 1] = draw(entry)
    lam = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    if draw(st.integers(0, 4)) == 0:
        lam[draw(st.integers(0, n - 1))] = draw(st.sampled_from((0, -1, "1/2", "7/3")))
    return {"n": n, "A": rows, "lambda": lam}


@st.composite
def bott_requests(draw):
    """bott-polytope on a tower with n <= 9 (9 is past the polytope
    dimension cap), or bott-equiv with n <= 12 on the tower and itself, the
    tower with one length changed, or another tower."""
    if draw(st.booleans()):
        return [draw(bott_towers(9))], ["bott-polytope", "--bott", "{in0}"]
    first = draw(bott_towers(12))
    pick = draw(st.sampled_from(("same", "length", "other")))
    if pick == "other":
        second = draw(bott_towers(12))
    else:
        second = dict(first, **{"lambda": list(first["lambda"])})
        if pick == "length":
            second["lambda"][draw(st.integers(0, first["n"] - 1))] = draw(st.integers(1, 20))
    return [first, second], ["bott-equiv", "{in0}", "{in1}"]


small = st.fractions(-2, 3, max_denominator=2)
index = st.integers(-1, 3)


def usually(draw, good, other):
    """A draw from good, or from other one time in five."""
    return draw(other if draw(st.integers(0, 4)) == 0 else good)


@st.composite
def polytope_bodies(draw, dims=(1, 2, 3)):
    """A polytope file: a box [0, a] (smooth, at the origin corner), or up
    to 6 vertices or rows with small rational entries, so that unbounded,
    empty, flat and non-integral ones occur; one row in ten has a zero
    normal and a bound of either sign, and one file in ten declares the
    wrong dim."""
    dim = draw(st.sampled_from(dims))
    kind = draw(st.sampled_from(("box", "vertices", "inequalities")))
    if kind == "box":
        rows = []
        for i in range(dim):
            e = [int(i == j) for j in range(dim)]
            rows += [[-x for x in e] + [0], e + [draw(st.integers(1, 3 if dim < 3 else 2))]]
        body = {"dim": dim, "inequalities": rows}
    else:
        width = dim if kind == "vertices" else dim + 1
        entries = st.lists(small.map(str), min_size=width, max_size=width)
        rows = draw(st.lists(entries, min_size=1, max_size=6))
        if kind == "inequalities":
            rows = [[0] * dim + [row[-1]] if draw(st.integers(0, 9)) == 0 else row
                    for row in rows]
        body = {"dim": dim, kind: rows}
    if draw(st.integers(0, 9)) == 0:
        body["dim"] = dim + 1
    return body


@st.composite
def polytope_requests(draw):
    """render, usually of a polygon and optionally slid, to an SVG path in a
    directory that exists or one that does not; or vertices, lattice-points,
    normal-check at degrees -1..3, or smooth-check in dimension 1 to 3."""
    command = draw(st.sampled_from(("render", "vertices", "lattice-points",
                                    "normal-check", "smooth-check")))
    argv = [command, "--polytope", "{in0}"]
    if command == "render":
        missing = draw(st.integers(0, 9)) == 0
        argv += ["--svg", "{tmp}/missing/out.svg" if missing else "{tmp}/out.svg"]
        if draw(st.booleans()):
            slide = zip(("--slide-k", "--slide-l", "--slide-c"),
                        usually(draw, st.tuples(st.just(1), st.just(2), st.integers(1, 3)),
                                st.tuples(index, index, index)))
            for flag, value in slide:
                if draw(st.integers(0, 9)):
                    argv += [flag, value]
        return [usually(draw, polytope_bodies((2,)), polytope_bodies())], argv
    if command == "normal-check":
        argv += ["--max-degree", draw(index)]
    return [draw(polytope_bodies())], argv


@st.composite
def slide_requests(draw):
    """slide, semigroup, okounkov or saturation by flags or by one request
    file, usually in dimension 2 or 3; k, l, c and the levels usually
    valid, else drawn from -1..3."""
    command = draw(st.sampled_from(("slide", "semigroup", "okounkov", "saturation")))
    body = usually(draw, polytope_bodies((2, 3)), polytope_bodies())
    pairs = ((1, 2), (1, 3), (2, 3)) if body["dim"] >= 3 else ((1, 2),)
    k, l = usually(draw, st.sampled_from(pairs), st.tuples(index, index))
    fields = {"k": k, "l": l, "c": usually(draw, st.integers(1, 3), index)}
    if command != "slide":
        fields["max_level"] = usually(draw, st.integers(1, 3), index)
    argv = [command]
    if command == "okounkov" and draw(st.booleans()):
        argv += ["--level", usually(draw, st.integers(1, 3), index)]
    if draw(st.booleans()):
        return [dict(fields, polytope=body)], argv + ["--request", "{in0}"]
    for name, value in fields.items():
        argv += ["--" + name.replace("_", "-"), value]
    return [body], argv + ["--polytope", "{in0}"]


def rational_list(draw, size, entries=small):
    """size comma separated rationals; one list in five has another size or
    another entry, and one in ten is malformed."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(("", "1,,2", "x", "1/0", "2.5")))
    values = usually(draw, st.lists(entries, min_size=size, max_size=size),
                     st.lists(small, min_size=1, max_size=5))
    return ",".join(map(str, values))


@st.composite
def formula_requests(draw):
    """gw-formula for every family, usually at a valid rank and with as many
    weight coordinates as the family needs, else at rank -1..4; or
    hirzebruch on entries in -3..3, usually with two positive lengths per
    side.  A flag value may start with a minus sign, so it is joined by =."""
    if draw(st.booleans()):
        family = draw(st.sampled_from(sorted(gromov.FAMILIES)))
        rank = usually(draw, st.just(2) if family == "G2" else st.integers(1, 4),
                       st.integers(-1, 4))
        size = 3 if family == "G2" else max(rank, 1)
        return [], ["gw-formula", "--family", family, "--rank", rank,
                    "--lambda=" + rational_list(draw, size)]
    entry = st.integers(-3, 3)
    length = st.fractions(Fraction(1, 2), 6, max_denominator=2)
    return [], ["hirzebruch", "--a", draw(entry), "--lam=" + rational_list(draw, 2, length),
                "--a-tilde", draw(entry), "--lam-tilde=" + rational_list(draw, 2, length)]


@st.composite
def bott_reduce_requests(draw):
    """bott-reduce of up to 4 monomials on a tower with n <= 4: keys of up
    to 5 indices in 1..n and small rational coefficients, one class in five
    also with indices in 0..n+1, malformed keys and float coefficients, and
    one class file in ten without its 'monomials' field."""
    tower = draw(bott_towers(4))
    n = tower["n"]
    flawed = draw(st.integers(0, 4)) == 0
    indices = st.integers(0, n + 1) if flawed else st.integers(1, n)
    key = st.lists(indices, max_size=5).map(lambda ix: ",".join(map(str, ix)))
    coeff = st.integers(-3, 3) | small.map(str)
    if flawed:
        key |= st.just("x")
        coeff |= st.just(2.5)
    monomials = draw(st.dictionaries(key, coeff, max_size=4))
    klass = {"monomials": monomials} if draw(st.integers(0, 9)) else monomials
    return [tower, klass], ["bott-reduce", "--bott", "{in0}", "--class", "{in1}"]


@st.composite
def cli_requests(draw):
    """A request for one of the 16 subcommands; one in ten also asks for the
    report in a directory that does not exist."""
    bodies, argv = draw(st.one_of(
        verify_move_requests(), gw_simplex_requests(), bott_requests(),
        polytope_requests(), slide_requests(), formula_requests(),
        bott_reduce_requests()))
    if draw(st.integers(0, 9)) == 0:
        argv = argv + ["--output", "{tmp}/missing/report.json"]
    return bodies, argv


@settings(max_examples=1200, deadline=None, derandomize=True, database=None)
@given(cli_requests())
def test_cli_exit_codes(request):
    """Every request ends in exit 0 with a JSON report, or in exit 2, 3 or 4
    with one JSON error object on stderr: never a raw traceback.  The input
    files follow a flag, or stand as positional arguments without one; a
    report or SVG asked for in a missing directory is a schema error."""
    bodies, argv = request
    with tempfile.TemporaryDirectory() as tmp:
        names = {"{tmp}": tmp}
        for i, body in enumerate(bodies):
            names[f"{{in{i}}}"] = os.path.join(tmp, f"in{i}.json")
            with open(names[f"{{in{i}}}"], "w", encoding="utf-8") as fh:
                json.dump(body, fh)
        args = [str(x) for x in argv]
        for name, value in names.items():
            args = [x.replace(name, value) for x in args]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    if "--output" in args:
        assert code != 0
    if code == 0:
        assert json.loads(out.getvalue()) and not err.getvalue()
    else:
        assert code in (2, 3, 4)
        assert not out.getvalue()
        assert set(json.loads(err.getvalue())) == {"error", "message"}
