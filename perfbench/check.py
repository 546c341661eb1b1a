"""Output checks with the benchmark's own exact arithmetic.

Every check takes the job (with the facts its generator knows by
construction) and the report text, and returns None when the report is
right or a one-line reason when it is not.  Nothing here imports toricdeg.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor

from gen import cube_vertices


def det(m):
    """Exact determinant by elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in m]
    n = len(rows)
    out = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            out = -out
        out *= rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return out


def _solve(m, rhs):
    n = len(m)
    rows = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(m, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return tuple(rows[i][n] for i in range(n))


def _parse(rows, m=1):
    """Rows [a_1..a_n, b] as (integer normal, m * b) pairs."""
    return [([int(a) for a in r[:-1]], Fraction(r[-1]) * m) for r in rows]


def _holds(rows, point):
    return all(sum(a * x for a, x in zip(normal, point)) <= b for normal, b in rows)


def vertices(rows):
    """Vertices of a small bounded H-polytope given as parsed rows."""
    n = len(rows[0][0])
    out = set()
    for subset in combinations(rows, n):
        p = _solve([normal for normal, _ in subset], [b for _, b in subset])
        if p is not None and _holds(rows, p):
            out.add(p)
    return out


def lattice_points(rows, m=1):
    """Integer points of m*P by a scan of its bounding box."""
    scaled = _parse(rows, m)
    verts = vertices(scaled)
    ranges = [range(ceil(min(v[i] for v in verts)), floor(max(v[i] for v in verts)) + 1)
              for i in range(len(scaled[0][0]))]
    return {p for p in product(*ranges) if _holds(scaled, p)}


def slide(points, k, l, c):
    """Per-line maximal translation along -e_k + c e_l (1-based k < l)."""
    k, l = k - 1, l - 1
    lines = {}
    for p in points:
        key = tuple(x for i, x in enumerate(p) if i not in (k, l)) + (c * p[k] + p[l],)
        lines.setdefault(key, []).append(p)
    out = set()
    for group in lines.values():
        a = min(p[k] for p in group)
        for p in group:
            q = list(p)
            q[k] -= a
            q[l] += c * a
            out.add(tuple(q))
    return out


def slide_levels(rows, k, l, c, level):
    return {m: slide(lattice_points(rows, m), k, l, c) for m in range(1, level + 1)}


def saturation_witness(levels, level):
    """First (m, x, t) with x outside level m but t*x in level t*m."""
    for m in range(1, level + 1):
        for t in range(2, level // m + 1):
            for y in sorted(levels[t * m]):
                if any(v % t for v in y):
                    continue
                x = tuple(v // t for v in y)
                if x not in levels[m]:
                    return (m, list(x), t)
    return None


def check_fixture(job, text, report):
    if text != job.expect["text"]:
        return "report differs from the frozen expected.json"
    return None


def check_semigroup(job, text, report):
    e = job.expect
    if report.get("max_level") != e["level"]:
        return "wrong max_level"
    for m in range(1, e["level"] + 1):
        have = report["levels"][str(m)]
        points = lattice_points(e["rows"], m)
        if len(have) != len(points):
            return f"level {m} has {len(have)} points, not |mP cap Z^n|"
        if {tuple(p) for p in have} != slide(points, e["k"], e["l"], e["c"]):
            return f"level {m} is not the slide of mP"
        # the level body is (1/m) hull(level m): every inequality must hold
        # on the level and be tight on it
        for *normal, rhs in report["hulls"][str(m)]["inequalities"]:
            if max(sum(a * x for a, x in zip(normal, p)) for p in have) != Fraction(rhs) * m:
                return f"level-{m} body has an inequality that does not support the level"
    return None


def check_saturation(job, text, report):
    e = job.expect
    levels = slide_levels(e["rows"], 1, 2, e["c"], e["level"])
    witness = saturation_witness(levels, e["level"])
    if report["saturated_up_to_budget"] != (witness is None):
        return "saturation verdict differs from the box-scan oracle"
    if witness is not None:
        w = report["witness"]
        if (w["level"], w["point"], w["multiple"]) != witness:
            return "saturation witness differs from the box-scan oracle"
    return None


def check_equiv(job, text, report):
    if report["symplectomorphic"] is not job.expect["verdict"]:
        return f"verdict {report['symplectomorphic']}, expected {job.expect['verdict']}"
    if report["symplectomorphic"]:
        m = [[Fraction(x) for x in row] for row in report["ring_map"]]
        if any(x.denominator != 1 for row in m for x in row):
            return "ring map is not integral"
        if abs(det(m)) != 1:
            return "ring map does not have det +-1"
    return None


def check_bott_polytope(job, text, report):
    e = job.expect
    if report["hypercube"] is not True:
        return "Bott polytope not reported as a hypercube"
    want = cube_vertices(e["A"], [Fraction(x) for x in e["lambda"]])
    have = {tuple(Fraction(x) for x in v) for v in report["vertices"]}
    if have != want:
        return "vertex set differs from the sign-choice vertices"
    return None


def check_gw_simplex(job, text, report):
    rows = job.expect["rows"]
    n = len(rows[0]) - 1
    a = Fraction(report["a"])
    psi = report["psi"]
    x = [Fraction(v) for v in report["x"]]
    if a <= 0:
        return "simplex size is not positive"
    if abs(det(psi)) != 1:
        return "psi does not have det +-1"
    corners = [[Fraction(0)] * n] + [[a if j == i else Fraction(0) for j in range(n)]
                                     for i in range(n)]
    parsed = _parse(rows)
    for v in corners:
        w = [sum(psi[i][j] * v[j] for j in range(n)) + x[i] for i in range(n)]
        if not _holds(parsed, w):
            return "a mapped simplex vertex violates an input inequality"
    return None


def check_verify_move(job, text, report):
    if report["all_pass"] is not True:
        return "move verification did not pass at every level"
    if report["target"] != job.expect["target"]:
        return "target tower differs from the closed-form move"
    return None


CHECKS = {
    "fixture": check_fixture,
    "semigroup": check_semigroup,
    "saturation": check_saturation,
    "equiv": check_equiv,
    "bott-polytope": check_bott_polytope,
    "gw-simplex": check_gw_simplex,
    "verify-move": check_verify_move,
}


def check(job, code, text, error):
    """None when the job succeeded and its report is right, else a reason."""
    if error is not None:
        return f"escaped exception: {error}"
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return "report is not JSON"
    try:
        return CHECKS[job.expect["kind"]](job, text, report)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed report: {exc!r}"
