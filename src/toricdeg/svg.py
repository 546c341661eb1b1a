"""Deterministic SVG rendering of 2-d polytopes with lattice points.

Fixed viewport rules (margin 0.5 lattice units, 40 px per unit) and plain
string assembly keep the output byte-identical for identical input.  Panels
render side by side: polygon outline, lattice dots, and an optional
highlighted point set (slid images) per panel.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import LowerDimensionalError, SchemaError

UNIT = 40
MARGIN = Fraction(1, 2)
GAP = 20


def _fmt(x) -> str:
    return f"{float(x):.2f}"


def _ordered_outline(verts):
    """Convex-position vertices in counterclockwise order, exact comparisons."""
    verts = sorted(verts)
    base = verts[0]

    def cross(p, q):
        return (p[0] - base[0]) * (q[1] - base[1]) - (p[1] - base[1]) * (q[0] - base[0])

    # Angular sort around the lex-least vertex; every other vertex sits in a
    # half-plane, so the pairwise cross product is a consistent comparator.
    rest = sorted(verts[1:], key=functools.cmp_to_key(
        lambda p, q: -1 if cross(p, q) > 0 else (1 if cross(p, q) < 0 else 0)))
    return [base] + rest


def render_svg(polytopes, point_sets, path, highlights=None):
    """Write one SVG with a panel per polytope.

    polytopes: list of 2-d bounded HPolytope; point_sets: parallel list of
    lattice point iterables (may be empty); highlights: parallel list of
    point subsets drawn emphasized, or None.
    """
    if highlights is None:
        highlights = [None] * len(polytopes)
    panels = []
    x_cursor = Fraction(0)
    width = Fraction(0)
    height = Fraction(0)
    for poly, pts, high in zip(polytopes, point_sets, highlights):
        if poly.dim != 2:
            raise LowerDimensionalError("svg rendering supports dimension 2 only")
        verts = poly.vertex_set()
        coords = list(verts) + [tuple(Fraction(x) for x in p) for p in (pts or [])]
        xs = [c[0] for c in coords]
        ys = [c[1] for c in coords]
        lo = (min(xs) - MARGIN, min(ys) - MARGIN)
        hi = (max(xs) + MARGIN, max(ys) + MARGIN)
        panels.append((poly, pts or [], high or [], lo, hi, x_cursor))
        panel_w = (hi[0] - lo[0]) * UNIT
        x_cursor += panel_w + GAP
        width = x_cursor
        height = max(height, (hi[1] - lo[1]) * UNIT)
    width = max(width - GAP, Fraction(0))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    ]
    for poly, pts, high, lo, hi, offset in panels:
        def to_px(p):
            x = offset + (Fraction(p[0]) - lo[0]) * UNIT
            y = (hi[1] - Fraction(p[1])) * UNIT
            return _fmt(x), _fmt(y)

        verts = poly.vertex_set()
        if len(verts) >= 3:
            outline = _ordered_outline(verts)
            d = "M" + " L".join("{} {}".format(*to_px(v)) for v in outline) + " Z"
            lines.append(f'<path d="{d}" fill="#eef3fb" stroke="#1f3a5f" stroke-width="1.5"/>')
        elif len(verts) == 2:
            (x1, y1), (x2, y2) = to_px(verts[0]), to_px(verts[1])
            lines.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                         f'stroke="#1f3a5f" stroke-width="1.5"/>')
        else:
            x, y = to_px(verts[0])
            lines.append(f'<circle cx="{x}" cy="{y}" r="4" fill="#1f3a5f"/>')
        high_set = {tuple(int(v) for v in p) for p in high}
        for p in sorted(tuple(int(v) for v in q) for q in pts):
            x, y = to_px(p)
            if p in high_set:
                lines.append(f'<circle cx="{x}" cy="{y}" r="4" fill="#c0392b"/>')
            else:
                lines.append(f'<circle cx="{x}" cy="{y}" r="3" fill="#1f3a5f"/>')
    lines.append("</svg>")
    data = "\n".join(lines) + "\n"
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(data)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from None
    return data
