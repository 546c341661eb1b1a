"""Command line front end.

Every subcommand reads JSON, computes with exact arithmetic, and prints a
deterministic JSON report; rationals are serialized as "p/q".  Exit codes:
0 success (verdicts live in the JSON body, not the exit code), 2 malformed
input or an output path that cannot be written, 3 mathematical precondition
failure or work limit exceeded, 4 internal error (a broken library
invariant, as {"error": "internal", ...}).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import bott, geometry, gromov, jsonio, svg, valuation
from .errors import EmptyPolytopeError, SchemaError, ToricDegError

DEFAULT_MAX_LEVEL = 6


def _max_level(args):
    if getattr(args, "max_level", None) is not None:
        return args.max_level
    env = os.environ.get("TORICDEG_MAX_LEVEL")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SchemaError("TORICDEG_MAX_LEVEL must be an integer") from None
    return DEFAULT_MAX_LEVEL


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None


def _emit(report, args):
    text = json.dumps(report, indent=2, sort_keys=False)
    out = getattr(args, "output", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise SchemaError(f"cannot write {out}: {exc}") from None
    else:
        print(text)


def _parse_lambda(text):
    try:
        return [Fraction(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"malformed rational list {text!r}") from None


def _load_polytope_arg(path):
    return jsonio.load_polytope(_read_json(path))


def cmd_vertices(args):
    p = _load_polytope_arg(args.polytope)
    verts = p.vertex_set()
    report = {"summary": f"{len(verts)} vertices in dimension {p.dim}"}
    report.update(jsonio.dump_vertices(p.dim, verts))
    return report


def cmd_lattice_points(args):
    p = _load_polytope_arg(args.polytope)
    pts = geometry.lattice_points(p)
    return {"summary": f"{len(pts)} lattice points", "dim": pts.dim,
            "count": len(pts), "points": jsonio.dump_points(pts)}


def cmd_normal_check(args):
    p = _load_polytope_arg(args.polytope)
    ok, witness = geometry.is_normal(p, args.max_degree)
    report = {"summary": f"normal up to degree {args.max_degree}: {ok}",
              "normal_up_to": args.max_degree, "normal": ok}
    if not ok:
        m, pt = witness
        report["counterexample"] = {"degree": m, "point": list(pt)}
    return report


def cmd_smooth_check(args):
    p = _load_polytope_arg(args.polytope)
    ok, vertex = geometry.is_delzant_smooth(p)
    report = {"summary": f"smooth: {ok}", "smooth": ok}
    if not ok:
        report["offending_vertex"] = [jsonio.format_rational(x) for x in vertex]
    return report


def _slide_request(args):
    """Polytope and direction from flags or from a single request file.

    A request file holds {"polytope": ..., "k": 1, "l": 2, "c": 2,
    "max_level": 5}; explicit flags override its fields.
    """
    if getattr(args, "request", None):
        req = _read_json(args.request)
        if not isinstance(req, dict) or "polytope" not in req:
            raise SchemaError("request file needs a 'polytope' field")
        p = jsonio.load_polytope(req["polytope"])
        k = args.k if args.k is not None else jsonio.parse_int(req.get("k"), "k")
        l = args.l if args.l is not None else jsonio.parse_int(req.get("l"), "l")
        c = args.c if args.c is not None else jsonio.parse_int(req.get("c"), "c")
        if getattr(args, "max_level", None) is None and "max_level" in req:
            args.max_level = jsonio.parse_int(req["max_level"], "max_level")
    else:
        if args.polytope is None:
            raise SchemaError("need --polytope or --request")
        if None in (args.k, args.l, args.c):
            raise SchemaError("need --k, --l and --c (or a --request file)")
        p = _load_polytope_arg(args.polytope)
        k, l, c = args.k, args.l, args.c
    return p, valuation.SlideDirection(k, l, c)


def cmd_slide(args):
    p, d = _slide_request(args)
    pts = geometry.lattice_points(p)
    image = valuation.slide(pts, d)
    if not image.points:
        raise EmptyPolytopeError("polytope has no lattice points to slide")
    moved = len(image.as_set() - pts.as_set())
    return {
        "summary": f"{len(pts)} points slid, {moved} moved",
        "direction": {"k": d.k, "l": d.l, "c": d.c},
        "points": jsonio.dump_points(pts),
        "image": jsonio.dump_points(image),
        "hull": jsonio.dump_polytope(geometry.hull(image)),
    }


def cmd_semigroup(args):
    p, d = _slide_request(args)
    m = _max_level(args)
    sg = valuation.build_semigroup(p, d, m)
    levels = {}
    hulls = {}
    bodies = {}
    for level in range(1, m + 1):
        levels[str(level)] = jsonio.dump_points(sg.levels[level])
        bodies[level] = valuation.okounkov_approx(sg, level)
        hulls[str(level)] = jsonio.dump_polytope(bodies[level])
    # monotonicity of the level bodies is observed, never assumed
    monotone = all(
        all(bodies[level + 1].contains(v) for v in bodies[level].vertex_set())
        for level in range(1, m))
    saturated, witness = valuation.check_saturation(sg)
    # level 1 is a set of lattice points, so its hull is integral
    delta1 = bodies[1]
    cone_ok, cert = valuation.check_cone_condition(sg, delta1)
    cone_report = {"delta": jsonio.dump_polytope(delta1), "holds": cone_ok}
    if not cone_ok:
        level, pt, kind = cert
        cone_report["certificate"] = {"level": level, "point": list(pt), "kind": kind}
    report = {
        "summary": (f"{m} levels; saturated within budget: {saturated}; "
                    f"cone condition on the level-1 hull: {cone_report['holds']}"),
        "direction": {"k": d.k, "l": d.l, "c": d.c},
        "max_level": m,
        "levels": levels,
        "hulls": hulls,
        "bodies_monotone": monotone,
        "saturated_up_to_budget": saturated,
        "cone_condition": cone_report,
    }
    if not saturated:
        wm, wx, wt = witness
        report["saturation_witness"] = {"level": wm, "point": list(wx), "multiple": wt}
    return report


def cmd_okounkov(args):
    p, d = _slide_request(args)
    m = _max_level(args)
    sg = valuation.build_semigroup(p, d, m)
    level = args.level if args.level is not None else m
    body = valuation.okounkov_approx(sg, level)
    return {"summary": f"level-{level} body with {len(body.halfspaces)} facets",
            "level": level, "body": jsonio.dump_polytope(body),
            "vertices": jsonio.dump_vertices(body.dim, body.vertex_set())["vertices"]}


def cmd_saturation(args):
    p, d = _slide_request(args)
    m = _max_level(args)
    sg = valuation.build_semigroup(p, d, m)
    saturated, witness = valuation.check_saturation(sg)
    report = {"summary": f"saturated within budget {m}: {saturated}",
              "max_level": m, "saturated_up_to_budget": saturated}
    if not saturated:
        wm, wx, wt = witness
        report["witness"] = {"level": wm, "point": list(wx), "multiple": wt}
    return report


def cmd_gw_formula(args):
    # For family A the CLI rank counts weight coordinates (the unitary group
    # size), so rank r maps to the abstract system A_{r-1}.
    rank = args.rank - 1 if args.family == "A" else args.rank
    spec = gromov.RootSystemSpec(args.family, rank)
    lam = _parse_lambda(args.weight)
    if len(lam) != spec.ambient_dim:
        raise SchemaError(
            f"lambda needs {spec.ambient_dim} coordinates for {args.family} rank {args.rank}")
    value = gromov.gw_formula(spec, lam)
    return {"summary": f"lower bound {jsonio.format_rational(value)}",
            "family": args.family, "rank": args.rank,
            "lambda": [jsonio.format_rational(x) for x in lam],
            "lower_bound": jsonio.format_rational(value)}


def cmd_gw_simplex(args):
    p = _load_polytope_arg(args.polytope)
    fit = gromov.best_simplex_lb(p, bound=args.bound, mode=args.mode, seed=args.seed)
    # the heuristic walk never applies the entry bound
    exhaustive = args.mode == "exhaustive"
    detail = f"entry bound {args.bound}" if exhaustive else f"seed {args.seed}"
    return {
        "summary": f"simplex of size {jsonio.format_rational(fit.a)} fits "
                   f"({args.mode} mode, {detail})",
        "mode": args.mode,
        "bound": args.bound if exhaustive else None,
        "a": jsonio.format_rational(fit.a),
        "psi": [list(row) for row in fit.psi],
        "x": [jsonio.format_rational(x) for x in fit.x],
        "certified_maximal": exhaustive,
    }


def cmd_bott_polytope(args):
    b = jsonio.load_bott(_read_json(args.bott))
    p = bott.bott_polytope(b)
    hyper = bott.is_hypercube(b)
    return {
        "summary": f"{2 * b.n}-facet polytope; combinatorial hypercube: {hyper}",
        "polytope": jsonio.dump_polytope(p),
        "vertices": jsonio.dump_vertices(p.dim, p.vertex_set())["vertices"],
        "hypercube": hyper,
    }


def cmd_bott_reduce(args):
    b = jsonio.load_bott(_read_json(args.bott))
    ring = bott.CohRing.of(b)
    spec = _read_json(args.klass)
    if not isinstance(spec, dict) or "monomials" not in spec:
        raise SchemaError("class file needs {'monomials': {'1,2': coeff, ...}}")
    exps = {}
    for key, coeff in spec["monomials"].items():
        try:
            indices = tuple(int(t) for t in key.split(",") if t.strip())
        except ValueError:
            raise SchemaError(f"malformed monomial key {key!r}") from None
        if any(i < 1 or i > b.n for i in indices):
            raise SchemaError(f"monomial key {key!r} indexes outside 1..n")
        exp = [0] * b.n
        for i in indices:
            exp[i - 1] += 1
        coeff = jsonio.parse_rational(coeff)
        for mask, c in ring.reduce_exponents(exp).items():
            exps[mask] = exps.get(mask, Fraction(0)) + coeff * c
    out = {}
    for mask in sorted(exps):
        if exps[mask] == 0:
            continue
        name = ",".join(str(i + 1) for i in range(b.n) if (mask >> i) & 1) or "1"
        out[name] = jsonio.format_rational(exps[mask])
    return {"summary": "zero class" if not out else f"{len(out)} basis terms",
            "normal_form": out, "zero": not out}


def cmd_bott_equiv(args):
    b1 = jsonio.load_bott(_read_json(args.first))
    b2 = jsonio.load_bott(_read_json(args.second))
    decision = bott.decide_symplectomorphic(b1, b2)
    report = {"summary": f"symplectomorphic: {decision.yes} ({decision.reason})",
              "symplectomorphic": decision.yes, "reason": decision.reason}
    if decision.yes:
        report["ring_map"] = [[jsonio.format_rational(x) for x in row]
                              for row in decision.ring_map.matrix()]
        report["sigma"] = list(decision.sigma)
        report["lambda_matrix"] = [list(row) for row in decision.lam_matrix]
    s1, s2 = decision.standard
    report["standard_forms"] = [
        {"partition": list(s.partition),
         "lambda": [jsonio.format_rational(x) for x in s.lam]}
        for s in (s1, s2)
    ]
    return report


def cmd_bott_verify_move(args):
    b = jsonio.load_bott(_read_json(args.bott))
    rep = bott.verify_degeneration_move(b, args.k, args.l, c=args.c,
                                        max_level=_max_level(args))
    return {
        "summary": f"all {len(rep.levels)} levels pass: {rep.all_pass}",
        "source": jsonio.dump_bott(rep.source),
        "target": jsonio.dump_bott(rep.target),
        "slide": {"k": rep.slide.k, "l": rep.slide.l, "c": rep.slide.c},
        "dilated_by": rep.dilated_by,
        "levels": [{"level": m, "ok": ok, **({"detail": detail} if detail else {})}
                   for m, ok, detail in rep.levels],
        "all_pass": rep.all_pass,
    }


def cmd_hirzebruch(args):
    lam = _parse_lambda(args.lam)
    lam_t = _parse_lambda(args.lam_tilde)
    if len(lam) != 2 or len(lam_t) != 2:
        raise SchemaError("hirzebruch classification needs two lengths per side")
    b1 = bott.BottData.make(((0, args.a), (0, 0)), lam)
    b2 = bott.BottData.make(((0, args.a_tilde), (0, 0)), lam_t)
    verdict = bott.decide_symplectomorphic(b1, b2).yes
    return {"summary": f"symplectomorphic: {verdict}", "symplectomorphic": verdict}


def cmd_render(args):
    p = _load_polytope_arg(args.polytope)
    panels = [p]
    points = [geometry.lattice_points(p)]
    highlights = [[]]
    if args.slide_k is not None:
        if args.slide_l is None or args.slide_c is None:
            raise SchemaError("--slide-k needs --slide-l and --slide-c")
        d = valuation.SlideDirection(args.slide_k, args.slide_l, args.slide_c)
        image = valuation.slide(points[0], d)
        if not image.points:
            raise EmptyPolytopeError("polytope has no lattice points to slide")
        moved = sorted(image.as_set() - points[0].as_set())
        panels.append(geometry.hull(image))
        points.append(image)
        highlights = [[], moved]
    svg.render_svg(panels, points, args.svg, highlights=highlights)
    return {"summary": f"wrote {len(panels)} panel(s)", "written": args.svg,
            "panels": len(panels)}


def _add_polytope_arg(sub):
    sub.add_argument("--polytope", required=True, help="JSON polytope file")


def _add_slide_args(sub):
    sub.add_argument("--polytope", help="JSON polytope file")
    sub.add_argument("--request", help="JSON request file {polytope, k, l, c, max_level}")
    sub.add_argument("--k", type=int)
    sub.add_argument("--l", type=int)
    sub.add_argument("--c", type=int)


@functools.cache
def build_parser():
    """Built once per process: parse_args keeps no state in the parser."""
    parser = argparse.ArgumentParser(
        prog="toricdeg",
        description="Exact toric degenerations, Gromov width bounds, and Bott "
                    "manifold rigidity.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the JSON report here instead of stdout")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        s = subs.add_parser(name, help=help_text, parents=[common])
        s.set_defaults(func=func)
        return s

    s = add("vertices", cmd_vertices, "vertex enumeration")
    _add_polytope_arg(s)

    s = add("lattice-points", cmd_lattice_points, "integer points of a polytope")
    _add_polytope_arg(s)

    s = add("normal-check", cmd_normal_check, "lattice decomposition of dilates")
    _add_polytope_arg(s)
    s.add_argument("--max-degree", type=int, default=3)

    s = add("smooth-check", cmd_smooth_check, "vertex smoothness test")
    _add_polytope_arg(s)

    s = add("slide", cmd_slide, "slide the lattice points once")
    _add_slide_args(s)

    s = add("semigroup", cmd_semigroup, "graded slide levels with verdicts")
    _add_slide_args(s)
    s.add_argument("--max-level", type=int)

    s = add("okounkov", cmd_okounkov, "level hull of the degeneration")
    _add_slide_args(s)
    s.add_argument("--max-level", type=int)
    s.add_argument("--level", type=int)

    s = add("saturation", cmd_saturation, "saturation search up to the budget")
    _add_slide_args(s)
    s.add_argument("--max-level", type=int)

    s = add("gw-formula", cmd_gw_formula, "coroot minimum formula")
    s.add_argument("--family", required=True, choices=sorted(gromov.FAMILIES))
    s.add_argument("--rank", type=int, required=True)
    s.add_argument("--lambda", dest="weight", required=True,
                   help="comma separated rationals")

    s = add("gw-simplex", cmd_gw_simplex, "largest fitted simplex lower bound")
    _add_polytope_arg(s)
    s.add_argument("--bound", type=int, default=3)
    s.add_argument("--mode", choices=("exhaustive", "heuristic"), default="exhaustive")
    s.add_argument("--seed", type=int, default=0)

    s = add("bott-polytope", cmd_bott_polytope, "polytope of a Bott datum")
    s.add_argument("--bott", required=True, help="JSON bott file")

    s = add("bott-reduce", cmd_bott_reduce, "normal form of a cohomology class")
    s.add_argument("--bott", required=True)
    s.add_argument("--class", dest="klass", required=True,
                   help="JSON file {'monomials': {'1,1': 1, '2': '1/2'}}")

    s = add("bott-equiv", cmd_bott_equiv, "symplectomorphism decision")
    s.add_argument("first")
    s.add_argument("second")

    s = add("bott-verify-move", cmd_bott_verify_move, "cone condition for one move")
    s.add_argument("--bott", required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--l", type=int, required=True)
    s.add_argument("--c", type=int)
    s.add_argument("--max-level", type=int)

    s = add("hirzebruch", cmd_hirzebruch, "dimension-2 classification")
    s.add_argument("--a", type=int, required=True)
    s.add_argument("--lam", required=True, help="lambda_1,lambda_2")
    s.add_argument("--a-tilde", type=int, required=True)
    s.add_argument("--lam-tilde", required=True)

    s = add("render", cmd_render, "SVG of a 2-d polytope, optionally slid")
    _add_polytope_arg(s)
    s.add_argument("--slide-k", type=int)
    s.add_argument("--slide-l", type=int)
    s.add_argument("--slide-c", type=int)
    s.add_argument("--svg", required=True, help="SVG output path")

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _emit(args.func(args), args)
    except SchemaError as exc:
        print(json.dumps({"error": "schema", "message": str(exc)}), file=sys.stderr)
        return 2
    except ValueError as exc:
        # argument-contract violations surface as malformed requests
        print(json.dumps({"error": "schema", "message": str(exc)}), file=sys.stderr)
        return 2
    except ToricDegError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(json.dumps({"error": "internal", "message": str(exc)}), file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
