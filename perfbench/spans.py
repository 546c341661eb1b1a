"""Per-layer spans and counters, installed from outside the package.

`Tracer.install()` replaces the public functions of each layer (module) with
timing wrappers in every toricdeg namespace that binds them, because some
modules import functions by name (valuation binds `hull` and
`lattice_points`; bott binds `is_normal`, `lattice_points`, `slide` and
`build_semigroup`).  Methods are patched on their classes.  `uninstall()`
puts every original back.

Each span records its job, its parent span, its name and its start and end
time in flat arrays, so millions of spans stay small in memory; `write()`
dumps them when the run ends.  Self time is the span's duration minus the
time of its child spans.  A name's total time counts only its outermost
spans, so a recursive call (the lower-dimensional hull calls itself) is not
counted twice.  Counters that need extra data call the unwrapped originals,
and the time they take is kept out of every span's self time.
"""

from __future__ import annotations

import json
import sys
from array import array
from math import ceil, floor, prod
from time import perf_counter

# (module, attribute) of every span, in report order.  Dotted attributes are
# methods patched on their class.
SPANS = (
    ("cli", "main"),
    ("jsonio", "load_polytope"), ("jsonio", "load_bott"),
    ("jsonio", "dump_points"), ("jsonio", "dump_polytope"),
    ("geometry", "hull"), ("geometry", "HPolytope.vertex_set"),
    ("geometry", "lattice_points"), ("geometry", "is_normal"),
    ("geometry", "minkowski_sum"), ("geometry", "is_delzant_smooth"),
    ("linalg", "solve"), ("linalg", "mat_rank"), ("linalg", "nullspace"),
    ("linalg", "fm_maximize"), ("linalg", "fm_feasible"),
    ("valuation", "build_semigroup"), ("valuation", "slide"),
    ("valuation", "okounkov_approx"), ("valuation", "check_saturation"),
    ("valuation", "check_cone_condition"),
    ("gromov", "best_simplex_lb"),
    ("bott", "decide_symplectomorphic"), ("bott", "standard_form"),
    ("bott", "is_q_trivial"), ("bott", "is_hypercube"),
    ("bott", "parametrized_move"), ("bott", "flip"), ("bott", "ring_map_check"),
    ("bott", "CohRing.multiply"), ("bott", "verify_degeneration_move"),
)

COUNTERS = (
    "geometry.hull.points_in", "geometry.hull.facets_out",
    "geometry.vertex_set.facets_in", "geometry.vertex_set.vertices_out",
    "geometry.lattice_points.points_out", "geometry.lattice_points.box_points",
    "geometry.minkowski_sum.pairs",
    "valuation.slide.points",
    "linalg.fm_maximize.rows_in",
    "gromov.matrices_scanned", "gromov.unimodular",
    "bott.CohRing.of.calls",
)

# Derived per-layer values: numerator and denominator counter.
RATIOS = {
    "geometry.lattice_points.accept_ratio": ("geometry.lattice_points.points_out",
                                             "geometry.lattice_points.box_points"),
    "gromov.unimodular_ratio": ("gromov.unimodular", "gromov.matrices_scanned"),
}


def span_name(module, attr):
    """`HPolytope.vertex_set` reports as `geometry.vertex_set`; the Bott
    ring keeps its class name (`bott.CohRing.multiply`)."""
    if attr == "HPolytope.vertex_set":
        return "geometry.vertex_set"
    return f"{module}.{attr}"


def layer_metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for module, attr in SPANS:
        name = span_name(module, attr)
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"),
                (f"{name}.total_s", "s")]
    out += [(c, "count") for c in COUNTERS]
    out += [(r, "ratio") for r in RATIOS]
    out += [("bott.CohRing.of.distinct", "count"), ("bott.CohRing.of.repeat_ratio", "ratio")]
    return out


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = [span_name(m, a) for m, a in SPANS]
        self.calls = [0] * len(SPANS)
        self.self_s = [0.0] * len(SPANS)
        self.total_s = [0.0] * len(SPANS)
        self.depth = [0] * len(SPANS)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.rings = set()
        self.job = -1
        self.next_id = 0
        self.stack = []          # open spans: [span id, name index, child seconds]
        # finished spans, one entry per array
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._patches = []

    # --- wrappers -----------------------------------------------------------

    def _wrap(self, idx, fn, count=None, before=None):
        stack = self.stack
        depth = self.depth

        def traced(*args, **kwargs):
            pre = before(args) if before is not None else None
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, idx, 0.0]
            stack.append(frame)
            depth[idx] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[idx] -= 1
                dur = end - start
                self.calls[idx] += 1
                self.self_s[idx] += dur - frame[2]
                if depth[idx] == 0:
                    self.total_s[idx] += dur
                if stack:
                    stack[-1][2] += dur
                self.span_id.append(sid)
                self.parent.append(parent)
                self.name.append(idx)
                self.job_of.append(self.job)
                self.start.append(start)
                self.end.append(end)
            if count is not None:
                c0 = perf_counter()
                count(args, result, pre)
                if stack:
                    stack[-1][2] += perf_counter() - c0
            return result

        traced.__wrapped__ = fn
        return traced

    def _counters(self, originals):
        c = self.counters
        vertex_set = originals["geometry.vertex_set"]

        def hull(args, result, pre):
            c["geometry.hull.points_in"] += len(args[0])
            c["geometry.hull.facets_out"] += len(result.halfspaces)

        def vertex_set_before(args):
            return args[0]._vertices is None

        def vertex_set_count(args, result, computed):
            if computed:
                c["geometry.vertex_set.facets_in"] += len(args[0].halfspaces)
                c["geometry.vertex_set.vertices_out"] += len(result)

        def lattice_points(args, result, pre):
            p = args[0]
            verts = vertex_set(p)        # cached by the call just made
            c["geometry.lattice_points.points_out"] += len(result)
            c["geometry.lattice_points.box_points"] += prod(
                floor(max(v[i] for v in verts)) - ceil(min(v[i] for v in verts)) + 1
                for i in range(p.dim))

        def minkowski_sum(args, result, pre):
            c["geometry.minkowski_sum.pairs"] += len(args[0]) * len(args[1])

        def slide(args, result, pre):
            c["valuation.slide.points"] += len(args[0])

        def fm_maximize(args, result, pre):
            c["linalg.fm_maximize.rows_in"] += len(args[0])

        return {
            "geometry.hull": (hull, None),
            "geometry.vertex_set": (vertex_set_count, vertex_set_before),
            "geometry.lattice_points": (lattice_points, None),
            "geometry.minkowski_sum": (minkowski_sum, None),
            "valuation.slide": (slide, None),
            "linalg.fm_maximize": (fm_maximize, None),
        }

    # --- installation -------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def _bind(self, original, replacement):
        """Rebind every module attribute that is `original`."""
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _patch_class(self, cls, attr, replacement):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        originals = {}
        for module, attr in SPANS:
            owner = mods[module]
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            originals[span_name(module, attr)] = getattr(owner, attr.split(".")[-1])
        counters = self._counters(originals)
        for idx, (module, attr) in enumerate(SPANS):
            name = span_name(module, attr)
            count, before = counters.get(name, (None, None))
            wrapper = self._wrap(idx, originals[name], count, before)
            if "." in attr:
                cls_name, meth = attr.split(".")
                self._patch_class(getattr(mods[module], cls_name), meth, wrapper)
            else:
                self._bind(originals[name], wrapper)
        self._install_counting(mods)

    def _install_counting(self, mods):
        """Counters without spans: determinants scanned by the simplex
        search and the shared-ring lookups."""
        c = self.counters
        stack = self.stack
        best = self.names.index("gromov.best_simplex_lb")
        mat_det = mods["linalg"].mat_det

        def counted_det(m):
            d = mat_det(m)
            # only calls made by best_simplex_lb itself, not by the
            # geometry it calls (those run inside their own spans)
            if stack and stack[-1][1] == best:
                c["gromov.matrices_scanned"] += 1
                if abs(d) == 1:
                    c["gromov.unimodular"] += 1
            return d

        counted_det.__wrapped__ = mat_det
        self._bind(mat_det, counted_det)

        ring_cls = mods["bott"].CohRing
        of = ring_cls.__dict__["of"].__func__
        rings = self.rings

        def counted_of(b):
            c["bott.CohRing.of.calls"] += 1
            rings.add((b.n, b.a))
            return of(b)

        self._patch_class(ring_cls, "of", staticmethod(counted_of))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # --- results ------------------------------------------------------------

    def metrics(self):
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
            out[f"{name}.total_s"] = self.total_s[i]
        out.update(self.counters)
        for name, (num, den) in RATIOS.items():
            out[name] = self.counters[num] / self.counters[den] if self.counters[den] else 0.0
        calls = self.counters["bott.CohRing.of.calls"]
        out["bott.CohRing.of.distinct"] = len(self.rings)
        out["bott.CohRing.of.repeat_ratio"] = (calls - len(self.rings)) / calls if calls else 0.0
        return out

    def write(self, path, job_ids):
        """Spans as a JSON header plus the raw arrays, one after another."""
        header = {
            "names": self.names,
            "jobs": job_ids,
            "count": len(self.span_id),
            "arrays": [["span_id", "q"], ["parent", "q"], ["name", "i"], ["job", "i"],
                       ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_id, self.parent, self.name, self.job_of,
                        self.start, self.end):
                arr.tofile(fh)
