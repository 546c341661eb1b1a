"""The benchmark's span tracer (perfbench/spans.py) wraps library functions
by name, so a renamed or moved function must fail here and not only in a
traced benchmark run; `uninstall()` must put every original back, and the
counters must count the calls the library really makes."""

import importlib
import json
import sys
from itertools import combinations, product
from pathlib import Path

import toricdeg
import toricdeg.cli  # noqa: F401  (the tracer spans cli.main)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def library_state():
    """Every attribute of every toricdeg module and of the classes they
    define, as (owner, name) -> object."""
    state = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "toricdeg" or name.startswith("toricdeg.")):
            continue
        for attr, value in vars(module).items():
            state[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, obj in vars(value).items():
                    state[(name, attr, member)] = obj
    return state


def test_tracer_patches_every_span_and_restores_the_library(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sys.modules.pop("spans", None)
    spans = importlib.import_module("spans")
    before = library_state()
    tracer = spans.Tracer(toricdeg)
    try:
        tracer.install()
        for module, attr in spans.SPANS:
            owner = sys.modules[f"toricdeg.{module}"]
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            assert hasattr(getattr(owner, last), "__wrapped__"), (module, attr)
    finally:
        tracer.uninstall()
        sys.modules.pop("spans", None)
    after = library_state()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed


def test_simplex_search_counters_see_every_determinant(monkeypatch, tmp_path, capsys):
    # gromov.matrices_scanned and gromov.unimodular count the determinants
    # best_simplex_lb itself takes: one per unordered pair of distinct
    # columns with entries in [-1, 1].
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sys.modules.pop("spans", None)
    spans = importlib.import_module("spans")
    square = tmp_path / "square.json"
    square.write_text('{"dim": 2, "vertices": [[0, 0], [2, 0], [0, 2], [2, 2]]}')
    tracer = spans.Tracer(toricdeg)
    try:
        tracer.install()
        code = toricdeg.cli.main(["gw-simplex", "--polytope", str(square), "--bound", "1",
                                  "--mode", "exhaustive"])
    finally:
        tracer.uninstall()
        sys.modules.pop("spans", None)
    capsys.readouterr()
    assert code == 0
    pairs = list(combinations(product(range(-1, 2), repeat=2), 2))
    unimodular = sum(abs(a * d - b * c) == 1 for (a, c), (b, d) in pairs)
    metrics = tracer.metrics()
    assert metrics["gromov.matrices_scanned"] == len(pairs) == 36
    assert metrics["gromov.unimodular"] == unimodular > 0


def test_vertex_counters_read_the_vertex_cache(monkeypatch, tmp_path, capsys):
    # The vertex_set counters count only calls that fill the polytope's
    # vertex cache, which the tracer reads as `_vertices is None`; a renamed
    # cache must fail here.  Six rows (one redundant) and five vertices.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sys.modules.pop("spans", None)
    spans = importlib.import_module("spans")
    rows = [[-1, 0, 0], [0, -1, 0], [1, 0, 3], [0, 1, 3], [1, 1, 5], [1, 1, 7]]
    polygon = tmp_path / "pentagon.json"
    polygon.write_text(json.dumps({"dim": 2, "inequalities": rows}))
    tracer = spans.Tracer(toricdeg)
    try:
        tracer.install()
        code = toricdeg.cli.main(["vertices", "--polytope", str(polygon)])
    finally:
        tracer.uninstall()
        sys.modules.pop("spans", None)
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    metrics = tracer.metrics()
    assert metrics["geometry.vertex_set.calls"] == 1
    assert metrics["geometry.vertex_set.facets_in"] == len(rows)
    assert metrics["geometry.vertex_set.vertices_out"] == len(report["vertices"]) == 5
