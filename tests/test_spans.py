"""The benchmark's span tracer (perfbench/spans.py) wraps library functions
by name, so a renamed or moved function must fail here and not only in a
traced benchmark run; `uninstall()` must put every original back."""

import importlib
import sys
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
