"""The benchmark's tracer finds the functions it wraps by name; a
refactor that renames or moves one must fail here, not in the trace."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from cycloribbon.lincomb import LinComb

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_names_resolve():
    spans = load_spans()
    for name in spans.SPAN_FUNCTIONS:
        mod_name, attr = name.split(".")
        module = importlib.import_module("cycloribbon." + mod_name)
        assert callable(getattr(module, attr)), name
    for name in spans.SPAN_METHODS:
        mod_name, cls_name, attr = name.split(".")
        cls = getattr(importlib.import_module("cycloribbon." + mod_name), cls_name)
        assert callable(getattr(cls, attr)), name


def test_lincomb_constructor_signature():
    params = list(inspect.signature(LinComb.__init__).parameters.values())
    assert [p.name for p in params] == ["self", "basis", "terms"]
    assert params[2].default == ()
