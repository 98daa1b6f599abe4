"""The benchmark's tracer wraps library functions by name: every
(module, attribute) it lists in bench/spans.py must still resolve, or a
rename would silently drop a layer from the traced runs."""

import importlib
import runpy
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_name_resolves():
    spans = runpy.run_path(str(SPANS_FILE), run_name="bench_spans")["SPANS"]
    assert spans
    missing = []
    for module, attr in spans:
        obj = importlib.import_module(f"treeot.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"treeot.{module}.{attr}")
    assert not missing, f"bench/spans.py names missing functions: {missing}"
