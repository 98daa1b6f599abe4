"""The benchmark's tracer wraps library functions by name: every
(module, attribute) it lists in bench/spans.py must still resolve, or a
rename would silently drop a layer from the traced runs.  Its hooks read
the arguments and result of the calls they wrap, so each one is also run on
real library calls."""

import importlib
import runpy
from pathlib import Path

import treeot as T

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


def test_every_hook_runs_on_real_calls(monkeypatch, tripod):
    # The hooks read the arguments and result the library passes, so a
    # change of argument type fails here and not only in a traced run.
    hooks = runpy.run_path(str(SPANS_FILE), run_name="bench_spans")["HOOKS"]
    calls: dict = {}
    search = T.transport.min_improvement_cycle

    def recorder(*args):
        result = search(*args)
        calls.setdefault("transport.min_improvement_cycle", []).append((args, result))
        return result

    monkeypatch.setattr(T.transport, "min_improvement_cycle", recorder)
    o, a, b = (tripod.vertex_point(v) for v in "oab")
    passing = T.TransportPlan(((a, a, 0.5), (o, b, 0.5)))
    failing = T.TransportPlan(((a, b, 0.5), (o, o, 0.5)))  # beaten by a -> o, o -> b
    assert [T.is_cyclically_monotone(tripod, p).passed for p in (passing, failing)] == [True, False]
    assert set(hooks) == set(calls), "record a real call of every hooked function"
    for name, (metric, hook) in hooks.items():
        for args, result in calls[name]:
            count = hook(args, result)
            assert isinstance(count, int) and count >= 0, (name, metric, count)
