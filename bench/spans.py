"""Spans around the library's public functions, recorded from outside.

``Tracer.installed(T)`` replaces each function named in ``SPANS`` by a
wrapper that records one span (name, start, end, parent, operation) and
calls the original.  Functions are replaced in every ``treeot`` module that
holds a reference to them, and ``MetricTree`` methods on the class, so a
call such as ``asymptotic_formula_check -> wasserstein2 -> solve_transport
-> transportation_simplex`` becomes a chain of nested spans.  Spans live in
flat integer arrays until ``write`` dumps them at the end of the run.

Self time is a span's duration minus the time its child spans cover.  Both
durations and self times have the tracer's own cost taken out: ``span_costs``
measures what one wrapped call adds to its own span, to its parent's self
time and to every enclosing span, and ``per_operation`` subtracts that once
per span and per child or descendant span.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import statistics
import sys
import time
from array import array

# (module, attribute) -> span name.  "MetricTree.x" names a method.
SPANS = {
    ("metric_tree", "MetricTree.__init__"): "metric_tree.build",
    ("metric_tree", "MetricTree.distance"): "metric_tree.distance",
    ("metric_tree", "MetricTree.geodesic_segment"): "metric_tree.geodesic_segment",
    ("metric_tree", "MetricTree.ray_to_end"): "metric_tree.ray_to_end",
    ("metric_tree", "MetricTree.geodesic_between_ends"): "metric_tree.geodesic_between_ends",
    ("transport", "wasserstein2"): "transport.wasserstein2",
    ("transport", "solve_transport"): "transport.solve_transport",
    ("transport", "transportation_simplex"): "transport.transportation_simplex",
    ("transport", "certify_duals"): "transport.certify_duals",
    ("transport", "is_cyclically_monotone"): "transport.is_cyclically_monotone",
    ("transport", "min_improvement_cycle"): "transport.min_improvement_cycle",
    ("dynamics", "interpolate"): "dynamics.interpolate",
    ("boundary", "asymptotic_formula_check"): "boundary.asymptotic_formula_check",
    ("ends", "comb_generator"): "ends.comb_generator",
    ("ends", "flow_table"): "ends.flow_table",
    ("ends", "realizability_sum"): "ends.realizability_sum",
    ("ends", "construct_geodesic"): "ends.construct_geodesic",
    ("ends", "d0_transport"): "ends.d0_transport",
    ("radon", "combinatorial_radon"): "radon.combinatorial_radon",
    ("radon", "radon_invert"): "radon.radon_invert",
    ("cli", "run"): "cli.run",
    ("cli", "_load_json"): "serialization.load",
}
LOADERS = (
    "tree_from_json", "point_from_json", "measure_from_json", "plan_from_json",
    "dynamical_plan_from_json", "boundary_measure_from_json",
    "cone_measure_from_json", "radon_data_from_json",
)
DUMPERS = (
    "dumps", "tree_to_json", "point_to_json", "measure_to_json", "plan_to_json",
    "geodesic_to_json", "dynamical_plan_to_json", "boundary_measure_to_json",
    "cone_measure_to_json", "flow_table_to_json", "radon_data_to_json",
    "vertex_function_to_json",
)
SPANS.update({("serialization", f): "serialization.load" for f in LOADERS})
SPANS.update({("serialization", f): "serialization.dump" for f in DUMPERS})

GEODESIC = ("metric_tree.geodesic_segment", "metric_tree.ray_to_end",
            "metric_tree.geodesic_between_ends")

# Per-layer metrics: (name, unit, how, span names).  "total" sums the
# durations of the outermost spans of the group, "self" sums self times,
# "count" counts spans; "value" reads a per-operation value recorded by
# the runner or by a hook.
LAYERS = [
    ("metric_tree.build_s", "s", "total", ("metric_tree.build",)),
    ("metric_tree.distance_calls", "count", "count", ("metric_tree.distance",)),
    ("metric_tree.distance_s", "s", "total", ("metric_tree.distance",)),
    ("metric_tree.geodesic_s", "s", "total", GEODESIC),
    ("transport.solve_calls", "count", "count", ("transport.solve_transport",)),
    ("transport.simplex_s", "s", "total", ("transport.transportation_simplex",)),
    ("transport.cost_matrix_s", "s", "self", ("transport.solve_transport",)),
    ("transport.wasserstein2_self_s", "s", "self", ("transport.wasserstein2",)),
    ("transport.certify_duals_s", "s", "total", ("transport.certify_duals",)),
    ("transport.monotone_self_s", "s", "self", ("transport.is_cyclically_monotone",)),
    ("transport.min_cycle_s", "s", "total", ("transport.min_improvement_cycle",)),
    ("transport.min_cycle_ops", "count", "value", ("transport.min_cycle_ops",)),
    ("dynamics.interpolate_self_s", "s", "self", ("dynamics.interpolate",)),
    ("boundary.asymptotic_self_s", "s", "self", ("boundary.asymptotic_formula_check",)),
    ("ends.comb_generator_s", "s", "total", ("ends.comb_generator",)),
    ("ends.flow_table_s", "s", "total", ("ends.flow_table",)),
    ("ends.realizability_s", "s", "total", ("ends.realizability_sum",)),
    ("ends.construct_geodesic_self_s", "s", "self", ("ends.construct_geodesic",)),
    ("ends.d0_transport_self_s", "s", "self", ("ends.d0_transport",)),
    ("radon.forward_s", "s", "all", ("radon.combinatorial_radon",)),
    ("radon.invert_self_s", "s", "self", ("radon.radon_invert",)),
    ("serialization.load_s", "s", "total", ("serialization.load",)),
    ("serialization.dump_s", "s", "total", ("serialization.dump",)),
    ("cli.interpreter_s", "s", "value", ("cli.interpreter_s",)),
    ("cli.import_s", "s", "value", ("cli.import_s",)),
    ("cli.run_s", "s", "total", ("cli.run",)),
]


def min_cycle_ops(args, result) -> int:
    """k^3 per min-plus step of min_improvement_cycle, summed over the steps
    it ran: all of 2..max_cycle when no cycle is found, otherwise up to the
    witness length."""
    weights, max_cycle = args[0], args[1]
    k = weights.shape[0]
    if k == 0 or max_cycle < 2:
        return 0
    witness = result[1]
    steps = max_cycle - 1 if witness is None else len(witness) - 1
    return k ** 3 * steps


HOOKS = {"transport.min_improvement_cycle": ("transport.min_cycle_ops", min_cycle_ops)}


def _noop():
    return None


def _loop(fn, calls):
    for _ in range(calls):
        fn()


def span_costs(calls: int = 2000, repeats: int = 15) -> dict[str, float]:
    """Nanoseconds that one wrapped call adds: "own" to its own span, "self"
    to its parent's self time, "total" to the duration of each enclosing
    span.  Measured as medians over `repeats` runs of a wrapped loop of
    `calls` wrapped no-op calls against the same loop unwrapped, so they are
    exact to within the cost of calling an empty function."""
    plain = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        _loop(_noop, calls)
        plain.append(time.perf_counter_ns() - t0)
    base = statistics.median(plain)
    probe = Tracer()
    inner, outer = probe.wrap("inner", _noop), probe.wrap("outer", _loop)
    for _ in range(repeats):
        outer(inner, calls)
    dur = [e - s for s, e in zip(probe.start, probe.end)]
    is_outer = [n == probe._index["outer"] for n in probe.name]
    cover = {i: 0 for i, o in enumerate(is_outer) if o}
    for i, p in enumerate(probe.parent):
        if p >= 0:
            cover[p] += dur[i]
    return {
        "own": statistics.median(d for d, o in zip(dur, is_outer) if not o),
        "self": statistics.median((dur[i] - c - base) / calls for i, c in cover.items()),
        "total": statistics.median((dur[i] - base) / calls for i in cover),
    }


class Tracer:
    def __init__(self, costs: dict[str, float] | None = None):
        self.costs = costs or {"own": 0.0, "self": 0.0, "total": 0.0}
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.op = array("q")
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.current_op = -1
        self._next_op = 0
        self.values: dict[int, dict[str, float]] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.op.append(self.current_op)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def record(self, key: str, value: float) -> None:
        per_op = self.values.setdefault(self.current_op, {})
        per_op[key] = per_op.get(key, 0.0) + value

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if hook is not None:
                self.record(hook[0], hook[1](args, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def operation(self):
        """Root span of one benchmark operation."""
        self.current_op = self._next_op
        self._next_op += 1
        sid = self._open(self._name_id("bench.op"))
        try:
            yield
        finally:
            self._close(sid)
            self.current_op = -1

    @contextlib.contextmanager
    def installed(self, T):
        """Wrap every function of SPANS for the duration of the block."""
        for mod_name in {mod_name for mod_name, _ in SPANS}:
            importlib.import_module(f"treeot.{mod_name}")
        modules = [m for n, m in sys.modules.items() if n == "treeot" or n.startswith("treeot.")]
        undo = []
        try:
            for (mod_name, attr), span in SPANS.items():
                module = sys.modules[f"treeot.{mod_name}"]
                if attr.startswith("MetricTree."):
                    method = attr.split(".", 1)[1]
                    cls = module.MetricTree
                    orig = cls.__dict__[method]
                    setattr(cls, method, self.wrap(span, orig))
                    undo.append((cls, method, orig))
                    continue
                orig = getattr(module, attr)
                wrapped = self.wrap(span, orig)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)
                            undo.append((m, key, orig))
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    # -- aggregation ---------------------------------------------------------

    def per_operation(self) -> dict[int, dict[str, float]]:
        """Every LAYERS metric for every traced operation."""
        n = len(self.start)
        raw = [self.end[i] - self.start[i] for i in range(n)]
        cover = [0] * n
        kids = [0] * n
        descendants = [0] * n
        by_name: dict[int, list[int]] = {}
        for i in reversed(range(n)):  # a child's id is larger than its parent's
            p = self.parent[i]
            if p >= 0:
                cover[p] += raw[i]
                kids[p] += 1
                descendants[p] += descendants[i] + 1
            by_name.setdefault(self.name[i], []).append(i)
        own, per_kid, per_descendant = (self.costs[k] for k in ("own", "self", "total"))
        dur = [raw[i] - own - descendants[i] * per_descendant for i in range(n)]
        self_ns = [raw[i] - cover[i] - own - kids[i] * per_kid for i in range(n)]
        ops = sorted({o for o in self.op if o >= 0})
        out = {o: {metric: 0.0 for metric, *_ in LAYERS} for o in ops}
        ids = {name: i for i, name in enumerate(self.names)}
        for metric, _, how, group in LAYERS:
            if how == "value":
                for o in ops:
                    out[o][metric] = self.values.get(o, {}).get(group[0], 0.0)
                continue
            members = {ids[g] for g in group if g in ids}
            for i in (i for g in members for i in by_name.get(g, ())):
                o = self.op[i]
                if o < 0:
                    continue
                if how == "count":
                    out[o][metric] += 1
                elif how == "self":
                    out[o][metric] += self_ns[i] * 1e-9
                elif how == "all" or not self._nested(i, members):
                    out[o][metric] += dur[i] * 1e-9
        return out

    def _nested(self, i: int, members: set[int]) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] in members:
                return True
            p = self.parent[p]
        return False

    def medians(self) -> dict[str, float]:
        """Median of each metric over the operations in which its layer ran
        (0 when it never ran), so that a layer used by some operations of a
        mixed round, as in the cli workload, still shows."""
        per_op = list(self.per_operation().values())
        out = {}
        for metric, *_ in LAYERS:
            ran = [op[metric] for op in per_op if op[metric]]
            out[metric] = statistics.median(ran) if ran else 0.0
        return out

    def write(self, path, header: dict) -> None:
        """Gzipped JSON lines: one header object (metadata, span names,
        per-operation values), then one [op, name, parent, start_ns, end_ns]
        array per span, parents before children."""
        head = dict(header, names=self.names, span_cost_ns=self.costs,
                    columns=["op", "name", "parent", "start_ns", "end_ns"],
                    values={str(k): v for k, v in self.values.items()})
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(head, separators=(",", ":")) + "\n")
            for i in range(len(self.start)):
                fh.write(f"[{self.op[i]},{self.name[i]},{self.parent[i]},{self.start[i]},{self.end[i]}]\n")
