"""JSON readers and writers for every artifact the CLI exchanges.

Numbers travel as decimal strings: inputs accept plain JSON numbers too,
outputs always emit strings (12 decimal places for computed floats, bare
integers for exactly integral values such as inverted Radon data, "inf"
for infinite lengths).  Dumps are deterministic: sorted keys, fixed
separators, fixed formatting, so identical inputs give identical bytes.

Readers check the shape of what they index: an object where an object is
expected, a list where a list is, a string for every name.  A wrong shape
raises ValueError, a parse error like malformed JSON, never a TypeError
from deep inside the library.

Only ``metric_tree`` is imported here; each reader imports the type it
builds, so reading a tree does not load the transport or Radon modules.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Any

from .errors import MalformedTree, MarginalMismatch
from .metric_tree import MetricTree, TreeGeodesic, TreePoint

if TYPE_CHECKING:
    from .boundary import ConeMeasure
    from .dynamics import DynamicalPlan
    from .ends import BoundaryMeasure, FlowTable
    from .radon import Flag, VertexFunction
    from .transport import DiscreteMeasure, TransportPlan


def fmt(x: float) -> str:
    """Decimal rendering of a computed float: 12 places, no locale."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.12f}"


def fmt_exact(x: float) -> str:
    """Integral values render as bare integers (exact Radon outputs)."""
    if math.isfinite(x) and float(x).is_integer():
        return str(int(x))
    return fmt(x)


_SHAPES = {dict: "a JSON object", list: "a JSON array", str: "a string", float: "a number"}


def _shaped(value: Any, kind: type, what: str) -> Any:
    """value, checked to be a dict, list or str (see _SHAPES)."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {_SHAPES[kind]}, got {json.dumps(value)[:40]}")
    return value


def _field(doc: Any, key: str, kind: type) -> Any:
    """doc[key] of a JSON object doc, checked to be a dict, list or str, or
    read by ``parse_number`` for float; a missing key is named with the
    shape its value should have."""
    parent = _shaped(doc, dict, f"the parent of {key!r}")
    if key not in parent:
        raise ValueError(
            f"missing key {key!r}: expected {_SHAPES[kind]} under it, got {json.dumps(parent)[:40]}"
        )
    if kind is float:
        return parse_number(parent[key])
    return _shaped(parent[key], kind, repr(key))


def _names(doc: Any, key: str) -> list[str]:
    """doc[key]: a list of strings."""
    return [_shaped(v, str, f"an entry of {key!r}") for v in _field(doc, key, list)]


def parse_number(v: Any) -> float:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            return float(v)
        except OverflowError:
            raise MalformedTree(
                f"integer of {v.bit_length()} bits exceeds the float range"
            ) from None
    if isinstance(v, str):
        try:
            return float(v)
        except ValueError:
            raise MalformedTree(f"not a decimal string: {v!r}") from None
    raise MalformedTree(f"expected a number, got {v!r}")


# -- trees ------------------------------------------------------------------


def tree_from_json(doc: dict) -> MetricTree:
    edges = [
        (_field(e, "id", str), tuple(_names(e, "ends")), _field(e, "length", float))
        for e in _field(doc, "edges", list)
    ]
    return MetricTree(
        _names(doc, "vertices"), edges, _point_placeholder(_field(doc, "basepoint", dict))
    )


def _point_placeholder(doc: dict) -> TreePoint:
    if "vertex" in _shaped(doc, dict, "a point"):
        return TreePoint(vertex=_field(doc, "vertex", str))
    return TreePoint(edge=_field(doc, "edge", str), offset=_field(doc, "offset", float))


def point_from_json(tree: MetricTree, doc: dict) -> TreePoint:
    return tree.canonical_point(_point_placeholder(doc))


def point_to_json(p: TreePoint) -> dict:
    if p.is_vertex():
        return {"vertex": p.vertex}
    return {"edge": p.edge, "offset": fmt(p.offset)}


def tree_to_json(tree: MetricTree) -> dict:
    return {
        "vertices": list(tree.vertices),
        "edges": [
            {
                "id": e.id,
                "ends": list(e.ends),
                "length": "inf" if e.infinite else fmt(e.length),
            }
            for _, e in sorted(tree.edges.items())
        ],
        "basepoint": point_to_json(tree.basepoint),
    }


# -- measures and plans --------------------------------------------------------


def measure_from_json(tree: MetricTree, doc: dict) -> DiscreteMeasure:
    from .transport import DiscreteMeasure

    return DiscreteMeasure.from_atoms(
        tree,
        [
            (point_from_json(tree, _field(a, "point", dict)), _field(a, "mass", float))
            for a in _atoms(doc)
        ],
    )


def _atoms(doc: Any) -> list[dict]:
    """doc["atoms"]: a list of objects."""
    return [_shaped(a, dict, "an atom") for a in _field(doc, "atoms", list)]


def measure_to_json(mu: DiscreteMeasure) -> dict:
    return {
        "atoms": [
            {"point": point_to_json(p), "mass": fmt(m)} for p, m in mu.atoms
        ]
    }


def plan_from_json(tree: MetricTree, doc) -> TransportPlan:
    """A transport plan; an entry whose mass is not finite and above 0
    raises MarginalMismatch, since no certificate can judge it."""
    from .transport import TransportPlan

    rows = doc if isinstance(doc, list) else _field(doc, "entries", list)
    entries = []
    for i, e in enumerate(rows):
        x = point_from_json(tree, _field(_shaped(e, dict, "a plan entry"), "source", dict))
        y = point_from_json(tree, _field(e, "target", dict))
        m = _field(e, "mass", float)
        if not 0.0 < m < math.inf:
            raise MarginalMismatch(f"plan entry {i} has mass {m}, expected a finite mass above 0")
        entries.append((x, y, m))
    return TransportPlan(tuple(entries))


def plan_to_json(plan: TransportPlan) -> dict:
    return {
        "entries": [
            {
                "source": point_to_json(x),
                "target": point_to_json(y),
                "mass": fmt(m),
            }
            for x, y, m in plan.entries
        ]
    }


def geodesic_to_json(g: TreeGeodesic) -> dict:
    if g.is_constant:
        return {
            "kind": "constant",
            "point": point_to_json(g.nodes[0][1]),
            "t0": fmt(g.t0),
            "t1": fmt(g.t1),
        }
    kind = g.interval_kind
    if kind == "segment":
        return {
            "kind": "segment",
            "start": point_to_json(g.nodes[0][1]),
            "stop": point_to_json(g.nodes[-1][1]),
            "t0": fmt(g.t0),
            "t1": fmt(g.t1),
        }
    if kind == "ray":
        return {
            "kind": "ray",
            "start": point_to_json(g.nodes[0][1]),
            "end": g.pos_end.edge,
            "speed": fmt(g.speed),
        }
    return {
        "kind": "complete",
        "neg_end": g.neg_end.edge,
        "pos_end": g.pos_end.edge,
        "speed": fmt(g.speed),
        "anchor": point_to_json(g.point_at_arc(0.0)),
        "anchor_time": fmt(g.t_origin),
    }


def geodesic_from_json(tree: MetricTree, doc: dict) -> TreeGeodesic:
    kind = _field(doc, "kind", str)
    if kind == "constant":
        return tree.constant_geodesic(
            point_from_json(tree, _field(doc, "point", dict)),
            _field(doc, "t0", float),
            _field(doc, "t1", float),
        )
    if kind == "segment":
        return tree.geodesic_segment(
            point_from_json(tree, _field(doc, "start", dict)),
            point_from_json(tree, _field(doc, "stop", dict)),
            _field(doc, "t0", float),
            _field(doc, "t1", float),
        )
    if kind == "ray":
        return tree.ray_to_end(
            point_from_json(tree, _field(doc, "start", dict)),
            tree.end(_field(doc, "end", str)),
            _field(doc, "speed", float),
        )
    if kind == "complete":
        return tree.geodesic_between_ends(
            tree.end(_field(doc, "neg_end", str)),
            tree.end(_field(doc, "pos_end", str)),
            speed=_field(doc, "speed", float),
            anchor=point_from_json(tree, _field(doc, "anchor", dict)),
            anchor_time=_field(doc, "anchor_time", float),
        )
    raise MalformedTree(f"unknown geodesic kind {kind!r}")


def dynamical_plan_to_json(plan: DynamicalPlan) -> dict:
    return {
        "interval": {"kind": plan.kind, "t0": fmt(plan.t0), "t1": fmt(plan.t1)},
        "atoms": [
            {"geodesic": geodesic_to_json(g), "mass": fmt(m)}
            for g, m in plan.atoms
        ],
    }


def dynamical_plan_from_json(tree: MetricTree, doc: dict) -> DynamicalPlan:
    """A dynamical plan; its declared interval must be the one its atoms
    share (kind, t0 and t1), else MarginalMismatch."""
    from .dynamics import DynamicalPlan

    interval = _field(doc, "interval", dict)
    declared = (_field(interval, "kind", str), _field(interval, "t0", float), _field(interval, "t1", float))
    plan = DynamicalPlan.from_atoms(
        tree,
        [
            (geodesic_from_json(tree, _field(a, "geodesic", dict)), _field(a, "mass", float))
            for a in _atoms(doc)
        ],
    )
    shared = (plan.kind, plan.t0, plan.t1)
    if declared != shared:
        raise MarginalMismatch("declared interval {} [{}, {}] is not the atoms' {} [{}, {}]".format(*declared, *shared))
    return plan


# -- boundary data ---------------------------------------------------------------


def boundary_measure_from_json(tree: MetricTree, doc: dict) -> BoundaryMeasure:
    from .ends import BoundaryMeasure

    return BoundaryMeasure.from_atoms(
        tree,
        [(tree.end(_field(a, "end", str)), _field(a, "mass", float)) for a in _atoms(doc)],
    )


def boundary_measure_to_json(bm: BoundaryMeasure) -> dict:
    return {
        "atoms": [{"end": e.edge, "mass": fmt(m)} for e, m in bm.atoms]
    }


def cone_measure_from_json(tree: MetricTree, doc: dict) -> ConeMeasure:
    from .boundary import ConeMeasure

    atoms = []
    for a in _atoms(doc):
        end = a.get("end")
        end = None if end in (None, "apex") else tree.end(_shaped(end, str, "'end'"))
        atoms.append((end, _field(a, "speed", float), _field(a, "mass", float)))
    return ConeMeasure.from_atoms(tree, atoms)


def cone_measure_to_json(nu: ConeMeasure) -> dict:
    return {
        "atoms": [
            {
                "end": "apex" if e is None else e.edge,
                "speed": fmt(s),
                "mass": fmt(m),
            }
            for e, s, m in nu.atoms
        ]
    }


def flow_table_to_json(tree: MetricTree, table: FlowTable) -> dict:
    edges = []
    for eid in sorted(tree.edges):
        e = tree.edges[eid]
        orientation = list(e.ends) if not e.infinite else [e.ends[0], "inf"]
        edges.append(
            {
                "edge": eid,
                "orientation": orientation,
                "flow": fmt(table.flow(eid)),
                "sign": table.sign(eid),
            }
        )
    vertices = [
        {
            "vertex": v,
            "flow": fmt(table.vertex_flow[v]),
            "specific_flow": fmt(table.specific_flow[v]),
        }
        for v in tree.vertices
    ]
    return {"edges": edges, "vertices": vertices}


# -- radon data -------------------------------------------------------------------


def radon_data_from_json(tree: MetricTree, doc: list) -> dict[Flag, float]:
    from .radon import Flag

    data = {}
    for row in _shaped(doc, list, "radon data"):
        e, f = _names(row, "edges")
        flag = Flag.make(tree, _field(row, "vertex", str), e, f)
        if flag in data:
            raise ValueError(f"radon data repeats the flag at {flag.vertex!r} on edges {list(flag.edges)}")
        data[flag] = _field(row, "value", float)
    return data


def radon_data_to_json(data: dict[Flag, float]) -> list:
    rows = []
    for flag in sorted(data, key=lambda fl: (fl.vertex, fl.edges)):
        rows.append(
            {
                "vertex": flag.vertex,
                "edges": list(flag.edges),
                "value": fmt_exact(data[flag]),
            }
        )
    return rows


def vertex_function_from_json(tree: MetricTree, doc: dict) -> VertexFunction:
    from .radon import VertexFunction

    values = _field(doc, "values", dict)
    return VertexFunction.from_mapping(tree, {v: parse_number(x) for v, x in values.items()})


def vertex_function_to_json(h: VertexFunction) -> dict:
    return {v: fmt_exact(val) for v, val in h.values}


def dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
