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
"""

from __future__ import annotations

import json
import math
from decimal import Decimal, InvalidOperation
from typing import Any

from .errors import MalformedTree
from .metric_tree import MetricTree, TreeGeodesic, TreePoint
from .transport import DiscreteMeasure, TransportPlan
from .dynamics import DynamicalPlan
from .boundary import ConeMeasure
from .ends import BoundaryMeasure, FlowTable
from .radon import Flag, VertexFunction


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


_SHAPES = {dict: "a JSON object", list: "a JSON array", str: "a string"}


def _shaped(value: Any, kind: type, what: str) -> Any:
    """value, checked to be a dict, list or str (see _SHAPES)."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {_SHAPES[kind]}, got {json.dumps(value)[:40]}")
    return value


def _field(doc: Any, key: str, kind: type) -> Any:
    """doc[key] of a JSON object doc, checked to be a dict, list or str."""
    return _shaped(_shaped(doc, dict, f"the parent of {key!r}")[key], kind, repr(key))


def _names(doc: Any, key: str) -> list[str]:
    """doc[key]: a list of strings."""
    return [_shaped(v, str, f"an entry of {key!r}") for v in _field(doc, key, list)]


def parse_number(v: Any) -> float:
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str):
        s = v.strip().lower()
        if s in ("inf", "+inf", "infinity"):
            return math.inf
        if s == "-inf":
            return -math.inf
        try:
            return float(Decimal(v))
        except InvalidOperation:
            raise MalformedTree(f"not a decimal string: {v!r}") from None
    raise MalformedTree(f"expected a number, got {v!r}")


# -- trees ------------------------------------------------------------------


def tree_from_json(doc: dict) -> MetricTree:
    edges = [
        (_field(e, "id", str), tuple(_names(e, "ends")), parse_number(e["length"]))
        for e in _field(doc, "edges", list)
    ]
    return MetricTree(
        _names(doc, "vertices"), edges, _point_placeholder(_field(doc, "basepoint", dict))
    )


def _point_placeholder(doc: dict) -> TreePoint:
    if "vertex" in _shaped(doc, dict, "a point"):
        return TreePoint(vertex=_field(doc, "vertex", str))
    return TreePoint(edge=_field(doc, "edge", str), offset=parse_number(doc["offset"]))


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
    return DiscreteMeasure.from_atoms(
        tree,
        [
            (point_from_json(tree, a["point"]), parse_number(a["mass"]))
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
    rows = doc if isinstance(doc, list) else _field(doc, "entries", list)
    return TransportPlan(
        tuple(
            (
                point_from_json(tree, _shaped(e, dict, "a plan entry")["source"]),
                point_from_json(tree, e["target"]),
                parse_number(e["mass"]),
            )
            for e in rows
        )
    )


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
            point_from_json(tree, doc["point"]),
            parse_number(doc["t0"]),
            parse_number(doc["t1"]),
        )
    if kind == "segment":
        return tree.geodesic_segment(
            point_from_json(tree, doc["start"]),
            point_from_json(tree, doc["stop"]),
            parse_number(doc["t0"]),
            parse_number(doc["t1"]),
        )
    if kind == "ray":
        return tree.ray_to_end(
            point_from_json(tree, doc["start"]),
            tree.end(_field(doc, "end", str)),
            parse_number(doc["speed"]),
        )
    if kind == "complete":
        return tree.geodesic_between_ends(
            tree.end(_field(doc, "neg_end", str)),
            tree.end(_field(doc, "pos_end", str)),
            speed=parse_number(doc["speed"]),
            anchor=point_from_json(tree, doc["anchor"]),
            anchor_time=parse_number(doc["anchor_time"]),
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
    return DynamicalPlan.from_atoms(
        tree,
        [
            (geodesic_from_json(tree, a["geodesic"]), parse_number(a["mass"]))
            for a in _atoms(doc)
        ],
    )


# -- boundary data ---------------------------------------------------------------


def boundary_measure_from_json(tree: MetricTree, doc: dict) -> BoundaryMeasure:
    return BoundaryMeasure.from_atoms(
        tree,
        [(tree.end(_field(a, "end", str)), parse_number(a["mass"])) for a in _atoms(doc)],
    )


def boundary_measure_to_json(bm: BoundaryMeasure) -> dict:
    return {
        "atoms": [{"end": e.edge, "mass": fmt(m)} for e, m in bm.atoms]
    }


def cone_measure_from_json(tree: MetricTree, doc: dict) -> ConeMeasure:
    atoms = []
    for a in _atoms(doc):
        end = a.get("end")
        end = None if end in (None, "apex") else tree.end(_shaped(end, str, "'end'"))
        atoms.append((end, parse_number(a["speed"]), parse_number(a["mass"])))
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
    data = {}
    for row in _shaped(doc, list, "radon data"):
        e, f = _names(row, "edges")
        data[Flag.make(tree, _field(row, "vertex", str), e, f)] = parse_number(row["value"])
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
    values = _field(doc, "values", dict)
    return VertexFunction.from_mapping(tree, {v: parse_number(x) for v, x in values.items()})


def vertex_function_to_json(h: VertexFunction) -> dict:
    return {v: fmt_exact(val) for v, val in h.values}


def dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
