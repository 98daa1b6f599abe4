"""Perpendicular Radon transform on trees and its exact inversion.

Projecting a measure onto every complete geodesic loses nothing: the part
of the measure interior to edges is read off directly from projections
through each edge, and the vertex masses are recovered from the flag data
ℛh(x, ef) = sum of h over the perpendicular of (x, ef) by the inversion
formula

    h(x) = (sum over flags ef at x of ℛh(x, ef)) / (k(x) - 1)
           - (k(x) - 2) / 2 * (total of h),

which follows from counting how many flags at x see each vertex.  These
operations require a tree without leaves and without valency-2 vertices
(the graph description is then the unique one of the metric space).

The forward transform costs O(#flags): a perpendicular sum is the total
minus the masses of the two components of X minus x entered through e and
f, and the tree's one pass of rooted subtree sums gives every such mass.

Inversion is carried out in exact rational arithmetic so integer data round
trips with zero error; the supplied total mass keeps the operation total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import ConstantGeodesic, FlagInvalid, InconsistentData, MalformedForRadon
from .metric_tree import (
    MetricTree,
    TreeEnd,
    TreeGeodesic,
    TreePoint,
    project_to_geodesic,
)
from .transport import DiscreteMeasure, _merge_atoms

_ZERO = 1e-12


@dataclass(frozen=True)
class Flag:
    """A vertex together with an unordered pair of distinct incident edges."""

    vertex: str
    edges: tuple[str, str]

    @staticmethod
    def make(tree: MetricTree, x: str, e: str, f: str) -> "Flag":
        if e == f:
            raise FlagInvalid(f"flag at {x!r} needs two distinct edges")
        inc = tree.incident_edges(x)
        if e not in inc or f not in inc:
            raise FlagInvalid(f"edges {e!r}, {f!r} not both incident to {x!r}")
        return Flag(x, (e, f) if e < f else (f, e))


@dataclass(frozen=True)
class VertexFunction:
    """Real-valued function on the vertices with its total cached."""

    values: tuple[tuple[str, float], ...]
    total: float

    @staticmethod
    def from_mapping(tree: MetricTree, values: Mapping[str, float]) -> "VertexFunction":
        items = tuple(sorted((v, float(h)) for v, h in values.items()))
        for v, _ in items:
            tree.vertex_point(v)  # validates
        return VertexFunction(items, sum(h for _, h in items))

    def get(self, v: str) -> float:
        for w, h in self.values:
            if w == v:
                return h
        return 0.0

    def as_dict(self) -> dict[str, float]:
        return dict(self.values)


def require_radon_tree(tree: MetricTree) -> None:
    if tree.report.leaves:
        raise MalformedForRadon(f"tree has leaves {tree.report.leaves}")
    if tree.report.valency2:
        raise MalformedForRadon(
            f"tree has valency-2 vertices {tree.report.valency2}"
        )


def all_flags(tree: MetricTree) -> list[Flag]:
    flags = []
    for x in tree.vertices:
        inc = tree.incident_edges(x)
        for a in range(len(inc)):
            for b in range(a + 1, len(inc)):
                flags.append(Flag(x, (inc[a], inc[b])))
    return flags


def radon_measure(
    tree: MetricTree, mu: DiscreteMeasure, gamma: TreeGeodesic
) -> DiscreteMeasure:
    """Projection pushforward of a measure onto a complete geodesic."""
    if gamma.is_constant:
        raise ConstantGeodesic("cannot project onto a constant geodesic")
    if gamma.interval_kind != "complete":
        raise ConstantGeodesic("the Radon transform projects onto complete geodesics")
    atoms = [(project_to_geodesic(tree, p, gamma), m) for p, m in mu.atoms]
    return DiscreteMeasure.from_atoms(tree, atoms)


def combinatorial_radon(tree: MetricTree, h: VertexFunction) -> dict[Flag, float]:
    """Flag data of a vertex function: for each flag, the sum of h over the
    perpendicular vertex set, in O(#flags) from rooted subtree sums."""
    require_radon_tree(tree)
    return _perpendicular_sums(tree, h.as_dict(), {})


def _perpendicular_sums(
    tree: MetricTree, vertex_mass: Mapping[str, float], edge_mass: Mapping[str, float]
) -> dict[Flag, float]:
    """For every flag (x, ef), the mass off the two components of X minus x
    entered through e and f: the total minus two component masses, each of
    them the mass beyond an edge in one of its two orientations."""
    beyond = tree.mass_beyond(vertex_mass, edge_mass)
    total = sum(vertex_mass.values()) + sum(edge_mass.values())

    def through(x: str, g: str) -> float:
        if tree.edges[g].ends[0] == x:
            return beyond[g]
        return total - beyond[g] + edge_mass.get(g, 0.0)

    return {
        flag: total - through(flag.vertex, flag.edges[0]) - through(flag.vertex, flag.edges[1])
        for flag in all_flags(tree)
    }


def radon_invert(
    tree: MetricTree, data: Mapping[Flag, float], total: float
) -> VertexFunction:
    """Recover a vertex function from its flag data and its total.

    Exact rational arithmetic end to end: binary floats convert losslessly
    to fractions, so integer-valued inputs reconstruct with zero error.  The
    reconstruction is re-transformed and compared against the input; any
    disagreement beyond 1e-7 raises InconsistentData.
    """
    require_radon_tree(tree)
    total_f = Fraction(total)
    values: dict[str, float] = {}
    for x in tree.vertices:
        k = tree.valency(x)
        inc = tree.incident_edges(x)
        acc = Fraction(0)
        for a in range(len(inc)):
            for b in range(a + 1, len(inc)):
                flag = Flag(x, (inc[a], inc[b]))
                if flag not in data:
                    raise InconsistentData(f"missing flag value for {flag}")
                acc += Fraction(data[flag])
        hx = acc / (k - 1) - Fraction(k - 2, 2) * total_f
        values[x] = float(hx)

    h = VertexFunction.from_mapping(tree, values)
    back = combinatorial_radon(tree, h)
    for flag, val in data.items():
        if abs(back[flag] - float(val)) > 1e-7:
            raise InconsistentData(
                f"flag {flag} re-transforms to {back[flag]}, input was {val}"
            )
    return h


# -- geodesics through edges and flags -------------------------------------------


def geodesic_through_flag(tree: MetricTree, flag: Flag) -> TreeGeodesic:
    """A complete unit geodesic whose locus runs through both edges of the
    flag at its vertex, extended outward along lowest edge ids."""
    e_neg, e_pos = flag.edges
    x = flag.vertex
    neg_nodes, neg_end = _half_locus(tree, x, e_neg)
    pos_nodes, pos_end = _half_locus(tree, x, e_pos)
    nodes = [(-s, p) for s, p in reversed(neg_nodes)]
    nodes.append((0.0, tree.vertex_point(x)))
    nodes.extend(pos_nodes)
    return TreeGeodesic(tree, 1.0, -math.inf, math.inf, 0.0, tuple(nodes), neg_end, pos_end)


def geodesic_through_edge(tree: MetricTree, eid: str) -> TreeGeodesic:
    """A complete unit geodesic containing the whole edge, extended outward
    along lowest edge ids (tie-break rule of the reconstruction)."""
    e = tree.edge(eid)
    x = e.ends[0]
    if e.infinite:
        neg_nodes, neg_end = _half_locus(tree, x, _lowest_other(tree, x, eid))
        nodes = [(-s, p) for s, p in reversed(neg_nodes)]
        nodes.append((0.0, tree.vertex_point(x)))
        return TreeGeodesic(
            tree, 1.0, -math.inf, math.inf, 0.0, tuple(nodes), neg_end, TreeEnd(eid)
        )
    far = e.ends[1]
    neg_nodes, neg_end = _half_locus(tree, x, _lowest_other(tree, x, eid))
    pos_nodes, pos_end = _half_locus(tree, far, _lowest_other(tree, far, eid))
    nodes = [(-s, p) for s, p in reversed(neg_nodes)]
    nodes.append((0.0, tree.vertex_point(x)))
    nodes.extend((e.length + s, p) for s, p in [(0.0, tree.vertex_point(far))] + pos_nodes)
    # drop the duplicated far vertex introduced above
    dedup = [nodes[0]]
    for s, p in nodes[1:]:
        if p != dedup[-1][1]:
            dedup.append((s, p))
    return TreeGeodesic(
        tree, 1.0, -math.inf, math.inf, 0.0, tuple(dedup), neg_end, pos_end
    )


def _lowest_other(tree: MetricTree, x: str, eid: str) -> str:
    others = [g for g in tree.incident_edges(x) if g != eid]
    if not others:
        raise MalformedForRadon(f"vertex {x!r} is a leaf")
    return others[0]


def _half_locus(tree: MetricTree, x: str, via: str):
    """Nodes (arc from x, vertex point) strictly beyond x when walking out
    through `via` to an end, plus the end."""
    e = tree.edge(via)
    if e.infinite:
        return [], tree.end(via)
    steps, end = tree.extension_walk(x, via)
    nodes = []
    s = 0.0
    for eid, v in steps:
        s += tree.edge(eid).length
        nodes.append((s, tree.vertex_point(v)))
    return nodes, end


# -- full measure reconstruction ---------------------------------------------------


@dataclass(frozen=True)
class RoundtripReport:
    interior_atoms: tuple[tuple[TreePoint, float], ...]
    vertex_function: VertexFunction
    reconstructed: DiscreteMeasure
    max_error: float

    @property
    def exact(self) -> bool:
        return self.max_error <= 1e-9


def measure_radon_roundtrip(tree: MetricTree, mu: DiscreteMeasure) -> RoundtripReport:
    """Split a measure into its edge-interior and vertex-atomic parts using
    only projections, invert the vertex part, and reassemble.

    The interior part on each edge is the restriction to that edge's
    interior of the projection onto a geodesic through it.  The flag mass
    projected exactly onto a vertex x is h(x) plus the total (vertex and
    interior) mass of the perpendicular components, so subtracting the
    already recovered interior mass leaves the combinatorial flag data of
    the vertex masses, which radon_invert resolves.
    """
    require_radon_tree(tree)

    interior: list[tuple[TreePoint, float]] = []
    for eid in sorted(tree.edges):
        g = geodesic_through_edge(tree, eid)
        proj = radon_measure(tree, mu, g)
        for p, m in proj.atoms:
            if p.edge == eid:
                interior.append((p, m))
    interior, _ = _merge_atoms(interior)
    interior_total = sum(m for _, m in interior)

    on_edge: dict[str, float] = {}
    for p, m in interior:
        on_edge[p.edge] = on_edge.get(p.edge, 0.0) + m
    hidden = _perpendicular_sums(tree, {}, on_edge)

    flag_data: dict[Flag, float] = {}
    for flag in all_flags(tree):
        g = geodesic_through_flag(tree, flag)
        proj = radon_measure(tree, mu, g)
        mass_at_x = proj.mass_at(tree.vertex_point(flag.vertex))
        flag_data[flag] = mass_at_x - hidden[flag]

    h = radon_invert(tree, flag_data, 1.0 - interior_total)
    atoms = list(interior)
    for v, hv in h.values:
        if hv > _ZERO:
            atoms.append((tree.vertex_point(v), hv))
    reconstructed = DiscreteMeasure.from_atoms(tree, atoms)

    want = {p: m for p, m in mu.atoms}
    got = {p: m for p, m in reconstructed.atoms}
    keys = set(want) | set(got)
    max_err = max(abs(want.get(p, 0.0) - got.get(p, 0.0)) for p in keys)
    return RoundtripReport(tuple(interior), h, reconstructed, max_err)
