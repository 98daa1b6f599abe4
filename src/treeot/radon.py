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

from .errors import (
    ConstantGeodesic, FlagInvalid, InconsistentData, MalformedForRadon, NonFiniteValue,
)
from .metric_tree import MetricTree, TreeGeodesic, TreePoint, project_to_geodesic
from .transport import _ZERO_MASS, DiscreteMeasure, _add_in_order


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
        for v, h in items:
            tree.vertex_point(v)  # validates
            if not math.isfinite(h):
                raise NonFiniteValue(f"non-finite value {h} at vertex {v!r}")
        return VertexFunction(items, _add_in_order(h for _, h in items))

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
    total = _add_in_order(vertex_mass.values()) + _add_in_order(edge_mass.values())

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
    disagreement beyond 1e-7 raises InconsistentData, and so does a NaN or
    infinite value, which no vertex function transforms to.
    """
    require_radon_tree(tree)
    if not all(math.isfinite(v) for v in (total, *data.values())):
        raise InconsistentData("Radon data and total must be finite")
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
    """The complete unit geodesic through both edges of the flag, at the
    flag's vertex at time 0: its two ends are reached by leaving the vertex
    through each edge and going on along lowest edge ids."""
    x = flag.vertex
    e_neg, e_pos = flag.edges
    return tree.geodesic_between_ends(
        tree.extension_walk(x, e_neg),
        tree.extension_walk(x, e_pos),
        anchor=tree.vertex_point(x),
    )


def geodesic_through_edge(tree: MetricTree, eid: str) -> TreeGeodesic:
    """The complete unit geodesic containing the whole edge, at the edge's
    first endpoint x at time 0 and running toward the edge: it leaves x
    through the edge on one side and through x's onward edge on the other,
    each continued along lowest edge ids (tie-break rule of the
    reconstruction)."""
    x = tree.edge(eid).ends[0]
    return tree.geodesic_between_ends(
        tree.extension_walk(x, tree.onward_edge(x, eid)),
        tree.extension_walk(x, eid),
        anchor=tree.vertex_point(x),
    )


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
    interior_total = _add_in_order(m for _, m in interior)

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
        if hv > _ZERO_MASS:
            atoms.append((tree.vertex_point(v), hv))
    reconstructed = DiscreteMeasure.from_atoms(tree, atoms)

    want = {p: m for p, m in mu.atoms}
    got = {p: m for p, m in reconstructed.atoms}
    keys = set(want) | set(got)
    max_err = max(abs(want.get(p, 0.0) - got.get(p, 0.0)) for p in keys)
    return RoundtripReport(tuple(interior), h, reconstructed, max_err)
