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

Inversion is exact in integers: every finite float is an integer over a
power of two, so the flag values and the total go over one common power of
two and each h(x) is a single integer quotient, which Python rounds
correctly.  Integer data round trips with zero error, and any other data
gets the float nearest the exact rational value, as an inversion in
`fractions.Fraction` would give.  The supplied total mass keeps the
operation total.
"""

from __future__ import annotations

import math
from itertools import chain, islice
from typing import Mapping, NamedTuple, Sequence

from .errors import (
    ConstantGeodesic, InconsistentData, MalformedForRadon, NonFiniteValue,
)
from .metric_tree import DUST, TOL, MetricTree, TreeGeodesic, TreePoint, project_to_geodesic
from .transport import DUAL_TOL, DiscreteMeasure, _add_in_order, _sums_by_key


class Flag(NamedTuple):
    """A vertex together with an unordered pair of distinct incident edges."""

    vertex: str
    edges: tuple[str, str]

    @staticmethod
    def make(tree: MetricTree, x: str, e: str, f: str) -> "Flag":
        tree._flag_edges(x, e, f)
        return Flag(x, (e, f) if e < f else (f, e))


class VertexFunction(NamedTuple):
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
        return dict(self.values).get(v, 0.0)

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
    tree: MetricTree,
    vertex_mass: Mapping[str, float],
    edge_mass: Mapping[str, float],
    flags: Sequence[Flag] | None = None,
) -> dict[Flag, float]:
    """For every flag (x, ef), the mass off the two components of X minus x
    entered through e and f: the total minus two component masses, each of
    them the mass beyond an edge in one of its two orientations.  `flags`,
    when given, is all_flags(tree), so a caller that has it need not rebuild
    it."""
    beyond = tree.mass_beyond(vertex_mass, edge_mass)
    total = _add_in_order(vertex_mass.values()) + _add_in_order(edge_mass.values())

    def through(x: str, g: str) -> float:
        if tree.edges[g].ends[0] == x:
            return beyond[g]
        return total - beyond[g] + edge_mass.get(g, 0.0)

    return {
        flag: total - through(flag.vertex, flag.edges[0]) - through(flag.vertex, flag.edges[1])
        for flag in (all_flags(tree) if flags is None else flags)
    }


def radon_invert(
    tree: MetricTree, data: Mapping[Flag, float], total: float
) -> VertexFunction:
    """Recover a vertex function from its flag data and its total.

    Exact in integers: with S the sum of the flag values at x, T the total
    and k the valency of x, h(x) = S/(k-1) - (k-2)/2 * T.  Every float is
    an integer over a power of two, so over the largest denominator D, a
    power of two and a multiple of all the others, the vertex value is the
    single integer quotient

        (2*S' - (k-2)*(k-1)*T') / (2*(k-1) * D),

    S' = S*D and T' = T*D integers (values are read as floats).  Python
    rounds int/int division correctly, so integer-valued inputs reconstruct
    with zero error and every value is the float nearest the exact one, as
    in Fraction arithmetic.  A value beyond the float range raises
    NonFiniteValue.  The reconstruction is re-transformed and compared
    against the input; a disagreement beyond DUAL_TOL * (1 + the largest
    |value| among the data and the total) raises InconsistentData, and so
    does a missing flag, a key that is not a flag of the tree, and a NaN
    or infinite value, which no vertex function transforms to.
    """
    require_radon_tree(tree)
    if not all(math.isfinite(v) for v in (total, *data.values())):
        raise InconsistentData("Radon data and total must be finite")
    flags = all_flags(tree)
    given = [data.get(flag) for flag in flags]
    ratios = [None if v is None else float(v).as_integer_ratio() for v in given]
    t, t_den = float(total).as_integer_ratio()
    den = max([t_den] + [r[1] for r in ratios if r is not None])
    t *= den // t_den

    values: dict[str, float] = {}
    # all_flags lists the k(k-1)/2 flags of each vertex together, in vertex order.
    pairs = zip(flags, ratios)
    for x in tree.vertices:
        k = tree.valency(x)
        s = 0
        for flag, r in islice(pairs, k * (k - 1) // 2):
            if r is None:
                raise InconsistentData(f"missing flag value for {flag}")
            s += r[0] * (den // r[1])
        try:
            values[x] = (2 * s - (k - 2) * (k - 1) * t) / (2 * (k - 1) * den)
        except OverflowError:
            raise NonFiniteValue(f"non-finite value at vertex {x!r}: it exceeds the float range") from None

    h = VertexFunction.from_mapping(tree, values)
    back = _perpendicular_sums(tree, h.as_dict(), {}, flags)
    slack = DUAL_TOL * (1.0 + max(abs(float(v)) for v in (total, *data.values())))
    for flag, val in data.items():
        got = back.get(flag)
        if got is None:
            raise InconsistentData(f"{flag} is not a flag of the tree")
        if abs(got - float(val)) > slack:
            raise InconsistentData(f"flag {flag} re-transforms to {got}, input was {val}")
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


class RoundtripReport(NamedTuple):
    interior_atoms: tuple[tuple[TreePoint, float], ...]
    vertex_function: VertexFunction
    reconstructed: DiscreteMeasure
    max_error: float

    @property
    def exact(self) -> bool:
        return self.max_error <= TOL


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

    hidden = _perpendicular_sums(tree, {}, _sums_by_key((p.edge, m) for p, m in interior))

    flag_data: dict[Flag, float] = {}
    for flag in all_flags(tree):
        g = geodesic_through_flag(tree, flag)
        proj = radon_measure(tree, mu, g)
        mass_at_x = proj.mass_at(tree.vertex_point(flag.vertex))
        flag_data[flag] = mass_at_x - hidden[flag]

    h = radon_invert(tree, flag_data, 1.0 - interior_total)
    atoms = list(interior)
    for v, hv in h.values:
        if hv > DUST:
            atoms.append((tree.vertex_point(v), hv))
    reconstructed = DiscreteMeasure.from_atoms(tree, atoms)

    gaps = _sums_by_key(chain(mu.atoms, ((p, -m) for p, m in reconstructed.atoms)))
    max_err = max(abs(g) for g in gaps.values())
    return RoundtripReport(tuple(interior), h, reconstructed, max_err)
