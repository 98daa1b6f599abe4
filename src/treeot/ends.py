"""Pairs of boundary measures and the complete geodesics joining them.

Given antipodal probability measures nu-, nu+ on the ends of the tree, the
signed measure nu = nu+ - nu- drives a flow through every oriented edge
(the signed end mass lying in that orientation's future).  The flow data
decides realizability: nu-, nu+ are the ends of a complete unit geodesic in
Wasserstein space iff the transport problem with cost -D0^2 (D0 = distance
from the base point to the geodesic joining two ends) is finite, iff the
specific flows satisfy  sum_x phi0(x) d(x, x0)^2 < infinity.  On a loaded
finite tree both are automatic and the geodesic is built explicitly; the
comb generator materializes depth truncations of the classical divergent
family where antipodality alone is not enough.

Finite supports collapse "antipodal" and "uniformly antipodal" to the same
condition (disjoint supports); both flags are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .errors import (
    DiagonalMass, MarginalMismatch, NotAntipodal, NotRealizable, SolverFailure,
)
from .metric_tree import MetricTree, TreeEnd, gromov_product
from .boundary import ConeMeasure, asymptotic_measure
from .dynamics import DynamicalPlan, antagonist_pairs, pushforward_at
from .transport import MASS_TOL, _merge_atoms, solve_transport

NEUTRAL_TOL = 1e-12

# Divergence verdict thresholds for generated families: the exponent-3
# comb's partial sums grow by about 0.33 per depth doubling while convergent
# families settle below 1e-3, so 0.25 separates the regimes cleanly.
DIVERGENCE_INCREMENT = 0.25
CAUCHY_EPS = 1e-3
VERDICT_DOUBLINGS = 3


@dataclass(frozen=True)
class BoundaryMeasure:
    """Probability measure on the ends (the unit-speed slice of the cone)."""

    atoms: tuple[tuple[TreeEnd, float], ...]

    @staticmethod
    def from_atoms(tree: MetricTree, atoms) -> "BoundaryMeasure":
        kept, total = _merge_atoms((tree.end(e.edge), m) for e, m in atoms)
        if abs(total - 1.0) > MASS_TOL:
            raise MarginalMismatch(f"masses sum to {total}, expected 1")
        return BoundaryMeasure(tuple(kept))

    def support(self) -> frozenset[TreeEnd]:
        return frozenset(e for e, _ in self.atoms)

    def mass_at(self, end: TreeEnd) -> float:
        for e, m in self.atoms:
            if e == end:
                return m
        return 0.0

    def to_cone(self, tree: MetricTree) -> ConeMeasure:
        return ConeMeasure.from_atoms(tree, [(e, 1.0, m) for e, m in self.atoms])


@dataclass(frozen=True)
class AntipodalityResult:
    antipodal: bool
    uniformly_antipodal: bool
    common_ends: tuple[TreeEnd, ...]

    def __bool__(self) -> bool:
        return self.antipodal


def is_antipodal(
    tree: MetricTree, nu_minus: BoundaryMeasure, nu_plus: BoundaryMeasure
) -> AntipodalityResult:
    """Distinct ends of a tree are always joined by a geodesic, so for
    finitely supported measures antipodality and uniform antipodality both
    reduce to disjoint supports; they are reported as one flag."""
    common = tuple(sorted(nu_minus.support() & nu_plus.support(), key=lambda e: e.edge))
    disjoint = not common
    return AntipodalityResult(disjoint, disjoint, common)


# -- flows -------------------------------------------------------------------


@dataclass(frozen=True)
class FlowTable:
    """Flows of nu = nu+ - nu- through oriented edges and vertices.

    edge_flow stores the flow along each edge's canonical orientation
    (stored endpoint order for finite edges, outward for infinite ones);
    the opposite orientation is its negation.
    """

    edge_flow: Mapping[str, float]
    vertex_flow: Mapping[str, float]
    specific_flow: Mapping[str, float]

    def flow(self, eid: str, reverse: bool = False) -> float:
        f = self.edge_flow[eid]
        return -f if reverse else f

    def sign(self, eid: str, reverse: bool = False) -> str:
        f = self.flow(eid, reverse)
        if f > NEUTRAL_TOL:
            return "positive"
        if f < -NEUTRAL_TOL:
            return "negative"
        return "neutral"


def flow_table(
    tree: MetricTree, nu_minus: BoundaryMeasure, nu_plus: BoundaryMeasure
) -> FlowTable:
    """Flows through every edge and vertex, and the specific flows used by
    the realizability sum (the base-point-facing passage is discounted).

    For the canonical orientation of a finite edge, the flow is the signed
    end mass of nu = nu+ - nu- in the far component; the tree's one pass of
    rooted subtree sums yields all of them (linear in the tree size).
    """
    anti = is_antipodal(tree, nu_minus, nu_plus)
    if not anti.antipodal:
        raise NotAntipodal(f"supports share ends {anti.common_ends}")
    nu: dict[str, float] = {}
    for e, m in nu_plus.atoms:
        nu[e.edge] = nu.get(e.edge, 0.0) + m
    for e, m in nu_minus.atoms:
        nu[e.edge] = nu.get(e.edge, 0.0) - m
    edge_flow = tree.mass_beyond({}, nu)

    # Aggregation is exact; the neutral tolerance only affects sign labels.
    vertex_flow: dict[str, float] = {}
    specific: dict[str, float] = {}
    for x in tree.vertices:
        flows = {}
        for eid in tree.incident_edges(x):
            e = tree.edges[eid]
            f = edge_flow[eid]
            if not e.infinite and e.ends[0] != x:
                f = -f
            flows[eid] = f
        phi = sum(f for f in flows.values() if f > 0.0)
        vertex_flow[x] = phi
        toward = tree.toward_basepoint(x)
        specific[x] = phi if toward is None else phi - abs(flows[toward])
    return FlowTable(edge_flow, vertex_flow, specific)


# -- realizability -------------------------------------------------------------


@dataclass(frozen=True)
class RealizabilityResult:
    value: float
    verdict: str  # FINITE | DIVERGES | CONVERGES | INCONCLUSIVE
    depths: tuple[int, ...] | None = None
    partial_sums: tuple[float, ...] | None = None
    depth: int | None = None


def realizability_sum(tree: MetricTree, flow: FlowTable) -> RealizabilityResult:
    """The sum of specific flows weighted by squared base distances.

    On a loaded finite tree the sum is finite and returned with verdict
    FINITE.  On a generated tree the family's partial sums at geometrically
    spaced depths are reported together with a divergence verdict: DIVERGES
    when each of the last three doubling increments exceeds 0.25, CONVERGES
    when each stays Cauchy within 1e-3, INCONCLUSIVE otherwise; the verdict
    is a statement about the truncations up to the sampled depth only.
    """
    bp_dist = tree.basepoint_distances()
    value = sum(
        flow.specific_flow[x] * bp_dist[x] ** 2 for x in tree.vertices
    )
    family = tree.generated_by
    if family is None:
        return RealizabilityResult(value, "FINITE")
    depths = tuple(2**k for k in range(family.max_doublings + 1))
    sums = tuple(family.partial_sum(d) for d in depths)
    return RealizabilityResult(
        value, divergence_verdict(sums), depths, sums, family.depth
    )


def divergence_verdict(partial_sums: Sequence[float]) -> str:
    if len(partial_sums) < VERDICT_DOUBLINGS + 1:
        return "INCONCLUSIVE"
    incs = [
        partial_sums[k + 1] - partial_sums[k] for k in range(len(partial_sums) - 1)
    ][-VERDICT_DOUBLINGS:]
    if all(i > DIVERGENCE_INCREMENT for i in incs):
        return "DIVERGES"
    if all(abs(i) <= CAUCHY_EPS for i in incs):
        return "CONVERGES"
    return "INCONCLUSIVE"


# -- the -D0^2 transport problem -------------------------------------------------


class D0Result(NamedTuple):
    value: float  # optimal (negative) total of -D0^2
    entries: tuple[tuple[TreeEnd, TreeEnd, float], ...]


def d0_transport(
    tree: MetricTree, nu_minus: BoundaryMeasure, nu_plus: BoundaryMeasure
) -> D0Result:
    """Minimize the integral of -D0^2 over couplings of the two boundary
    measures; the transportation simplex handles the negative costs as is."""
    anti = is_antipodal(tree, nu_minus, nu_plus)
    if not anti.antipodal:
        raise NotAntipodal(f"supports share ends {anti.common_ends}")
    xs = [e for e, _ in nu_minus.atoms]
    ys = [e for e, _ in nu_plus.atoms]
    d0 = {}
    for xi in xs:
        for zeta in ys:
            d0[(xi, zeta)] = gromov_product(tree, xi, zeta)
    if any(math.isinf(v) for v in d0.values()):
        raise DiagonalMass("a support pair joins an end to itself")
    value, idx_entries, _ = solve_transport(
        xs, [m for _, m in nu_minus.atoms],
        ys, [m for _, m in nu_plus.atoms],
        lambda p, q: -(d0[(p, q)] ** 2),
    )
    return D0Result(value, tuple((xs[i], ys[j], q) for i, j, q in idx_entries))


def construct_geodesic(
    tree: MetricTree, nu_minus: BoundaryMeasure, nu_plus: BoundaryMeasure
) -> DynamicalPlan:
    """Complete unit-speed plan whose ends are nu- (t -> -inf) and nu+.

    Built by pushing a -D0^2-optimal coupling of the two boundary measures
    through the geodesic-between-ends map; each atom is parametrized to be
    nearest the base point at time 0.  The construction is self-certifying:
    unit speeds, an antagonism-free support, matching asymptotic measures
    and the second-moment identity are all checked before returning.
    """
    family = tree.generated_by
    if family is not None:
        depths = tuple(2**k for k in range(family.max_doublings + 1))
        verdict = divergence_verdict(tuple(family.partial_sum(d) for d in depths))
        if verdict == "DIVERGES":
            raise NotRealizable(
                f"realizability partial sums diverge up to depth {depths[-1]}"
            )
    d0 = d0_transport(tree, nu_minus, nu_plus)  # also checks antipodality
    plan = DynamicalPlan.from_atoms(
        tree,
        [(tree.geodesic_between_ends(xi, zeta), m) for xi, zeta, m in d0.entries],
    )
    _certify_constructed(tree, plan, nu_minus, nu_plus, d0.value)
    return plan


def _certify_constructed(tree, plan, nu_minus, nu_plus, d0_value) -> None:
    if any(abs(g.speed - 1.0) > 1e-9 for g, _ in plan.atoms):
        raise SolverFailure("constructed plan has a non-unit speed")
    if antagonist_pairs(plan):
        raise SolverFailure("constructed plan contains antagonist geodesics")
    for direction, bm in ((-1, nu_minus), (+1, nu_plus)):
        got = asymptotic_measure(plan, direction)
        want = bm.to_cone(tree)
        if not _cone_close(got, want):
            raise SolverFailure("constructed plan's ends do not match the inputs")
    m0 = pushforward_at(plan, 0.0).second_moment(tree)
    if abs(m0 - (-d0_value)) > 1e-9 * (1.0 + abs(d0_value)):
        raise SolverFailure("second moment does not match the -D0^2 optimum")


def _cone_close(a: ConeMeasure, b: ConeMeasure, tol: float = 1e-9) -> bool:
    da = {(e, s): m for e, s, m in a.atoms}
    for e, s, m in b.atoms:
        if abs(da.pop((e, s), 0.0) - m) > tol:
            return False
    return all(abs(m) <= tol for m in da.values())


# -- plan traversal masses (the flow equalities) -----------------------------------


class TraversalMasses(NamedTuple):
    edge: dict[tuple[str, int], float]  # (edge id, +1 canonical / -1 reversed)
    vertex: dict[str, float]            # mass of geodesics passing the vertex
    anchored: dict[str, float]          # mass anchored (nearest x0) at the vertex


def plan_traversal_masses(tree: MetricTree, plan: DynamicalPlan) -> TraversalMasses:
    """Edge, vertex and anchored-vertex masses of a complete plan, the
    quantities matched by the flow table when no antagonism is present."""
    edge: dict[tuple[str, int], float] = {}
    vertex: dict[str, float] = {}
    anchored: dict[str, float] = {}
    for g, m in plan.atoms:
        for eid, _, _, direction in g.traversals():
            key = (eid, direction)
            edge[key] = edge.get(key, 0.0) + m
        for _, p in g.nodes:
            if p.is_vertex():
                vertex[p.vertex] = vertex.get(p.vertex, 0.0) + m
        if not g.is_constant:
            a = g.point_at_arc(0.0)
            if a.is_vertex():
                anchored[a.vertex] = anchored.get(a.vertex, 0.0) + m
    return TraversalMasses(edge, vertex, anchored)


# -- generated combs ------------------------------------------------------------


@dataclass(frozen=True)
class CombFamily:
    """Infinite comb: unit base edges v1, v2, ..., an infinite tooth at each
    vertex, nu- on odd teeth and nu+ on even teeth with masses proportional
    to n^(-mass_exponent) (normalized per parity); base point v1."""

    mass_exponent: float
    depth: int
    max_doublings: int = 12

    def tooth_masses(self, depth: int) -> list[float]:
        return [float(n) ** (-self.mass_exponent) for n in range(1, depth + 1)]

    def partial_sum(self, depth: int) -> float:
        """Sum of specific flows times squared base distance for the depth
        truncation, from the flow definition via suffix sums."""
        raw = self.tooth_masses(depth)
        z_minus = sum(raw[n - 1] for n in range(1, depth + 1, 2))
        z_plus = sum(raw[n - 1] for n in range(2, depth + 1, 2))
        signed = [
            (raw[n - 1] / z_plus) if n % 2 == 0 else -(raw[n - 1] / z_minus)
            for n in range(1, depth + 1)
        ]
        suffix = [0.0] * (depth + 2)  # suffix[n] = sum_{k >= n} signed[k-1]
        for n in range(depth, 0, -1):
            suffix[n] = suffix[n + 1] + signed[n - 1]
        total = 0.0
        for n in range(2, depth + 1):
            outs = [-suffix[n], signed[n - 1]]
            if n < depth:
                outs.append(suffix[n + 1])
            phi = sum(f for f in outs if f > 0.0)
            phi0 = phi - abs(suffix[n])
            total += phi0 * float(n - 1) ** 2
        return total


class CombInstance(NamedTuple):
    tree: MetricTree
    nu_minus: BoundaryMeasure
    nu_plus: BoundaryMeasure


def comb_generator(depth: int, mass_exponent: float) -> CombInstance:
    """Depth truncation of the comb family.

    Needs depth >= 2 so that both parities carry mass; a one-tooth comb
    would leave the even-parity measure empty.
    """
    if depth < 2:
        raise ValueError("comb needs depth >= 2 to populate both measures")
    width = len(str(depth))
    vname = lambda n: f"v{n:0{width}d}"
    vertices = [vname(n) for n in range(1, depth + 1)]
    edges = []
    for n in range(1, depth):
        edges.append((f"b{n:0{width}d}", (vname(n), vname(n + 1)), 1.0))
    for n in range(1, depth + 1):
        edges.append((f"t{n:0{width}d}", (vname(n),), math.inf))
    tree = MetricTree(vertices, edges, vname(1))
    tree.generated_by = CombFamily(float(mass_exponent), depth)

    family = tree.generated_by
    raw = family.tooth_masses(depth)
    minus_atoms = [
        (TreeEnd(f"t{n:0{width}d}"), raw[n - 1]) for n in range(1, depth + 1, 2)
    ]
    plus_atoms = [
        (TreeEnd(f"t{n:0{width}d}"), raw[n - 1]) for n in range(2, depth + 1, 2)
    ]
    zm = sum(m for _, m in minus_atoms)
    zp = sum(m for _, m in plus_atoms)
    nu_minus = BoundaryMeasure.from_atoms(tree, [(e, m / zm) for e, m in minus_atoms])
    nu_plus = BoundaryMeasure.from_atoms(tree, [(e, m / zp) for e, m in plus_atoms])
    return CombInstance(tree, nu_minus, nu_plus)
